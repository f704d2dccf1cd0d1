import hashlib
import json

import numpy as np
import pytest

from radabound.cli import (
    EXIT_BAD_CONFIG,
    EXIT_IO_FAILURE,
    EXIT_OK,
    TRACE_HEADER,
    RunConfig,
    cmd_run_experiment,
    load_run_config,
    main,
)
from radabound.errors import ConfigurationError


def small_config_dict(output_dir, **overrides):
    cfg = {
        "experiment": {
            "m_train": 100,
            "m_holdout": 80,
            "m_fresh": 60,
            "d": 5,
            "n_biased": 1,
            "bias": 0.5,
            "seed": 7,
        },
        "guard": {
            "epsilon": 0.3,
            "delta": 0.1,
            "n_vectors": 8,
            "method": "mclt",
            "seed": 7,
        },
        "epsilon_list": [0.2, 0.3],
        "output_dir": str(output_dir),
    }
    cfg.update(overrides)
    return cfg


# A test-table value that deletes its field from the config.
MISSING = object()


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunConfig:
    def test_epsilons_default_to_guard_epsilon(self, tmp_path):
        cfg = RunConfig.from_dict(small_config_dict(tmp_path, epsilon_list=[]))
        assert cfg.epsilons == (0.3,)

    def test_epsilon_list_must_increase(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(small_config_dict(tmp_path, epsilon_list=[0.3, 0.2]))

    def test_epsilon_list_range_checked(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(small_config_dict(tmp_path, epsilon_list=[0.5, 1.5]))

    # A run is fixed by its config file alone: RADABOUND_SEED, which once
    # overrode both seeds, now changes neither seed nor a byte of output.
    def check_seed_env_var_ignored(self, tmp_path, monkeypatch, value):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_dict(out))
        assert main(["run-experiment", "--config", str(path)]) == EXIT_OK
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(first) == 3
        monkeypatch.setenv("RADABOUND_SEED", value)
        cfg = load_run_config(path)
        assert cfg.experiment.seed == cfg.guard.seed == 7
        assert main(["run-experiment", "--config", str(path)]) == EXIT_OK
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first

    def test_seed_env_override(self, tmp_path, monkeypatch):
        self.check_seed_env_var_ignored(tmp_path, monkeypatch, "42")

    def test_seed_env_override_must_be_int(self, tmp_path, monkeypatch):
        # A non-integer value is ignored too, not rejected.
        self.check_seed_env_var_ignored(tmp_path, monkeypatch, "not-a-number")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_run_config(tmp_path / "nope.json")


class TestRunExperimentCommand:
    def test_outputs_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        path_a = write_config(tmp_path, small_config_dict(out_a))
        assert main(["run-experiment", "--config", str(path_a)]) == EXIT_OK

        for eps in ("0.2", "0.3"):
            trace = out_a / f"trace_eps{eps}.csv"
            assert trace.exists()
            lines = trace.read_text().strip().split("\n")
            assert lines[0] == TRACE_HEADER
            assert len(lines) >= 2

        summary = json.loads((out_a / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        assert summary["runs"][0]["epsilon"] == 0.2
        assert sorted(summary["column_permutation"]) == list(range(5))

        # byte-identical rerun into a second directory
        (tmp_path / "cfg_b").mkdir()
        path_b = tmp_path / "cfg_b" / "config.json"
        path_b.write_text(json.dumps(small_config_dict(out_b)))
        assert main(["run-experiment", "--config", str(path_b)]) == EXIT_OK
        for name in ("trace_eps0.2.csv", "trace_eps0.3.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # summaries differ only in output_dir; compare with it normalized
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa["config"]["output_dir"] = sb["config"]["output_dir"] = ""
        assert sa == sb

    # sha256 of each dataset dump of small_config_dict's experiment.
    GOLDEN_DUMPS = {
        "train": "1042c49e82ba371d484ada2b6e7e89f3581a95e9a5d92852fd0196907a2bcc4b",
        "holdout": "afa5abe42cc756edc4141d9e5840caa3225c8457961aa999dbba0fa5cda78533",
        "fresh": "9f434ab53db00534e0faddf6e1bd2d44a313c2ded825b366cabf2d76c7765d6c",
    }

    def test_dataset_dump_emitted_on_request(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config_dict(out, epsilon_list=[], emit_dataset_dump=True)
        path = write_config(tmp_path, cfg)
        assert main(["run-experiment", "--config", str(path)]) == EXIT_OK
        for name, digest in self.GOLDEN_DUMPS.items():
            data = (out / f"dataset_{name}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_bad_config_exit_code(self, tmp_path):
        cases = [
            ("guard", "epsilon", 0.0),
            ("guard", "epsilon", "0.1"),
            ("guard", "delta", None),
            ("guard", "delta", MISSING),
            ("guard", "n_vectors", 8.7),
            ("guard", "n_vectors", True),
            ("experiment", "m_train", 10.5),
            ("experiment", "d", "5"),
            ("experiment", "n_biased", False),
            ("experiment", "variance", "4"),
            ("experiment", "bias", [0.5]),
            ("experiment", "bias", float("nan")),
            ("experiment", "variance", float("inf")),
            ("experiment", "bias", -(10**400)),
            ("experiment", "seed", 7.0),
            (None, "epsilon_list", ["0.2", "0.3"]),
            (None, "epsilon_list", 0.2),
            (None, "guard", 5),
            (None, "experiment", [1]),
            # a field of earlier versions, with a value that was valid then
            ("guard", "negation_closure", True),
            (None, "emit_dataset_dump", "no"),
            (None, "output_dir", 5),
            (None, "output_dir", "out\0dir"),
            # both would be written to trace_eps0.1.csv
            (None, "epsilon_list", [0.1, 0.1000001]),
            # misspelled fields
            ("guard", "methd", "bernstein_two_term"),
            ("experiment", "n_bias", 3),
            (None, "emit_dataset_dmp", True),
            # counts numpy cannot size an array by
            ("guard", "n_vectors", 10**30),
            ("experiment", "d", 10**30),
            ("experiment", "m_holdout", 10**30),
            ("experiment", "m_train", 2**70),
            # valid counts whose float64 arrays numpy cannot size: the sign
            # matrix (n_vectors x m_holdout) and a sample set (m_train x d)
            ("guard", "n_vectors", 2**62),
            ("experiment", "m_train", 2**60),
        ]
        for section, field, value in cases:
            cfg = small_config_dict(tmp_path / "out")
            target = cfg[section] if section else cfg
            if value is MISSING:
                del target[field]
            else:
                target[field] = value
            path = write_config(tmp_path, cfg)
            rc = main(["run-experiment", "--config", str(path)])
            assert rc == EXIT_BAD_CONFIG, (section, field, value)
            assert not (tmp_path / "out").exists(), (section, field, value)
        path = write_config(tmp_path, [small_config_dict(tmp_path / "out")])
        assert main(["run-experiment", "--config", str(path)]) == EXIT_BAD_CONFIG
        # files json cannot read: not UTF-8, or nested past the recursion limit
        for raw in (b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000):
            path.write_bytes(raw)
            assert main(["run-experiment", "--config", str(path)]) == EXIT_BAD_CONFIG, raw[:4]

    # sha256 of each trace CSV for one small config per bound method.  Any
    # change to a bound value, a guard decision or the CSV format moves them.
    # Each config halts after 20+ rows, so the halting row is pinned as well.
    GOLDEN_TRACES = {
        "mclt": {
            0.23: "6803f8a4bd17c188b6411c962bbb7650867aeddb4409167db394d3326480384a",
            0.3: "2a6130f37b5b0e86cf5d389eb6117d4ef6fd33d3201a30ec6fd785ab626e1cd9",
        },
        "bernstein_single": {
            0.29: "1d5c14d40dd5d6ea3d3bf3e3bca02244587c06bfc5128af0a36c4749c0346ea0",
            0.35: "9237424a574a7ab4de2091ba3df053e3dead3f595510c301515bb3bf4fc41d38",
        },
        "bernstein_two_term": {
            0.34: "abc996c2522a465f8e3070652b8ea5477012940dd0121cce911366a9dcbc1e44",
            0.4: "ee167a1335ea18ca22e9d69da793aea3dd46e952d337b18d13d8fadc94342e4f",
        },
        "mcdiarmid_combined": {
            0.38: "a350f154b42981135041a40281cb0acfa127355ad843f6a9faa66f72f4013090",
            0.39: "da55693200580afa17a4a25aecf29cdb72bedf4a8adabc9005e26368beb8e479",
        },
    }

    # sha256 of summary.json for the same configs.  It echoes the config, so
    # the output directory is given relative to the working directory.
    GOLDEN_SUMMARIES = {
        "mclt": "20a5eab98400579f77bcb8c774311dc82d999d19a3d8c04f1a8a1ab61ba794c3",
        "bernstein_single": "fa14059aa8e8ae00a2b784b608e943b6133baada08472fa9a091c654a9e90142",
        "bernstein_two_term": "2c39dad86af29098d517d7bf4acc0635e7b3bd1f8e20823c4746661e6c9e5eb9",
        "mcdiarmid_combined": "27cdcbee433baf1ddbfd795b80a99423f304d443b5e674450e7c1b64214f2f86",
    }

    @pytest.mark.parametrize("method", sorted(GOLDEN_TRACES))
    def test_golden_trace_bytes(self, tmp_path, monkeypatch, method):
        monkeypatch.chdir(tmp_path)
        golden = self.GOLDEN_TRACES[method]
        cfg = small_config_dict("out", epsilon_list=sorted(golden))
        cfg["experiment"] = {
            "m_train": 300, "m_holdout": 300, "m_fresh": 300, "d": 40,
            "variance": 4.0, "n_biased": 3, "bias": 0.5, "seed": 3,
        }
        cfg["guard"].update(epsilon=max(golden), method=method, seed=3)
        assert main(["run-experiment", "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
        halts = 0
        for eps, digest in golden.items():
            data = (tmp_path / "out" / f"trace_eps{eps:g}.csv").read_bytes()
            rows = data.decode().splitlines()[1:]
            assert len(rows) >= 20
            halts += rows[-1].endswith(",true")
            assert hashlib.sha256(data).hexdigest() == digest, eps
        assert halts >= 1
        summary = (tmp_path / "out" / "summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == self.GOLDEN_SUMMARIES[method]

    @pytest.mark.parametrize("real", [np.float32, np.float16])
    def test_numpy_tolerances_write_the_float_bytes(self, tmp_path, monkeypatch, real):
        # A config built from numpy numbers keeps Python numbers, so it
        # writes the bytes of a JSON config holding those values as floats.
        def config(convert, integral):
            cfg = small_config_dict("out", epsilon_list=[convert(0.2), convert(0.3)])
            cfg["experiment"].update(variance=integral(4), bias=convert(0.5))
            cfg["guard"].update(epsilon=convert(0.3), delta=convert(0.1))
            return cfg

        typed = RunConfig.from_dict(config(real, np.int64))
        plain = config(lambda value: float(real(value)), int)
        assert typed == RunConfig.from_dict(plain)
        assert {type(e) for e in (*typed.epsilon_list, typed.guard.delta)} == {float}

        def run(name, command):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert command() == EXIT_OK
            return {f.name: f.read_bytes() for f in (tmp_path / name / "out").iterdir()}

        path = str(write_config(tmp_path, plain))
        written = run("plain", lambda: main(["run-experiment", "--config", path]))
        assert run("typed", lambda: cmd_run_experiment(typed)) == written
        assert len(written) == 3
        # The JSON 4 is written back as 4, not 4.0.
        assert b'"variance": 4\n' in written["summary.json"]

    def test_halt_on_first_query_writes_null_loss(self, tmp_path):
        # eps 0.05 halts on the baseline query, before any loss is released.
        cfg = small_config_dict(tmp_path / "out", epsilon_list=[0.05, 0.6])
        cfg["guard"].update(epsilon=0.6, method="bernstein_two_term")
        assert main(["run-experiment", "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "out" / "summary.json").read_text()
        first, last = json.loads(text, parse_constant=reject)["runs"]
        assert (first["halt_index"], first["n_queries"]) == (1, 1)
        assert first["final_holdout_loss"] is None
        assert isinstance(last["final_holdout_loss"], float)

    def test_missing_config_exit_code(self, tmp_path):
        assert (
            main(["run-experiment", "--config", str(tmp_path / "nope.json")])
            == EXIT_BAD_CONFIG
        )

    def test_output_dir_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory")
        path = write_config(tmp_path, small_config_dict(out))
        assert main(["run-experiment", "--config", str(path)]) == EXIT_IO_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and "File exists" in err
        assert out.read_text() == "not a directory"

    def test_unallocatable_dataset_exit_code(self, tmp_path, capsys):
        # A valid spec whose 10**8 x 10**5 training matrix (72.8 TiB) numpy
        # refuses outright, before anything is drawn or touched.
        cfg = small_config_dict(tmp_path / "out")
        cfg["experiment"].update(m_train=10**8, m_holdout=2, m_fresh=2, d=10**5)
        path = write_config(tmp_path, cfg)
        assert main(["run-experiment", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestCompareBoundsCommand:
    def test_default_table(self, capsys):
        assert main(["compare-bounds"]) == EXIT_OK
        out = capsys.readouterr().out
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "24ecd083958c2652b8a8278dfab458081b04f7cd9dcb4b861307c496afa46109"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "l,mcdiarmid,bernstein,mclt"
        assert len(lines) == 7  # l in {2, 4, 8, 16, 32, 64}
        for line in lines[1:]:
            _, mcd, bern, mclt = map(float, line.split(","))
            assert mclt <= bern <= mcd

    def test_single_l_override(self, capsys):
        assert main(["compare-bounds", "--l", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("1,")
        # Each count gives one row, powers of two or not, in the order given.
        assert main(["compare-bounds", "--l", "3", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("3,") and lines[2].startswith("5,")
        # --l with no value is an argparse usage error.
        with pytest.raises(SystemExit) as exc:
            main(["compare-bounds", "--l"])
        assert exc.value.code == 2

    def test_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["compare-bounds", "--output", str(out)]) == EXIT_OK
        assert out.read_text().startswith("l,mcdiarmid,bernstein,mclt\n")
        args = ["--m", "2500", "--eps", "0.02", "--l", "4", "8", "16", "32", "64"]
        assert main(["compare-bounds", *args, "--output", str(out)]) == EXIT_OK
        assert (
            hashlib.sha256(out.read_bytes()).hexdigest()
            == "8b1ad1bdee0a1983150aa66eed1a55fde4185b425138ee969154bdfe7cc44fe3"
        )

    def test_huge_finite_eps(self, capsys):
        # eps squared overflows, but every bound is 0 long before.
        args = ["--eps", "1e308", "--m", "10", "--l", "2"]
        assert main(["compare-bounds", *args]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "2,0,0,0"

    def test_bad_eps_exit_code(self, capsys):
        cases = [
            ["--eps", "0"],
            ["--eps", "inf"],
            # counts beyond MAX_COUNT, which no float conversion survives
            ["--m", str(10**400)],
            ["--l", str(10**400)],
            # a bad count after a good one
            ["--l", "4", str(2**1100)],
        ]
        for args in cases:
            assert main(["compare-bounds", *args]) == EXIT_BAD_CONFIG, args
            assert "error" in capsys.readouterr().err, args

    def test_output_in_missing_directory_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.csv"
        assert main(["compare-bounds", "--output", str(out)]) == EXIT_IO_FAILURE
        assert capsys.readouterr().err.startswith("io error: ")
        assert not out.parent.exists()


class TestThresholdoutSizeCommand:
    def test_worked_example_reports_both_numbers(self, capsys):
        rc = main(
            [
                "thresholdout-size",
                "--k", "10", "--b", "1", "--eps", "0.5", "--delta", "0.1",
            ]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["formula_n"] == pytest.approx(3.68e4, rel=1e-2)
        assert report["paper_printed_n"] == 3.7e6
        assert report["radabound_m"] == 4000
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "913a46620e00697512d03d8a6d24556aa312d83ba7824cdc631f6cdc3a061ca2"
        )

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["thresholdout-size", "--k", "10"])
        assert exc.value.code == 2

    def test_bad_params_exit_code(self, capsys):
        cases = [
            {"--k": "0"},
            {"--k": str(10**400)},
            # the formula leaves float range: eps**-2 overflows, or
            # eps * delta underflows to 0
            {"--eps": "1e-200"},
            {"--eps": "1e-150", "--delta": "1e-300"},
        ]
        for case in cases:
            flags = {"--k": "10", "--b": "1", "--eps": "0.5", "--delta": "0.1", **case}
            args = [token for flag in flags.items() for token in flag]
            assert main(["thresholdout-size", *args]) == EXIT_BAD_CONFIG, case
            assert "error" in capsys.readouterr().err, case
