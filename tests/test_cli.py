import hashlib
import json

import pytest

from radabound.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    TRACE_HEADER,
    RunConfig,
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

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, small_config_dict(tmp_path))
        monkeypatch.setenv("RADABOUND_SEED", "42")
        cfg = load_run_config(path)
        assert cfg.experiment.seed == 42
        assert cfg.guard.seed == 42

    def test_seed_env_override_must_be_int(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, small_config_dict(tmp_path))
        monkeypatch.setenv("RADABOUND_SEED", "not-a-number")
        with pytest.raises(ConfigurationError):
            load_run_config(path)

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

    def test_dataset_dump_emitted_on_request(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config_dict(out, epsilon_list=[], emit_dataset_dump=True)
        path = write_config(tmp_path, cfg)
        assert main(["run-experiment", "--config", str(path)]) == EXIT_OK
        for name in ("train", "holdout", "fresh"):
            assert (out / f"dataset_{name}.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cases = [
            ("guard", "epsilon", 0.0),
            ("guard", "epsilon", "0.1"),
            ("guard", "delta", None),
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
            ("guard", "negation_closure", "no"),
            (None, "emit_dataset_dump", "no"),
            (None, "output_dir", 5),
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
        ]
        for section, field, value in cases:
            cfg = small_config_dict(tmp_path / "out")
            (cfg[section] if section else cfg)[field] = value
            path = write_config(tmp_path, cfg)
            rc = main(["run-experiment", "--config", str(path)])
            assert rc == EXIT_BAD_CONFIG, (section, field, value)
            assert not (tmp_path / "out").exists(), (section, field, value)
        path = write_config(tmp_path, [small_config_dict(tmp_path / "out")])
        assert main(["run-experiment", "--config", str(path)]) == EXIT_BAD_CONFIG

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

    @pytest.mark.parametrize("method", sorted(GOLDEN_TRACES))
    def test_golden_trace_bytes(self, tmp_path, method):
        golden = self.GOLDEN_TRACES[method]
        cfg = small_config_dict(tmp_path / "out", epsilon_list=sorted(golden))
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


class TestCompareBoundsCommand:
    def test_default_table(self, capsys):
        assert main(["compare-bounds"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
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

    def test_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["compare-bounds", "--output", str(out)]) == EXIT_OK
        assert out.read_text().startswith("l,mcdiarmid,bernstein,mclt\n")

    def test_bad_eps_exit_code(self, capsys):
        assert main(["compare-bounds", "--eps", "0"]) == EXIT_BAD_CONFIG
        assert "error" in capsys.readouterr().err


class TestThresholdoutSizeCommand:
    def test_worked_example_reports_both_numbers(self, capsys):
        rc = main(
            [
                "thresholdout-size",
                "--k", "10", "--b", "1", "--eps", "0.5", "--delta", "0.1",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["formula_n"] == pytest.approx(3.68e4, rel=1e-2)
        assert report["paper_printed_n"] == 3.7e6
        assert report["radabound_m"] == 4000

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["thresholdout-size", "--k", "10"])
        assert exc.value.code == 2

    def test_bad_params_exit_code(self, capsys):
        rc = main(
            [
                "thresholdout-size",
                "--k", "0", "--b", "1", "--eps", "0.5", "--delta", "0.1",
            ]
        )
        assert rc == EXIT_BAD_CONFIG
