import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from radabound import synthdata
from radabound.cli import write_dataset_csv
from radabound.errors import ConfigurationError
from radabound.seeding import seed_substream
from radabound.synthdata import (
    _COPY_BLOCK_ROWS,
    DatasetSpec,
    LabeledDataset,
    generate,
    standard_normals,
)


class TestDatasetSpec:
    def test_round_trip(self):
        spec = DatasetSpec(
            m_train=10, m_holdout=20, m_fresh=30, d=5, variance=2.0,
            n_biased=2, bias=0.3, seed=7,
        )
        assert DatasetSpec.from_dict(json.loads(json.dumps(dataclasses.asdict(spec)))) == spec

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(m_train=0, m_holdout=1, m_fresh=1, d=1)
        with pytest.raises(ConfigurationError):
            DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=0)
        with pytest.raises(ConfigurationError):
            DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=2, variance=0.0)
        with pytest.raises(ConfigurationError):
            DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=2, n_biased=3)
        with pytest.raises(ConfigurationError):
            DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=2, seed=-1)

    def test_numpy_variance_and_bias_kept_as_python_numbers(self):
        base = dict(m_train=50, m_holdout=40, m_fresh=30, d=6, n_biased=2, seed=5)
        typed = DatasetSpec(**base, variance=np.float32(2.5), bias=np.float32(0.7))
        plain = DatasetSpec(**base, variance=2.5, bias=float(np.float32(0.7)))
        assert typed == plain and type(typed.variance) is type(typed.bias) is float
        for a, b in zip(generate(typed), generate(plain)):
            assert a.features.tobytes() == b.features.tobytes()
        # An integral value stays an int, so a JSON 4 is written back as 4.
        spec = DatasetSpec(**base, variance=np.int64(4), bias=np.int8(-1))
        assert (type(spec.variance), type(spec.bias)) == (int, int)
        assert (spec.variance, spec.bias) == (4, -1)

    def test_integral_bias_shifts_by_its_float(self):
        # An integral bias stays an int, and one beyond int64 must not
        # overflow in numpy: it shifts by the float it rounds to.
        base = dict(m_train=5, m_holdout=5, m_fresh=5, d=3, n_biased=1)
        for bias in (2**62, 2**63, -(2**63), 10**300):
            spec = DatasetSpec(**base, bias=bias)
            assert type(spec.bias) is int
            rounded = DatasetSpec(**base, bias=float(bias))
            for a, b in zip(generate(spec), generate(rounded)):
                assert a.features.tobytes() == b.features.tobytes(), bias
                assert a.labels.tobytes() == b.labels.tobytes(), bias

    def test_values_beyond_float_range_rejected(self):
        # Fraction.__float__ raises OverflowError here; the check does not.
        for bad in (Fraction(10**400), Fraction(-(10**400), 3)):
            for name in ("variance", "bias"):
                with pytest.raises(ConfigurationError):
                    DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=2, **{name: bad})


class TestNormalSampler:
    def test_moments(self):
        n = 10**6
        x = standard_normals(np.random.default_rng(1), n)
        assert abs(x.mean()) <= 4.0 / np.sqrt(n)
        assert abs(x.var() - 1.0) <= 0.05

    def test_kolmogorov_smirnov(self):
        n = 10**5
        x = np.sort(standard_normals(np.random.default_rng(2), n))
        cdf = np.array([0.5 * math.erfc(-float(v) / math.sqrt(2.0)) for v in x])
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max())
        assert ks <= 1.63 / np.sqrt(n)  # 1% critical value

    def test_deterministic(self):
        a = standard_normals(np.random.default_rng(3), 1000)
        b = standard_normals(np.random.default_rng(3), 1000)
        assert np.array_equal(a, b)

    # sha256 of the output bytes.  Any change to the sampler's arithmetic or
    # to how it consumes the uniform stream moves them.
    GOLDEN = {
        1: "98a3246ff76532c89e8263df9de3c0495b077d3db0553b1b4887d343d301a384",
        7: "b24daf21972c0c882e1a03242b23e1de47f5f701b216b310ce8c5d1fafcb9b3a",
        100001: "d744c49f1d0cde754106d52968a4bd55734567a839d3bc301598c96f5a85c01b",
    }

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_golden_bytes(self, n):
        x = standard_normals(np.random.default_rng(12345), n)
        assert x.shape == (n,)
        assert hashlib.sha256(x.tobytes()).hexdigest() == self.GOLDEN[n]

    # The generator's next 63-bit integer after each GOLDEN call: the sampler
    # must leave the stream past every uniform it drew, u and v alike.
    STATE_AFTER = {
        1: 4452689775492681433,
        7: 6922429699773347402,
        100001: 3796232267771620140,
    }

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_generator_state_after_call(self, n):
        rng = np.random.default_rng(12345)
        standard_normals(rng, n)
        assert int(rng.integers(2**63)) == self.STATE_AFTER[n]

    def test_buffered_half_draw_survives_call(self):
        # A 32-bit draw buffers the other half of its 64-bit output.  The
        # uniforms never read it, so the next 32-bit draw still takes it.
        rng = np.random.default_rng(12345)
        rng.integers(2**31 - 1, dtype=np.int32)
        standard_normals(rng, 7)
        assert int(rng.integers(2**31 - 1, dtype=np.int32)) == 488200390

    def test_count_must_be_a_non_negative_integer(self):
        for n in (-1, 2.5, 3.0, True, None, "3"):
            with pytest.raises(ConfigurationError, match="n must be"):
                standard_normals(np.random.default_rng(0), n)
        # 0 and numpy integers pass; a numpy integer gives the bytes of the int.
        for n in (0, 7, 1000):
            got = standard_normals(np.random.default_rng(4), np.int64(n))
            assert got.shape == (n,)
            assert got.tobytes() == standard_normals(np.random.default_rng(4), n).tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                               np.random.Philox])
    def test_bit_generator_without_64_bit_advance_rejected(self, bit_generator):
        # MT19937 and SFC64 have no advance(); Philox's counts 4-word blocks.
        rng = np.random.Generator(bit_generator(12345))
        with pytest.raises(ConfigurationError, match="PCG64 or PCG64DXSM"):
            standard_normals(rng, 7)

    # With 2 values a pair, a batch of int(f n) + 32 pairs gives at most
    # 2 f n + 64 values: fewer than n at f = 0.1 and 0.3 for n = 1000 and
    # 50000, so those calls need later batches.  Besides standard_normals,
    # the sampler itself fills caller buffers of 7 values, of more than two
    # sampler blocks and, but for the largest n, of 1 value.
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("factor", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("n", [1, 7, 1000, 50000])
    def test_equals_plain_reference(self, monkeypatch, bit_generator, factor, n):
        monkeypatch.setattr(synthdata, "_BATCH_PAIRS_PER_VALUE", factor)

        def start():
            rng = np.random.Generator(bit_generator(12345))
            rng.integers(2**31 - 1, dtype=np.int32)  # buffers the other half
            return rng

        def next_halves(rng):
            # The buffered half, then a half of the next 64-bit draw.
            return [int(rng.integers(2**31 - 1, dtype=np.int32)) for _ in range(2)]

        want_rng = start()
        want = plain_polar(want_rng, n).tobytes()
        want_next = next_halves(want_rng)
        rng = start()
        assert standard_normals(rng, n).tobytes() == want
        assert next_halves(rng) == want_next
        sizes = [7, 2 * synthdata._SAMPLER_BLOCK + 1] + ([1] if n <= 1000 else [])
        for size in sizes:
            rng, out = start(), np.empty(size)
            sampler = synthdata._polar_fill(rng, n, out, synthdata._sampler_buffers())
            chunks = [out[:held].copy() for held in sampler]
            assert len(chunks) == math.ceil(n / size), size
            assert all(chunk.size == size for chunk in chunks[:-1]), size
            assert np.concatenate(chunks).tobytes() == want, size
            assert next_halves(rng) == want_next, size


def plain_polar(rng, n):
    """``standard_normals`` by its definition: each batch draws all its u,
    then all its v, and the accepted pairs give (u * f, v * f) in order."""
    values = []
    filled = 0
    while filled < n:
        batch = int((n - filled) * synthdata._BATCH_PAIRS_PER_VALUE) + 32
        u = rng.uniform(-1.0, 1.0, size=batch)
        v = rng.uniform(-1.0, 1.0, size=batch)
        s = u * u + v * v
        keep = (s < 1.0) & (s > 0.0)
        factor = np.sqrt(-2.0 * np.log(s[keep]) / s[keep])
        pairs = np.column_stack([u[keep] * factor, v[keep] * factor]).reshape(-1)
        values.append(pairs[: n - filled])
        filled += values[-1].size
    return np.concatenate(values)


class TestGenerate:
    def test_bit_identical_reruns(self):
        spec = DatasetSpec(m_train=40, m_holdout=30, m_fresh=20, d=6, seed=11)
        a = generate(spec)
        b = generate(spec)
        for da, db in zip(a, b):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)
        assert np.array_equal(a.column_permutation, b.column_permutation)

    def test_shapes_and_labels(self):
        spec = DatasetSpec(m_train=12, m_holdout=8, m_fresh=5, d=3, seed=1)
        data = generate(spec)
        assert data.train.features.shape == (12, 3)
        assert data.holdout.features.shape == (8, 3)
        assert data.fresh.features.shape == (5, 3)
        for ds in data:
            assert set(np.unique(ds.labels)) <= {-1, 1}
        assert sorted(data.column_permutation) == [0, 1, 2]

    def test_sets_are_distinct(self):
        spec = DatasetSpec(m_train=10, m_holdout=10, m_fresh=10, d=4, seed=5)
        data = generate(spec)
        assert not np.array_equal(data.train.features, data.holdout.features)
        assert not np.array_equal(data.holdout.features, data.fresh.features)

    def test_seed_changes_data(self):
        base = dict(m_train=10, m_holdout=10, m_fresh=10, d=4)
        a = generate(DatasetSpec(**base, seed=0))
        b = generate(DatasetSpec(**base, seed=1))
        assert not np.array_equal(a.train.features, b.train.features)

    def test_variance_scaling(self):
        base = dict(m_train=2000, m_holdout=1, m_fresh=1, d=10, seed=4)
        unit = generate(DatasetSpec(**base, variance=1.0))
        wide = generate(DatasetSpec(**base, variance=4.0))
        assert np.allclose(wide.train.features, 2.0 * unit.train.features)

    def test_no_signal_correlations_near_zero(self):
        n = 20000
        spec = DatasetSpec(m_train=n, m_holdout=1, m_fresh=1, d=8, seed=9)
        data = generate(spec)
        corr = data.train.features.T @ data.train.labels / n
        # each coordinate is a mean of n products with unit variance
        assert np.all(np.abs(corr) <= 4.0 / np.sqrt(n))

    def test_biased_columns_carry_signal(self):
        n = 20000
        bias = 0.4
        spec = DatasetSpec(
            m_train=n, m_holdout=1, m_fresh=1, d=6, n_biased=2, bias=bias, seed=9
        )
        data = generate(spec)
        corr = data.train.features.T @ data.train.labels / n
        biased_cols = [
            int(np.where(data.column_permutation == j)[0][0]) for j in range(2)
        ]
        for j in range(6):
            target = bias if j in biased_cols else 0.0
            assert abs(corr[j] - target) <= 4.0 / np.sqrt(n)

    # sha256 of each set's feature bytes and labels.  Each set's 1501 x 41
    # normals span several sampler blocks and end in a partial one.
    MULTI_BLOCK_GOLDEN = {
        "train": (
            "89f9de5ba1aece7ca12002c50689483952569d9df83031db89b9a261d0133bf3",
            "1b4dfd2328fe711304ecc0abbd63f30412582bfd82590c1235173a83a303108e",
        ),
        "holdout": (
            "ed6dd8d025efa1c835d44924c28146dc2077b89f48d44261c23af64ddd5027b1",
            "60639db18538b655e127d8f096b70dd3eed45187a6e9c452b63ae559fa990f82",
        ),
        "fresh": (
            "cdf090b49cae317e1c56634d1b8e519d6970430e03b299f442c2284e605dbfa0",
            "e30eb8c26263374b65a6ba8ec9e6fe44f59da4d7f8a87e4e660bb03a5287c1c5",
        ),
    }

    def test_golden_bytes_multi_block(self):
        spec = DatasetSpec(
            m_train=1501, m_holdout=1501, m_fresh=1501, d=41, variance=4.0,
            n_biased=4, bias=0.5, seed=3,
        )
        data = generate(spec)
        for name, ds in zip(("train", "holdout", "fresh"), data):
            # Column-major, so the learner's per-feature gathers are contiguous.
            assert ds.features.flags.f_contiguous
            features = hashlib.sha256(ds.features.tobytes(order="A")).hexdigest()
            labels = hashlib.sha256(ds.labels.astype("<i8").tobytes()).hexdigest()
            assert (features, labels) == self.MULTI_BLOCK_GOLDEN[name]

    def test_permutation_from_own_substream(self):
        spec = DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=50, seed=21)
        data = generate(spec)
        expected = seed_substream(21, "permutation").permutation(50)
        assert np.array_equal(data.column_permutation, expected)


def serial_reference(spec):
    """generate's sets drawn the plain way: each set's whole n x d sample
    from ``standard_normals``, scaled, shifted and permuted at once."""
    label_rng = seed_substream(spec.seed, "labels")
    perm = seed_substream(spec.seed, "permutation").permutation(spec.d)
    sets = []
    for name, n in (
        ("train", spec.m_train), ("holdout", spec.m_holdout), ("fresh", spec.m_fresh)
    ):
        labels = 2 * label_rng.integers(0, 2, size=n) - 1
        features = standard_normals(seed_substream(spec.seed, name), n * spec.d)
        features = features.reshape(n, spec.d)
        features *= math.sqrt(spec.variance)
        if spec.n_biased > 0:
            features[:, : spec.n_biased] += spec.bias * labels[:, None]
        sets.append((features[:, perm], labels))
    return sets, perm


def assert_same_bytes(data, reference):
    sets, perm = reference
    assert np.array_equal(data.column_permutation, perm)
    for ds, (features, labels) in zip(data, sets):
        # Column-major, so the learner's per-feature gathers are contiguous.
        assert ds.features.flags.f_contiguous
        assert ds.features.shape == features.shape
        assert ds.features.tobytes(order="F") == features.tobytes(order="F")
        assert ds.labels.tobytes() == labels.tobytes()


# Shapes that cross generate's boundaries: set sizes that are and are not
# multiples of the copy buffer's rows, a set of 1 row, d = 1, n_biased of 0
# and of d, variance other than 1, and samples from below one sampler block
# (5 x 3 normals) to several (1501 x 41 normals: a batch of 43110 candidate
# pairs, walked in 3 blocks).  A sample never needs a second batch: a batch yields
# about 1.1 n + 50 values, more than 7 sd above the n needed for every n.
# TestNormalSampler reaches later batches with a smaller batch factor.
REFERENCE_SPECS = [
    dict(m_train=5, m_holdout=3, m_fresh=1, d=3),
    dict(m_train=300, m_holdout=_COPY_BLOCK_ROWS, m_fresh=129, d=1,
         variance=2.5, n_biased=1, bias=0.7),
    dict(m_train=1501, m_holdout=257, m_fresh=1, d=41, variance=4.0,
         n_biased=4, bias=0.5),
    dict(m_train=1, m_holdout=700, m_fresh=333, d=100, variance=0.3,
         n_biased=100, bias=-1.25),
]


@pytest.mark.parametrize("fields", REFERENCE_SPECS)
def test_generate_equals_serial_reference(fields):
    spec = DatasetSpec(**fields, seed=13)
    assert_same_bytes(generate(spec), serial_reference(spec))


class TestGenerateThreads:
    SPEC = DatasetSpec(m_train=300, m_holdout=200, m_fresh=100, d=7, n_biased=2,
                       bias=0.5, variance=2.0, seed=17)

    def test_worker_failure_reaches_caller(self, monkeypatch):
        set_steps = synthdata._set_steps

        def failing(spec, name, *args):
            if name == "holdout":
                raise RuntimeError("holdout failed")
            return (yield from set_steps(spec, name, *args))

        monkeypatch.setattr(synthdata, "_set_steps", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="holdout failed"):
            generate(self.SPEC)
        assert threading.active_count() == before

    def test_first_failure_in_set_order_is_raised(self, monkeypatch):
        # Fresh fails too, but train's error is the one raised, after every
        # worker has been joined.
        set_steps = synthdata._set_steps

        def failing(spec, name, *args):
            if name in ("train", "fresh"):
                raise RuntimeError(f"{name} failed")
            return (yield from set_steps(spec, name, *args))

        monkeypatch.setattr(synthdata, "_set_steps", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="train failed"):
            generate(self.SPEC)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_bytes_and_threads_at_every_cpu_count(self, monkeypatch, cpus):
        # min(3, cpus) workers, the calling thread among them: on one CPU no
        # thread starts.
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(synthdata, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(synthdata.threading, "Thread", CountingThread)
        spec = dataclasses.replace(self.SPEC, m_train=1501, d=41)
        assert_same_bytes(generate(spec), serial_reference(spec))
        assert len(started) == min(3, cpus) - 1

    @pytest.mark.parametrize("reported, expected", [(2, 2), (None, 1)])
    def test_cpu_count_without_sched_getaffinity(self, monkeypatch, reported, expected):
        # macOS and Windows have no os.sched_getaffinity: the count falls
        # back to os.cpu_count(), or one CPU when that is unknown.
        monkeypatch.delattr(synthdata.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(synthdata.os, "cpu_count", lambda: reported)
        assert synthdata._cpu_count() == expected
        spec = dataclasses.replace(self.SPEC, m_train=1501, d=41)
        assert_same_bytes(generate(spec), serial_reference(spec))

    def test_failed_set_stops_and_the_others_finish(self, monkeypatch):
        # On two CPUs holdout fails on its first step and train on its
        # twentieth; fresh still finishes, and train's error is raised.
        set_steps = synthdata._set_steps
        finished = []

        def failing(spec, name, *args):
            steps = set_steps(spec, name, *args)
            if name == "holdout":
                raise RuntimeError("holdout failed")
            if name == "train":
                for _ in range(19):
                    yield next(steps)
                raise RuntimeError("train failed")
            result = yield from steps
            finished.append(name)
            return result

        monkeypatch.setattr(synthdata, "_cpu_count", lambda: 2)
        monkeypatch.setattr(synthdata, "_set_steps", failing)
        spec = dataclasses.replace(self.SPEC, m_train=3000)  # 24 steps
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="train failed"):
            generate(spec)
        assert threading.active_count() == before
        assert finished == ["fresh"]

    def test_interrupt_stops_the_other_workers(self, monkeypatch):
        # The other workers each hold a set, waiting, until the calling
        # thread's step is interrupted; then each stops after at most one
        # more step, no set finishes, and every worker is joined.
        set_steps = synthdata._set_steps
        caller = threading.current_thread()
        interrupted = threading.Event()
        worker_steps = []
        finished = []

        def interruptible(spec, name, *args):
            for _ in set_steps(spec, name, *args):
                if threading.current_thread() is caller:
                    interrupted.set()
                    raise KeyboardInterrupt
                interrupted.wait(timeout=60)
                worker_steps.append(name)
                yield
            finished.append(name)

        monkeypatch.setattr(synthdata, "_cpu_count", lambda: 3)
        monkeypatch.setattr(synthdata, "_set_steps", interruptible)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            generate(dataclasses.replace(self.SPEC, m_train=3000))
        assert threading.active_count() == before
        assert len(worker_steps) <= 2 and finished == []

    def test_import_does_not_load_thread_pool(self):
        # Importing the package loads neither concurrent.futures nor, with
        # it, logging, so it stays light.
        # The child imports the same copy of the package as this process.
        package_parent = str(Path(synthdata.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {package_parent!r}); import radabound; "
            "assert 'concurrent.futures' not in sys.modules, radabound.__file__"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize(
        "statement, loaded",
        [
            ("import radabound", set()),
            (
                "from radabound import guard",
                {"errors", "bounds", "seeding", "rademacher", "guard"},
            ),
            (
                "import radabound.cli",
                {"errors", "bounds", "seeding", "rademacher", "guard",
                 "synthdata", "harness", "cli"},
            ),
        ],
    )
    def test_import_loads_only_the_submodules_used(self, statement, loaded):
        # The package loads a submodule on first use of one of its names, so
        # a guard-only program never compiles the learner, the generator or
        # Thresholdout, and the CLI loads Thresholdout only for its command.
        package_parent = str(Path(synthdata.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {package_parent!r}); {statement}; "
            "print(' '.join(m for m in sys.modules if m.startswith('radabound.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        ).stdout
        assert set(out.split()) == {f"radabound.{name}" for name in loaded}

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-bounds"],
            ["thresholdout-size", "--k", "10", "--b", "1", "--eps", "0.5", "--delta", "0.1"],
        ],
    )
    def test_bound_commands_do_not_load_numpy_random(self, argv):
        # These commands draw nothing, so they skip numpy.random's import
        # and the secrets, hmac and _hashlib modules it pulls in.
        package_parent = str(Path(synthdata.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {package_parent!r}); import numpy; "
            "print('numpy.random' in sys.modules); "
            f"from radabound import cli; assert cli.main({argv!r}) == 0; "
            "print('numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        ).stdout.split("\n")
        if out[0] == "True":
            pytest.skip("this numpy loads numpy.random on import")
        assert out[-2] == "False"

    def test_pool_thread_allocates_little(self):
        # A thread's malloc arena keeps what the thread frees, so a set drawn
        # off the calling thread writes into buffers the caller made, and
        # allocates only the sampler's per-block index and its result checks.
        n, d = 4000, 500
        spec = DatasetSpec(m_train=n, m_holdout=n, m_fresh=n, d=d, variance=4.0,
                           n_biased=50, bias=0.5)
        labels = 2 * np.random.default_rng(0).integers(0, 2, size=n) - 1
        features = np.empty((n, d), order="F")
        inverse = np.argsort(np.random.default_rng(1).permutation(d))
        steps = synthdata._set_steps(
            spec, "train", labels, features, inverse,
            np.empty(_COPY_BLOCK_ROWS * d), synthdata._sampler_buffers(),
        )
        done = []
        worker = threading.Thread(target=lambda: done.append(sum(1 for _ in steps)))
        tracemalloc.start()
        try:
            worker.start()
            worker.join(timeout=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not worker.is_alive()
        # Every step ran: one a full or final row buffer.
        assert done == [math.ceil(n / _COPY_BLOCK_ROWS)]
        assert peak < 512 * 1024

    def test_small_sets_get_small_buffers(self):
        # Each set's row buffer holds at most its own n rows: 128 rows per
        # set would be 3 x 128 x 20000 doubles, 59 MiB, for 0.48 MB of data.
        spec = DatasetSpec(m_train=1, m_holdout=1, m_fresh=1, d=20000)
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024

    def test_paper_scale_peak_above_results(self):
        # Each flush writes its row buffer through the inverse permutation
        # straight into the result: no per-set gather buffer of 128 x 500
        # doubles (0.49 MiB) is held beside it.
        spec = DatasetSpec(m_train=4000, m_holdout=4000, m_fresh=4000, d=500,
                           variance=4.0, n_biased=50, bias=0.5)
        generate(spec)  # warm-up: numpy's first-call allocations
        tracemalloc.start()
        try:
            data = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results = sum(s.features.nbytes + s.labels.nbytes for s in data)
        assert peak - results < 5.75 * 2**20

    def test_threads_joined_after_success(self):
        before = threading.active_count()
        generate(self.SPEC)
        assert threading.active_count() == before

    def test_concurrent_calls_match_serial_bytes(self):
        reference = serial_reference(self.SPEC)
        results = [None] * 4
        interval = sys.getswitchinterval()

        def call(i):
            results[i] = generate(self.SPEC)

        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for data in results:
            assert_same_bytes(data, reference)


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LabeledDataset(features=np.zeros((2, 2)), labels=np.array([1, 0]))
        with pytest.raises(ConfigurationError):
            LabeledDataset(features=np.zeros((2, 2)), labels=np.array([1, -1, 1]))
        with pytest.raises(ConfigurationError, match=r"\(n, d\)"):
            LabeledDataset(features=np.zeros(2), labels=np.array([1, -1]))
        for features, labels in [
            (np.array([["a", "b"], ["c", "d"]]), np.array([1, -1])),
            (np.zeros((2, 2)), np.array(["1", "-1"])),
            (np.zeros((2, 2)), np.array([1, -1], dtype=object)),
        ]:
            with pytest.raises(ConfigurationError, match="must be numeric"):
                LabeledDataset(features=features, labels=labels)
        with pytest.raises(ConfigurationError, match="features must not be ragged"):
            LabeledDataset(features=[[1.0, 2.0], [3.0]], labels=[1, -1])
        # Bool labels hold no -1, even when all are True; bool features are valid.
        for labels in ([True, True], [True, False]):
            with pytest.raises(ConfigurationError, match=r"labels must be -1 or \+1"):
                LabeledDataset(features=[[True, False], [False, True]], labels=labels)
        LabeledDataset(features=[[True, False], [False, True]], labels=[1, -1])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="features must be finite"):
                LabeledDataset(features=[[0.5, bad], [2.0, 3.0]], labels=[1, -1])
        # Lists are taken as arrays, and the arrays are what is stored.
        ds = LabeledDataset(features=[[0.5, 1.0], [2.0, 3.0]], labels=[1, -1])
        assert isinstance(ds.features, np.ndarray) and ds.features.shape == (2, 2)
        assert isinstance(ds.labels, np.ndarray) and ds.labels.tolist() == [1, -1]

    def test_finiteness_check_allocates_no_mask(self):
        # generate builds its sets on worker threads, whose malloc arenas
        # would each keep an n x d bool mask after the check.
        n, d = 4000, 500
        features = np.random.default_rng(0).standard_normal((n, d))
        labels = np.ones(n, dtype=np.int8)
        tracemalloc.start()
        try:
            LabeledDataset(features=features, labels=labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d / 8


def test_dump_csv(tmp_path):
    ds = LabeledDataset(
        features=np.array([[0.5, -1.25], [2.0, 3.0]]),
        labels=np.array([1, -1]),
    )
    path = tmp_path / "out.csv"
    write_dataset_csv(ds, path)
    assert path.read_bytes() == b"f0,f1,label\n0.5,-1.25,1\n2,3,-1\n"


def test_dump_csv_streams_rows(tmp_path):
    # The whole 2000 x 200 set as Python floats would take about 12 MB.
    n, d = 2000, 200
    rng = np.random.default_rng(0)
    ds = LabeledDataset(features=np.asfortranarray(rng.standard_normal((n, d))),
                        labels=2 * rng.integers(0, 2, size=n) - 1)
    tracemalloc.start()
    try:
        write_dataset_csv(ds, tmp_path / "out.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
