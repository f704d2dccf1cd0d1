import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from radabound.bounds import BoundMethod
from radabound.errors import ConfigurationError, DomainError, GuardHaltedError
from radabound.guard import Certifier, Guard, GuardConfig, HoldoutSample
from radabound.synthdata import LabeledDataset

from child_process import run_in_child
from rademacher_oracle import signs_of


def make_sample(m, seed=0):
    rng = np.random.default_rng(seed)
    return HoldoutSample(points=list(rng.uniform(size=m)), m=m)


def vectorized(fn):
    fn.vectorized = True
    return fn


def mean_query(fn):
    # plain per-point query; the guard maps it over the sample
    return fn


class TestStoppingThreshold:
    @pytest.mark.parametrize(
        "delta,expected", [(0.1, 0.09), (0.5, 0.25), (0.15, 0.1275)]
    )
    def test_values(self, delta, expected):
        certify = Certifier(GuardConfig(epsilon=0.1, delta=delta, n_vectors=8), m=100)
        assert certify.threshold == pytest.approx(expected, rel=1e-14)

    def test_numpy_config_certifies_in_python_floats(self):
        typed = GuardConfig(epsilon=np.float32(0.2), delta=np.float32(0.1), n_vectors=8)
        plain = GuardConfig(
            epsilon=float(np.float32(0.2)), delta=float(np.float32(0.1)), n_vectors=8
        )
        # The config keeps the Python floats its checks return.
        assert typed == plain and type(typed.epsilon) is type(typed.delta) is float
        certify = Certifier(typed, m=100)
        assert type(certify.threshold) is float
        assert certify.threshold == Certifier(plain, m=100).threshold
        for r_tilde in (0.0, 0.03, 0.05, 0.2):
            delta_prime, answered = certify(r_tilde)
            assert type(delta_prime) is float and type(answered) is bool
            assert (delta_prime, answered) == Certifier(plain, m=100)(r_tilde)

    def test_float32_epsilon_guard_answers(self):
        # A float32 epsilon once made a float32 slack, on which the two-term
        # bound's golden-section loop never ended: run it in a child with a
        # timeout, next to the same guard at the epsilon as a Python float.
        out = run_in_child(
            "import numpy as np\n"
            "from radabound.bounds import BoundMethod\n"
            "from radabound.guard import Guard, GuardConfig, HoldoutSample\n"
            "points = np.random.default_rng(0).uniform(size=500)\n"
            "for eps in (np.float32(0.2), float(np.float32(0.2))):\n"
            "    config = GuardConfig(epsilon=eps, delta=0.1, n_vectors=8,\n"
            "                         method=BoundMethod.BERNSTEIN_TWO_TERM)\n"
            "    guard = Guard(HoldoutSample(points=points, m=500), config)\n"
            "    print(guard.submit_query(lambda x: float(x > 0.5)))\n"
        )
        typed, plain = out.splitlines()
        assert typed == plain

    def test_domain(self):
        # A Certifier reads delta from a GuardConfig, which rejects these.
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                GuardConfig(epsilon=0.1, delta=bad, n_vectors=8)


class TestGuardConstruction:
    def test_sign_matrix_too_big_for_numpy(self):
        # Each count is valid alone; the l x m packed signs are not.
        with pytest.raises(ConfigurationError, match="bytes of .* packed signs"):
            Guard(HoldoutSample(None, 4000), GuardConfig(0.1, 0.1, 2**62))

    def test_holds_the_signs_as_packed_bits(self):
        # One bit a sign, and no unpacked copy of the matrix.
        l, m = 512, 4000
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            g = Guard(HoldoutSample(None, m), GuardConfig(0.1, 0.1, l))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.rad.bits.shape == (l, -(-m // 64))
        assert retained <= l * m / 8 + 2**16, f"{retained / 2**10:.1f} KiB retained"

    def test_fresh_guard_state(self):
        g = Guard(
            make_sample(16),
            GuardConfig(epsilon=0.1, delta=0.1, n_vectors=32, seed=5),
        )
        assert not g.halted
        assert g.rad.query_count == 0
        assert float(g.rad.running_sup.mean()) == 0.0
        assert signs_of(g.rad).shape == (32, 16)

    def test_deterministic_signs_and_outcomes(self):
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=8, seed=123)
        g1 = Guard(make_sample(10, seed=2), cfg)
        g2 = Guard(make_sample(10, seed=2), cfg)
        assert np.array_equal(g1.rad.bits, g2.rad.bits)
        o1 = g1.submit_query(lambda x: x)
        o2 = g2.submit_query(lambda x: x)
        assert o1 == o2

    def test_config_must_be_a_guard_config(self):
        with pytest.raises(ConfigurationError, match="GuardConfig"):
            Guard(HoldoutSample(np.zeros(4), 4), {"epsilon": 0.1})
        with pytest.raises(ConfigurationError, match="HoldoutSample"):
            Guard(object(), GuardConfig(epsilon=0.1, delta=0.1, n_vectors=4))

    def test_one_shot_points_rejected(self):
        # A one-shot iterator would answer only the first per-point query.
        values = np.random.default_rng(0).uniform(size=20)
        for points in (iter(values), (v for v in values)):
            with pytest.raises(ConfigurationError, match="re-iterable"):
                HoldoutSample(points=points, m=20)
        # Re-iterable points answer every query; opaque ones stay accepted.
        g = Guard(HoldoutSample(points=values, m=20), GuardConfig(0.9, 0.1, 4))
        for _ in range(2):
            assert g.submit_query(lambda x: x).empirical_mean == pytest.approx(values.mean())
        HoldoutSample(points=object(), m=20)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            HoldoutSample(points=[], m=0)

    def test_non_int_sample_size_rejected(self):
        for m in (10.5, True, "10", None):
            with pytest.raises(ConfigurationError):
                HoldoutSample(points=list(range(10)), m=m)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(epsilon=0.0, delta=0.1, n_vectors=8)
        with pytest.raises(ConfigurationError):
            GuardConfig(epsilon=0.1, delta=1.0, n_vectors=8)
        with pytest.raises(ConfigurationError):
            GuardConfig(epsilon=0.1, delta=0.1, n_vectors=0)
        # a field of earlier versions is an unknown key, not a traceback
        with pytest.raises(ConfigurationError, match="negation_closure"):
            GuardConfig.from_dict(
                {"epsilon": 0.1, "delta": 0.1, "n_vectors": 8, "negation_closure": True}
            )
        # a method is a BoundMethod or its value, nothing else
        assert GuardConfig(0.1, 0.1, 4, method="mclt").method is BoundMethod.MCLT
        for method in ("MCLT", None, 0):
            with pytest.raises(ConfigurationError, match="method must be one of") as excinfo:
                GuardConfig(0.1, 0.1, 4, method=method)
            assert type(excinfo.value) is ConfigurationError


class TestSubmitQuery:
    def test_answered_mean_is_sample_mean(self):
        sample = make_sample(50, seed=3)
        g = Guard(sample, GuardConfig(epsilon=0.9, delta=0.1, n_vectors=64, seed=1))
        outcome = g.submit_query(lambda x: x)
        assert outcome.answered is True
        assert outcome.empirical_mean == pytest.approx(
            np.mean(sample.points), abs=1e-12
        )
        assert outcome.delta_prime <= Certifier(g.config, sample.m).threshold

    def test_halt_on_exhausted_budget(self):
        # tiny epsilon and tiny sample: the first query's correlation already
        # drives 2 R > epsilon, so slack = 0 and every method must halt
        for method in BoundMethod:
            g = Guard(
                make_sample(4, seed=9),
                GuardConfig(
                    epsilon=0.01, delta=0.1, n_vectors=4, method=method, seed=77
                ),
            )
            outcome = g.submit_query(lambda x: 1.0)
            assert outcome.answered is False
            assert outcome.empirical_mean is None
            expected_dp = 0.5 if method is BoundMethod.MCLT else 1.0
            assert outcome.delta_prime == expected_dp
            assert g.halted

    def test_permanent_halt(self):
        g = Guard(
            make_sample(4, seed=9),
            GuardConfig(epsilon=0.01, delta=0.1, n_vectors=4, seed=77),
        )
        g.submit_query(lambda x: 1.0)
        before = guard_state(g)
        for _ in range(3):
            with pytest.raises(GuardHaltedError):
                g.submit_query(lambda x: 0.5)
        assert_same_state(guard_state(g), before)

    def test_halt_does_not_commit_state(self):
        g = Guard(
            make_sample(4, seed=9),
            GuardConfig(epsilon=0.01, delta=0.1, n_vectors=4, seed=77),
        )
        outcome = g.submit_query(lambda x: 1.0)
        assert not outcome.answered and g.halted
        assert g.rad.query_count == 0
        assert not g.rad.running_sup.any()

    def test_each_answer_commits_one_query(self):
        g = Guard(
            make_sample(20, seed=4),
            GuardConfig(epsilon=0.9, delta=0.1, n_vectors=32, seed=5),
        )
        outcomes = [
            g.submit_query(lambda x, i=i: min(1.0, x * (i + 1) / 5)) for i in range(5)
        ]
        assert g.rad.query_count == 5
        assert all(o.answered for o in outcomes)
        r_tildes = [o.r_tilde for o in outcomes]
        assert r_tildes == sorted(r_tildes)
        assert r_tildes[-1] == float(g.rad.running_sup.mean())

    DOMAIN_ERRORS = {
        "out of range": (10, lambda x: 2.0),
        "nan": (10, lambda x: np.nan),
        "nan vectorized": (10, vectorized(lambda points: np.r_[np.full(9, 0.5), np.nan])),
        "more points than m": (12, lambda x: x),
        "fewer points than m": (8, lambda x: x),
        "numeric string": (10, lambda x: "0.5"),
        "non-numeric string": (10, lambda x: "a"),
        "none": (10, lambda x: None),
        "complex": (10, lambda x: x + 0.5j),
        "numeric strings vectorized": (10, vectorized(lambda points: ["0.5"] * 10)),
        "complex vectorized": (10, vectorized(lambda points: np.full(10, 0.5 + 0j))),
        "dict vectorized": (10, vectorized(lambda points: {})),
        "ragged vectorized": (10, vectorized(lambda points: [0.5] * 9 + [[0.5]])),
        "a list per point": (10, lambda x: [x]),
        "not callable": (10, 3),
        "None for a query": (10, None),
    }

    @pytest.mark.parametrize("case", sorted(DOMAIN_ERRORS))
    def test_domain_error_rejects_without_state_change(self, case):
        n_points, query = self.DOMAIN_ERRORS[case]
        sample = HoldoutSample(points=make_sample(n_points, seed=4).points, m=10)
        cfg = GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=5)
        # The reference guard answers the same valid queries and never sees
        # the malformed one.
        g, reference = Guard(sample, cfg), Guard(sample, cfg)
        first = vectorized(lambda points: np.linspace(0.0, 1.0, 10))
        assert g.submit_query(first) == reference.submit_query(first)
        before = guard_state(g)
        with pytest.raises(DomainError) as excinfo:
            g.submit_query(query)
        assert type(excinfo.value) is DomainError
        assert g.rad.query_count == 1
        assert_same_state(guard_state(g), before)
        second = vectorized(lambda points: np.linspace(1.0, 0.0, 10) ** 2)
        assert g.submit_query(second) == reference.submit_query(second)
        assert_same_state(guard_state(g), guard_state(reference))

    def test_per_point_query_on_points_that_are_not_iterable(self):
        # Such a sample serves vectorized queries only.
        g = Guard(
            HoldoutSample(points=None, m=1000),
            GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=5),
        )
        with pytest.raises(DomainError, match="per-point query needs iterable points") as excinfo:
            g.submit_query(lambda x: 0.5)
        assert type(excinfo.value) is DomainError
        assert g.rad.query_count == 0 and not g.halted
        assert not g.rad.running_sup.any()
        assert g.submit_query(vectorized(lambda points: np.full(1000, 0.5))).answered
        # A TypeError that the query itself raises on iterable points is its own.
        with pytest.raises(TypeError):
            Guard(make_sample(5), g.config).submit_query(lambda x: x + "a")

    def test_per_point_query_on_a_labeled_dataset(self):
        # A LabeledDataset has no per-point view: as points it serves
        # vectorized queries only, so no per-point query reads its labels.
        dataset = LabeledDataset(
            features=np.arange(6.0).reshape(3, 2), labels=np.array([1, -1, 1])
        )
        g = Guard(
            HoldoutSample(points=dataset, m=3),
            GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=5),
        )
        with pytest.raises(DomainError, match="per-point query needs iterable points") as excinfo:
            g.submit_query(lambda point: 0.5)
        assert type(excinfo.value) is DomainError
        assert g.rad.query_count == 0 and not g.halted
        assert not g.rad.running_sup.any()

    def test_numeric_value_types_answer_alike(self):
        sample = make_sample(10, seed=4)
        cfg = GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=5)
        want = Guard(sample, cfg).submit_query(lambda x: float(x > 0.5))
        queries = {
            convert.__name__: lambda x, convert=convert: convert(x > 0.5)
            for convert in (bool, np.bool_, int, np.int64, np.float32, np.asarray)
        }
        queries["bool array"] = vectorized(lambda points: np.asarray(points) > 0.5)
        queries["int list"] = vectorized(lambda points: [int(x > 0.5) for x in points])
        for name, query in queries.items():
            assert Guard(sample, cfg).submit_query(query) == want, name
        # k x m blocks: bool stays bool and the rest become float64, so every
        # dtype answers as sequential float queries do.
        rows = np.asarray(sample.points) > np.array([[0.2], [0.5], [0.8]])
        want_rows = submit_rows(Guard(sample, cfg), rows.astype(float))
        for dtype in (bool, int, np.float32, np.float64):
            got = list(Guard(sample, cfg).submit_batch(rows.astype(dtype)))
            assert got == want_rows, dtype

    def test_delta_prime_non_decreasing(self):
        rng = np.random.default_rng(6)
        g = Guard(
            make_sample(30, seed=6),
            GuardConfig(epsilon=0.5, delta=0.2, n_vectors=16, seed=8),
        )
        prev = 0.0
        for _ in range(20):
            vals = rng.uniform(size=30)
            outcome = g.submit_query(lambda x, v=iter(vals): next(v))
            if not outcome.answered:
                break
            assert outcome.delta_prime >= prev - 1e-15
            prev = outcome.delta_prime

    def test_method_interchangeability(self):
        # identical seeds: released means agree until the earlier halt
        outcomes = {}
        for method in (BoundMethod.MCLT, BoundMethod.BERNSTEIN_SINGLE):
            rng = np.random.default_rng(12)
            g = Guard(
                make_sample(25, seed=12),
                GuardConfig(
                    epsilon=0.6, delta=0.1, n_vectors=16, method=method, seed=3
                ),
            )
            means = []
            for _ in range(15):
                vals = rng.uniform(size=25)
                o = g.submit_query(lambda x, v=iter(vals): next(v))
                if not o.answered:
                    break
                means.append(o.empirical_mean)
            outcomes[method] = means
        a, b = outcomes.values()
        shared = min(len(a), len(b))
        assert a[:shared] == b[:shared]

    def test_vectorized_query_path(self):
        sample = HoldoutSample(points=np.linspace(0, 1, 11), m=11)
        g = Guard(sample, GuardConfig(epsilon=0.9, delta=0.1, n_vectors=16, seed=2))

        def query(points):
            return np.asarray(points) ** 2

        query.vectorized = True
        outcome = g.submit_query(query)
        assert outcome.empirical_mean == pytest.approx(
            np.mean(np.linspace(0, 1, 11) ** 2), abs=1e-12
        )


class TestGuardConfigSerialization:
    def test_json_round_trip(self):
        cfg = GuardConfig(
            epsilon=0.125,
            delta=0.0625,
            n_vectors=32,
            method=BoundMethod.BERNSTEIN_TWO_TERM,
            seed=987654321,
        )
        assert GuardConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @pytest.mark.parametrize("method", list(BoundMethod), ids=lambda m: m.value)
    def test_method_value_builds_the_same_config_as_the_member(self, method):
        by_member = GuardConfig(0.1, 0.1, 8, method=method)
        by_value = GuardConfig(0.1, 0.1, 8, method=method.value)
        assert by_value == by_member and by_value.method is method
        loaded = GuardConfig.from_dict(
            {"epsilon": 0.1, "delta": 0.1, "n_vectors": 8, "method": method.value}
        )
        assert loaded == by_member

    def test_method_defaults_to_the_field_default(self):
        cfg = GuardConfig.from_dict({"epsilon": 0.1, "delta": 0.1, "n_vectors": 8})
        assert cfg == GuardConfig(0.1, 0.1, 8) and cfg.method is BoundMethod.MCLT

    def test_method_string_stability(self):
        assert BoundMethod.MCLT.value == "mclt"
        assert BoundMethod.BERNSTEIN_SINGLE.value == "bernstein_single"
        assert BoundMethod.BERNSTEIN_TWO_TERM.value == "bernstein_two_term"
        assert BoundMethod.MCDIARMID_COMBINED.value == "mcdiarmid_combined"

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardConfig.from_dict(
                {"epsilon": 0.1, "delta": 0.1, "n_vectors": 8, "method": "bogus"}
            )


def binary_rows(k, m, seed):
    return np.random.default_rng(seed).integers(0, 2, size=(k, m)).astype(float)


def submit_rows(g, rows):
    """Sequential submit_query per row, up to and including a halt."""
    outcomes = []
    for row in rows:
        outcomes.append(g.submit_query(vectorized(lambda points, row=row: row)))
        if not outcomes[-1].answered:
            break
    return outcomes


def guard_state(g):
    return g.rad.running_sup.copy(), g.rad.query_count, g.halted


def assert_same_state(a, b):
    assert np.array_equal(a[0], b[0])
    assert a[1:] == b[1:]


class TestSubmitBatch:
    M = 40

    def make_guard(self, epsilon=0.9, method=BoundMethod.MCLT, seed=4, m=M):
        return Guard(
            HoldoutSample(points=list(range(m)), m=m),
            GuardConfig(
                epsilon=epsilon, delta=0.1, n_vectors=8, method=method, seed=seed
            ),
        )

    @pytest.mark.parametrize("epsilon", [0.5, 0.9])
    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_binary_batch_equals_sequential_queries(self, method, epsilon):
        rows = binary_rows(12, self.M, seed=3)
        batched, sequential = (self.make_guard(epsilon, method) for _ in range(2))
        outcomes = list(batched.submit_batch(rows))
        assert outcomes == submit_rows(sequential, rows)
        assert_same_state(guard_state(batched), guard_state(sequential))

    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_submit_query_is_a_one_row_batch(self, method):
        # Fractional values, per-point and vectorized queries: each
        # submit_query answers exactly as a one-row submit_batch would, up
        # to and including a halt (two of the methods halt here).
        rng = np.random.default_rng(7)
        single, batched = self.make_guard(method=method), self.make_guard(method=method)
        answers = []
        for k in range(12):
            if single.halted:
                break
            row = rng.uniform(size=self.M)
            if k % 2:
                query = vectorized(lambda points, row=row: row)
            else:
                query = mean_query(lambda x, row=row: row[x])
            want = next(batched.submit_batch(row[None]))
            answers.append(single.submit_query(query))
            assert answers[-1] == want
            assert_same_state(guard_state(single), guard_state(batched))
        assert len(answers) > 1

    @pytest.mark.parametrize("epsilon", [0.5, 0.9])
    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_fractional_batch_equals_sequential_queries(self, method, epsilon):
        # Fractional values are summed exactly on a grid, so a k-row block
        # answers as k one-row queries do, field for field.
        rows = np.random.default_rng(5).uniform(size=(12, self.M))
        batched, sequential = (self.make_guard(epsilon, method) for _ in range(2))
        outcomes = list(batched.submit_batch(rows))
        assert outcomes == submit_rows(sequential, rows)
        assert_same_state(guard_state(batched), guard_state(sequential))

    MALFORMED = {
        "one-dimensional": lambda good: good[0],
        "scalar": lambda good: np.float64(0.5),
        "three-dimensional": lambda good: good[None],
        "too narrow": lambda good: good[:, :-1],
        "too wide": lambda good: np.hstack([good, good[:, :1]]),
        "nan": lambda good: np.where(np.arange(good.shape[1]) == 7, np.nan, good),
        "above one": lambda good: good + 0.5,
        "just above one": lambda good: np.where(
            np.arange(good.shape[1]) == 7, np.nextafter(1.0, 2.0), good
        ),
        "below zero": lambda good: good - 0.5,
        "numeric strings": lambda good: good.astype(str),
        "complex": lambda good: good + 0j,
        "ragged": lambda good: [good[0], good[1, :-1]],
        "dict": lambda good: {},
        "int": lambda good: 3,
        "None": lambda good: None,
        # A query callable is not a value block: it is never called.
        "callable": lambda good: (lambda points: good),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_batch_rejected_without_state_change(self, case):
        good = binary_rows(3, self.M, seed=1)
        g = self.make_guard()
        g.submit_query(vectorized(lambda points: good[0]))
        before = guard_state(g)
        with pytest.raises(DomainError) as excinfo:
            g.submit_batch(self.MALFORMED[case](good))
        assert type(excinfo.value) is DomainError
        assert_same_state(guard_state(g), before)

    def test_rows_never_pulled_are_never_committed(self):
        rows = binary_rows(5, self.M, seed=2)
        g = self.make_guard()
        outcomes = g.submit_batch(rows)
        assert g.rad.query_count == 0 and not g.rad.running_sup.any()
        pulled = [next(outcomes), next(outcomes)]
        del outcomes
        reference = self.make_guard()
        assert pulled == submit_rows(reference, rows[:2])
        assert_same_state(guard_state(g), guard_state(reference))
        # the guard goes on as if the abandoned rows had never been submitted
        extra = vectorized(lambda points: rows[4])
        assert g.submit_query(extra) == reference.submit_query(extra)
        assert_same_state(guard_state(g), guard_state(reference))

    @pytest.mark.parametrize("kind", ["bool", "binary float", "fractional"])
    def test_block_is_read_once_on_submission(self, kind):
        # The caller keeps its array: overwriting it before any row is
        # pulled changes no outcome.
        rows = {
            "bool": binary_rows(6, self.M, seed=12).astype(bool),
            "binary float": binary_rows(6, self.M, seed=12),
            "fractional": np.random.default_rng(12).uniform(size=(6, self.M)),
        }[kind]
        want = submit_rows(self.make_guard(), rows.copy())
        outcomes = self.make_guard().submit_batch(rows)
        if rows.dtype == bool:
            np.logical_not(rows, out=rows)
        else:
            rows.fill(0.5)
        assert list(outcomes) == want

    def test_mid_batch_halt_ends_iteration(self):
        rows = binary_rows(8, self.M, seed=3)
        g = self.make_guard(epsilon=0.5)
        outcomes = g.submit_batch(rows)
        pulled = list(outcomes)
        assert 1 < len(pulled) < len(rows)
        assert all(o.answered for o in pulled[:-1])
        assert not pulled[-1].answered and g.halted
        assert g.rad.query_count == len(pulled) - 1
        assert next(outcomes, None) is None
        before = guard_state(g)
        with pytest.raises(GuardHaltedError):
            g.submit_batch(rows)
        with pytest.raises(GuardHaltedError):
            g.submit_query(vectorized(lambda points: rows[0]))
        assert_same_state(guard_state(g), before)

    def test_interleaved_submit_query_gives_sequential_result(self):
        rows = binary_rows(3, self.M, seed=6)
        extra = binary_rows(2, self.M, seed=7)
        g, reference = self.make_guard(), self.make_guard()
        outcomes = g.submit_batch(rows)
        got = [
            next(outcomes),
            g.submit_query(vectorized(lambda points: extra[0])),
            next(outcomes),
            g.submit_query(vectorized(lambda points: extra[1])),
            next(outcomes),
        ]
        assert next(outcomes, None) is None
        want = submit_rows(reference, [rows[0], extra[0], rows[1], extra[1], rows[2]])
        assert got == want
        assert_same_state(guard_state(g), guard_state(reference))

    def test_pulling_after_an_interleaved_halt_raises(self):
        # at epsilon 0.3 the first query already halts
        rows = binary_rows(2, self.M, seed=8)
        g = self.make_guard(epsilon=0.3)
        outcomes = g.submit_batch(rows)
        assert not g.submit_query(vectorized(lambda points: rows[0])).answered
        before = guard_state(g)
        with pytest.raises(GuardHaltedError):
            next(outcomes)
        assert_same_state(guard_state(g), before)

    def test_empty_batch_changes_nothing(self):
        g = self.make_guard()
        g.submit_query(vectorized(lambda points: binary_rows(1, self.M, seed=9)[0]))
        before = guard_state(g)
        assert list(g.submit_batch(np.empty((0, self.M)))) == []
        assert_same_state(guard_state(g), before)

    def test_memory_does_not_grow_with_answered_queries(self):
        # The guard keeps the suprema, the halt flag and the config, and no
        # per-query record: answering 2000 queries retains next to nothing.
        m, k = 400, 2000
        g = self.make_guard(m=m)
        rows = np.random.default_rng(11).integers(0, 2, size=(k, m)).astype(bool)
        assert next(g.submit_batch(rows[:1])).answered
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            assert all(o.answered for o in g.submit_batch(rows))
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.rad.query_count == k + 1
        assert growth / k < 16, f"{growth / k:.1f} bytes retained per query"
