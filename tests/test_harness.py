import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from radabound import bounds, guard, harness
from radabound.bounds import BoundMethod
from radabound.errors import ConfigurationError, DomainError
from radabound.guard import Guard, GuardConfig, HoldoutSample, QueryOutcome
from radabound.harness import (
    ExperimentTrace,
    LinearClassifier,
    PredictionGuard,
    TraceRow,
    feature_order,
    run_adaptive_analysis,
    run_sweep,
)
from radabound.synthdata import DatasetSpec, LabeledDataset, generate


def make_dataset(features, labels):
    return LabeledDataset(
        features=np.asarray(features, dtype=float), labels=np.asarray(labels)
    )


def test_candidate_predictions_match_the_sign_of_candidate_scores():
    # Exact ties (x == scores, x == -scores), signed zeros, and finite
    # features of size 1e308 next to scores that overflowed to +-inf.
    big = 1e308
    scores = np.array([0.5, -0.5, 0.0, -0.0, big + big, -big - big, big, -3.0])
    finite = np.isfinite(scores)
    features = np.column_stack([
        np.where(finite, scores, 1.0),
        np.where(finite, -scores, -1.0),
        np.full(8, 0.0),
        np.full(8, -0.0),
        np.full(8, big),
        np.full(8, -big),
        np.random.default_rng(0).normal(size=8),
    ])
    assert np.isfinite(features).all() and not finite.all()
    block = np.array([6, 0, 3, 1, 5, 2, 4])
    with np.errstate(over="ignore"):  # the candidates' scores overflow too
        want = np.stack([
            row
            for i in block
            for row in (scores - features[:, i] >= 0, scores + features[:, i] >= 0)
        ])
    got = harness._candidate_predictions(features, scores, block)
    assert got.dtype == bool
    assert np.array_equal(got, want)


def answered(*means):
    return [QueryOutcome(mean, 0.0, 0.0, True) for mean in means]


@pytest.mark.parametrize("m", [1, 64, 65, 4000, 2**16 + 3])
def test_truth_column_counts_as_count_nonzero(m):
    # The popcount sums each row's words in uint8 up to m = 192 (here
    # m = 1, 64, 65), uint16 at m = 4000 and uint32 at 2**16 + 3; the golden
    # traces cover m = 4000 only.  Feature 0 equals the labels, so its
    # candidates hit no point and every point: a count of m overflows uint16.
    rng = np.random.default_rng(m)
    labels = rng.choice([-1, 1], size=m)
    features = np.column_stack([labels, rng.normal(size=(m, 4))])
    tried = np.array([0, 2, 1, 4, 3])
    # The replayed outcomes move the scores after 2 features tried (the
    # second, at weight -1) and after 4 (the fourth, at weight +1); each
    # acceptance abandons the rest of its block.
    replay = harness._Replay(
        answered(0.5, 0.6, 0.6, 0.4, 0.45, 0.5, 0.5, 0.5, 0.3, 0.5, 0.5), labels
    )
    read = harness.greedy_learner(replay, tried, features)
    assert [(i, cand) for i, cand, _, accepted in read if accepted] == [
        (None, 0), (2, -1), (4, 1),
    ]
    moves = [(2, 2, -1), (4, 4, 1)]
    scores = np.zeros(m)
    want = [np.count_nonzero(labels == 1)]
    for n, i in enumerate(tried.tolist()):
        for start, j, weight in moves:
            if start == n:
                scores = scores + weight * features[:, j]
        for cand in (-1, 1):
            predicted = np.where(scores + cand * features[:, i] >= 0, 1, -1)
            want.append(np.count_nonzero(predicted == labels))
    assert want[1:3] == [0, m]
    assert replay.hits() == want


@pytest.mark.parametrize(
    "analyst, error",
    [
        # Three rows for two recorded outcomes: the third pull raises.
        (lambda mech: list(mech.submit_batch(np.ones((3, 4), dtype=bool))), "more rows"),
        # One row read of the two recorded.
        (lambda mech: next(mech.submit_batch(np.ones((2, 4), dtype=bool))), None),
        # The greedy learner over two features reads five rows, not two.
        (lambda mech: harness.greedy_learner(mech, np.arange(2), np.eye(4, 2)), "more rows"),
    ],
    ids=["reads-more", "reads-fewer", "learner-reads-more"],
)
def test_replay_rejects_a_diverging_analyst(analyst, error):
    replay = harness._Replay(answered(0.5, 0.5), np.array([1, -1, 1, 1]))
    if error:
        with pytest.raises(RuntimeError, match=error):
            analyst(replay)
    else:
        analyst(replay)
        with pytest.raises(RuntimeError, match="fewer rows"):
            replay.hits()


class TestFeatureOrder:
    def test_biased_feature_comes_first(self):
        rng = np.random.default_rng(3)
        labels = 2 * rng.integers(0, 2, size=5000) - 1
        features = rng.normal(size=(5000, 4))
        features[:, 2] += 0.8 * labels
        order = feature_order(make_dataset(features, labels))
        assert order[0] == 2

    def test_all_zero_features_identity_order(self):
        ds = make_dataset(np.zeros((4, 5)), [1, -1, 1, -1])
        assert list(feature_order(ds)) == [0, 1, 2, 3, 4]

    def test_label_negation_invariance(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(200, 6))
        labels = 2 * rng.integers(0, 2, size=200) - 1
        a = feature_order(make_dataset(features, labels))
        b = feature_order(make_dataset(features, -labels))
        assert np.array_equal(a, b)


def last_accepted_fresh_acc(trace):
    """The fresh-set accuracy of the final classifier: the candidate of the
    trace's last accepted row."""
    return [row.fresh_acc for row in trace.rows if row.accepted][-1]


@pytest.fixture(scope="module")
def small_trace():
    spec = DatasetSpec(
        m_train=300, m_holdout=200, m_fresh=500, d=8,
        n_biased=2, bias=0.6, seed=13,
    )
    cfg = GuardConfig(
        epsilon=0.3, delta=0.1, n_vectors=16, method=BoundMethod.MCLT, seed=13
    )
    return spec, run_adaptive_analysis(*generate(spec), cfg)


class TestRunExperiment:

    def test_query_accounting(self, small_trace):
        spec, trace = small_trace
        # baseline query plus two candidates per feature when nothing halts
        assert trace.halt_index is None
        assert len(trace.rows) == 1 + 2 * spec.d
        assert [r.query_index for r in trace.rows] == list(
            range(1, 2 * spec.d + 2)
        )

    def test_accepted_rows_strictly_decrease_loss(self, small_trace):
        _, trace = small_trace
        best = math.inf
        for row in trace.rows:
            loss = 1.0 - row.holdout_acc
            if row.accepted:
                assert loss < best
                best = loss
        assert best == pytest.approx(trace.final_holdout_loss, abs=1e-12)

    def test_guard_statistics_non_decreasing(self, small_trace):
        _, trace = small_trace
        r = [row.r_tilde for row in trace.rows]
        dp = [row.delta_prime for row in trace.rows]
        assert all(a <= b + 1e-15 for a, b in zip(r, r[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(dp, dp[1:]))

    def test_signal_recovered(self, small_trace):
        _, trace = small_trace
        assert last_accepted_fresh_acc(trace) >= 0.75
        assert np.count_nonzero(trace.final_classifier.weights) >= 1

    def test_deterministic(self, small_trace):
        spec, trace = small_trace
        cfg = trace.guard_config
        again = run_adaptive_analysis(*generate(spec), cfg)
        assert again.rows == trace.rows
        assert np.array_equal(
            again.final_classifier.weights, trace.final_classifier.weights
        )

    def test_array_holders_compare_by_identity(self, small_trace):
        # Value equality over their numpy arrays would raise "truth value of
        # an array ... is ambiguous", and hash() a TypeError.
        spec, trace = small_trace
        data = generate(spec)
        classifier = trace.final_classifier
        for a, b in [
            (data, generate(spec)),
            (data.train, generate(spec).train),
            (trace, run_adaptive_analysis(*data, trace.guard_config)),
            (classifier, LinearClassifier(classifier.weights)),
        ]:
            assert (a == a) is True and (a == b) is False and (a != b) is True
            assert len({a, a, b}) == 2

    def test_no_signal_fresh_accuracy_near_half(self):
        spec = DatasetSpec(
            m_train=200, m_holdout=2000, m_fresh=4000, d=10, seed=29
        )
        cfg = GuardConfig(epsilon=0.4, delta=0.1, n_vectors=8, seed=29)
        trace = run_adaptive_analysis(*generate(spec), cfg)
        final = last_accepted_fresh_acc(trace)
        assert abs(final - 0.5) <= 4.0 / np.sqrt(spec.m_fresh) + 0.05

    def test_halt_row_shape(self):
        # force an early halt with a tiny budget
        spec = DatasetSpec(
            m_train=100, m_holdout=50, m_fresh=50, d=6, n_biased=2,
            bias=0.8, seed=3,
        )
        cfg = GuardConfig(
            epsilon=0.02, delta=0.1, n_vectors=16,
            method=BoundMethod.BERNSTEIN_SINGLE, seed=3,
        )
        trace = run_adaptive_analysis(*generate(spec), cfg)
        assert trace.halt_index is not None
        last = trace.rows[-1]
        assert last.halted
        assert math.isnan(last.holdout_acc)
        assert not last.accepted
        assert last.query_index == trace.halt_index == len(trace.rows)
        assert not any(r.halted for r in trace.rows[:-1])

    def test_dimension_mismatch_rejected(self):
        # A bad run input, like the other dataset checks: not a DomainError.
        data = generate(DatasetSpec(m_train=5, m_holdout=5, m_fresh=5, d=3, seed=1))
        other = generate(DatasetSpec(m_train=5, m_holdout=5, m_fresh=5, d=4, seed=1))
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=4, seed=1)
        for sets in [
            (data.train, other.holdout, data.fresh),
            (data.train, data.holdout, other.fresh),
            (other.train, data.holdout, data.fresh),
        ]:
            with pytest.raises(ConfigurationError, match="feature counts") as excinfo:
                run_adaptive_analysis(*sets, cfg)
            assert type(excinfo.value) is ConfigurationError

    @pytest.mark.parametrize("index, name", enumerate(["train", "holdout", "fresh"]))
    def test_empty_set_rejected(self, index, name):
        sets = list(generate(DatasetSpec(m_train=5, m_holdout=5, m_fresh=5, d=3, seed=1)))
        sets[index] = make_dataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=4, seed=1)
        with pytest.raises(ConfigurationError) as excinfo:
            run_adaptive_analysis(*sets, cfg)
        assert type(excinfo.value) is ConfigurationError
        assert str(excinfo.value) == f"{name} set must be non-empty"


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda s, c: run_sweep(*s, configs=0.2), "configs must be an iterable"),
        (lambda s, c: run_sweep(*s, configs=None), "configs must be an iterable"),
        # Not the characters '0', '.' and '2'.
        (lambda s, c: run_sweep(*s, configs="0.2"), "configs must be an iterable"),
        (lambda s, c: run_sweep(*s, configs=c), "configs must be an iterable"),
        (lambda s, c: run_sweep(*s, [c, dataclasses.asdict(c)]), "configs entry must be"),
        # Different sign vectors: no one run serves both.
        (lambda s, c: run_sweep(*s, [c, dataclasses.replace(c, seed=2)]), "share seed"),
        (lambda s, c: run_sweep(*s, [c, dataclasses.replace(c, n_vectors=8)]), "share seed"),
        (lambda s, c: run_sweep(s[0].features, *s[1:], [c]), "train must be"),
        # No size to rank the configs by: the run rejects it.
        (lambda s, c: run_sweep(s[0], None, s[2], [c]), "holdout must be"),
        (lambda s, c: run_adaptive_analysis(s[0].features, *s[1:], c), "train must be"),
        (lambda s, c: run_adaptive_analysis(s[0], s[1].features, s[2], c), "holdout must be"),
        (lambda s, c: run_adaptive_analysis(*s[:2], s[2].features, c), "fresh must be"),
        (lambda s, c: run_adaptive_analysis(*s, dataclasses.asdict(c)), "guard_config must be"),
        (lambda s, c: run_adaptive_analysis(None, *s[1:], c), "train must be"),
        # With no configs too: the sets are checked before any config is run.
        (lambda s, c: run_sweep(s[0].features, *s[1:], []), "train must be"),
        (lambda s, c: run_sweep(s[0], None, s[2], []), "holdout must be"),
        (lambda s, c: run_sweep(*s[:2], "fresh", []), "fresh must be"),
        (
            lambda s, c: run_sweep(s[0], make_dataset(np.zeros((0, 3)), []), s[2], []),
            "holdout set must be non-empty",
        ),
        (
            lambda s, c: run_sweep(*s[:2], make_dataset(np.zeros((5, 4)), s[2].labels), []),
            "feature counts disagree",
        ),
    ],
    ids=[
        "sweep-float-configs", "sweep-none-configs", "sweep-str-configs",
        "sweep-lone-config", "sweep-dict-config", "sweep-mixed-seeds",
        "sweep-mixed-n-vectors", "sweep-array-train", "sweep-none-holdout",
        "run-array-train",
        "run-array-holdout", "run-array-fresh", "run-dict-config",
        "run-none-train",
        "sweep-no-configs-array-train", "sweep-no-configs-none-holdout",
        "sweep-no-configs-str-fresh", "sweep-no-configs-empty-holdout",
        "sweep-no-configs-wide-fresh",
    ],
)
def test_wrong_argument_kinds_rejected(call, match):
    sets = tuple(generate(DatasetSpec(m_train=5, m_holdout=5, m_fresh=5, d=3, seed=1)))
    cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=4, seed=1)
    with pytest.raises(ConfigurationError, match=match) as excinfo:
        call(sets, cfg)
    assert type(excinfo.value) is ConfigurationError


def row_key(row):
    # NaN marks the halting row's withheld answer; compare it as a token.
    return tuple(
        "nan" if isinstance(v, float) and math.isnan(v) else v
        for v in dataclasses.astuple(row)
    )


def assert_same_trace(got, want):
    assert [row_key(r) for r in got.rows] == [row_key(r) for r in want.rows]
    assert got.halt_index == want.halt_index
    assert got.final_classifier.weights.dtype == want.final_classifier.weights.dtype
    assert np.array_equal(got.final_classifier.weights, want.final_classifier.weights)
    assert got.final_holdout_loss == want.final_holdout_loss
    assert got.guard_config == want.guard_config


@pytest.fixture
def count_runs(monkeypatch):
    """The config of each run_adaptive_analysis call made through the
    harness module."""
    calls = []
    original = harness.run_adaptive_analysis

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_adaptive_analysis", counted)
    return calls


def at_epsilons(cfg, epsilons):
    return [dataclasses.replace(cfg, epsilon=eps) for eps in epsilons]


def halt_kind(trace):
    """Where a trace halts: on query 1, on a later query, or never."""
    if trace.halt_index is None:
        return "never"
    return "first" if trace.halt_index == 1 else "later"


class TestSweep:
    # At seed 2 with signal, the third epsilon of each sweep halts on row 9:
    # the +1 candidate of a feature whose -1 candidate row 8 accepted.
    SWEEPS = {
        BoundMethod.MCLT: (0.05, 0.19, 0.25, 0.28, 0.55),
        BoundMethod.BERNSTEIN_SINGLE: (0.05, 0.25, 0.31, 0.34, 0.61),
        BoundMethod.BERNSTEIN_TWO_TERM: (0.05, 0.31, 0.37, 0.4, 0.67),
        BoundMethod.MCDIARMID_COMBINED: (0.05, 0.38, 0.44, 0.47, 0.74),
    }

    @staticmethod
    def spec(signal, m=200, d=12):
        bias = {"n_biased": 3, "bias": 0.4} if signal else {}
        return DatasetSpec(m_train=m, m_holdout=m, m_fresh=m, d=d, seed=2, **bias)

    @classmethod
    def sweeps(cls, case, signal):
        """The data of a ``test_equals_direct_runs`` case, and its sweeps:
        the configs of each and where their traces halt."""
        if isinstance(case, BoundMethod):
            cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=16, method=case, seed=2)
            eps = cls.SWEEPS[case]
            # The full sweep's largest epsilon never halts; the head's does.
            return generate(cls.spec(signal)), [
                (at_epsilons(cfg, eps), {"first", "later", "never"}),
                (at_epsilons(cfg, eps[:3]), {"first", "later"}),
            ]
        if case == "every_cell":
            cells = product(BoundMethod, (0.03, 0.05, 0.1, 0.2), (0.05, 0.1))
            halts = {"first", "later", "never"}
        else:  # the one run, at eps 0.06 and delta 0.1, halts on query 1
            cells = product([BoundMethod.MCDIARMID_COMBINED], (0.03, 0.05, 0.06), (0.05, 0.1))
            halts = {"first"}
        configs = [
            GuardConfig(epsilon=eps, delta=delta, n_vectors=16, method=method, seed=2)
            for method, eps, delta in cells
        ]
        return generate(cls.spec(signal, m=1000, d=30)), [(configs, halts)]

    @pytest.mark.parametrize("signal", [True, False])
    @pytest.mark.parametrize("case", [*BoundMethod, "every_cell", "halts_on_query_1"])
    def test_equals_direct_runs(self, case, signal, count_runs):
        data, sweeps = self.sweeps(case, signal)
        m = len(data.holdout)
        results = []
        for configs, halts in sweeps:
            count_runs.clear()
            traces = run_sweep(*data, configs)
            # One guard run, at the largest epsilon and the smallest s*.
            (run,) = count_runs
            assert run.epsilon == max(c.epsilon for c in configs)
            assert guard.Certifier(run, m).s_star == min(
                guard.Certifier(c, m).s_star for c in configs
            )
            assert len(traces) == len(configs)
            for config, trace in zip(configs, traces):
                assert_same_trace(trace, run_adaptive_analysis(*data, config))
            assert {halt_kind(t) for t in traces} == halts
            results.append(traces)
        if signal and isinstance(case, BoundMethod):
            # derived from the full sweep's run
            full = results[0]
            halt_row, prev = full[2].rows[-1], full[2].rows[-2]
            assert halt_row.halted and halt_row.candidate == 1
            assert prev.feature == halt_row.feature and prev.accepted
            assert prev.candidate == -1
            assert full[2].final_classifier.weights[halt_row.feature] == -1

    def test_later_acceptance_overrides_earlier(self, count_runs):
        # At seed 9, rows 10 and 11 accept -1 and then +1 for one feature,
        # and eps 0.23 halts on row 12: that feature's final weight is +1.
        spec = dataclasses.replace(self.spec(True), seed=9)
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.3, delta=0.1, n_vectors=16, seed=9)
        derived, _ = run_sweep(*data, at_epsilons(cfg, (0.23, 0.3)))
        assert count_runs == [cfg]
        direct = run_adaptive_analysis(*data, dataclasses.replace(cfg, epsilon=0.23))
        assert_same_trace(derived, direct)
        first, second = derived.rows[9:11]
        assert first.feature == second.feature
        assert (first.candidate, second.candidate) == (-1, 1)
        assert first.accepted and second.accepted and derived.halt_index == 12
        assert derived.final_classifier.weights[first.feature] == 1

    def test_order_and_duplicates_kept(self):
        spec = self.spec(True)
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=16, seed=2)
        epsilons = (0.28, 0.05, 0.28, 0.25)
        traces = run_sweep(*data, at_epsilons(cfg, epsilons))
        assert [t.guard_config.epsilon for t in traces] == list(epsilons)
        assert [t.halt_index for t in traces] == [None, 1, None, 9]
        # Both halts are cut from the 0.28 run, which answers those rows.
        for trace in (traces[1], traces[3]):
            last = trace.rows[-1]
            assert last.halted and not last.accepted
            assert math.isnan(last.holdout_acc)
            assert last.query_index == trace.halt_index
        assert run_sweep(*data, []) == []
        assert run_sweep(*data, iter(())) == []

    def test_generator_of_configs_equals_the_list(self):
        # run_sweep reads a one-shot iterable once: a generator of configs
        # gives the traces that the same configs give as a list.
        data = generate(self.spec(True))
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=16, seed=2)
        epsilons = self.SWEEPS[BoundMethod.MCLT]
        from_list = run_sweep(*data, at_epsilons(cfg, epsilons))
        from_generator = run_sweep(
            *data, (dataclasses.replace(cfg, epsilon=eps) for eps in epsilons)
        )
        assert len(from_generator) == len(from_list) == len(epsilons)
        for got, want in zip(from_generator, from_list):
            assert_same_trace(got, want)

    def test_one_run_where_the_guard_sees_a_non_monotone_bound(
        self, monkeypatch, count_runs
    ):
        # The guard's bound rises to 1.0 past slack 0.3, but the guard
        # decides by s*, which the real bound sets.  So eps 0.5 answers rows
        # whose delta_prime exceeds the threshold, and every smaller epsilon
        # is still cut from its run.
        real = bounds.overfit_bound

        def non_monotone(method, m, l, slack):
            return 1.0 if slack > 0.3 else real(method, m, l, slack)

        monkeypatch.setattr(guard, "overfit_bound", non_monotone)
        spec = self.spec(True)
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=16, seed=2)
        certifier = guard.Certifier(cfg, spec.m_holdout)
        epsilons = (0.01, 0.28, 0.5)
        traces = run_sweep(*data, at_epsilons(cfg, epsilons))
        assert count_runs == [cfg]
        assert [t.halt_index for t in traces] == [1, None, None]
        answered_above_threshold = 0
        for eps, trace in zip(epsilons, traces):
            direct = run_adaptive_analysis(*data, dataclasses.replace(cfg, epsilon=eps))
            assert_same_trace(trace, direct)
            for row in trace.rows:
                slack = max(0.0, eps - 2.0 * row.r_tilde)
                assert (not row.halted) == (slack >= certifier.s_star)
                answered_above_threshold += (
                    not row.halted and row.delta_prime > certifier.threshold
                )
        assert answered_above_threshold > 0


def reference_analysis(train, holdout, fresh, guard_config):
    """The learner one query at a time, through Guard.submit_query: the loop
    that the blocked run_adaptive_analysis must reproduce bit for bit."""
    d = train.features.shape[1]
    g = Guard(HoldoutSample(points=holdout, m=len(holdout)), guard_config)
    weights = np.zeros(d, dtype=np.int8)
    scores_h = np.zeros(len(holdout))
    scores_f = np.zeros(len(fresh))
    rows = []
    halt_index = None
    best_loss = math.inf

    def loss_query(scores):
        def query(_dataset):
            return (np.where(scores >= 0, 1, -1) != holdout.labels).astype(float)

        query.vectorized = True
        return query

    def submit(cand_scores_h, cand_scores_f, feature=None, candidate=0):
        nonlocal halt_index, best_loss
        query_index = len(rows) + 1
        outcome = g.submit_query(loss_query(cand_scores_h))
        if outcome.answered:
            accepted = outcome.empirical_mean < best_loss
            if accepted:
                best_loss = outcome.empirical_mean
            holdout_loss = outcome.empirical_mean
        else:
            accepted = None
            halt_index = query_index
            holdout_loss = math.nan
        fresh_acc = float(np.mean(np.where(cand_scores_f >= 0, 1, -1) == fresh.labels))
        rows.append(
            TraceRow(
                query_index=query_index,
                fresh_acc=fresh_acc,
                r_tilde=outcome.r_tilde,
                delta_prime=outcome.delta_prime,
                accepted=bool(accepted),
                halted=not outcome.answered,
                feature=feature,
                candidate=candidate,
                holdout_loss=holdout_loss,
            )
        )
        return accepted

    if submit(scores_h, scores_f) is not None:
        for i in feature_order(train):
            col_h = holdout.features[:, i]
            col_f = fresh.features[:, i]
            chosen = 0
            halted = False
            for cand in (-1, 1):
                accepted = submit(
                    scores_h + cand * col_h, scores_f + cand * col_f, int(i), cand
                )
                if accepted is None:
                    halted = True
                    break
                if accepted:
                    chosen = cand
            if chosen != 0:
                weights[i] = chosen
                scores_h = scores_h + chosen * col_h
                scores_f = scores_f + chosen * col_f
            if halted:
                break

    return ExperimentTrace(
        rows=rows,
        halt_index=halt_index,
        final_classifier=LinearClassifier(weights=weights.astype(int)),
        final_holdout_loss=best_loss,
        guard_config=guard_config,
    )


@pytest.fixture
def batches(monkeypatch):
    """[rows submitted, rows read] for each Guard.submit_batch call."""
    log = []
    original = Guard.submit_batch

    def spy(self, values):
        entry = [len(values), 0]
        log.append(entry)
        for outcome in original(self, values):
            entry[1] += 1
            yield outcome

    monkeypatch.setattr(Guard, "submit_batch", spy)
    return log


def ranked_data(d, live=(), m=100):
    """Train ranks the features in index order.  On the holdout and fresh sets
    every feature is the constant 1, except the ``live`` ones, which equal the
    label.  60% of labels are +1, so a constant feature never beats the
    all-positive baseline and a live one is accepted at weight +1."""
    labels = np.where(np.arange(m) % 5 < 3, 1, -1)
    train = make_dataset(labels[:, None] * (d - np.arange(d)), labels)
    features = np.ones((m, d))
    features[:, list(live)] = labels[:, None]
    return train, make_dataset(features, labels), make_dataset(features.copy(), labels)


class TestBlockedAnalysis:
    EPSILONS = {
        BoundMethod.MCLT: (0.22, 0.25, 0.3),
        BoundMethod.BERNSTEIN_SINGLE: (0.28, 0.31, 0.36),
        BoundMethod.BERNSTEIN_TWO_TERM: (0.34, 0.37, 0.42),
        BoundMethod.MCDIARMID_COMBINED: (0.4, 0.44, 0.5),
    }

    @pytest.mark.parametrize("signal", [True, False])
    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_equals_per_query_reference(self, method, signal):
        bias = {"n_biased": 4, "bias": 0.4} if signal else {}
        data = generate(
            DatasetSpec(m_train=200, m_holdout=200, m_fresh=300, d=40, seed=2, **bias)
        )
        ran_to_end = set()
        for eps in self.EPSILONS[method]:
            cfg = GuardConfig(
                epsilon=eps, delta=0.1, n_vectors=16, method=method, seed=2
            )
            trace = run_adaptive_analysis(*data, cfg)
            assert_same_trace(trace, reference_analysis(*data, cfg))
            ran_to_end.add(trace.halt_index is None)
        # each method halts on some epsilon and runs to the end on another
        assert ran_to_end == {True, False}

    @pytest.mark.parametrize(
        "spec, cfg, candidate",
        [
            (
                DatasetSpec(m_train=200, m_holdout=200, m_fresh=200, d=40, seed=2),
                GuardConfig(epsilon=0.25, delta=0.1, n_vectors=16, seed=2),
                1,
            ),
            # Halts on row 6, the -1 row that opens a two-feature block: the
            # fresh rerun submits that feature's +1 row too and must not read it.
            (
                DatasetSpec(
                    m_train=200, m_holdout=200, m_fresh=200, d=40, n_biased=3,
                    bias=0.4, seed=0,
                ),
                GuardConfig(epsilon=0.2, delta=0.1, n_vectors=16, seed=0),
                -1,
            ),
        ],
        ids=["halts_on_plus_row", "halts_on_minus_row"],
    )
    def test_halt_inside_a_block(self, batches, spec, cfg, candidate):
        data = generate(spec)
        trace = run_adaptive_analysis(*data, cfg)
        assert_same_trace(trace, reference_analysis(*data, cfg))
        submitted, read = batches[-1]
        assert trace.rows[-1].halted and trace.rows[-1].candidate == candidate
        assert read < submitted
        if candidate > 0:
            assert 1 < read

    def test_acceptance_on_last_feature_of_a_capped_block(self, batches, monkeypatch):
        cap = harness._MAX_BLOCK
        # blocks of 1, 2, 4, ... features end at feature 2 * cap - 2
        live = 2 * cap - 2
        data = ranked_data(d=live + 4, live=[live])
        # [submit_batch calls made so far, features compared] per fresh call
        fresh_calls = []
        compare = harness._candidate_predictions

        def spy(features, scores, block):
            if features is data[2].features:
                fresh_calls.append([len(batches), len(block)])
            return compare(features, scores, block)

        monkeypatch.setattr(harness, "_candidate_predictions", spy)
        cfg = GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=1)
        trace = run_adaptive_analysis(*data, cfg)
        assert_same_trace(trace, reference_analysis(*data, cfg))
        # The fresh set is compared after the guard's last block, in the
        # blocks the learner submitted to the guard after the baseline.
        assert fresh_calls == [[len(batches), n // 2] for n, _ in batches[1:]]
        capped = [i for i, (submitted, _) in enumerate(batches) if submitted == 2 * cap]
        assert len(capped) == 1
        assert batches[capped[0]] == [2 * cap, 2 * cap]
        assert batches[capped[0] + 1 :] == [[2, 2], [4, 4]]
        last = trace.rows[2 * live + 2]
        assert (last.feature, last.candidate, last.accepted) == (live, 1, True)
        assert [r.query_index for r in trace.rows if r.accepted] == [1, 2 * live + 3]

    def test_fewer_features_than_the_cap(self, batches):
        data = ranked_data(d=12)
        cfg = GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=1)
        trace = run_adaptive_analysis(*data, cfg)
        assert_same_trace(trace, reference_analysis(*data, cfg))
        # the baseline, then blocks of 1, 2 and 4 features and the last 5
        assert batches == [[1, 1], [2, 2], [4, 4], [8, 8], [10, 10]]
        assert trace.halt_index is None and len(trace.rows) == 25

    def test_both_candidates_of_one_feature_accepted(self):
        # At seed 9, rows 10 and 11 accept -1 and then +1 for one feature.
        spec = DatasetSpec(
            m_train=200, m_holdout=200, m_fresh=200, d=12, n_biased=3, bias=0.4, seed=9
        )
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.3, delta=0.1, n_vectors=16, seed=9)
        trace = run_adaptive_analysis(*data, cfg)
        assert_same_trace(trace, reference_analysis(*data, cfg))
        first, second = trace.rows[9:11]
        assert first.feature == second.feature
        assert (first.candidate, second.candidate) == (-1, 1)
        assert first.accepted and second.accepted
        assert trace.final_classifier.weights[first.feature] == 1

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool, np.float32])
    def test_feature_dtype_gives_the_float64_trace(self, dtype):
        # 0/1 features, which each dtype holds exactly.  Feature 0 is 1 on
        # every negative and 30% of positives: the learner accepts it at
        # weight -1, which numpy cannot apply as -1 times an unsigned column.
        # Feature 1 is 1 on 40% of positives only: it then turns the tied
        # positives back to +1 and is accepted at weight +1.
        rng = np.random.default_rng(7)
        sets = []
        for m in (300, 200, 200):
            labels = 2 * rng.integers(0, 2, size=m) - 1
            features = rng.integers(0, 2, size=(m, 6))
            features[:, 0] = (labels == -1) | (rng.random(m) < 0.3)
            features[:, 1] = (labels == 1) & (rng.random(m) < 0.4)
            sets.append((features, labels))
        cfg = GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=7)
        floats = [make_dataset(x, y) for x, y in sets]
        want = run_adaptive_analysis(*floats, cfg)
        assert_same_trace(want, reference_analysis(*floats, cfg))
        got = run_adaptive_analysis(
            *(LabeledDataset(features=x.astype(dtype), labels=y) for x, y in sets), cfg
        )
        assert_same_trace(got, want)
        assert {(r.feature, r.candidate) for r in got.rows if r.accepted} >= {(0, -1), (1, 1)}


def holdout_and_config(m, epsilon=0.9, seed=3):
    labels = np.where(np.random.default_rng(seed).random(m) < 0.6, 1, -1)
    cfg = GuardConfig(epsilon=epsilon, delta=0.1, n_vectors=8, seed=seed)
    return make_dataset(np.zeros((m, 1)), labels), cfg


def random_predictions(k, m, seed):
    return np.random.default_rng(seed).random((k, m)) < 0.5


class TestPredictionGuard:
    M = 60

    @pytest.mark.parametrize("epsilon", [0.4, 0.9])  # halts mid-block at 0.4
    def test_answers_the_losses_and_reads_the_block_once(self, epsilon):
        holdout, cfg = holdout_and_config(self.M, epsilon)
        predictions = random_predictions(8, self.M, seed=4)
        losses = predictions != (holdout.labels == 1)
        want = list(Guard(HoldoutSample(points=None, m=self.M), cfg).submit_batch(losses))
        assert (epsilon < 0.5) == (not want[-1].answered)
        # A read-only block: any write into it would raise.
        frozen = predictions.copy()
        frozen.setflags(write=False)
        assert list(PredictionGuard(holdout, cfg).submit_batch(frozen)) == want
        # Overwriting the caller's block before any row is pulled changes nothing.
        outcomes = PredictionGuard(holdout, cfg).submit_batch(predictions)
        np.logical_not(predictions, out=predictions)
        assert list(outcomes) == want

    MALFORMED = {
        "float": lambda good: good.astype(float),
        "int": lambda good: good.astype(int),
        "one-dimensional": lambda good: good[0],
        # != would broadcast a k x 1 block against the m labels.
        "k x 1": lambda good: good[:, :1],
        "k x (m + 1)": lambda good: np.hstack([good, good[:, :1]]),
        "nested list": lambda good: good.tolist(),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_block_rejected_without_state_change(self, case):
        good = random_predictions(3, self.M, seed=5)
        pg = PredictionGuard(*holdout_and_config(self.M))
        assert all(o.answered for o in pg.submit_batch(good))
        rad = pg.guard.rad
        before = rad.running_sup.copy(), rad.query_count, pg.guard.halted
        with pytest.raises(DomainError) as excinfo:
            pg.submit_batch(self.MALFORMED[case](good))
        assert type(excinfo.value) is DomainError
        assert np.array_equal(rad.running_sup, before[0])
        assert (rad.query_count, pg.guard.halted) == before[1:]

    def test_labels_live_only_in_positive(self):
        holdout, cfg = holdout_and_config(self.M)
        pg = PredictionGuard(holdout, cfg)
        # The guard's points are the features the analyst already holds.
        assert pg.guard.sample.points is holdout.features
        positive = holdout.labels == 1

        def holds_labels(value):
            return value is holdout or (
                isinstance(value, np.ndarray) and value.shape == positive.shape and any(
                    np.array_equal(value, form) for form in (holdout.labels, positive, ~positive)
                )
            )

        assert holds_labels(pg._positive)
        held = [
            f"{owner}.{name}"
            for owner, obj in (("mechanism", pg), ("guard", pg.guard), ("sample", pg.guard.sample))
            for name, value in vars(obj).items()
            if name != "_positive" and holds_labels(value)
        ]
        assert held == []

    @pytest.mark.parametrize(
        "holdout", ["x", None, np.zeros((M, 1))], ids=["str", "None", "array"]
    )
    def test_non_dataset_holdout_rejected(self, holdout):
        cfg = holdout_and_config(self.M)[1]
        with pytest.raises(ConfigurationError, match="holdout must be") as excinfo:
            PredictionGuard(holdout, cfg)
        assert type(excinfo.value) is ConfigurationError


class ScriptedMechanism:
    """A mechanism with no guard and no labels: it answers each row pulled
    with the next scripted mean, and a None halts.  ``blocks`` holds
    [a copy of each block submitted, rows pulled from it]."""

    def __init__(self, means):
        self.means = iter(means)
        self.blocks = []

    def submit_batch(self, predictions):
        entry = [predictions.copy(), 0]
        self.blocks.append(entry)

        def rows():
            for _ in predictions:
                mean = next(self.means)
                entry[1] += 1
                yield QueryOutcome(mean, 0.0, 0.0, mean is not None)
                if mean is None:
                    return

        return rows()


def test_greedy_learner_follows_a_scripted_mechanism():
    features = np.random.default_rng(8).normal(size=(50, 6))
    script = [
        0.5,  # baseline: accepted
        0.6, 0.5,  # feature 0: neither improves on 0.5
        0.45, 0.47,  # feature 1: -1 accepted; feature 2 is abandoned
        0.44, 0.4,  # feature 2, alone: -1 then +1 accepted
        None,  # feature 3's -1 halts
    ]
    mechanism = ScriptedMechanism(script)
    read = harness.greedy_learner(mechanism, np.arange(6), features)
    assert next(mechanism.means, "spent") == "spent"
    assert [(i, cand, accepted) for i, cand, _, accepted in read[1:]] == [
        (0, -1, False), (0, 1, False), (1, -1, True), (1, 1, False),
        (2, -1, True), (2, 1, True), (3, -1, False),
    ]
    # [rows submitted, rows pulled]: the acceptance in the 4-row block
    # abandons its last 2 rows, and blocks restart at one feature.
    assert [[len(b), n] for b, n in mechanism.blocks] == [
        [1, 1], [2, 2], [4, 2], [2, 2], [2, 1],
    ]
    # Each block predicts sign(scores + w x_j), under the scores of the
    # moves made before it.
    scores = [np.zeros(50)] * 3 + [-features[:, 1], features[:, 2] - features[:, 1]]
    for (block, _), s, first in zip(mechanism.blocks[1:], scores[1:], [0, 1, 2, 3]):
        cols = range(first, first + len(block) // 2)
        want = [s + w * features[:, j] >= 0 for j in cols for w in (-1, 1)]
        assert np.array_equal(block, np.array(want))
    assert mechanism.blocks[0][0].all()  # the all-zero classifier predicts +1


def test_greedy_learner_tries_the_features_of_its_order_only():
    # The order, not the width of ``features``, bounds the learner's loop.
    features = np.random.default_rng(8).normal(size=(50, 6))
    mechanism = ScriptedMechanism([0.5, 0.6, 0.6])
    read = harness.greedy_learner(mechanism, np.array([4]), features)
    assert [(i, cand) for i, cand, _, _ in read] == [(None, 0), (4, -1), (4, 1)]
    assert [[len(b), n] for b, n in mechanism.blocks] == [[1, 1], [2, 2]]


def test_aggregation_attack_returns_before_the_vote_after_a_halt():
    features = np.random.default_rng(9).normal(size=(50, 4))
    # The second single-feature row halts: the third and fourth are not read.
    mechanism = ScriptedMechanism([0.45, None])
    means, weights = harness.aggregation_attack(mechanism, features)
    assert (means, weights) == ([0.45], None)
    # One block, the d single-feature classifiers, and no vote block.
    [(block, pulled)] = mechanism.blocks
    assert np.array_equal(block, features.T >= 0) and pulled == 2
