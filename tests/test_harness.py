import dataclasses
import math

import numpy as np
import pytest

from radabound import bounds, guard, harness
from radabound.bounds import BoundMethod
from radabound.errors import ConfigurationError, DimensionError
from radabound.guard import Guard, GuardConfig, HoldoutSample
from radabound.harness import (
    ExperimentTrace,
    LinearClassifier,
    TraceRow,
    evaluate_on,
    feature_order,
    run_adaptive_analysis,
    run_epsilon_sweep,
)
from radabound.synthdata import DatasetSpec, LabeledDataset, generate


def make_dataset(features, labels):
    return LabeledDataset(
        features=np.asarray(features, dtype=float), labels=np.asarray(labels)
    )


class TestLinearClassifier:
    def test_sign_zero_is_positive(self):
        w = LinearClassifier(weights=np.zeros(3, dtype=int))
        preds = w.predict(np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(preds == 1)

    def test_separating_example(self):
        w = LinearClassifier(weights=np.array([1, 0, -1]))
        x = np.array([[2.0, 9.0, 1.0], [0.5, -3.0, 4.0]])
        assert list(w.predict(x)) == [1, -1]

    def test_rejects_fractional_weights(self):
        with pytest.raises(ConfigurationError):
            LinearClassifier(weights=np.array([0.5, 1.0]))

    def test_dimension_mismatch(self):
        w = LinearClassifier(weights=np.array([1, -1]))
        with pytest.raises(DimensionError):
            w.predict(np.zeros((3, 4)))


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


def test_evaluate_on_separating_classifier():
    features = np.array([[3.0, 0.1], [-2.0, 0.2], [5.0, -0.3]])
    labels = np.array([1, -1, 1])
    ds = make_dataset(features, labels)
    w = LinearClassifier(weights=np.array([1, 0]))
    assert evaluate_on(ds, w) == 1.0


def test_evaluate_on_zero_classifier_predicts_positive():
    ds = make_dataset(np.zeros((4, 2)), [1, -1, -1, 1])
    assert evaluate_on(ds, LinearClassifier(weights=np.zeros(2, dtype=int))) == 0.5


def test_evaluate_on_weight_negation_complements_accuracy():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(50, 3))
    labels = 2 * rng.integers(0, 2, size=50) - 1
    ds = make_dataset(features, labels)
    w = np.array([1, -1, 1])
    a = evaluate_on(ds, LinearClassifier(weights=w))
    b = evaluate_on(ds, LinearClassifier(weights=-w))
    # continuous features: ties have probability zero
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_evaluate_on_duplicated_rows():
    features = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([1, -1])
    ds = make_dataset(np.vstack([features] * 3), np.tile(labels, 3))
    w = LinearClassifier(weights=np.array([1, 0]))
    base = evaluate_on(make_dataset(features, labels), w)
    assert evaluate_on(ds, w) == base == 1.0


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
        spec, trace = small_trace
        data = generate(spec)
        final = evaluate_on(data.fresh, trace.final_classifier)
        assert final >= 0.75
        assert np.count_nonzero(trace.final_classifier.weights) >= 1

    def test_deterministic(self, small_trace):
        spec, trace = small_trace
        cfg = trace.guard_config
        again = run_adaptive_analysis(*generate(spec), cfg)
        assert again.rows == trace.rows
        assert np.array_equal(
            again.final_classifier.weights, trace.final_classifier.weights
        )

    def test_no_signal_fresh_accuracy_near_half(self):
        spec = DatasetSpec(
            m_train=200, m_holdout=2000, m_fresh=4000, d=10, seed=29
        )
        cfg = GuardConfig(epsilon=0.4, delta=0.1, n_vectors=8, seed=29)
        trace = run_adaptive_analysis(*generate(spec), cfg)
        data = generate(spec)
        final = evaluate_on(data.fresh, trace.final_classifier)
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
        data = generate(DatasetSpec(m_train=5, m_holdout=5, m_fresh=5, d=3, seed=1))
        other = generate(DatasetSpec(m_train=5, m_holdout=5, m_fresh=5, d=4, seed=1))
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=4, seed=1)
        with pytest.raises(DimensionError):
            run_adaptive_analysis(data.train, other.holdout, data.fresh, cfg)


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
    """Counts run_adaptive_analysis calls made through the harness module."""
    calls = []
    original = harness.run_adaptive_analysis

    def counted(*args, **kwargs):
        calls.append(args[3].epsilon)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_adaptive_analysis", counted)
    return calls


class TestEpsilonSweep:
    # At seed 2 with signal, the third epsilon of each sweep halts on row 9:
    # the +1 candidate of a feature whose -1 candidate row 8 accepted.
    SWEEPS = {
        BoundMethod.MCLT: (0.05, 0.19, 0.25, 0.28, 0.55),
        BoundMethod.BERNSTEIN_SINGLE: (0.05, 0.25, 0.31, 0.34, 0.61),
        BoundMethod.BERNSTEIN_TWO_TERM: (0.05, 0.31, 0.37, 0.4, 0.67),
        BoundMethod.MCDIARMID_COMBINED: (0.05, 0.38, 0.44, 0.47, 0.74),
    }

    @staticmethod
    def spec(signal):
        bias = {"n_biased": 3, "bias": 0.4} if signal else {}
        return DatasetSpec(m_train=200, m_holdout=200, m_fresh=200, d=12, seed=2, **bias)

    @pytest.mark.parametrize("signal", [True, False])
    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_equals_direct_runs(self, method, signal, count_runs):
        spec = self.spec(signal)
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=16, method=method, seed=2)
        all_eps = self.SWEEPS[method]
        full, head = (
            self.sweep_equals_direct_runs(data, cfg, epsilons, count_runs)
            for epsilons in (all_eps, all_eps[:3])
        )
        # The full sweep's largest epsilon never halts; the head's does.
        assert full[-1].halt_index is None
        assert head[0].halt_index < head[-1].halt_index
        if signal:
            # derived from the full sweep's run
            halt_row, prev = full[2].rows[-1], full[2].rows[-2]
            assert halt_row.halted and halt_row.candidate == 1
            assert prev.feature == halt_row.feature and prev.accepted
            assert prev.candidate == -1
            assert full[2].final_classifier.weights[halt_row.feature] == -1

    @staticmethod
    def sweep_equals_direct_runs(data, cfg, epsilons, count_runs):
        count_runs.clear()
        traces = run_epsilon_sweep(*data, cfg, epsilons)
        assert count_runs == [max(epsilons)]
        assert len(traces) == len(epsilons)
        for eps, trace in zip(epsilons, traces):
            direct = run_adaptive_analysis(*data, dataclasses.replace(cfg, epsilon=eps))
            assert_same_trace(trace, direct)
        return traces

    def test_later_acceptance_overrides_earlier(self, count_runs):
        # At seed 9, rows 10 and 11 accept -1 and then +1 for one feature,
        # and eps 0.23 halts on row 12: that feature's final weight is +1.
        spec = dataclasses.replace(self.spec(True), seed=9)
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.3, delta=0.1, n_vectors=16, seed=9)
        derived, _ = run_epsilon_sweep(*data, cfg, (0.23, 0.3))
        assert count_runs == [0.3]
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
        traces = run_epsilon_sweep(*data, cfg, epsilons)
        assert [t.guard_config.epsilon for t in traces] == list(epsilons)
        assert [t.halt_index for t in traces] == [None, 1, None, 9]
        assert run_epsilon_sweep(*data, cfg, ()) == []

    def test_non_monotone_bound_runs_directly(self, monkeypatch, count_runs):
        # A bound that rises again at large slack: eps 0.5 halts on row 1,
        # while eps 0.28 answers that row, so its trace cannot be cut from the
        # eps 0.5 run and must be run directly.  eps 0.01 halts on row 1 too,
        # and is still derived.
        real = bounds.overfit_bound

        def non_monotone(method, m, l, slack):
            return 1.0 if slack > 0.3 else real(method, m, l, slack)

        monkeypatch.setattr(guard, "overfit_bound", non_monotone)
        spec = self.spec(True)
        data = generate(spec)
        cfg = GuardConfig(epsilon=0.5, delta=0.1, n_vectors=16, seed=2)
        epsilons = (0.01, 0.28, 0.5)
        traces = run_epsilon_sweep(*data, cfg, epsilons)
        assert count_runs == [0.5, 0.28]
        assert [t.halt_index for t in traces] == [1, None, 1]
        for eps, trace in zip(epsilons, traces):
            direct = run_adaptive_analysis(*data, dataclasses.replace(cfg, epsilon=eps))
            assert_same_trace(trace, direct)


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

    def spy(self, query):
        values = query(self.sample.points)
        entry = [len(values), 0]
        log.append(entry)
        for outcome in original(self, lambda _points: values):
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
    return train, make_dataset(features, labels), make_dataset(features, labels)


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

    def test_halt_inside_a_block(self, batches):
        data = generate(
            DatasetSpec(m_train=200, m_holdout=200, m_fresh=200, d=40, seed=2)
        )
        cfg = GuardConfig(epsilon=0.25, delta=0.1, n_vectors=16, seed=2)
        trace = run_adaptive_analysis(*data, cfg)
        assert_same_trace(trace, reference_analysis(*data, cfg))
        submitted, read = batches[-1]
        assert trace.rows[-1].halted and 1 < read < submitted

    def test_acceptance_on_last_feature_of_a_capped_block(self, batches):
        cap = harness._MAX_BLOCK
        # blocks of 1, 2, 4, ... features end at feature 2 * cap - 2
        live = 2 * cap - 2
        data = ranked_data(d=live + 4, live=[live])
        cfg = GuardConfig(epsilon=0.9, delta=0.1, n_vectors=8, seed=1)
        trace = run_adaptive_analysis(*data, cfg)
        assert_same_trace(trace, reference_analysis(*data, cfg))
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
