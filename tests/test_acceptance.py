"""End-to-end acceptance checks for the guarded-holdout engine.

Each test covers one release criterion and prints a single pass/fail line,
so the suite doubles as a checklist:

  1 oracle equivalence of the Rademacher estimator
  2 bound formula fidelity against arbitrary-precision oracles
  3 ordering of the estimate-error bounds
  4 Monte-Carlo guard validity on no-signal data
  5 signal detection and method comparison
  6 property suites (monotonicity, halting, normal tail)
  7 differential-privacy holdout size report
  8 CLI determinism
"""

import functools
import json
import math
from contextlib import contextmanager
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radabound as rb
from radabound.bounds import (
    est_error_bernstein,
    est_error_mcdiarmid,
    est_error_mclt,
    normal_sf,
    overfit_bound_bernstein_single,
    overfit_bound_mcdiarmid_combined,
    overfit_bound_mclt,
    overfit_bound_two_term,
)
from radabound.cli import main as cli_main
from radabound.errors import GuardHaltedError
from radabound.guard import Certifier, Guard, GuardConfig, HoldoutSample
from radabound.rademacher import init_state
from radabound.synthdata import DatasetSpec, generate
from radabound.thresholdout import ThresholdoutParams, comparison_report, min_holdout_size

from rademacher_oracle import all_sign_matrix, exact_empirical_rademacher, state_of, update

mp.mp.dps = 40


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number}/8] {name}: FAIL")
        raise
    print(f"[acceptance {number}/8] {name}: PASS")


def test_1_oracle_equivalence():
    with criterion(1, "oracle equivalence"):
        rng = np.random.default_rng(2024)
        within_3se = 0
        for _ in range(50):
            m = int(rng.integers(2, 11))
            k = int(rng.integers(1, 6))
            values = rng.uniform(size=(k, m))
            oracle = exact_empirical_rademacher(values)

            # exhaustive average of incremental update-path estimates over
            # every sign vector, fed one function at a time
            state = state_of(all_sign_matrix(m))
            for row in values:
                exhaustive = update(state, row)
            assert exhaustive == pytest.approx(oracle, abs=1e-12)

            mc = init_state(m, 10_000, rng=rng)
            for row in values:
                estimate = update(mc, row)
            se = mc.running_sup.std(ddof=1) / math.sqrt(10_000)
            if abs(estimate - oracle) <= 3 * se:
                within_3se += 1
        assert within_3se >= 48


def test_2_bound_formula_fidelity():
    with criterion(2, "bound formula fidelity"):
        assert est_error_bernstein(1000, 8, 0.01) == pytest.approx(
            math.exp(-4.8 / 15.64), rel=1e-12
        )

        # 100-point grid against an arbitrary-precision oracle
        for m in (250, 500, 1000, 2000, 4000):
            for l in (2, 4, 8, 32):
                for slack in (0.01, 0.02, 0.05, 0.1, 0.2):
                    mm, ll, ss = mp.mpf(m), mp.mpf(l), mp.mpf(slack)
                    denom = (ll + 4 * mp.sqrt(ll) + 20) / (2 * mm * ll)
                    single = mp.e ** (-(ss**2) / (denom + 4 * ss / (3 * mm)))
                    assert overfit_bound_bernstein_single(m, l, slack) == pytest.approx(
                        float(single), rel=1e-9
                    )
                    scale = mp.sqrt(4 * ll * mm / (ll + 4 * mp.sqrt(ll) + 20))
                    mclt = 1 - mp.ncdf(ss * scale)
                    assert overfit_bound_mclt(m, l, slack) == pytest.approx(
                        float(mclt), rel=1e-9
                    )

        # minimization-based bounds against dense-grid oracles
        rng = np.random.default_rng(7)
        a_grid = np.linspace(0.0, 1.0, 10**6 + 2)[1:-1]
        for _ in range(20):
            m = int(rng.integers(100, 5000))
            l = int(2 ** rng.integers(1, 7))
            slack = float(rng.uniform(0.01, 0.3))
            a = a_grid * slack
            two_term = np.exp(-2.0 * m * (slack - a) ** 2) + np.exp(
                -3.0 * m * l * a * a / (30.0 + 8.0 * l * a)
            )
            assert overfit_bound_two_term(m, l, slack) == pytest.approx(
                min(1.0, float(two_term.min())), rel=1e-9
            )
            e2 = (slack - a) / 2.0
            combined = np.exp(-2.0 * m * a * a) + np.exp(
                -2.0 * m * l * e2 * e2 / (l + 4.0)
            )
            assert overfit_bound_mcdiarmid_combined(m, l, slack) == pytest.approx(
                min(1.0, float(combined.min())), rel=1e-9
            )


def test_3_bound_ordering():
    with criterion(3, "bound ordering"):
        for l in (2, 4, 8, 16, 32, 64):
            mclt = est_error_mclt(1000, l, 0.01)
            bern = est_error_bernstein(1000, l, 0.01)
            mcd = est_error_mcdiarmid(1000, l, 0.01)
            assert mclt <= bern <= mcd


def no_signal_spec(seed):
    return DatasetSpec(
        m_train=4000, m_holdout=4000, m_fresh=4000, d=500, seed=seed
    )


# test_4's cells, then the epsilon of its control: a guard that never halts.
NO_SIGNAL_EPSILONS = (0.05, 0.1, 0.2, 0.99)


class NoSignalRun(NamedTuple):
    extremes: dict  # eps -> largest |holdout_acc - 0.5| over the answered rows
    answered: dict  # eps -> number of answered rows
    r_tilde: np.ndarray  # the eps-0.99 run's columns, one entry per row
    deviation: np.ndarray  # |holdout_acc - 0.5|


@functools.cache
def no_signal_run(seed):
    """The greedy learner's run on test_4's data at each of
    NO_SIGNAL_EPSILONS, and the columns of the one at epsilon 0.99.

    The guard runs once per seed, at epsilon 0.99, where it answers every
    row; run_sweep derives each smaller epsilon's trace from that run, equal
    field for field to a run at that epsilon.  Labels are independent of
    features, so the true mean of every 0-1 loss query is exactly 0.5."""
    data = generate(no_signal_spec(seed))
    configs = [
        GuardConfig(
            epsilon=eps, delta=0.1, n_vectors=32, method=rb.BoundMethod.MCLT, seed=seed
        )
        for eps in NO_SIGNAL_EPSILONS
    ]
    traces = rb.run_sweep(data.train, data.holdout, data.fresh, configs)
    assert traces[-1].halt_index is None, seed
    answered = {
        eps: [row for row in trace.rows if not row.halted]
        for eps, trace in zip(NO_SIGNAL_EPSILONS, traces)
    }
    return NoSignalRun(
        extremes={
            eps: max((abs(row.holdout_acc - 0.5) for row in rows), default=0.0)
            for eps, rows in answered.items()
        },
        answered={eps: len(rows) for eps, rows in answered.items()},
        r_tilde=np.array([row.r_tilde for row in traces[-1].rows]),
        deviation=np.array([abs(row.holdout_acc - 0.5) for row in traces[-1].rows]),
    )


def no_signal_extremes(seed):
    """The largest ``|holdout_acc - 0.5|`` over the answered rows of the
    greedy learner's run at each of NO_SIGNAL_EPSILONS, on test_4's data."""
    return no_signal_run(seed).extremes


def test_4_guard_validity_monte_carlo():
    with criterion(4, "guard validity (no-signal Monte Carlo)"):
        epsilons = (0.05, 0.1, 0.2)
        violating_runs = {
            eps: sum(no_signal_extremes(seed)[eps] > eps for seed in range(50))
            for eps in epsilons
        }
        # one-sided binomial tolerance at 95% confidence for rate 0.1 on 50 runs
        for eps in epsilons:
            assert violating_runs[eps] <= 9, (eps, violating_runs)


def test_4_gate_fails_a_guard_that_never_halts():
    # test_4's eps 0.05 cell must be able to fail.  At epsilon 0.99 the guard
    # certifies every query, so it is no guard at all, and the greedy learner
    # overfits the holdout by more than 0.05 on more than 9 of test_4's seeds.
    violating_runs = sum(no_signal_extremes(seed)[0.99] > 0.05 for seed in range(50))
    assert violating_runs > 9, violating_runs


# The ceiling band: every eps in [0.04, 0.10] in steps of 0.0025.
BAND_EPSILONS = tuple(round(0.04 + 0.0025 * k, 4) for k in range(25))


def interval_answered(run, eps, s_star):
    """How many rows of the eps-0.99 run a guard at ``eps`` answers, by the
    guard's own rule: it answers while ``max(0, eps - 2 r_tilde) >= s*``.
    Below eps 0.99 the rows it answers are that run's rows."""
    passes = np.maximum(0.0, eps - 2.0 * run.r_tilde) >= s_star
    return int(np.logical_and.accumulate(passes).sum())


def band_violations(s_star):
    """eps -> how many of test_4's 50 seeds release an answer more than eps
    from 0.5, for a guard that answers while ``slack >= s_star``."""
    out = {}
    for eps in BAND_EPSILONS:
        out[eps] = 0
        for seed in range(50):
            run = no_signal_run(seed)
            n = interval_answered(run, eps, s_star)
            out[eps] += bool(run.deviation[:n].max(initial=0.0) > eps)
    return out


def method_s_star(method):
    """The s* of test_4's guard config with ``method``, from the library."""
    config = GuardConfig(epsilon=0.1, delta=0.1, n_vectors=32, method=method)
    return Certifier(config, no_signal_spec(0).m_holdout).s_star


def test_interval_verdicts_equal_the_derived_traces():
    # The band test's shortcut is the guard's rule: on test_4's derived mclt
    # traces at the two epsilons inside the band, the interval verdict
    # answers the same rows and finds the same largest deviation.
    s_star = method_s_star(rb.BoundMethod.MCLT)
    for seed in range(50):
        run = no_signal_run(seed)
        for eps in (0.05, 0.1):
            n = interval_answered(run, eps, s_star)
            assert n == run.answered[eps], (seed, eps)
            assert run.deviation[:n].max(initial=0.0) == run.extremes[eps], (seed, eps)


@pytest.mark.parametrize("method", list(rb.BoundMethod))
def test_validity_in_the_ceiling_band(method):
    # test_4's cells sit far from where a weak guard shows.  In the band
    # every cell gets test_4's tolerance of 9 violating runs of 50.
    violating_runs = band_violations(method_s_star(method))
    assert max(violating_runs.values()) <= 9, violating_runs


def test_band_gate_fails_a_guard_with_half_the_concentration_term():
    # With mclt's s* halved the guard still passes test_4's cells, but it
    # overfits by more than eps on more than 9 seeds in some band cell.
    violating_runs = band_violations(method_s_star(rb.BoundMethod.MCLT) / 2)
    assert max(violating_runs.values()) > 9, violating_runs


def aggregation_attack(data, config):
    """The reusable-holdout attack of Dwork et al. (Science 2015): submit
    every feature's 0-1 loss as one batch, then the loss of the sign vote of
    the features whose released accuracy is more than one standard deviation
    from 0.5.  Returns the released means and the vote's fresh accuracy, or
    None for it if the guard halted before the vote."""
    holdout, m = data.holdout, len(data.holdout)
    guard = Guard(HoldoutSample(points=holdout, m=m), config)
    losses = (holdout.features.T >= 0) != (holdout.labels == 1)
    means = [o.empirical_mean for o in guard.submit_batch(lambda _: losses) if o.answered]
    if guard.halted:
        return means, None
    deviation = 0.5 - np.array(means)  # accuracy - 0.5
    weights = np.where(np.abs(deviation) > 0.5 / math.sqrt(m), np.sign(deviation), 0.0)

    def vote_loss(dataset):
        return (dataset.features @ weights >= 0) != (dataset.labels == 1)

    vote_loss.vectorized = True
    outcome = guard.submit_query(vote_loss)
    if outcome.answered:
        means.append(outcome.empirical_mean)
    return means, 1.0 - float(vote_loss(data.fresh).mean())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the guard answers the vote's loss with an error above "
    "epsilon, while its r_tilde stays low",
)
def test_answers_stay_within_epsilon_under_aggregation_attack():
    # No signal, so the true mean of every 0-1 loss query is exactly 0.5.
    data = generate(
        DatasetSpec(m_train=4000, m_holdout=4000, m_fresh=4000, d=2000, seed=0)
    )
    eps = 0.1
    cfg = GuardConfig(
        epsilon=eps, delta=0.1, n_vectors=32, method=rb.BoundMethod.MCLT, seed=0
    )
    means, fresh_acc = aggregation_attack(data, cfg)
    worst = max(abs(mean - 0.5) for mean in means)
    assert worst <= eps, (len(means), worst, fresh_acc)


def test_5_signal_detection_and_method_comparison():
    with criterion(5, "signal detection and method comparison"):
        eps = 0.055
        accuracies = []
        mclt_later = 0
        for seed in range(10):
            spec = DatasetSpec(
                m_train=4000, m_holdout=4000, m_fresh=4000, d=500,
                variance=4.0, n_biased=50, bias=0.5, seed=seed,
            )
            data = generate(spec)
            # One guard run serves both methods: mclt has the smaller s*.
            mclt, bern = rb.run_sweep(data.train, data.holdout, data.fresh, [
                GuardConfig(epsilon=eps, delta=0.1, n_vectors=32, method=method, seed=seed)
                for method in (rb.BoundMethod.MCLT, rb.BoundMethod.BERNSTEIN_SINGLE)
            ])
            # The last accepted row's candidate is the final classifier.
            accuracies.append([row.fresh_acc for row in mclt.rows if row.accepted][-1])
            # never halting counts as halting later than any finite index
            mclt_h, bern_h = mclt.halt_index, bern.halt_index
            if bern_h is not None and (mclt_h is None or mclt_h > bern_h):
                mclt_later += 1
        assert float(np.median(accuracies)) >= 0.75, accuracies
        assert mclt_later >= 8, mclt_later


def test_6_property_suites():
    cases = settings(max_examples=1000, deadline=None)

    sign_rows = st.integers(min_value=1, max_value=6)
    unit_floats = st.floats(min_value=0.0, max_value=1.0)

    @cases
    @given(
        m=st.integers(min_value=1, max_value=6),
        l=sign_rows,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_rows=st.integers(min_value=1, max_value=5),
    )
    def rademacher_estimate_is_monotone(m, l, seed, n_rows):
        rng = np.random.default_rng(seed)
        state = init_state(m, l, rng=rng)
        prev = 0.0
        for _ in range(n_rows):
            est = update(state, rng.uniform(size=m))
            assert est >= prev
            prev = est

    @cases
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_queries=st.integers(min_value=1, max_value=5),
    )
    def certified_failure_probability_is_monotone(seed, n_queries):
        rng = np.random.default_rng(seed)
        guard = Guard(
            HoldoutSample(points=rng.uniform(size=8), m=8),
            GuardConfig(epsilon=0.9, delta=0.2, n_vectors=4, seed=seed),
        )
        prev = 0.0
        for _ in range(n_queries):
            vals = rng.uniform(size=8)
            outcome = guard.submit_query(lambda x, v=iter(vals): next(v))
            if not outcome.answered:
                break
            assert outcome.delta_prime >= prev
            prev = outcome.delta_prime

    @cases
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def halt_is_permanent(seed):
        guard = Guard(
            HoldoutSample(points=[0.1, 0.9, 0.4], m=3),
            GuardConfig(epsilon=0.01, delta=0.1, n_vectors=2, seed=seed),
        )
        outcome = guard.submit_query(lambda x: 1.0)
        assert not outcome.answered
        count = guard.rad.query_count
        with pytest.raises(GuardHaltedError):
            guard.submit_query(lambda x: 0.0)
        assert guard.rad.query_count == count

    @cases
    @given(
        m=st.integers(min_value=10, max_value=5000),
        l=st.integers(min_value=1, max_value=128),
        slack=st.floats(min_value=1e-4, max_value=0.5),
        dm=st.integers(min_value=1, max_value=2000),
        dl=st.integers(min_value=1, max_value=64),
        dslack=st.floats(min_value=1e-6, max_value=0.5),
    )
    def bounds_shrink_as_resources_grow(m, l, slack, dm, dl, dslack):
        for bound in (
            overfit_bound_two_term,
            overfit_bound_bernstein_single,
            overfit_bound_mclt,
            overfit_bound_mcdiarmid_combined,
        ):
            base = bound(m, l, slack)
            assert bound(m + dm, l, slack) <= base + 1e-12
            assert bound(m, l + dl, slack) <= base + 1e-12
            assert bound(m, l, slack + dslack) <= base + 1e-12

    @cases
    @given(
        x=st.floats(min_value=-10.0, max_value=10.0),
        dx=st.floats(min_value=0.0, max_value=10.0),
    )
    def normal_sf_symmetric_and_monotone(x, dx):
        assert abs(normal_sf(x) + normal_sf(-x) - 1.0) <= 1e-12
        assert normal_sf(x + dx) <= normal_sf(x)

    with criterion(6, "property suites"):
        rademacher_estimate_is_monotone()
        certified_failure_probability_is_monotone()
        halt_is_permanent()
        bounds_shrink_as_resources_grow()
        normal_sf_symmetric_and_monotone()


def test_7_dp_holdout_size_report():
    with criterion(7, "differential-privacy holdout size report"):
        p = ThresholdoutParams(k=10, budget=1, epsilon=0.5, delta=0.1)
        assert min_holdout_size(p) == pytest.approx(
            96.0 * 4.0 * math.log(400.0) * 16.0, rel=1e-9
        )
        report = comparison_report(p, radabound_m=4000)
        assert report["paper_printed_n"] == 3.7e6
        assert report["printed_n_note"] is not None

        small_eps = ThresholdoutParams(k=10, budget=1, epsilon=0.05, delta=0.1)
        assert min_holdout_size(small_eps) == pytest.approx(3.7e6, rel=0.02)


def test_8_cli_determinism(tmp_path):
    with criterion(8, "CLI determinism"):
        out = tmp_path / "out"
        config = {
            "experiment": {
                "m_train": 500, "m_holdout": 400, "m_fresh": 300, "d": 20,
                "n_biased": 4, "bias": 0.4, "seed": 5,
            },
            "guard": {
                "epsilon": 0.2, "delta": 0.1, "n_vectors": 16,
                "method": "mclt", "seed": 5,
            },
            "epsilon_list": [0.2, 0.3],
            "output_dir": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        assert cli_main(["run-experiment", "--config", str(path)]) == 0
        first = {
            f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()
        }
        assert set(first) == {"trace_eps0.2.csv", "trace_eps0.3.csv", "summary.json"}

        assert cli_main(["run-experiment", "--config", str(path)]) == 0
        second = {
            f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()
        }
        assert first == second
