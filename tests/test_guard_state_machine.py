"""Stateful property test of the guard's contract.

Hypothesis drives a small guard (m = 50, each bound method in turn) with valid,
out-of-range, NaN and wrong-length queries, and with batches of queries that
it reads only in part.  After every step it checks that halting is absorbing,
that a rejected query leaves the state untouched, that r_tilde never
decreases, that each decision is ``slack >= s*`` at the recorded r_tilde, and
that delta_prime is the bound evaluated afresh there.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from radabound.bounds import BoundMethod, min_passing_slack, overfit_bound
from radabound.errors import DomainError, GuardHaltedError
from radabound.guard import Guard, GuardConfig, HoldoutSample

from rademacher_oracle import grid_correlations

M = 50

# Value patterns for a query: spread-out values move r_tilde, flat ones
# mostly leave it where it is, so both memo hits and misses occur.
PATTERNS = ("uniform", "binary", "constant", "sparse")


def query_values(pattern: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if pattern == "uniform":
        return rng.uniform(size=M)
    if pattern == "binary":
        return rng.integers(0, 2, size=M).astype(float)
    if pattern == "constant":
        return np.full(M, rng.uniform())
    return (rng.uniform(size=M) < 0.1).astype(float)


def as_query(values: np.ndarray, vectorized: bool):
    """Per-point queries read the value at the point's index; the holdout
    points are the indices 0..M-1."""
    if vectorized:
        def query(points):
            return values
        query.vectorized = True
        return query
    return lambda i: values[i]


class GuardMachine(RuleBasedStateMachine):
    method = BoundMethod.MCLT

    @initialize(
        epsilon=st.sampled_from([0.99, 0.9, 0.6, 0.3]),
        delta=st.sampled_from([0.3, 0.1, 0.05]),
        n_vectors=st.sampled_from([32, 8, 2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def make_guard(self, epsilon, delta, n_vectors, seed):
        self.config = GuardConfig(
            epsilon=epsilon, delta=delta, n_vectors=n_vectors, method=self.method, seed=seed
        )
        self.guard = Guard(HoldoutSample(points=list(range(M)), m=M), self.config)
        self.s_star = min_passing_slack(self.method, M, n_vectors, delta * (1.0 - delta))
        self.committed_rows = []
        self.outcomes = []
        self.was_halted = False
        self.last_r_tilde = 0.0

    def _snapshot(self):
        rad = self.guard.rad
        return rad.running_sup.copy(), rad.query_count

    def _assert_unchanged(self, before):
        sup, count = before
        assert np.array_equal(self.guard.rad.running_sup, sup)
        assert self.guard.rad.query_count == count

    def _submit_rejected(self, query, expected, submit=None):
        before = self._snapshot()
        with pytest.raises(GuardHaltedError if self.was_halted else expected):
            (submit or self.guard.submit_query)(query)
        self._assert_unchanged(before)

    def _check_outcome(self, values, outcome):
        assert outcome.r_tilde >= self.last_r_tilde
        slack = max(0.0, self.config.epsilon - 2.0 * outcome.r_tilde)
        fresh = overfit_bound(self.config.method, M, self.config.n_vectors, slack)
        assert outcome.delta_prime == fresh
        assert outcome.answered == (slack >= self.s_star)
        self.outcomes.append(outcome)
        if outcome.answered:
            assert outcome.empirical_mean == float(values.mean())
            self.committed_rows.append(values)
            self.last_r_tilde = outcome.r_tilde
        else:
            assert outcome.empirical_mean is None
            assert self.guard.halted
            self.was_halted = True

    @rule(
        pattern=st.sampled_from(PATTERNS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        vectorized=st.booleans(),
    )
    def submit_valid(self, pattern, seed, vectorized):
        values = query_values(pattern, seed)
        query = as_query(values, vectorized)
        if self.was_halted:
            self._submit_rejected(query, GuardHaltedError)
            return
        self._check_outcome(values, self.guard.submit_query(query))

    @rule(
        rows=st.lists(
            st.tuples(
                st.sampled_from(PATTERNS),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=4,
        ),
        pull=st.integers(min_value=0, max_value=4),
    )
    def submit_batch(self, rows, pull):
        values = np.array([query_values(*row) for row in rows]).reshape(len(rows), M)
        query = as_query(values, vectorized=True)
        if self.was_halted:
            self._submit_rejected(query, GuardHaltedError, self.guard.submit_batch)
            return
        # Rows past ``pull`` are abandoned, and must leave no trace.
        outcomes = self.guard.submit_batch(query)
        for row in values[:pull]:
            outcome = next(outcomes)
            self._check_outcome(row, outcome)
            if not outcome.answered:
                assert next(outcomes, None) is None
                break

    @rule(
        index=st.integers(min_value=0, max_value=M - 1),
        bad=st.sampled_from([-0.5, 1.5, np.inf, -np.inf]),
        vectorized=st.booleans(),
    )
    def submit_out_of_range(self, index, bad, vectorized):
        values = np.full(M, 0.5)
        values[index] = bad
        self._submit_rejected(as_query(values, vectorized), DomainError)

    @rule(index=st.integers(min_value=0, max_value=M - 1), vectorized=st.booleans())
    def submit_nan(self, index, vectorized):
        values = np.full(M, 0.5)
        values[index] = np.nan
        self._submit_rejected(as_query(values, vectorized), DomainError)

    @rule(length=st.sampled_from([0, 1, M - 1, M + 1, 2 * M]))
    def submit_wrong_length(self, length):
        self._submit_rejected(as_query(np.full(length, 0.5), True), DomainError)

    @invariant()
    def halting_is_absorbing(self):
        assert self.guard.halted == self.was_halted

    @invariant()
    def outcomes_match_committed_queries(self):
        assert self.guard.rad.query_count == len(self.committed_rows)
        assert len(self.outcomes) == len(self.committed_rows) + self.was_halted
        assert all(o.answered for o in self.outcomes[: len(self.committed_rows)])
        r_tildes = [o.r_tilde for o in self.outcomes]
        assert r_tildes == sorted(r_tildes)

    @invariant()
    def estimate_matches_recomputation(self):
        rad = self.guard.rad
        if not self.committed_rows:
            assert not rad.running_sup.any()
            return
        corr = grid_correlations(rad, self.committed_rows)
        assert np.array_equal(rad.running_sup, corr.max(axis=0))
        assert float(rad.running_sup.mean()) == self.last_r_tilde


def machine_test_case(method: BoundMethod):
    machine = type(f"GuardMachine_{method.value}", (GuardMachine,), {"method": method})
    case = machine.TestCase
    case.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
    return case


TestMcltGuard = machine_test_case(BoundMethod.MCLT)
TestBernsteinSingleGuard = machine_test_case(BoundMethod.BERNSTEIN_SINGLE)
TestBernsteinTwoTermGuard = machine_test_case(BoundMethod.BERNSTEIN_TWO_TERM)
TestMcdiarmidCombinedGuard = machine_test_case(BoundMethod.MCDIARMID_COMBINED)
