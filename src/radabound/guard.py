"""The guarded-holdout state machine.

A guard owns a fixed holdout sample and answers adaptively chosen queries
(functions mapping an observation into [0, 1]) with their empirical means,
for as long as it can certify that the accumulated estimation error stays
below ``epsilon`` with probability at least 1 - delta.  Certification uses
the online Rademacher-complexity estimate together with one of the
concentration bounds in :mod:`radabound.bounds`.  When the per-step bound
exceeds delta * (1 - delta) the guard halts permanently: the triggering
query's mean is withheld and every later submission raises
GuardHaltedError.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import rademacher
from .bounds import BoundMethod, overfit_bound
from .errors import ConfigurationError, DomainError, GuardHaltedError
from .seeding import (
    seed_substream,
    validate_count,
    validate_fields,
    validate_seed,
    validate_type,
)


@dataclass(frozen=True)
class HoldoutSample:
    """The m protected observations.  ``points`` is opaque to the guard: it
    only needs to be iterable per observation, or consumable wholesale by a
    vectorized query."""

    points: object
    m: int

    def __post_init__(self):
        validate_count("m", self.m)


@dataclass(frozen=True)
class GuardConfig:
    epsilon: float
    delta: float
    n_vectors: int
    method: BoundMethod = BoundMethod.MCLT
    negation_closure: bool = True
    seed: int = 0

    def __post_init__(self):
        validate_type("epsilon", self.epsilon, numbers.Real)
        validate_type("delta", self.delta, numbers.Real)
        validate_count("n_vectors", self.n_vectors)
        validate_type("negation_closure", self.negation_closure, bool)
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        if not isinstance(self.method, BoundMethod):
            raise ConfigurationError(f"method must be a BoundMethod, got {self.method!r}")
        validate_seed(self.seed)

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "n_vectors": self.n_vectors,
            "method": self.method.value,
            "negation_closure": self.negation_closure,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GuardConfig":
        validate_fields("guard config", d, cls)
        try:
            method = BoundMethod(d.get("method", BoundMethod.MCLT))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        return cls(**{**d, "method": method})


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one submission.  ``answered`` is False when the guard halted
    on this query: ``empirical_mean`` is then None (the answer is withheld),
    while ``r_tilde`` and ``delta_prime`` are still recorded for diagnostics."""

    empirical_mean: float | None
    r_tilde: float
    delta_prime: float
    answered: bool


def stopping_threshold(delta: float) -> float:
    """Per-step certification threshold delta * (1 - delta)."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    return delta * (1.0 - delta)


class Certifier:
    """The per-query certification test for one config and sample size:
    ``r_tilde -> (delta_prime, answered)``.

    The guard and the one-run epsilon sweep both decide through this class,
    so a derived decision is bit-equal to a direct one.  It keeps the last
    (slack, delta_prime) pair: the bound is pure and r_tilde never decreases,
    so slack never increases and equal slacks come in runs, and one pair is
    an exact memo.
    """

    def __init__(self, config: GuardConfig, m: int):
        self.config = config
        self.m = m
        self.threshold = stopping_threshold(config.delta)
        self._slack = None
        self._delta_prime = None

    def __call__(self, r_tilde: float) -> tuple[float, bool]:
        slack = max(0.0, self.config.epsilon - 2.0 * r_tilde)
        if slack != self._slack:
            self._delta_prime = overfit_bound(
                self.config.method, self.m, self.config.n_vectors, slack
            )
            self._slack = slack
        # A plain bool, also when numpy-typed config values make it np.bool_.
        return self._delta_prime, bool(self._delta_prime <= self.threshold)


class Guard:
    """Single-writer state machine answering queries on a fixed sample."""

    def __init__(self, sample: HoldoutSample, config: GuardConfig):
        if not isinstance(sample, HoldoutSample):
            raise ConfigurationError("sample must be a HoldoutSample")
        self.sample = sample
        self.config = config
        self.rad = rademacher.init_state(
            sample.m,
            config.n_vectors,
            negation_closure=config.negation_closure,
            rng=seed_substream(config.seed, "signs"),
        )
        self.halted = False
        self.history: list[QueryOutcome] = []
        self._certify = Certifier(config, sample.m)

    def _evaluate(self, query) -> np.ndarray:
        # Values that are not numbers are rejected here; shape and range are
        # checked once, by RademacherState.preview.
        if getattr(query, "vectorized", False):
            return rademacher.as_floats(query(self.sample.points))
        return rademacher.as_floats([query(x) for x in self.sample.points])

    def _check_open(self) -> None:
        if self.halted:
            raise GuardHaltedError(
                "guard has halted; statistical validity of further queries "
                "cannot be guaranteed"
            )

    def _answer(self, values, candidate, estimate) -> QueryOutcome:
        """Certify one previewed query: commit its suprema and release its
        mean, or halt.  Records and returns the outcome."""
        delta_prime, answered = self._certify(estimate)
        if answered:
            self.rad.commit(candidate)
        else:
            # Halt: the triggering query is rejected, its mean withheld, and
            # the tentative complexity update is not committed.
            self.halted = True
        outcome = QueryOutcome(
            empirical_mean=float(values.mean()) if answered else None,
            r_tilde=estimate,
            delta_prime=delta_prime,
            answered=answered,
        )
        self.history.append(outcome)
        return outcome

    def submit_query(self, query) -> QueryOutcome:
        """Answer one query, or halt permanently if validity cannot be
        certified.  A malformed query (a value count other than m, a NaN, a
        value outside [0, 1], or a value that is not a bool, int or float)
        raises DomainError without touching guard state."""
        self._check_open()
        values = self._evaluate(query)
        candidate, estimate = self.rad.preview(values)
        return self._answer(values, candidate, estimate)

    def submit_batch(self, query) -> Iterator[QueryOutcome]:
        """Answer a block of k queries, one per row of ``query(points)``, a
        k x m value matrix.

        The whole matrix is validated and correlated with the sign vectors
        (one matrix product) before this returns; a malformed matrix raises
        DomainError without touching guard state.  The returned iterator
        answers one row per ``next()``, exactly as ``submit_query`` would at
        that moment: it commits, certifies and records that row only, so rows
        never pulled are never committed or recorded.  Iteration ends after a
        halting row, and ``next()`` raises GuardHaltedError if the guard was
        halted in between.

        Rows of {0, 1} values give outcomes bit-equal to sequential
        ``submit_query`` calls.  For other values in [0, 1] r_tilde and
        delta_prime may differ from them by a few ulps, because a matrix
        product may sum in a different order than a matrix-vector product.
        """
        self._check_open()
        values, corr = self.rad.correlations(query(self.sample.points))
        return self._answer_rows(values, corr)

    def _answer_rows(self, values, corr) -> Iterator[QueryOutcome]:
        for row_values, row_corr in zip(values, corr):
            self._check_open()
            outcome = self._answer(row_values, *self.rad.preview_corr(row_corr))
            yield outcome
            if not outcome.answered:
                return
