"""The guarded-holdout state machine.

A guard owns a fixed holdout sample and answers adaptively chosen queries
(functions mapping an observation into [0, 1]) with their empirical means,
for as long as it can certify that the accumulated estimation error stays
below ``epsilon`` with probability at least 1 - delta.  Certification uses
the online Rademacher-complexity estimate together with one of the
concentration bounds in :mod:`radabound.bounds`.  The guard answers while
the slack ``epsilon - 2 r_tilde`` is at least ``s*``, the smallest slack
whose bound is at most delta * (1 - delta): the bound is a tail
probability, which never rises with the slack, so ``s*`` certifies every
larger slack.  Otherwise the guard halts permanently: the triggering
query's mean is withheld and every later submission raises
GuardHaltedError.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import rademacher
from .bounds import BoundMethod, min_passing_slack, overfit_bound
from .errors import ConfigurationError, DomainError, GuardHaltedError
from .seeding import (
    seed_substream,
    validate_count,
    validate_fields,
    validate_fraction,
    validate_seed,
    validate_type,
)


@dataclass(frozen=True)
class HoldoutSample:
    """The m protected observations.  ``points`` is opaque to the guard: it
    only needs to be iterable per observation, or consumable wholesale by a
    vectorized query.  ``m`` is stored as a Python int.

    Every per-point query iterates ``points`` afresh, so a one-shot iterator
    (one that is its own iterator, such as a generator) raises
    ConfigurationError: it would answer only the first such query."""

    points: object
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", validate_count("m", self.m))
        try:
            one_shot = iter(self.points) is self.points
        except TypeError:  # not iterable: serves vectorized queries only
            one_shot = False
        if one_shot:
            raise ConfigurationError(
                f"points must be re-iterable, not a one-shot iterator, got {self.points!r}"
            )


@dataclass(frozen=True)
class GuardConfig:
    """``epsilon`` and ``delta`` are stored as Python floats, ``n_vectors``
    and ``seed`` as Python ints.  ``method`` is a ``BoundMethod`` or its
    value, stored as the ``BoundMethod``."""

    epsilon: float
    delta: float
    n_vectors: int
    method: BoundMethod = BoundMethod.MCLT
    seed: int = 0

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            object.__setattr__(self, name, validate_fraction(name, getattr(self, name)))
        object.__setattr__(self, "n_vectors", validate_count("n_vectors", self.n_vectors))
        try:
            object.__setattr__(self, "method", BoundMethod(self.method))
        except ValueError:
            names = ", ".join(choice.value for choice in BoundMethod)
            raise ConfigurationError(
                f"method must be one of {names}, got {self.method!r}"
            ) from None
        object.__setattr__(self, "seed", validate_seed(self.seed))

    @classmethod
    def from_dict(cls, d: dict) -> "GuardConfig":
        return cls(**validate_fields("guard config", d, cls))


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one submission.  ``answered`` is False when the guard halted
    on this query: ``empirical_mean`` is then None (the answer is withheld),
    while ``r_tilde`` and ``delta_prime`` are still recorded for diagnostics."""

    empirical_mean: float | None
    r_tilde: float
    delta_prime: float
    answered: bool


class Certifier:
    """The per-query certification test for one config and sample size:
    ``r_tilde -> (delta_prime, answered)``.

    A query is answered when its slack is at least ``s_star``, the
    ``bounds.min_passing_slack`` of the config's method, m, l and threshold,
    so a config never answers a row that one with no smaller epsilon and no
    larger ``s_star`` halts on.  ``delta_prime`` is the bound at the actual
    slack, a diagnostic.

    The guard and ``harness.run_sweep`` both decide through this class, so a
    derived decision is bit-equal to a direct one.  It keeps the last
    (slack, delta_prime) pair: the bound is pure and r_tilde never decreases,
    so slack never increases and equal slacks come in runs, and one pair is
    an exact memo.  The config holds Python floats, so slack and threshold
    are computed in double precision.
    """

    def __init__(self, config: GuardConfig, m: int):
        self.config = config
        self.m = m
        self.threshold = config.delta * (1.0 - config.delta)
        self.s_star = min_passing_slack(
            config.method, m, config.n_vectors, self.threshold
        )
        self._slack = None
        self._delta_prime = None

    def __call__(self, r_tilde: float) -> tuple[float, bool]:
        slack = max(0.0, self.config.epsilon - 2.0 * r_tilde)
        if slack != self._slack:
            self._delta_prime = overfit_bound(
                self.config.method, self.m, self.config.n_vectors, slack
            )
            self._slack = slack
        return self._delta_prime, slack >= self.s_star


class Guard:
    """Single-writer state machine answering queries on a fixed sample."""

    def __init__(self, sample: HoldoutSample, config: GuardConfig):
        self.sample = validate_type("sample", sample, HoldoutSample)
        self.config = validate_type("config", config, GuardConfig)
        self.rad = rademacher.init_state(
            sample.m,
            config.n_vectors,
            rng=seed_substream(config.seed, "signs"),
        )
        self.halted = False
        self._certify = Certifier(config, sample.m)

    def _check_open(self) -> None:
        if self.halted:
            raise GuardHaltedError(
                "guard has halted; statistical validity of further queries "
                "cannot be guaranteed"
            )

    def submit_query(self, query) -> QueryOutcome:
        """Answer one query, or halt permanently if validity cannot be
        certified.  A malformed query (not callable, per-point on points
        that are not iterable, a value count other than m, a NaN, a value
        outside [0, 1] or not a bool, int or float) raises DomainError
        without touching guard state.  Its m values are answered as a
        one-row ``submit_batch`` block."""
        self._check_open()
        if not callable(query):
            raise DomainError(f"a query must be callable, got {query!r}")
        if getattr(query, "vectorized", False):
            values = [query(self.sample.points)]
        else:
            try:
                points = iter(self.sample.points)
            except TypeError:
                raise DomainError("a per-point query needs iterable points; "
                                  "this sample serves vectorized queries only") from None
            values = [[query(x) for x in points]]
        return next(self._answer_rows(*self.rad.correlations(values)))

    def submit_batch(self, values) -> Iterator[QueryOutcome]:
        """Answer a block of k queries, one per row of ``values``, a k x m
        value matrix.

        The whole matrix is validated and correlated with the sign vectors
        (one product) before this returns, so changing it afterwards changes
        no outcome.  A malformed matrix raises DomainError without touching
        guard state, and so does anything that is not numbers, such as a
        callable.  The returned iterator answers one row per ``next()``,
        exactly as ``submit_query`` would at that moment: it certifies and
        commits that row only, so rows never pulled are never committed.
        Iteration ends after a halting row, and ``next()`` raises
        GuardHaltedError if the guard was halted in between.

        A bool matrix stays bool and any other dtype is read as float64.
        Every row's sums are exact integers, a popcount over packed bits
        when every value is 0 or 1 and a sum on a grid otherwise (see
        ``RademacherState.correlations``), so the outcomes are bit-equal to
        sequential ``submit_query`` calls.
        """
        self._check_open()
        return self._answer_rows(*self.rad.correlations(values))

    def _answer_rows(self, means, corr) -> Iterator[QueryOutcome]:
        """Certify each row in turn, given the row means and correlations that
        ``RademacherState.correlations`` returns: commit its suprema and release
        its mean, or halt and end the rows.  Yields each outcome; the guard
        keeps none."""
        for mean, row_corr in zip(means, corr):
            self._check_open()
            candidate, estimate = self.rad.preview_corr(row_corr)
            delta_prime, answered = self._certify(estimate)
            if answered:
                self.rad.commit(candidate)
            else:
                # Halt: the triggering query is rejected, its mean withheld,
                # and the tentative complexity update is not committed.
                self.halted = True
            yield QueryOutcome(
                empirical_mean=float(mean) if answered else None,
                r_tilde=estimate,
                delta_prime=delta_prime,
                answered=answered,
            )
            if not answered:
                return
