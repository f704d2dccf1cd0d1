"""Concentration bounds used to certify answers on a reused holdout sample.

All functions here are pure and return probabilities in [0, 1].  They bound
either the error of the Monte-Carlo Rademacher-complexity estimate
(``est_error_*``) or the probability that the accumulated estimation error of
the whole query family exceeds the remaining budget (``overfit_bound_*``).

The ``slack`` argument is the remaining error budget after subtracting twice
the current complexity estimate from the user's tolerance; it is always
non-negative (the caller clamps at zero) and slack = 0 is a legal degenerate
input: exponential bounds return 1 there, the normal-approximation bound
returns 0.5.  The normal tail comes from the stdlib ``math.erfc``.

The two bounds defined as a minimum over a split of the budget
(``overfit_bound_two_term``, ``overfit_bound_mcdiarmid_combined``) write
their objective once as ``objective(x, exp)``: arithmetic on ``x`` plus the
given ``exp``.  ``_minimize_split`` calls it with a numpy grid and
``np.exp`` to find the best grid point, and with floats and ``math.exp`` for
every value it can return, so results are Python floats.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum

import numpy as np

from .errors import DomainError
from .seeding import MAX_COUNT, is_kind

_SQRT2 = math.sqrt(2.0)

# Inner-minimization controls for the two bounds defined as a minimum over a
# free split of the budget: coarse uniform grid, then golden-section
# refinement around the best grid point.
_GRID_POINTS = 1024
_REFINE_REL_TOL = 1e-10

# The checks below cap every eps and slack here, and normal_sf its argument
# at +-cap, since past about 1e154 the squared tolerance overflows.  The cap
# changes no value: each bound is non-increasing in its tolerance, m and l,
# and at m = l = 1 is already exactly 0.0 at the cap, with exponents below
# -1800 (the split bounds mid-split) and normal tails 4000 sd out.
_TOLERANCE_CAP = 1e4


class BoundMethod(str, Enum):
    """Which certification bound the guard applies at each step.  A ``str``
    so that ``json`` writes its value; never format it with ``format()`` or an
    f-string, whose result differs across Python versions: use ``.value``."""

    BERNSTEIN_TWO_TERM = "bernstein_two_term"
    BERNSTEIN_SINGLE = "bernstein_single"
    MCLT = "mclt"
    MCDIARMID_COMBINED = "mcdiarmid_combined"


# ---------------------------------------------------------------------------
# Standard normal tail (stdlib math.erfc)
# ---------------------------------------------------------------------------


def normal_sf(x: float) -> float:
    """Standard normal upper tail 1 - Phi(x), from the stdlib ``math.erfc``
    without cancellation.  Raises DomainError unless ``x`` is a finite real."""
    if not (is_kind(x, numbers.Real) and -math.inf < x < math.inf):
        raise DomainError(f"normal_sf requires a finite argument, got {x!r}")
    x = float(max(-_TOLERANCE_CAP, min(x, _TOLERANCE_CAP)))
    return 0.5 * math.erfc(x / _SQRT2)


# ---------------------------------------------------------------------------
# Estimate-error bounds (complexity estimate vs its expectation)
# ---------------------------------------------------------------------------


def _check_counts(*counts) -> list[int]:
    # m, then l if given, as Python ints.  numpy integers are counts.
    for name, n in zip(("sample size", "sign-vector count"), counts):
        if not (is_kind(n, numbers.Integral) and 1 <= n <= MAX_COUNT):
            raise DomainError(f"{name} must be an int in [1, {MAX_COUNT}], got {n!r}")
    return [int(n) for n in counts]


def _check_eps(eps: float) -> float:
    if not (is_kind(eps, numbers.Real) and 0.0 < eps < math.inf):
        raise DomainError(f"estimate-error tolerance must be finite and > 0, got {eps!r}")
    return float(min(eps, _TOLERANCE_CAP))


def _check_slack(slack: float) -> float:
    if not (is_kind(slack, numbers.Real) and 0.0 <= slack < math.inf):
        raise DomainError(f"slack must be finite and >= 0, got {slack!r}")
    return float(min(slack, _TOLERANCE_CAP))


def _clamp(p: float) -> float:
    # Only the split bounds need it: their sum of two terms can exceed 1.
    return min(1.0, max(0.0, p))


def est_error_bernstein(m: int, n_vectors: int, eps: float) -> float:
    """Martingale-Bernstein bound on the complexity-estimate error.

    exp(-6 m l eps^2 / (15 + 8 l eps)) with l = n_vectors.
    """
    m, n_vectors = _check_counts(m, n_vectors)
    eps = _check_eps(eps)
    return math.exp(-6.0 * m * n_vectors * eps * eps / (15.0 + 8.0 * n_vectors * eps))


def est_error_mcdiarmid(m: int, n_vectors: int, eps: float) -> float:
    """McDiarmid bound on the complexity-estimate error: exp(-2 m l eps^2 / (l + 4))."""
    m, n_vectors = _check_counts(m, n_vectors)
    eps = _check_eps(eps)
    return math.exp(-2.0 * m * n_vectors * eps * eps / (n_vectors + 4.0))


def est_error_mclt(m: int, n_vectors: int, slack: float) -> float:
    """Normal-limit bound on the complexity-estimate error.

    Tail probability of exceeding ``slack`` once the standardized estimate
    error is treated as N(0, 5/(4 l m)).  Analysis/comparison use only.
    """
    m, n_vectors = _check_counts(m, n_vectors)
    slack = _check_slack(slack)
    return normal_sf(2.0 * slack * math.sqrt(n_vectors * m / 5.0))


# ---------------------------------------------------------------------------
# Overfit-probability bounds (guard hot path)
# ---------------------------------------------------------------------------


def _minimize_split(objective, upper: float) -> float:
    """Minimize a smooth scalar function over the open interval (0, upper).

    ``objective(x, exp)`` takes a float with ``exp=math.exp`` or a float
    array with ``exp=np.exp``.  The coarse uniform grid (_GRID_POINTS
    interior points) is one numpy call and only picks the best grid point.
    That point and the golden-section refinement around it, to relative
    tolerance _REFINE_REL_TOL on the argument, are evaluated on floats with
    ``math.exp``, so the minimum is a Python float equal to what a scalar
    loop over the same grid returns.
    """
    h = upper / (_GRID_POINTS + 1)
    grid = objective(np.arange(1, _GRID_POINTS + 1) * h, np.exp)
    best_i = int(np.argmin(grid)) + 1
    best_v = objective(best_i * h, math.exp)

    def f(x: float) -> float:
        return objective(x, math.exp)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (best_i - 1) * h, (best_i + 1) * h
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _REFINE_REL_TOL * upper:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return min(best_v, fc, fd, f(mid))


def overfit_bound_two_term(m: int, n_vectors: int, slack: float) -> float:
    """Two-term Bernstein bound, minimized over the split of the budget.

    min over a in (0, slack) of exp(-2m (slack-a)^2) + exp(-3 m l a^2 / (30 + 8 l a)).
    Returns 1 for slack = 0.
    """
    m, n_vectors = _check_counts(m, n_vectors)
    slack = _check_slack(slack)

    def objective(a, exp):
        t1 = exp(-2.0 * m * (slack - a) ** 2)
        t2 = exp(-3.0 * m * n_vectors * a * a / (30.0 + 8.0 * n_vectors * a))
        return t1 + t2

    return _clamp(_minimize_split(objective, slack))


def overfit_bound_bernstein_single(m: int, n_vectors: int, slack: float) -> float:
    """Single-application Bernstein bound.

    exp(-slack^2 / ((l + 4 sqrt(l) + 20)/(2 m l) + 4 slack/(3 m))).
    Returns 1 for slack = 0.
    """
    m, n_vectors = _check_counts(m, n_vectors)
    slack = _check_slack(slack)
    denom = (n_vectors + 4.0 * math.sqrt(n_vectors) + 20.0) / (
        2.0 * m * n_vectors
    ) + 4.0 * slack / (3.0 * m)
    return math.exp(-slack * slack / denom)


def overfit_bound_mclt(m: int, n_vectors: int, slack: float) -> float:
    """Normal-limit bound: upper tail of the standardized slack.

    1 - Phi(slack * sqrt(4 l m / (l + 4 sqrt(l) + 20))).  Returns 0.5 for
    slack = 0 (the exact limit value).
    """
    m, n_vectors = _check_counts(m, n_vectors)
    slack = _check_slack(slack)
    scale = math.sqrt(
        4.0 * n_vectors * m / (n_vectors + 4.0 * math.sqrt(n_vectors) + 20.0)
    )
    return normal_sf(slack * scale)


def overfit_bound_mcdiarmid_combined(m: int, n_vectors: int, slack: float) -> float:
    """McDiarmid analogue of the two-term bound, minimized over the split
    slack = e1 + 2 e2 of exp(-2 m e1^2) + exp(-2 m l e2^2 / (l + 4)).
    Returns 1 for slack = 0."""
    m, n_vectors = _check_counts(m, n_vectors)
    slack = _check_slack(slack)

    def objective(e1, exp):
        e2 = (slack - e1) / 2.0
        t1 = exp(-2.0 * m * e1 * e1)
        t2 = exp(-2.0 * m * n_vectors * e2 * e2 / (n_vectors + 4.0))
        return t1 + t2

    return _clamp(_minimize_split(objective, slack))


_METHOD_DISPATCH = {
    BoundMethod.BERNSTEIN_TWO_TERM: overfit_bound_two_term,
    BoundMethod.BERNSTEIN_SINGLE: overfit_bound_bernstein_single,
    BoundMethod.MCLT: overfit_bound_mclt,
    BoundMethod.MCDIARMID_COMBINED: overfit_bound_mcdiarmid_combined,
}


def overfit_bound(method: BoundMethod, m: int, n_vectors: int, slack: float) -> float:
    """Dispatch to the overfit-probability bound selected by ``method``, a
    ``BoundMethod`` or its value.  Any other method raises DomainError."""
    try:
        bound = _METHOD_DISPATCH[method]
    except (KeyError, TypeError):
        names = ", ".join(choice.value for choice in BoundMethod)
        raise DomainError(f"method must be one of {names}, got {method!r}") from None
    return bound(m, n_vectors, slack)


# ---------------------------------------------------------------------------
# Bound comparison table
# ---------------------------------------------------------------------------

COMPARE_TABLE_HEADER = ("l", "mcdiarmid", "bernstein", "mclt")


def compare_bounds_table(m: int, eps: float, l_values) -> list[tuple[int, float, float, float]]:
    """One row per sign-vector count: McDiarmid, Bernstein and normal-limit
    estimate-error bounds evaluated at the same (m, eps)."""
    (m,) = _check_counts(m)
    eps = _check_eps(eps)
    # Every l is checked, and read as a Python int, before any row is built.
    l_values = [_check_counts(m, l)[1] for l in l_values]
    return [
        (l, est_error_mcdiarmid(m, l, eps), est_error_bernstein(m, l, eps),
         est_error_mclt(m, l, eps))
        for l in l_values
    ]
