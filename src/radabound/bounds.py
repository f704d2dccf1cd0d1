"""Concentration bounds used to certify answers on a reused holdout sample.

All functions here are pure, and all but ``min_passing_slack`` return
probabilities in [0, 1].  They bound either the error of the Monte-Carlo
Rademacher-complexity estimate (``est_error_*``) or the probability that the
accumulated estimation error of the whole query family exceeds the remaining
budget (``overfit_bound_*``).  ``min_passing_slack`` gives the one slack
``s*`` against which the guard compares each slack.

The ``slack`` argument is the remaining error budget after subtracting twice
the current complexity estimate from the user's tolerance; it is always
non-negative (the caller clamps at zero) and slack = 0 is a legal degenerate
input: exponential bounds return 1 there, the normal-approximation bound
returns 0.5.  The normal tail comes from the stdlib ``math.erfc``.

The two bounds defined as a minimum over a split of the budget
(``overfit_bound_two_term``, ``overfit_bound_mcdiarmid_combined``) pass
``_minimize_split`` only ``exponents(x)``, their two tails' exponents as
arithmetic on ``x``; it sums the two ``exp`` terms and caps the result at 1.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
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


def _check_counts(m: int, n_vectors: int) -> tuple[int, int]:
    # Both as Python ints.  numpy integers are counts.
    for name, n in (("sample size", m), ("sign-vector count", n_vectors)):
        if not (is_kind(n, numbers.Integral) and 1 <= n <= MAX_COUNT):
            raise DomainError(f"{name} must be an int in [1, {MAX_COUNT}], got {n!r}")
    return int(m), int(n_vectors)


def _check_eps(eps: float) -> float:
    if not (is_kind(eps, numbers.Real) and 0.0 < eps < math.inf):
        raise DomainError(f"estimate-error tolerance must be finite and > 0, got {eps!r}")
    return float(min(eps, _TOLERANCE_CAP))


def _check_slack(slack: float) -> float:
    if not (is_kind(slack, numbers.Real) and 0.0 <= slack < math.inf):
        raise DomainError(f"slack must be finite and >= 0, got {slack!r}")
    return float(min(slack, _TOLERANCE_CAP))


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


def _minimize_split(exponents, upper: float) -> float:
    """Minimize exp(e1) + exp(e2), with ``e1, e2 = exponents(x)``, over the
    open interval (0, upper), capped at 1.

    ``exponents`` is arithmetic on ``x``, so it takes a float or a float
    array.  The coarse uniform grid (_GRID_POINTS interior points) is one
    numpy call and only picks the best grid point.  That point and the
    golden-section refinement around it, to relative tolerance
    _REFINE_REL_TOL on the argument, are evaluated on floats with
    ``math.exp``, so the minimum is a Python float equal to what a scalar
    loop over the same grid returns.
    """

    def f(x: float) -> float:
        e1, e2 = exponents(x)
        return math.exp(e1) + math.exp(e2)

    h = upper / (_GRID_POINTS + 1)
    e1, e2 = exponents(np.arange(1, _GRID_POINTS + 1) * h)
    best_i = int(np.argmin(np.exp(e1) + np.exp(e2))) + 1
    best_v = f(best_i * h)

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
    return min(1.0, best_v, fc, fd, f(mid))


def overfit_bound_two_term(m: int, n_vectors: int, slack: float) -> float:
    """Two-term Bernstein bound, minimized over the split of the budget.

    min over a in (0, slack) of exp(-2m (slack-a)^2) + exp(-3 m l a^2 / (30 + 8 l a)).
    Returns 1 for slack = 0.
    """
    m, n_vectors = _check_counts(m, n_vectors)
    slack = _check_slack(slack)

    def exponents(a):
        return (-2.0 * m * (slack - a) ** 2,
                -3.0 * m * n_vectors * a * a / (30.0 + 8.0 * n_vectors * a))

    return _minimize_split(exponents, slack)


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

    def exponents(e1):
        e2 = (slack - e1) / 2.0
        return -2.0 * m * e1 * e1, -2.0 * m * n_vectors * e2 * e2 / (n_vectors + 4.0)

    return _minimize_split(exponents, slack)


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


@functools.lru_cache(maxsize=None, typed=True)
def min_passing_slack(
    method: BoundMethod, m: int, n_vectors: int, threshold: float
) -> float:
    """``s*``: the smallest float slack whose ``overfit_bound`` is at most
    ``threshold``, a real in [0, 0.5).

    Non-negative doubles order as their bit patterns do, so this bisects
    over the patterns in [0, _TOLERANCE_CAP], about 62 bound calls.  The
    bracket holds for every method: at slack 0 the bound is 1 or 0.5, above
    ``threshold``, and at the cap it is 0.0.  The result passes and its
    predecessor fails.  A tail probability never rises with the slack, so
    ``s*`` certifies every larger slack, also where a bound's last bits are
    not monotone.  Cached: ``s*`` depends on no epsilon.
    """
    if not (is_kind(threshold, numbers.Real) and 0.0 <= threshold < 0.5):
        raise DomainError(f"threshold must be a real in [0, 0.5), got {threshold!r}")

    def slack(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    fails, passes = 0, struct.unpack("<q", struct.pack("<d", _TOLERANCE_CAP))[0]
    while passes - fails > 1:
        mid = (fails + passes) // 2
        if overfit_bound(method, m, n_vectors, slack(mid)) <= threshold:
            passes = mid
        else:
            fails = mid
    return slack(passes)
