"""Reference paths for the Rademacher estimator's tests.

``exact_empirical_rademacher`` enumerates all 2^m sign vectors, so it refuses
m > 20.  It checks its values as the estimator does.  ``all_sign_matrix``
lists the same vectors as one matrix, and ``state_of`` packs a chosen ±1
matrix into a ``RademacherState`` as ``init_state`` packs its draw;
``signs_of`` unpacks a state's.  ``grid_correlations`` computes the
estimator's fractional correlations in exact integers.  ``update`` absorbs
one query through the estimator's own steps, the ones ``Guard`` runs.
"""

import itertools
from fractions import Fraction

import numpy as np

from radabound.errors import DomainError
from radabound.rademacher import (
    RademacherState,
    _check_unit_interval,
    _packed_rows,
    as_query_values,
)

_ENUMERATION_LIMIT = 20


def all_sign_matrix(m):
    """All 2^m sign vectors as a (2^m, m) matrix of -1.0 and +1.0."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


def state_of(signs):
    """A fresh state over ``signs``, an n_vectors x m array of -1 and +1."""
    return RademacherState(_packed_rows(signs > 0), signs.shape[1])


def signs_of(state):
    """The state's n_vectors x m signs as a new float64 array of -1.0 and +1.0."""
    bits = np.unpackbits(state.bits.view(np.uint8), axis=1, count=state.m, bitorder="little")
    return 2.0 * bits - 1.0


def grid_correlations(state, values):
    """The k x n_vectors absolute correlations of ``values`` by the grid rule,
    with no float arithmetic but the final rounding: each value x becomes the
    Python int nearest ``x·2**g`` (ties to even), ``g = 53 - m.bit_length()``;
    the sums against the ±1 signs are exact int64 products, far below 2**63;
    and ``|sum| / (m·2**g)`` is a correctly rounded int division."""
    m = state.m
    g = 53 - m.bit_length()
    grid = np.array(
        [[round(Fraction(x) * 2**g) for x in row] for row in np.asarray(values, float).tolist()],
        dtype=np.int64,
    ).reshape(-1, m)
    sums = grid @ signs_of(state).astype(np.int64).T
    quotients = [[abs(s) / (m << g) for s in row] for row in sums.tolist()]
    return np.array(quotients).reshape(sums.shape)


def exact_empirical_rademacher(value_matrix) -> float:
    """Exact empirical Rademacher complexity by enumerating all 2^m signs.

    ``value_matrix`` is k x m with entries in [0, 1], one row per function
    evaluated on the sample.  As in the estimator, the supremum also ranges
    over the negated functions (``|correlation|``).  Refuses m > 20.
    """
    values = as_query_values(value_matrix)
    if values.ndim != 2:
        raise DomainError("value matrix must be two-dimensional (k x m)")
    k, m = values.shape
    if k < 1 or m < 1:
        raise DomainError("value matrix must be non-empty")
    if m > _ENUMERATION_LIMIT:
        raise DomainError(
            f"enumeration limited to m <= {_ENUMERATION_LIMIT}, got m={m}"
        )
    _check_unit_interval(values)

    total = 0.0
    for code in range(2**m):
        bits = (code >> np.arange(m)) & 1
        sigma = 2.0 * bits - 1.0
        total += float(np.abs(values @ sigma / m).max())
    return total / 2**m


def update(state, values) -> float:
    """Absorb one query's m ``values`` into ``state`` and return the new
    estimate: a one-row ``correlations``, then ``preview_corr`` and
    ``commit``, as ``Guard.submit_query`` does for an answered query."""
    _, corr = state.correlations([values])
    candidate, estimate = state.preview_corr(corr[0])
    state.commit(candidate)
    return estimate
