"""Online Monte-Carlo estimation of the empirical Rademacher complexity of a
growing family of [0,1]-valued query functions.

The estimator fixes a matrix of random sign vectors once, then maintains one
running supremum per sign vector: each new query contributes its correlation
with every sign vector, and the estimate is the mean of the per-vector
suprema.  Correlations enter through their absolute value: the family is
closed under negation, matching the guard's two-sided answers.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError
from .seeding import validate_count


def as_query_values(values) -> np.ndarray:
    """``values`` as a C-ordered array: bool stays bool, and any other
    numeric dtype becomes float64.  Each value must be a bool, int or float.

    Anything else (a string, a complex number, None, another object, ragged
    rows) raises DomainError: a string would otherwise be parsed as a number
    and a complex number lose its imaginary part.
    """
    try:
        values = np.asarray(values)
    except ValueError as exc:
        raise DomainError(f"query values must be numbers: {exc}") from None
    if values.dtype.kind not in "biuf":
        raise DomainError(
            f"query values must be bool, int or float, got dtype {values.dtype}"
        )
    # C order makes a block's row means bit-equal to one-row means.
    dtype = bool if values.dtype == bool else float
    return values.astype(dtype, order="C", copy=False)


def _check_unit_interval(values: np.ndarray) -> None:
    # Written so that NaN fails it.
    if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) <= 1.0):
        raise DomainError("query values must lie in [0, 1]")


# Below this many columns a row of 0/1 values correlates exactly in float32:
# every partial sum of 0/1 values times signs is an integer of magnitude at
# most m, and float32 holds every integer up to 2**24.
_EXACT_FLOAT32_COLUMNS = 2**24


class RademacherState:
    """A fixed n_vectors x m matrix of signs in {-1, +1}, held once as float32,
    one running supremum per sign vector, and the count of committed queries."""

    def __init__(self, signs: np.ndarray):
        """Keep ``signs``, a non-empty n_vectors x m numpy array of -1 and +1
        as ``init_state`` draws it, as read-only float32; not checked here."""
        self.signs = signs.astype(np.float32, copy=False)
        self.signs.setflags(write=False)
        self.running_sup = np.zeros(signs.shape[0])
        self.query_count = 0

    def estimate(self) -> float:
        """Current complexity estimate: mean of the per-vector suprema."""
        return float(self.running_sup.mean())

    # Only the trace shim calls preview(); it goes once the shim traces
    # correlations() instead (ROADMAP item 7).
    def preview(self, values) -> tuple[np.ndarray, float]:
        """Per-vector suprema and estimate as they would be after absorbing
        one query's m ``values``, without mutating the state."""
        return self.preview_corr(self.correlations([values])[1][0])

    def correlations(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Check a k x m value matrix and correlate every row with every sign
        vector in one matrix product.  Returns each row's mean and the
        k x n_vectors absolute correlations; the state is not touched.  A
        single query is the one-row case: Guard.submit_query comes through
        here too.

        The shape is checked first (DimensionError), then the range [0, 1]
        (DomainError; NaN fails).  One scan asks whether every value is 0 or
        1; only a block that is not gets the range scan.

        When every value is 0 or 1 and m < 2**24, the product and the row
        sums run in float32.  Every partial sum is then an integer below
        2**24, which float32 holds exactly, so the result has the bits of the
        float64 product and mean whatever k is or the summation order.  Other
        values use a float64 copy of the signs made per call; for them a k-row
        product may round a few ulps differently from k one-row products.
        """
        values = as_query_values(values)
        m = self.signs.shape[1]
        if values.ndim != 2 or values.shape[1] != m:
            raise DimensionError(
                f"expected rows of {m} query values, got shape {values.shape}"
            )
        zero_one = values.dtype == bool or ((values == 0) | (values == 1)).all()
        if not zero_one:
            _check_unit_interval(values)
        if zero_one and m < _EXACT_FLOAT32_COLUMNS:
            values = values.astype(np.float32)
            sums = (values @ self.signs.T).astype(float)
            means = values.sum(axis=1).astype(float) / m
        else:
            # Cast after transposing: a column-major copy keeps the product's bits.
            sums = values @ self.signs.T.astype(float)
            means = values.mean(axis=1)
        return means, np.abs(sums / m)

    def preview_corr(self, corr: np.ndarray) -> tuple[np.ndarray, float]:
        """Per-vector suprema and estimate after absorbing one query's
        correlations, without mutating the state."""
        candidate = np.maximum(self.running_sup, corr)
        # Bit-equal to candidate.mean(), without its overhead per call.
        return candidate, float(np.add.reduce(candidate)) / len(candidate)

    def commit(self, candidate: np.ndarray) -> None:
        """Adopt suprema previously produced by preview() or preview_corr()."""
        self.running_sup = candidate
        self.query_count += 1


# Bytes of each int64 row block of the sign draw in init_state.
_SIGN_DRAW_BLOCK_BYTES = 1 << 16


def init_state(m: int, n_vectors: int, *, rng: np.random.Generator) -> RademacherState:
    """Draw the fixed sign matrix and start with all suprema at zero.

    Signs are iid uniform on {-1, +1} from ``rng``; the same generator state
    always yields the same matrix.  The 0/1 draw is made in int64 row blocks
    of about 64 KiB (past m = 8192, one row of 8·m bytes), each mapped
    straight into the float32 ±1 result: the blocks take the stream's values
    in the order of one ``rng.integers(0, 2, size=(n_vectors, m))`` and
    leave ``rng`` where it would, and the peak stays near the 4·n_vectors·m
    bytes kept.
    """
    m = validate_count("m", m)
    n_vectors = validate_count("n_vectors", n_vectors)
    validate_count("int64 bytes of the n_vectors x m sign draw", 8 * n_vectors * m)
    signs = np.empty((n_vectors, m), dtype=np.float32)
    rows = max(1, _SIGN_DRAW_BLOCK_BYTES // (8 * m))
    for start in range(0, n_vectors, rows):
        block = signs[start : start + rows]
        np.multiply(rng.integers(0, 2, size=block.shape), 2, out=block, casting="unsafe")
        block -= 1
    return RademacherState(signs=signs)

