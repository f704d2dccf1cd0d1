"""Online Monte-Carlo estimation of the empirical Rademacher complexity of a
growing family of [0,1]-valued query functions.

The estimator fixes a matrix of random sign vectors once, then maintains one
running supremum per sign vector: each new query contributes its correlation
with every sign vector, and the estimate is the mean of the per-vector
suprema.  Correlations enter through their absolute value: the family is
closed under negation, matching the guard's two-sided answers.  Ones are
counted one way, by ``_popcount`` on ``np.bitwise_count`` (numpy 2.0 or
later): in the 0/1 products here and in the harness's truth column.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
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


def _packed_rows(rows: np.ndarray) -> np.ndarray:
    """A k x m array as k x ceil(m/64) uint64 words holding one bit per entry,
    set where the entry is nonzero: column j is bit j % 8 of byte j // 8 of
    its row, and the bits past m are zero."""
    k, m = rows.shape
    words = np.zeros((k, -(-m // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, : -(-m // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return words


def _popcount(words: np.ndarray) -> np.ndarray:
    """The set bits along the last axis of uint64 ``words``: the one bit count."""
    # The narrowest unsigned type that holds 64 bits a word sums fastest
    # and exactly.
    total = np.min_scalar_type(64 * words.shape[-1])
    return np.add.reduce(np.bitwise_count(words), axis=-1, dtype=total)


# Bytes of each rows x n_vectors x words temporary of a 0/1 product; one row
# at least.
_PRODUCT_CHUNK_BYTES = 1 << 18
# Bytes of each float64 temporary of a fractional product: a column block of
# the values on the grid, or of the unpacked signs; 64 columns at least.
_GRID_CHUNK_BYTES = 1 << 19


class RademacherState:
    """A fixed n_vectors x m matrix of signs in {-1, +1}, one running supremum
    per sign vector, and the count of committed queries.

    The signs are held only as packed bits, n_vectors·m/8 bytes: ``bits``
    is n_vectors x ceil(m/64) uint64 words laid out by ``_packed_rows``, a
    set bit for +1 and zeros past column ``m``, adopted without a copy or a
    check and made read-only.  ``init_state`` draws them, and a fractional
    product unpacks them a column block at a time.
    """

    def __init__(self, bits: np.ndarray, m: int):
        bits.setflags(write=False)
        self.bits = bits
        self.m = m
        self.running_sup = np.zeros(bits.shape[0])
        self.query_count = 0

    # Only the trace shim calls preview(); it goes once the shim traces
    # correlations() instead (ROADMAP item 7).
    def preview(self, values) -> tuple[np.ndarray, float]:
        """Per-vector suprema and estimate as they would be after absorbing
        one query's m ``values``, without mutating the state."""
        return self.preview_corr(self.correlations([values])[1][0])

    def correlations(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Check a k x m value matrix and correlate every row with every sign
        vector.  Returns each row's mean and the k x n_vectors absolute
        correlations; the state is not touched.  A single query is the
        one-row case: Guard.submit_query comes through here too.

        The shape is checked first, then the range [0, 1] (NaN fails); either
        fault raises DomainError.  One scan asks whether every value is 0 or
        1; only a block that is not gets the range scan.

        A block whose every value is 0 or 1 is packed into bits like the
        signs.  A row's sum is the popcount of its words q, and its sum
        against a sign vector s is ``2·popcount(q & s) - popcount(q)``.  The
        rows go through in chunks, so the q & s temporary stays near
        256 KiB.  Any other block takes ``_grid_correlations``.  Both paths
        sum exact integers, so every row's correlations have the same bits
        whatever k, the chunking or the BLAS build; on 0/1 values the two
        paths agree bit for bit.
        """
        values = as_query_values(values)
        m = self.m
        if values.ndim != 2 or values.shape[1] != m:
            raise DomainError(
                f"expected rows of {m} query values, got shape {values.shape}"
            )
        zero_one = values.dtype == bool or ((values == 0) | (values == 1)).all()
        if not zero_one:
            _check_unit_interval(values)
            return values.mean(axis=1), self._grid_correlations(values)
        query = _packed_rows(values.astype(bool, copy=False))
        ones = _popcount(query)
        sums = np.empty((len(query), len(self.bits)), dtype=np.int64)
        rows = max(1, _PRODUCT_CHUNK_BYTES // self.bits.nbytes)
        for start in range(0, len(query), rows):
            both = query[start : start + rows, None] & self.bits
            sums[start : start + rows] = _popcount(both)
        sums *= 2
        sums -= ones[:, None]
        corr = sums / m
        return ones / m, np.abs(corr, out=corr)

    def _grid_correlations(self, values: np.ndarray) -> np.ndarray:
        """The k x n_vectors absolute correlations of a float64 block with
        values in [0, 1], summed exactly on a grid that depends only on m.

        With ``g = 53 - m.bit_length()``, a value x counts as the integer
        ``rint(x·2**g) <= 2**g``, so every partial sum of a row is an
        integer below 2**53, which float64 adds exactly in any order.  A
        row's sum against a sign vector is twice its sum on the vector's +1
        entries less its total, and ``|sum| / (m·2**g)`` rounds once.  The
        grid moves each correlation by at most 2**-(g+1), about 2.3e-13 at
        m = 4000; a float64 product in BLAS order rounds by up to about
        m·2**-53, 4.4e-13 there.

        The columns go in blocks of a multiple of 64, within
        ``_GRID_CHUNK_BYTES`` for the rows on the grid and for the unpacked
        signs, so each value and sign is read once.
        """
        m = self.m
        scale = 2.0 ** (53 - m.bit_length())
        plus = np.zeros((len(values), len(self.bits)))
        totals = np.zeros(len(values))
        cols = 64 * max(1, _GRID_CHUNK_BYTES // (8 * 64 * max(plus.shape)))
        for start in range(0, m, cols):
            grid = values[:, start : start + cols] * scale
            np.rint(grid, out=grid)
            chunk = np.unpackbits(
                self.bits.view(np.uint8)[:, start // 8 : (start + cols) // 8],
                axis=1, count=grid.shape[1], bitorder="little",
            )
            plus += grid @ chunk.T.astype(np.float64)
            totals += grid.sum(axis=1)
        return np.abs(2 * plus - totals[:, None]) / (m * scale)

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
    """Draw the signs and zero the suprema: the library's only maker of a state.

    Signs are iid uniform on {-1, +1} from ``rng``; the same generator state
    always yields the same matrix.  The 0/1 draw is made in int64 row blocks
    of about 64 KiB (past m = 8192, one row of 8·m bytes), each packed
    straight into the state's bits, a 1 becoming +1: the blocks take the
    stream's values in the order of one ``rng.integers(0, 2, size=(n_vectors,
    m))`` and leave ``rng`` where it would, and the peak stays near the
    n_vectors·m/8 bytes kept plus a block.  Counts whose packed words would
    not fit in an array raise ConfigurationError.
    """
    m = validate_count("m", m)
    n_vectors = validate_count("n_vectors", n_vectors)
    validate_count("bytes of the n_vectors x m packed signs", 8 * n_vectors * -(-m // 64))
    bits = np.empty((n_vectors, -(-m // 64)), dtype=np.uint64)
    rows = max(1, _SIGN_DRAW_BLOCK_BYTES // (8 * m))
    for start in range(0, n_vectors, rows):
        block = bits[start : start + rows]
        block[:] = _packed_rows(rng.integers(0, 2, size=(len(block), m)))
    return RademacherState(bits, m)
