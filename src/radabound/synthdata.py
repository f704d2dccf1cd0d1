"""Deterministic synthetic data for the guard experiments.

Each point has d Gaussian features and a uniform random label in {-1, +1}.
In the signal scenario a fixed subset of features is shifted by
``bias * label``, creating a real feature/label correlation; with
``n_biased = 0`` labels are independent of all features and the true 0-1 loss
of every fixed classifier is exactly 0.5.

Training, holdout and fresh sets draw from disjoint substreams of the master
seed, so they are independent and individually reproducible.  ``generate``
therefore draws the three sets at once on a three-thread pool, and the
bytes do not depend on how many cores those threads get.  Each set's
normals stream through a small row buffer into the set's column-major
result, so no n x d temporary is held beside it.  Feature columns are
shuffled by a seeded permutation so learners cannot exploit the canonical
placement of the biased columns; the permutation is recorded on the result.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .seeding import (
    seed_substream,
    validate_count,
    validate_fields,
    validate_seed,
    validate_type,
)

NORMAL_SAMPLER_IDENTITY = "marsaglia-polar"

# Candidate pairs per sampler block, and rows of each set's row buffer in
# generate: small enough that each block's temporaries stay in cache.
_SAMPLER_BLOCK = 1 << 14
_COPY_BLOCK_ROWS = 128
# Candidate pairs per value still needed, in each sampler batch: about pi/4
# of the pairs are accepted and each gives 2 values, so one batch almost
# always suffices.
_BATCH_PAIRS_PER_VALUE = 0.7


@dataclass(frozen=True)
class DatasetSpec:
    """``variance`` and ``bias`` are stored as an int when integral, else as a float."""

    m_train: int
    m_holdout: int
    m_fresh: int
    d: int
    variance: float = 1.0
    n_biased: int = 0
    bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m_train", "m_holdout", "m_fresh", "d"):
            validate_count(name, getattr(self, name))
        # numpy sizes no array past MAX_COUNT bytes.
        for name in ("m_train", "m_holdout", "m_fresh"):
            size = 8 * getattr(self, name) * self.d
            validate_count(f"float64 bytes of the {name} x d features", size)
        validate_type("n_biased", self.n_biased)
        for name in ("variance", "bias"):
            value = validate_type(name, getattr(self, name), numbers.Real)
            # Python's json reads NaN, Infinity and integers beyond any float.
            try:
                typed = int(value) if isinstance(value, numbers.Integral) else float(value)
            except OverflowError:  # a Fraction beyond any float
                typed = math.inf
            if not abs(typed) <= sys.float_info.max:
                raise ConfigurationError(f"{name} must be a finite float, got {value}")
            object.__setattr__(self, name, typed)
        if not self.variance > 0.0:
            raise ConfigurationError(f"variance must be > 0, got {self.variance}")
        if not 0 <= self.n_biased <= self.d:
            raise ConfigurationError(
                f"n_biased must be in [0, d], got {self.n_biased} with d={self.d}"
            )
        validate_seed(self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return cls(**validate_fields("dataset spec", d, cls))


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (n, d) real-valued
    labels: np.ndarray  # (n,) in {-1, +1}

    def __post_init__(self):
        for name in ("features", "labels"):
            # Keep the array that was checked; numpy input is not copied.
            try:
                value = np.asarray(getattr(self, name))
            except ValueError:
                raise ConfigurationError(f"{name} must not be ragged") from None
            if value.dtype.kind not in "biuf":
                raise ConfigurationError(f"{name} must be numeric, got dtype {value.dtype}")
            object.__setattr__(self, name, value)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("feature and label row counts disagree")
        # The learner compares features with scores, which is exact only
        # for finite features; a NaN score would also predict -1 silently.
        # NaN reaches min and max, and +-inf one of them, with no n x d mask.
        x = self.features
        if x.dtype.kind == "f" and not np.isfinite((x.min(initial=0), x.max(initial=0))).all():
            raise ConfigurationError("features must be finite")
        # A bool label array holds no -1, even when every label is True.
        if self.labels.dtype.kind == "b" or not np.all(np.abs(self.labels) == 1):
            raise ConfigurationError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.features.shape[0]

    def __iter__(self):
        # Per-point view: (feature row, label), for non-vectorized queries.
        for row, label in zip(self.features, self.labels):
            yield row, label


@dataclass(frozen=True)
class SyntheticData:
    train: LabeledDataset
    holdout: LabeledDataset
    fresh: LabeledDataset
    column_permutation: np.ndarray

    def __iter__(self):
        return iter((self.train, self.holdout, self.fresh))


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal variates via the Marsaglia polar transform.

    Implemented on top of the generator's uniform stream so the sampling
    algorithm itself is pinned independently of the numpy version's ziggurat.
    The values are those of ``_polar_chunks(rng, n)``, joined in order;
    ``rng`` must run on a PCG64 or PCG64DXSM bit generator, and ``n`` be a
    non-negative integer (a numpy integer too, not a bool).
    """
    validate_type("n", n, numbers.Integral)
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    out = np.empty(n)
    filled = 0
    for chunk in _polar_chunks(rng, n):
        out[filled : filled + chunk.size] = chunk
        filled += chunk.size
    return out


def _polar_chunks(rng: np.random.Generator, n: int):
    """Yield the n polar-transform normals of ``standard_normals`` in order,
    one array per sampler block.

    Each batch of candidate pairs takes ``batch`` uniforms on [-1, 1) for u,
    then the next ``batch`` for v.  Accepted pairs give the values in order
    as (u * factor, v * factor), with factor = sqrt(-2 log(s) / s); the
    in-place steps below round exactly as that expression does.

    A batch is walked in blocks of ``_SAMPLER_BLOCK`` pairs, so the
    temporaries stay in cache: u comes from ``rng`` and v from a copy of its
    bit generator moved ``batch`` draws ahead.  Blocks stop once n values are
    out, and ``rng`` is then moved past the whole batch, so a caller that
    runs the generator to its end leaves ``rng`` where two full-length draws
    would.  This needs a bit generator whose ``advance(k)`` skips k 64-bit
    draws: PCG64, as every ``seed_substream`` is, or PCG64DXSM.  Any other
    raises ConfigurationError.
    """
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ConfigurationError(
            f"the polar sampler needs a PCG64 or PCG64DXSM bit generator, "
            f"got {type(bits).__name__}"
        )
    filled = 0
    while filled < n:
        batch = int((n - filled) * _BATCH_PAIRS_PER_VALUE) + 32
        v_bits = type(bits)()
        v_bits.state = bits.state
        v_bits.advance(batch)
        v_rng = np.random.Generator(v_bits)
        drawn = 0
        while drawn < batch and filled < n:
            need = n - filled
            size = min(_SAMPLER_BLOCK, batch - drawn)
            drawn += size
            u = rng.uniform(-1.0, 1.0, size=size)
            v = v_rng.uniform(-1.0, 1.0, size=size)
            s = u * u
            s += v * v
            keep = s < 1.0
            keep &= s > 0.0
            idx = np.flatnonzero(keep)[: (need + 1) // 2]
            s = s.take(idx)
            factor = np.log(s)
            factor *= -2.0
            factor /= s
            np.sqrt(factor, out=factor)
            take = min(2 * idx.size, need)
            chunk = np.empty(take)
            np.multiply(u.take(idx), factor, out=chunk[0::2])
            n_v = take // 2
            np.multiply(v.take(idx[:n_v]), factor[:n_v], out=chunk[1::2])
            filled += take
            yield chunk
        # Skip the batch's unread u draws and all its v draws.  advance() also
        # clears the buffered half of a 32-bit draw, which uniforms never
        # touch, so put it back.
        kept = bits.state
        bits.advance(2 * batch - drawn)
        bits.state = {
            **bits.state, "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]
        }


def _draw_set(
    spec: DatasetSpec, name: str, labels: np.ndarray, features: np.ndarray,
    perm: np.ndarray,
) -> LabeledDataset:
    """Fill ``features`` with set ``name``'s points and return the set.

    The set's polar normals stream through a buffer of ``_COPY_BLOCK_ROWS``
    rows, flushed at one site when it is full or the last value has arrived,
    so the last flush takes the partial buffer.  A flush scales the rows,
    shifts their first ``n_biased`` columns by ``bias * label`` and copies
    them, columns permuted, into ``features``: element by element the float
    operations on the whole n x d sample, so the bits are the same.
    """
    n, d = features.shape
    scale = math.sqrt(spec.variance)
    buf = np.empty(_COPY_BLOCK_ROWS * d)
    filled = 0  # values in buf
    start = 0  # features row of buf's first row
    for chunk in _polar_chunks(seed_substream(spec.seed, name), n * d):
        pos = 0
        while pos < chunk.size:
            take = min(chunk.size - pos, buf.size - filled)
            buf[filled : filled + take] = chunk[pos : pos + take]
            filled += take
            pos += take
            stop = start + filled // d
            if filled == buf.size or stop == n:
                rows = buf[:filled].reshape(-1, d)
                rows *= scale
                if spec.n_biased > 0:
                    rows[:, : spec.n_biased] += spec.bias * labels[start:stop, None]
                features[start:stop] = rows[:, perm]
                start, filled = stop, 0
    return LabeledDataset(features=features, labels=labels)


def generate(spec: DatasetSpec) -> SyntheticData:
    """Generate the train/holdout/fresh triple for ``spec``.

    Labels for the three sets come from the shared "labels" substream in the
    fixed order train, holdout, fresh; features from per-set substreams; the
    column permutation from its own substream.  Identical specs yield
    bit-identical data.

    The three feature matrices are allocated first, so a size numpy refuses
    fails before any draw.  Then a three-thread ``ThreadPoolExecutor`` draws
    the train, holdout and fresh sets, one a thread; numpy releases the
    interpreter lock in the sampler's array steps, so the sets overlap on a
    multi-core machine.  Each set streams through a small row buffer into
    its column-major result, so the peak memory is the three results plus
    the buffer and one sampler block's temporaries per set, about 2 MB at
    d = 500.  The first exception of a set, in set order, is raised once
    every set has finished, or was cancelled before it started, and the
    pool has shut down.
    """
    names = ("train", "holdout", "fresh")
    sizes = (spec.m_train, spec.m_holdout, spec.m_fresh)
    # Column-major, so the learner's per-feature gathers are contiguous.
    features = [np.empty((n, spec.d), order="F") for n in sizes]
    perm = seed_substream(spec.seed, "permutation").permutation(spec.d)
    label_rng = seed_substream(spec.seed, "labels")
    labels = [2 * label_rng.integers(0, 2, size=n) - 1 for n in sizes]

    # Imported here: concurrent.futures pulls in logging, which would slow
    # every ``import radabound``, including runs that never call generate.
    from concurrent.futures import ThreadPoolExecutor

    def draw(i: int) -> LabeledDataset:
        return _draw_set(spec, names[i], labels[i], features[i], perm)

    with ThreadPoolExecutor(max_workers=3) as pool:
        # map yields in set order, so the first error in set order is
        # raised; leaving the with block waits for every set.
        train, holdout, fresh = pool.map(draw, range(3))
    return SyntheticData(train, holdout, fresh, column_permutation=perm)
