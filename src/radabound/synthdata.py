"""Deterministic synthetic data for the guard experiments.

Each point has d Gaussian features and a uniform random label in {-1, +1}.
In the signal scenario a fixed subset of features is shifted by
``bias * label``, creating a real feature/label correlation; with
``n_biased = 0`` labels are independent of all features and the true 0-1 loss
of every fixed classifier is exactly 0.5.

Training, holdout and fresh sets draw from disjoint substreams of the master
seed, so they are independent and individually reproducible.  Feature columns
are shuffled by a seeded permutation so learners cannot exploit the canonical
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

# Candidate pairs per sampler block, and rows per block of the permuted copy
# in generate: small enough that each block's temporaries stay in cache.
_SAMPLER_BLOCK = 1 << 14
_COPY_BLOCK_ROWS = 128


@dataclass(frozen=True)
class DatasetSpec:
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
            if not abs(value) <= sys.float_info.max:
                raise ConfigurationError(f"{name} must be a finite float, got {value}")
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
        if self.features.dtype.kind == "f" and not np.isfinite(self.features).all():
            raise ConfigurationError("features must be finite")
        if not np.all(np.abs(self.labels) == 1):
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
    Each batch of candidate pairs takes ``batch`` uniforms on [-1, 1) for u,
    then the next ``batch`` for v.  Accepted pairs fill ``out`` in order as
    (u * factor, v * factor), with factor = sqrt(-2 log(s) / s); the in-place
    steps below round exactly as that expression does.

    A batch is walked in blocks of ``_SAMPLER_BLOCK`` pairs, so the
    temporaries stay in cache: u comes from ``rng`` and v from a copy of its
    bit generator moved ``batch`` draws ahead.  Blocks stop once ``out`` is
    full, and ``rng`` is then moved past the whole batch, so it ends where
    two full-length draws would leave it.  This needs a bit generator whose
    ``advance(k)`` skips k 64-bit draws, as every ``seed_substream`` PCG64
    does.
    """
    out = np.empty(n)
    filled = 0
    bits = rng.bit_generator
    while filled < n:
        batch = int((n - filled) * 0.7) + 32  # ~pi/4 pair acceptance, 2 values/pair
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
            chunk = out[filled : filled + take]
            np.multiply(u.take(idx), factor, out=chunk[0::2])
            n_v = take // 2
            np.multiply(v.take(idx[:n_v]), factor[:n_v], out=chunk[1::2])
            filled += take
        # Skip the batch's unread u draws and all its v draws.  advance() also
        # clears the buffered half of a 32-bit draw, which uniforms never
        # touch, so put it back.
        kept = bits.state
        bits.advance(2 * batch - drawn)
        bits.state = {
            **bits.state, "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]
        }
    return out


def _draw_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    return 2 * rng.integers(0, 2, size=n) - 1


def generate(spec: DatasetSpec) -> SyntheticData:
    """Generate the train/holdout/fresh triple for ``spec``.

    Labels for the three sets come from the shared "labels" substream in the
    fixed order train, holdout, fresh; features from per-set substreams; the
    column permutation from its own substream.  Identical specs yield
    bit-identical data.
    """
    label_rng = seed_substream(spec.seed, "labels")
    scale = math.sqrt(spec.variance)
    perm = seed_substream(spec.seed, "permutation").permutation(spec.d)

    sets = {}
    for name, n in (
        ("train", spec.m_train),
        ("holdout", spec.m_holdout),
        ("fresh", spec.m_fresh),
    ):
        labels = _draw_labels(label_rng, n)
        features = standard_normals(seed_substream(spec.seed, name), n * spec.d)
        features = features.reshape(n, spec.d)
        features *= scale
        if spec.n_biased > 0:
            features[:, : spec.n_biased] += spec.bias * labels[:, None]
        # features[:, perm], copied in row blocks that stay in cache.  The
        # result is column-major, so the learner's per-feature gathers are
        # contiguous.
        permuted = np.empty_like(features, order="F")
        for start in range(0, n, _COPY_BLOCK_ROWS):
            rows = slice(start, start + _COPY_BLOCK_ROWS)
            permuted[rows] = features[rows, perm]
        sets[name] = LabeledDataset(features=permuted, labels=labels)

    return SyntheticData(**sets, column_permutation=perm)
