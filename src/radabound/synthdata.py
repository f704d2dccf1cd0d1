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

    def to_dict(self) -> dict:
        return {
            "m_train": self.m_train,
            "m_holdout": self.m_holdout,
            "m_fresh": self.m_fresh,
            "d": self.d,
            "variance": self.variance,
            "n_biased": self.n_biased,
            "bias": self.bias,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return cls(**validate_fields("dataset spec", d, cls))


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (n, d) real-valued
    labels: np.ndarray  # (n,) in {-1, +1}

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("feature and label row counts disagree")
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
    Accepted pairs fill ``out`` in order as (u * factor, v * factor), with
    factor = sqrt(-2 log(s) / s); the in-place steps below round exactly as
    that expression does.
    """
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        batch = int(need * 0.7) + 32  # ~pi/4 pair acceptance, 2 values/pair
        u = rng.uniform(-1.0, 1.0, size=batch)
        v = rng.uniform(-1.0, 1.0, size=batch)
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
        # Column-major result, so the learner's per-feature gathers are contiguous.
        sets[name] = LabeledDataset(features=features[:, perm], labels=labels)

    return SyntheticData(**sets, column_permutation=perm)


def dump_csv(dataset: LabeledDataset, path) -> None:
    """Debug dump: one row per point, d feature columns then `label`."""
    d = dataset.features.shape[1]
    header = ",".join(f"f{i}" for i in range(d)) + ",label"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row, label in dataset:
            fh.write(",".join(f"{v:.10g}" for v in row) + f",{int(label)}\n")
