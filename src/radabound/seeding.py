"""Deterministic derivation of independent random substreams from a master seed.

Every source of randomness in a run (sample sets, labels, sign vectors, the
column permutation) draws from its own labeled substream, so regenerating one
of them never perturbs the others.  Streams are numpy PCG64 generators keyed
by ``SeedSequence(master_seed, spawn_key=(label_index,))``.
"""

import numbers

import numpy as np

from .errors import ConfigurationError

# Fixed label -> spawn-key index map.  Order is part of the on-disk contract:
# changing it changes every generated artifact.
SUBSTREAM_LABELS = {
    "train": 0,
    "holdout": 1,
    "fresh": 2,
    "signs": 3,
    "labels": 4,
    "permutation": 5,
}

GENERATOR_IDENTITY = "pcg64/seedsequence-spawn-key"


def validate_type(name: str, value, kind: type = int):
    """Raise ConfigurationError unless ``value`` is a ``kind`` (``int`` for
    counts and seeds, ``numbers.Real`` for tolerances, ``bool`` for flags,
    ``dict`` or ``list`` for config sections).  A bool passes only as a
    ``bool``, never as a number."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigurationError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def validate_seed(seed: int) -> int:
    validate_type("seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def seed_substream(master_seed: int, label: str) -> np.random.Generator:
    """Return the deterministic generator for one named substream.

    Raises ConfigurationError for seeds outside 64 bits or labels not in
    SUBSTREAM_LABELS.
    """
    validate_seed(master_seed)
    try:
        index = SUBSTREAM_LABELS[label]
    except KeyError:
        raise ConfigurationError(
            f"unknown substream label {label!r}; expected one of "
            f"{sorted(SUBSTREAM_LABELS)}"
        ) from None
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))
