"""Deterministic derivation of independent random substreams from a master seed.

Every source of randomness in a run (sample sets, labels, sign vectors, the
column permutation) draws from its own labeled substream, so regenerating one
of them never perturbs the others.  Streams are numpy PCG64 generators keyed
by ``SeedSequence(master_seed, spawn_key=(label_index,))``.
"""

from __future__ import annotations

import dataclasses
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


def is_kind(value, kind: type = int) -> bool:
    """True when ``value`` is a ``kind``: ``int`` for counts and seeds,
    ``numbers.Real`` for tolerances, ``bool`` for flags, ``dict`` or ``list``
    for config sections.  A bool is only ever a ``bool``, never a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def validate_type(name: str, value, kind: type = int):
    """Raise ConfigurationError unless ``is_kind(value, kind)``."""
    if not is_kind(value, kind):
        raise ConfigurationError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


# Largest count (sample size, feature count, sign vectors) a config may give:
# numpy cannot size an array beyond its index type.
MAX_COUNT = np.iinfo(np.intp).max


def validate_int(name: str, value) -> int:
    """Return ``value`` as a Python int.  Raise ConfigurationError unless it
    is an integer: a Python or numpy integer, never a bool."""
    return int(validate_type(name, value, numbers.Integral))


def validate_count(name: str, value) -> int:
    """Return ``value`` as a Python int.  Raise ConfigurationError unless it
    is an integer in [1, MAX_COUNT]."""
    value = validate_int(name, value)
    if not 1 <= value <= MAX_COUNT:
        raise ConfigurationError(f"{name} must be in [1, {MAX_COUNT}], got {value}")
    return value


def validate_fraction(name: str, value) -> float:
    """Return ``value`` as a Python float.  Raise ConfigurationError unless it
    is a real number in (0, 1), also once rounded to a float."""
    validate_type(name, value, numbers.Real)
    if not (0.0 < value < 1.0 and 0.0 < float(value) < 1.0):
        raise ConfigurationError(f"{name} must be in (0, 1), got {value}")
    return float(value)


def validate_fields(name: str, section, cls) -> dict:
    """Raise ConfigurationError unless ``section`` is a dict that gives every
    field of the dataclass ``cls`` without a default, and no other key: a
    misspelled key would otherwise be ignored and its default used."""
    validate_type(name, section, dict)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    for key in section:
        if key not in names:
            raise ConfigurationError(
                f"{name} has unknown field {key!r}; its fields are {names}"
            )
    for f in fields:
        if f.name not in section and f.default is dataclasses.MISSING:
            raise ConfigurationError(f"{name} missing field {f.name!r}")
    return section


def validate_seed(seed: int) -> int:
    """Return ``seed`` as a Python int.  Raise ConfigurationError unless it
    is an integer in [0, 2**64)."""
    seed = validate_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def seed_substream(master_seed: int, label: str) -> np.random.Generator:
    """Return the deterministic generator for one named substream.

    Raises ConfigurationError for seeds outside 64 bits or labels not in
    SUBSTREAM_LABELS.
    """
    master_seed = validate_seed(master_seed)
    try:
        index = SUBSTREAM_LABELS[label]
    except KeyError:
        raise ConfigurationError(
            f"unknown substream label {label!r}; expected one of "
            f"{sorted(SUBSTREAM_LABELS)}"
        ) from None
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))
