import numbers

import numpy as np
import pytest

from radabound.errors import ConfigurationError
from radabound.seeding import (
    SUBSTREAM_LABELS,
    is_kind,
    seed_substream,
    validate_seed,
    validate_type,
)


def test_labels_are_fixed():
    assert SUBSTREAM_LABELS == {
        "train": 0,
        "holdout": 1,
        "fresh": 2,
        "signs": 3,
        "labels": 4,
        "permutation": 5,
    }


def test_substreams_deterministic_and_distinct():
    draws = {
        label: seed_substream(123, label).uniform(size=8)
        for label in SUBSTREAM_LABELS
    }
    for label, values in draws.items():
        again = seed_substream(123, label).uniform(size=8)
        assert np.array_equal(values, again)
    arrays = list(draws.values())
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            assert not np.array_equal(arrays[i], arrays[j])


def test_unknown_label_rejected():
    with pytest.raises(ConfigurationError):
        seed_substream(0, "bogus")


def test_seed_validation():
    validate_seed(0)
    validate_seed(2**64 - 1)
    for bad in (-1, 2**64, 1.5, "7"):
        with pytest.raises(ConfigurationError):
            validate_seed(bad)


def test_bool_passes_only_as_bool():
    assert validate_type("flag", False, bool) is False
    assert validate_type("count", 3) == 3
    for value, kind in ((1, bool), ("no", bool), (True, int), (False, float)):
        with pytest.raises(ConfigurationError):
            validate_type("x", value, kind)


def test_is_kind_is_the_rule_validate_type_enforces():
    # numpy numbers are numbers; a bool is a number of no kind.
    for value, kind in (
        (np.float32(0.5), numbers.Real),
        (np.int8(3), numbers.Integral),
        (3, numbers.Real),
        (True, bool),
        ({}, dict),
    ):
        assert is_kind(value, kind)
        assert validate_type("x", value, kind) is value
    for value, kind in ((True, int), (False, numbers.Real), (1, bool), ("1", int)):
        assert not is_kind(value, kind)
        with pytest.raises(ConfigurationError):
            validate_type("x", value, kind)
