"""Tests for deterministic stream derivation."""

import numpy as np
import pytest

from sira.errors import ConfigError, DomainError
from sira.seeding import (
    COUNT_MAX,
    STREAM_OPPONENTS,
    STREAM_VALUATIONS,
    check_count,
    check_seed,
    child_seed,
    fresh_seed,
    substream,
)


def test_substream_reproducible():
    a = substream(42, STREAM_VALUATIONS).random(8)
    b = substream(42, STREAM_VALUATIONS).random(8)
    np.testing.assert_array_equal(a, b)


def test_substreams_distinct_by_purpose():
    a = substream(42, STREAM_VALUATIONS).random(8)
    b = substream(42, STREAM_OPPONENTS).random(8)
    assert not np.array_equal(a, b)


def test_substreams_distinct_by_extra_key():
    a = substream(42, STREAM_OPPONENTS, 0).random(8)
    b = substream(42, STREAM_OPPONENTS, 1).random(8)
    assert not np.array_equal(a, b)


def test_child_seed_deterministic_and_in_range():
    s1 = child_seed(42, 3, 0)
    s2 = child_seed(42, 3, 0)
    assert s1 == s2
    assert 0 <= s1 < 2**64
    assert child_seed(42, 3, 1) != s1


def test_check_seed_rejects_bad_values():
    with pytest.raises(ConfigError):
        check_seed(-1)
    with pytest.raises(ConfigError):
        check_seed(2**64)
    with pytest.raises(ConfigError):
        check_seed(1.5)
    assert check_seed(7) == 7


def test_count_bound_is_the_largest_float64_array_numpy_describes():
    # numpy checks a shape's element count, zero axes aside, before allocating.
    np.empty((0, COUNT_MAX))
    with pytest.raises(ValueError, match="array is too big"):
        np.empty((0, COUNT_MAX + 1))
    check_count("n", np.uint64(COUNT_MAX // 16), 1, per=np.uint32(16))
    with pytest.raises(DomainError, match="n must be at most"):
        check_count("n", np.uint64(COUNT_MAX // 16 + 1), 1, per=np.uint32(16))


def test_fresh_seed_in_range():
    s = fresh_seed()
    assert 0 <= s < 2**64
