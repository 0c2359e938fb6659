"""Deterministic random-stream derivation.

All randomness in the package flows through named substreams split off a
single 64-bit root seed with a fixed counter scheme:

    SeedSequence(seed, spawn_key=(purpose, index...))

Purpose codes are module-level constants below. Round-indexed streams
append the round number; experiment streams append an experiment code,
and a stream index where one experiment draws several. The scheme
guarantees that results depend only on (seed, purpose, index), never on
scheduling order or worker count, and that distinct purposes never
share a stream.

Generators use the counter-based Philox bit generator, which is cheap to
spawn in bulk and stable across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError

STREAM_VALUATIONS = 0
STREAM_OPPONENTS = 1
STREAM_TIES = 2
STREAM_EXPERIMENT = 3

_SEED_MAX = 2**64
# The most elements a float64 array can have: numpy refuses to describe a
# larger one ("array is too big") before it allocates anything.
COUNT_MAX = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, low: int, per: int = 1) -> None:
    """Require a sample size, bin, round or worker count: an integer of at
    least low, such that value * per float64s fit in one numpy array.
    Raises DomainError."""
    if not is_integer(value) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    high = COUNT_MAX // int(per)
    if int(value) > high:
        raise DomainError(f"{name} must be at most {high}, got {value!r}")


def check_seed(seed: int) -> int:
    """Validate that seed is a 64-bit unsigned integer and return it."""
    if not is_integer(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _SEED_MAX:
        raise ConfigError(f"seed out of range [0, 2**64): {seed}")
    return int(seed)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the substream named by the key tuple."""
    check_seed(seed)
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def child_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit child seed from a substream key."""
    check_seed(seed)
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def fresh_seed() -> int:
    """Draw a root seed from OS entropy (for CLI runs without --seed)."""
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])
