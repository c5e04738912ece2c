"""Deterministic seed derivation for trial streams.

Stream i of a run rooted at ``root`` is seeded with ``mix64(root ^ i)``,
a splitmix64-style finalizer.  Adding trials therefore never disturbs the
draws of earlier trials, and every trial is reproducible in isolation.

``spawn_seed`` derives one seed; ``spawn_seeds`` derives a block of them as
uint64 array arithmetic, element for element the same, so a Monte Carlo
block takes its trial seeds (and the seeds of their sub-draws) without a
Python call per trial.  It has that one path at every size, one seed
included; ``mix64`` is its scalar form and the tests' reference.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL_1, _MUL_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64(x: int) -> int:
    """Finalize a 64-bit value (splitmix64 constants)."""
    # int() guards against numpy integers, whose & would overflow at 64 bits.
    x = (int(x) + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def spawn_seed(root: int, i: int) -> int:
    """Seed for stream ``i``: mix64 of root XOR i."""
    root, i = int(root), int(i)
    if i < 0:
        raise ValueError(f"stream index must be >= 0, got {i}")
    return mix64((root & _MASK) ^ (i & _MASK))


def _words(values, nonnegative: str | None = None) -> np.ndarray:
    """Integers mod 2^64 as uint64, as ``spawn_seed`` reads them: an int or
    numpy integer, an integer array, or a sequence of ints or numpy
    integers, each read through ``int`` so that no value is read as a float
    on the way.  With ``nonnegative`` naming the values, a negative one
    raises ``spawn_seed``'s ``ValueError``."""
    if isinstance(values, (int, np.integer)):
        return _words([values], nonnegative).reshape(())
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if nonnegative and values.dtype.kind == "i" and values.size and values.min() < 0:
            raise ValueError(f"{nonnegative} must be >= 0, got {int(values[values < 0][0])}")
        return values.astype(np.uint64, copy=False)
    ints = list(map(int, values))
    for v in ints:
        if nonnegative and v < 0:
            raise ValueError(f"{nonnegative} must be >= 0, got {v}")
    return np.array([v & _MASK for v in ints], dtype=np.uint64)


def spawn_seeds(roots, indices) -> np.ndarray:
    """``spawn_seed(root, i)`` for every pair of the broadcast ``roots`` and
    ``indices``, as a uint64 array of the broadcast shape.

    Splitmix64 runs on uint64 lanes, whose products wrap mod 2^64 as the
    scalar code's ``& _MASK`` does.  A 0-d call runs on one lane: numpy
    scalar products would warn on that overflow.  A negative index raises
    ``spawn_seed``'s ``ValueError``."""
    x = _words(roots) ^ _words(indices, "stream index")
    shape = x.shape
    x = x.reshape(-1) + _GAMMA
    x = (x ^ (x >> _SHIFT_1)) * _MUL_1
    x = (x ^ (x >> _SHIFT_2)) * _MUL_2
    return (x ^ (x >> _SHIFT_3)).reshape(shape)


def trial_rng(root: int, i: int) -> np.random.Generator:
    """Independent generator for trial ``i`` under ``root``."""
    return np.random.default_rng(spawn_seed(root, i))
