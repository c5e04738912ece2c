"""The draw kernels: seeds to uniforms, and uniforms to categorical indices.

``first_uniforms(seeds)`` returns ``np.random.default_rng(s).random()`` for
every seed, bit for bit, without building a generator.  ``default_rng``
seeds PCG64 through ``SeedSequence``, and both are fixed integer
arithmetic (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms", 2014; numpy's ``bit_generator.pyx`` and
``pcg64.h``), so a block of seeds is hashed and stepped as uint32 and uint64
array operations:

* the seed's two 32-bit words fill a pool of four (a seed below 2^32 has
  one word, and the pool pads it with a zero, which hashes the same);
  ``mix_entropy`` and ``generate_state(4, uint64)`` run on the pool with
  multipliers that advance the same way for every seed;
* PCG64 takes ``inc = initseq << 1 | 1``, steps from 0, adds ``initstate``
  and steps again; ``random()`` steps once more, takes the XSL-RR output x
  and returns ``(x >> 11) * 2**-53``.

The kernel takes a uint64 array of seeds, the form
:func:`dperm.seeding.spawn_seeds` gives every block.  Below
``KERNEL_MIN_SEEDS`` seeds, and for seeds in any other form, the seeds go
through ``default_rng`` one by one, which gives the same bits, or its
error.  This fork and ``GUIDE_MIN_DRAWS`` are the kernels'
only size-selected paths, each kept for the traffic named at its constant.

The same seeding gives each seed's PCG64 (state, inc) right after
``default_rng(seed)`` builds it.  ``reseeded_generators(seeds)`` sets one
local generator to each of those states in turn (clearing its buffered
32-bit half), which makes it a fresh ``default_rng(seed)`` for a
fraction of the cost (setting the state took 2.1 us against 9.2 us for
``default_rng`` on a 2 vCPU Xeon, BENCH_blocks.json), and
``uniform_rows(seeds, n)`` fills row i of a (T, n) array with that
generator's ``random(n)``: a Monte Carlo block draws every trial's data
uniforms without building a generator per trial.

``categorical(p, u)`` returns the index that ``Generator.choice(len(p),
size, p=p)`` returns when it draws the uniforms ``u``: it runs the same
checks on ``p``, builds the same normalized CDF and gives
``cdf.searchsorted(u, side="right")``, the i with cdf[i - 1] <= u < cdf[i].
Feeding it ``rng.random(size)`` therefore reproduces ``choice`` draw for
draw.

A large batch is looked up in a guide table (Chen & Asau 1974; Devroye,
"Non-Uniform Random Variate Generation", 1986, section III.2.4) instead of
by binary search over the whole CDF.  Uniform u starts at the first atom
whose CDF passes the left edge j / k of its bucket j = floor(u k) and steps
forward once.  The few uniforms still not bracketed are binary searched:
those in a bucket that more atoms share, and those just below an edge j / k
whose product u k rounded up to j.  Either way the result is the
searchsorted index.  No clip of j to k - 1 is needed: u <= 1 - 2^-53, and
for every k < 2^53 that product rounds to below k.  Which path runs depends
only on the batch size and the CDF length.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# The sum check of Generator.choice: sqrt of the float64 machine epsilon.
SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
# Below this many uniforms, or below one per atom, building and reading the
# table costs more than binary search (microbenchmark in BENCH_draws.json).
# perfbench's fresh-data pass sends 86 datasets_at blocks (1,040-400,000
# uniforms) through it, about 35 ms faster a pass (BENCH_forks.json).
GUIDE_MIN_DRAWS = 1000
# Below this many seeds, building one generator per seed costs less than the
# fixed cost of the array kernel (microbenchmark in BENCH_seeds.json).
# perfbench's repeated-data pass makes 3,000 calls on 1 or 3 seeds (one-row
# boost draws), which the kernel would slow by about 0.26 s (BENCH_forks.json).
KERNEL_MIN_SEEDS = 12

_M32 = 0xFFFFFFFF
# SeedSequence's pool holds four 32-bit words.
_POOL = 4


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


# SeedSequence's hash constants.  The multiplier of hashmix call k is the
# same for every seed: _HASH_A[k] before the call and _HASH_A[k + 1] after
# it, for the 4 pool words and 12 mixing calls of mix_entropy; _HASH_B
# likewise for the 8 words of generate_state.
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit multiplier as its high and low 64-bit words, and the low
# word's two 32-bit halves.
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_LO_0, _PCG_LO_1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_U32 = np.uint64(_M32)
_S32 = np.uint64(32)


def categorical(p: np.ndarray, u):
    """Indices drawn from ``p`` by ``u``, exactly as ``Generator.choice``
    draws them.

    A 1-d ``p`` is one law, and ``u`` is a float or a 1-d array of floats in
    [0, 1).  A 2-d ``p`` holds one law per row, and ``u`` holds one float
    per row; row i gives ``categorical(p[i], u[i])``.  Every row gets the
    checks of the 1-d call, with the same messages.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d or 2-d array")
    if p.ndim == 2:
        if u.shape != (len(p),):
            raise ValueError(f"expected {len(p)} uniforms, one per row, got shape {u.shape}")
    total = np.add.reduce(p, axis=-1)
    miss = abs(total - 1.0)
    # One test passes every valid law: it fails on NaN, on a negative entry
    # and on a sum off 1; the checks below then name the first that holds.
    if (not (miss <= SUM_ATOL if p.ndim == 1 else np.maximum.reduce(miss) <= SUM_ATOL)
            or np.minimum.reduce(p, axis=None) < 0):
        if np.isnan(total).any():
            raise ValueError("probabilities contain NaN")
        if p.min() < 0:
            raise ValueError("probabilities are not non-negative")
        first = total[miss > SUM_ATOL][0] if p.ndim == 2 else total
        raise ValueError(f"probabilities sum to {first!r}, not 1 within {SUM_ATOL:.3g}")
    cdf = np.add.accumulate(p, axis=-1)
    if p.ndim == 2:
        cdf /= cdf[:, -1:]
        # A CDF row is nondecreasing, so the count of its entries <= u is
        # the row's searchsorted(u, side="right").
        return np.add.reduce(cdf <= u[:, None], axis=1)
    cdf /= cdf[-1]
    k = cdf.size
    if u.size < max(GUIDE_MIN_DRAWS, k):
        return cdf.searchsorted(u, side="right")
    guide = cdf.searchsorted(np.arange(k) / k, side="right")
    i = guide[(u * k).astype(np.intp)]
    below = np.concatenate(([0.0], cdf))  # below[i] = cdf[i - 1]
    i += cdf[i] <= u
    off = np.flatnonzero((cdf[i] <= u) | (below[i] > u))
    i[off] = cdf.searchsorted(u[off], side="right")
    return i


def _kernel_words(seeds) -> np.ndarray | None:
    """The seeds when the array kernel takes them, a uint64 array of at
    least ``KERNEL_MIN_SEEDS`` seeds; otherwise None."""
    if (len(seeds) >= KERNEL_MIN_SEEDS and isinstance(seeds, np.ndarray)
            and seeds.dtype == np.uint64):
        return seeds
    return None


def first_uniforms(seeds: Sequence[int]) -> np.ndarray:
    """``np.random.default_rng(s).random()`` for each seed, bit for bit.

    A uint64 array of ``KERNEL_MIN_SEEDS`` seeds or more is hashed and
    stepped as arrays; any other seeds each get their own ``default_rng``,
    which gives the same bits, or its error."""
    words = _kernel_words(seeds)
    if words is None:
        return np.array([np.random.default_rng(s).random() for s in seeds])
    hi, lo, inc_hi, inc_lo = _pcg64_seeded(words)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (x >> np.uint64(11)) * 2.0**-53


def reseeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed, a generator in the state of a fresh
    ``np.random.default_rng(seed)``.

    On the kernel's seeds (see :func:`first_uniforms`) every item is the
    same local generator, re-seeded by setting its PCG64 ``state`` and
    ``inc`` to the seed's and clearing the buffered 32-bit half
    (``has_uint32``, ``uinteger``), which bounded draws such as ``choice``
    read; an item is valid only until the next one is taken.  Otherwise
    each item is ``default_rng(seed)``."""
    words = _kernel_words(seeds)
    if words is None:
        yield from map(np.random.default_rng, seeds)
        return
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for hi, lo, inc_hi, inc_lo in zip(*(a.tolist() for a in _pcg64_seeded(words))):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def uniform_rows(seeds: Sequence[int], n: int) -> np.ndarray:
    """The (T, n) array whose row i is ``np.random.default_rng(seeds[i]).random(n)``,
    bit for bit, filled from :func:`reseeded_generators`."""
    out = np.empty((len(seeds), n))
    for row, rng in zip(out, reseeded_generators(seeds)):
        rng.random(out=row)
    return out


def _hashmix(value: np.ndarray, k: slice) -> np.ndarray:
    """SeedSequence's hashmix under the multipliers of calls ``k``."""
    value = (value ^ _HASH_A[k]) * _HASH_A[k.start + 1 : k.stop + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` as a (4, T) array."""
    pool = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _U32
    pool[1] = seeds >> _S32
    pool = _hashmix(pool, slice(0, _POOL))
    # Call k mixes word src into each other word in turn; for one src the
    # hashed word is the same, under the next three multipliers.
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], slice(k, k + len(dst))))
        k += len(dst)
    words = np.tile(pool, (2, 1)) ^ _HASH_B[:-1]
    words *= _HASH_B[1:]
    words ^= words >> 16
    # uint64 word j is uint32 words 2j (low half) and 2j + 1.
    words = words.astype(np.uint64)
    return words[0::2] | (words[1::2] << _S32)


def _mulhi_lo(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * _PCG_LO``, from the four
    products of 32-bit halves."""
    a0, a1 = a & _U32, a >> _S32
    p01, p10 = a0 * _PCG_LO_1, a1 * _PCG_LO_0
    mid = ((a0 * _PCG_LO_0) >> _S32) + (p01 & _U32) + (p10 & _U32)
    return a1 * _PCG_LO_1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2^128, on (hi, lo) uint64 lanes."""
    new_hi = _mulhi_lo(lo) + hi * _PCG_LO + lo * _PCG_HI
    new_lo = lo * _PCG_LO + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


def _pcg64_seeded(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64's (state high, state low, inc high, inc low) right after
    ``default_rng`` seeds it from each word, before any draw."""
    state = _seed_sequence_state(words)
    # inc = initseq << 1 | 1 from generate_state's (initstate high, low,
    # initseq high, low).
    inc_hi = (state[2] << np.uint64(1)) | (state[3] >> np.uint64(63))
    inc_lo = (state[3] << np.uint64(1)) | np.uint64(1)
    # The first step from state 0 gives inc; then add initstate and step.
    lo = inc_lo + state[1]
    hi = inc_hi + state[0] + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo
