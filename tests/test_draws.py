"""The draw kernels give exactly what numpy gives: first_uniforms the first
random() of default_rng(seed), uniform_rows its first n, reseeded_generators
its generator, and categorical the index of Generator.choice."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dperm.draws import (
    GUIDE_MIN_DRAWS,
    KERNEL_MIN_SEEDS,
    categorical,
    first_uniforms,
    reseeded_generators,
    uniform_rows,
)
from dperm.seeding import spawn_seed, spawn_seeds

SEEDS = 200
DRAWS = 5000


def _probabilities(k: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(1000 + k)
    if kind == "uniform":
        w = np.ones(k)
    elif kind == "skewed":
        w = 0.7 ** np.arange(k)
    elif kind == "dirichlet":
        w = rng.dirichlet(np.full(k, 0.1))
    elif kind == "zero-mass":
        # Zero atoms first, last and in runs: their CDF steps are tied.
        w = rng.random(k)
        w[::3] = 0.0
        w[-1] = 0.0
        if not w.any():
            w[k // 2] = 1.0
    elif kind == "tiny-mass":
        # Atoms too light to move the running sum: tied steps of positive mass.
        w = np.where(np.arange(k) % 2 == 0, 1.0, 1e-20)
    else:
        raise ValueError(kind)
    return w / w.sum()


def _cdf(p: np.ndarray) -> np.ndarray:
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


CASES = [
    (k, kind)
    for k in (1, 2, 8, 93, 512)
    for kind in ("uniform", "skewed", "dirichlet", "zero-mass", "tiny-mass")
    if k > 1 or kind == "uniform"
]


@pytest.mark.parametrize("k,kind", CASES)
def test_matches_generator_choice(k, kind):
    p = _probabilities(k, kind)
    assert DRAWS >= max(GUIDE_MIN_DRAWS, k)  # the batches take the table path
    for seed in range(SEEDS):
        ref, mine = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(categorical(p, mine.random(DRAWS)), ref.choice(k, DRAWS, p=p))
        assert categorical(p, mine.random()) == ref.choice(k, p=p)
        # Both consumed the same uniforms, so later draws stay aligned.
        assert mine.bit_generator.state == ref.bit_generator.state


# At these sizes some uniform just below an edge j / k has u k rounded up to
# j while a CDF value lies between them, so the table starts past the answer.
OVERSHOOT_CASES = [(10, "uniform"), (1000, "uniform"), (1000, "tiny-mass")]


@pytest.mark.parametrize("k,kind", CASES + OVERSHOOT_CASES)
def test_boundary_uniforms(k, kind):
    """Uniforms on, just below and just above every CDF value and every
    bucket edge j / k, plus the largest double below one."""
    p = _probabilities(k, kind)
    cdf = _cdf(p)
    marks = np.concatenate([cdf, np.arange(k) / k])
    u = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    batch = np.tile(u, -(-GUIDE_MIN_DRAWS // u.size))
    expected = cdf.searchsorted(batch, side="right")
    assert np.array_equal(categorical(p, batch), expected)
    assert [int(categorical(p, v)) for v in u] == expected[: u.size].tolist()


def test_top_uniform_at_93_atoms():
    p = _probabilities(93, "uniform")
    top = np.nextafter(1.0, 0.0)
    assert categorical(p, top) == 92
    assert (categorical(p, np.full(GUIDE_MIN_DRAWS, top)) == 92).all()


@pytest.mark.parametrize("p", [
    [0.5, -0.1, 0.6],
    [0.5, np.nan, 0.5],
    [0.55, 0.55],
    [0.5, np.inf],
    [],
])
def test_bad_probabilities_raise(p):
    with pytest.raises(ValueError):
        categorical(np.array(p, dtype=float), 0.5)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(len(p), 1), p=p)


ROW_KINDS = ("uniform", "dirichlet", "zero-mass", "tiny-mass", "ties")


@st.composite
def law_rows(draw):
    """A (rows, k) array of laws of mixed kinds, k up to past 1,024, and one
    uniform per row: random, on a CDF value, one ulp either side of it, 0,
    or the largest double below 1."""
    k = draw(st.one_of(st.integers(1, 9), st.integers(120, 136), st.integers(1020, 1030)))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, u = np.empty((rows, k)), np.empty(rows)
    for r in range(rows):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "uniform":
            w = np.ones(k)
        elif kind == "dirichlet":
            w = rng.dirichlet(np.full(k, 0.1))
        elif kind == "zero-mass":
            w = np.where(rng.random(k) < 0.5, 0.0, rng.random(k))
        elif kind == "tiny-mass":
            w = np.where(rng.random(k) < 0.5, 1e-20, rng.random(k))
        else:  # a few distinct masses, each repeated
            w = rng.integers(1, 4, k).astype(float)
        if not w.any():
            w[rng.integers(k)] = 1.0
        p[r] = w / w.sum()
        mark = _cdf(p[r])[rng.integers(k)]
        where = draw(st.sampled_from(["random", "on", "below", "above", "zero", "top"]))
        u[r] = {
            "random": rng.random(),
            "on": mark,
            "below": np.nextafter(mark, 0.0),
            "above": np.nextafter(mark, 2.0),
            "zero": 0.0,
            "top": np.nextafter(1.0, 0.0),
        }[where]
        if u[r] >= 1.0:
            u[r] = np.nextafter(1.0, 0.0)
    return p, u


@given(law_rows())
@settings(max_examples=300, deadline=None)
def test_rows_equal_the_1d_call(case):
    p, u = case
    got = categorical(p, u)
    assert got.tolist() == [int(categorical(row, v)) for row, v in zip(p, u)]
    assert got.tolist() == [int(_cdf(row).searchsorted(v, side="right"))
                            for row, v in zip(p, u)]


@pytest.mark.parametrize("bad", [
    [0.5, np.nan, 0.5],
    [0.5, -0.1, 0.6],
    [0.55, 0.55, 0.1],
    [0.5, np.inf, 0.0],
])
@pytest.mark.parametrize("at", [0, 2])
def test_bad_row_raises_like_the_1d_call(bad, at):
    p = np.array([[0.2, 0.3, 0.5]] * 3)
    p[at] = bad
    with pytest.raises(ValueError) as one:
        categorical(p[at], 0.5)
    with pytest.raises(ValueError) as rows:
        categorical(p, np.full(3, 0.5))
    assert str(rows.value) == str(one.value)


def test_rows_need_one_uniform_each():
    with pytest.raises(ValueError, match="one per row"):
        categorical(np.full((2, 2), 0.5), [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# first_uniforms: default_rng(seed).random() without a generator per seed

REFERENCE_RNG = np.random.default_rng
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _reference(seeds):
    return np.array([REFERENCE_RNG(s).random() for s in seeds])


def _same_bits(got, want):
    return got.dtype == np.float64 and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


def _refuse(seed):
    raise AssertionError(f"default_rng({seed!r}) called on the kernel path")


def kernel(seeds):
    """first_uniforms with default_rng unavailable, so a batch that passes
    went through the array kernel and not through one generator per seed."""
    with mock.patch.object(np.random, "default_rng", _refuse):
        return first_uniforms(seeds)


def test_spawned_seeds():
    seeds = spawn_seeds(20150226, np.arange(10**5))
    assert _same_bits(kernel(seeds), _reference(seeds.tolist()))


def test_edge_seeds():
    # Seeds of one and of two 32-bit words, and the top bit of each word.
    batch = EDGE_SEEDS * -(-KERNEL_MIN_SEEDS // len(EDGE_SEEDS))
    assert _same_bits(kernel(np.array(batch, dtype=np.uint64)), _reference(batch))
    for s in EDGE_SEEDS:
        assert _same_bits(first_uniforms([s]), _reference([s]))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=KERNEL_MIN_SEEDS, max_size=300))
@settings(max_examples=200, deadline=None)
def test_any_seed_below_2_to_the_64(seeds):
    assert _same_bits(kernel(np.array(seeds, dtype=np.uint64)), _reference(seeds))


@pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32, np.int32, np.uint8])
def test_numpy_integer_seeds(dtype):
    # Only a uint64 array takes the kernel; seeds in any other form take
    # default_rng one by one, which gives the same bits.
    top = int(np.iinfo(dtype).max)
    seeds = np.array([0, top] + [spawn_seed(11, i) & top for i in range(KERNEL_MIN_SEEDS)],
                     dtype=dtype)
    want = _reference(seeds)
    assert _same_bits((kernel if dtype is np.uint64 else first_uniforms)(seeds), want)
    assert _same_bits(first_uniforms(list(seeds)), want)
    mixed = [int(s) if i % 2 else s for i, s in enumerate(seeds)]
    assert _same_bits(first_uniforms(mixed), want)


@pytest.mark.parametrize("size", [1, KERNEL_MIN_SEEDS - 1, KERNEL_MIN_SEEDS,
                                  KERNEL_MIN_SEEDS + 1])
def test_both_sides_of_the_crossover(size):
    seeds = [spawn_seed(7, i) for i in range(size)]
    assert _same_bits(first_uniforms(seeds), _reference(seeds))


def test_crossover_picks_the_path():
    seeds = spawn_seeds(8, np.arange(KERNEL_MIN_SEEDS))
    kernel(seeds)
    for other in (seeds[:-1], seeds.tolist(), np.arange(KERNEL_MIN_SEEDS)):
        with pytest.raises(AssertionError, match="kernel path"):
            kernel(other)


@pytest.mark.parametrize("size", [1, KERNEL_MIN_SEEDS])
def test_negative_seed_raises_like_default_rng(size):
    seeds = [spawn_seed(9, i) for i in range(size - 1)] + [-1]
    with pytest.raises(ValueError) as want:
        REFERENCE_RNG(-1)
    with pytest.raises(ValueError) as got:
        first_uniforms(seeds)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        first_uniforms(np.arange(-1, size - 1, dtype=np.int64))


def test_seeds_past_64_bits_and_non_integers_take_the_loop():
    wide = [spawn_seed(10, i) for i in range(KERNEL_MIN_SEEDS)] + [2**64, 2**70 + 3]
    assert _same_bits(first_uniforms(wide), _reference(wide))
    floats = [float(i) for i in range(KERNEL_MIN_SEEDS)]
    with pytest.raises(TypeError):
        REFERENCE_RNG(floats[0])
    with pytest.raises(TypeError):
        first_uniforms(floats)


# ---------------------------------------------------------------------------
# uniform_rows and reseeded_generators: default_rng(seed) by setting state


@pytest.mark.parametrize("n", [1, 600, 10_000])
def test_uniform_rows_are_default_rng_rows(n):
    seeds = np.concatenate([spawn_seeds(12, np.arange(40)),
                            np.array(EDGE_SEEDS, dtype=np.uint64)])
    want = np.stack([REFERENCE_RNG(s).random(n) for s in seeds.tolist()])
    with mock.patch.object(np.random, "default_rng", _refuse):
        got = uniform_rows(seeds, n)
    assert got.shape == (len(seeds), n) and _same_bits(got, want)
    # Below the crossover each row comes from its own generator.
    assert _same_bits(uniform_rows(seeds[:2], n), want[:2])


def test_reseeded_generator_is_a_fresh_default_rng():
    # choice(n, m, replace=False) draws bounded 32-bit values and can leave
    # half a 64-bit word buffered (has_uint32 = 1); re-seeding must clear it,
    # or the next trial's state differs from a fresh generator's.
    n, seeds = 600, spawn_seeds(13, np.arange(64))
    buffered = 0
    with mock.patch.object(np.random, "default_rng", _refuse):
        generators = reseeded_generators(seeds)
        for s, m in zip(seeds.tolist(), itertools.cycle([1, 7, 25, 600])):
            rng, fresh = next(generators), REFERENCE_RNG(s)
            assert rng.bit_generator.state == fresh.bit_generator.state
            assert _same_bits(rng.random(n), fresh.random(n))
            assert rng.bit_generator.state == fresh.bit_generator.state
            assert np.array_equal(rng.choice(n, m, replace=False),
                                  fresh.choice(n, m, replace=False))
            assert rng.bit_generator.state == fresh.bit_generator.state
            buffered += rng.bit_generator.state["has_uint32"]
    assert buffered > 0
