"""Seed derivation: reference vectors and stream independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dperm.seeding import ARRAY_MIN_SEEDS, mix64, spawn_seed, spawn_seeds, trial_rng

# Reference outputs of the splitmix64 finalizer.  mix64(0) must equal the
# first output of the standard generator seeded with 0.
MIX64_VECTORS = {
    0: 0xE220A8397B1DCDAF,
    1: 10451216379200822465,
    2: 10905525725756348110,
    3: 2092789425003139053,
}


def test_mix64_reference_vectors():
    for x, expected in MIX64_VECTORS.items():
        assert mix64(x) == expected


def test_spawn_seed_is_mix_of_xor():
    assert spawn_seed(7, 3) == mix64(7 ^ 3) == 7958955049054603978


def test_spawn_seed_rejects_negative_stream():
    with pytest.raises(ValueError):
        spawn_seed(1, -1)


def test_streams_are_distinct():
    seeds = {spawn_seed(42, i) for i in range(2000)}
    assert len(seeds) == 2000


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32))
@settings(max_examples=200)
def test_mix64_stays_in_range(root, i):
    s = spawn_seed(root, i)
    assert 0 <= s < 2**64


def test_trial_rng_reproducible_and_stream_independent():
    a1 = trial_rng(5, 0).random(4)
    a2 = trial_rng(5, 0).random(4)
    b = trial_rng(5, 1).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_adding_trials_never_shifts_earlier_streams():
    # Stream i's seed depends only on (root, i), not on how many trials run.
    before = [trial_rng(9, i).integers(0, 1 << 30) for i in range(5)]
    after = [trial_rng(9, i).integers(0, 1 << 30) for i in range(50)][:5]
    assert before == after


# ---------------------------------------------------------------------------
# spawn_seeds: spawn_seed over uint64 arrays

EDGE_ROOTS = [0, 1, 2**32 - 1, 2**63, 2**64 - 1]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
@settings(max_examples=200)
def test_spawn_seeds_equals_spawn_seed(roots, indices):
    want = [[spawn_seed(r, i) for i in indices] for r in roots]
    got = spawn_seeds(np.array(roots, dtype=np.uint64)[:, None],
                      np.array(indices, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == want
    # Sequences of ints, and one int against an array.
    assert spawn_seeds(roots, indices[0]).tolist() == [row[0] for row in want]
    assert spawn_seeds(roots[0], indices).tolist() == want[0]


@pytest.mark.parametrize("root", EDGE_ROOTS + [np.uint64(2**63), np.uint64(2**64 - 1),
                                               np.int64(5), np.uint32(7)])
def test_spawn_seeds_edge_and_numpy_roots(root):
    indices = np.arange(300)
    want = [spawn_seed(root, i) for i in indices]
    assert spawn_seeds(root, indices).tolist() == want
    assert spawn_seeds(np.array([root] * 3)[:, None], indices).tolist() == [want] * 3


@pytest.mark.parametrize("size", [1, ARRAY_MIN_SEEDS - 1, ARRAY_MIN_SEEDS, ARRAY_MIN_SEEDS + 1])
def test_spawn_seeds_on_both_sides_of_the_crossover(size):
    roots = [2**64 - 1 - 3 * i for i in range(size)]
    assert spawn_seeds(roots, 9).tolist() == [spawn_seed(r, 9) for r in roots]


def test_spawn_seeds_broadcasts():
    roots = spawn_seeds(11, np.arange(5))
    block = spawn_seeds(roots[:, None], np.arange(3))
    assert block.shape == (5, 3)
    assert block.tolist() == [[spawn_seed(r, j) for j in range(3)] for r in roots.tolist()]
    # Both scalars: a 0-d array.
    one = spawn_seeds(7, 3)
    assert one.shape == () and int(one) == spawn_seed(7, 3)
    assert spawn_seeds(roots, np.arange(3)[:, None]).T.tolist() == block.tolist()


@pytest.mark.parametrize("indices", [-1, [3, -2], np.array([0, -5]), np.int64(-1)])
def test_spawn_seeds_rejects_a_negative_stream_like_spawn_seed(indices):
    with pytest.raises(ValueError) as want:
        spawn_seed(1, -1)
    with pytest.raises(ValueError, match=str(want.value).split(",")[0]):
        spawn_seeds(1, indices)
