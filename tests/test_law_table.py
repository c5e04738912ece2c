"""The law-matrix audits against per-pair oracles, their law rows, their
refusal of laws past a size cap, and a planted defect they must catch."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dperm.analysis import (
    _unique_rows,
    audit_approx_dp,
    audit_pure_dp,
    exhaustive_neighbor_pairs,
    sampled_neighbor_pairs,
    stability_audit,
)
from dperm.mechanisms import (
    Mechanism,
    PrivacyBudget,
    boost_high_confidence,
    erm_mechanism,
    exponential_mechanism,
    membership_flag_mechanism,
    subsample_wrapper,
)
from dperm import mechanisms
from dperm.problems import Dataset, threshold_classification
from dperm.spaces import SizeLimitError


def threshold_universe(u):
    xs = (np.arange(u) + 0.5) / u
    return Dataset(x=xs, y=(xs > 0.5).astype(float))


# ---------------------------------------------------------------------------
# Oracles: one law per distinct point order and one pair at a time.


class OrderKeyedLaws:
    def __init__(self, mechanism):
        self.mechanism = mechanism
        self.laws = {}

    def __call__(self, dataset):
        key = dataset.x.tobytes() + b"|" + dataset.y.tobytes()
        if key not in self.laws:
            self.laws[key] = self.mechanism.law(dataset)
        return self.laws[key]


def oracle_pure(mechanism, pairs):
    law = OrderKeyedLaws(mechanism)
    worst, witness, probed = 0.0, None, 0
    for index, (left, right) in enumerate(pairs):
        probed += 1
        p, q = law(left), law(right)
        lp, lq = p.log_probabilities, q.log_probabilities
        both_zero = np.isneginf(lp) & np.isneginf(lq)
        with np.errstate(invalid="ignore"):
            gaps = np.abs(lp - lq)
        gaps[both_zero] = 0.0
        hid = int(np.argmax(gaps))
        value = float(gaps[hid])
        if value > worst or witness is None:
            worst = value
            witness = {
                "pair_index": index,
                "hypothesis_id": hid,
                "log_ratio": value,
                "p": float(p.probabilities[hid]),
                "q": float(q.probabilities[hid]),
            }
    return worst, probed, witness


def oracle_approx(mechanism, pairs, epsilon):
    law = OrderKeyedLaws(mechanism)
    factor = math.exp(epsilon)
    worst, witness, probed = -1.0, None, 0
    for index, (left, right) in enumerate(pairs):
        probed += 1
        p, q = law(left).probabilities, law(right).probabilities
        value = float(np.clip(p - factor * q, 0.0, None).sum())
        if value > worst:
            worst = value
            witness = {"pair_index": index, "realized_delta": value}
    return worst, probed, witness


def oracle_stability(mechanism, pairs, probe_points):
    law = OrderKeyedLaws(mechanism)
    losses = mechanism.problem.loss_matrix(mechanism.space.payloads, probe_points)
    worst = 0.0
    for left, right in pairs:
        diff = law(left).probabilities - law(right).probabilities
        worst = max(worst, float(np.max(np.abs(diff @ losses))))
    return worst


def counting(pairs, seen):
    for pair in pairs:
        seen[0] += 1
        yield pair


# ---------------------------------------------------------------------------
# Equivalence


SIZES = [(4, 3), (4, 5), (5, 4), (6, 3), (6, 5)]


def pair_sets(u, n):
    universe = threshold_universe(u)
    return {
        "exhaustive": list(exhaustive_neighbor_pairs(universe, n)),
        "sampled": list(sampled_neighbor_pairs(universe, n, 150, seed=u * 10 + n)),
    }


def check_pure(mech, pairs):
    seen = [0]
    report = audit_pure_dp(mech, counting(pairs, seen))
    worst, probed, witness = oracle_pure(mech, pairs)
    assert seen[0] == len(pairs)
    assert report.max_log_ratio == worst
    assert report.pairs_probed == probed == len(pairs)
    assert report.witness == witness


def check_approx(mech, pairs, epsilon):
    seen = [0]
    report = audit_approx_dp(mech, counting(pairs, seen), epsilon)
    worst, probed, witness = oracle_approx(mech, pairs, epsilon)
    assert seen[0] == len(pairs)
    assert report.realized_delta == worst
    assert report.pairs_probed == probed == len(pairs)
    assert report.witness == witness


@pytest.mark.parametrize("u,n", SIZES)
def test_pure_audit_matches_oracle(u, n):
    problem, space = threshold_classification(resolution=8)
    for pairs in pair_sets(u, n).values():
        for eps in (0.5, 2.0):
            check_pure(exponential_mechanism(problem, space, eps), pairs)
        base = exponential_mechanism(problem, space, 1.0)
        for m in (1, 2, 3):
            check_pure(subsample_wrapper(base, m), pairs)


@pytest.mark.parametrize("u,n", SIZES)
def test_approx_audit_matches_oracle(u, n):
    problem, space = threshold_classification(resolution=8)
    universe = threshold_universe(u)
    sqrt_erm = subsample_wrapper(erm_mechanism(problem, space), "sqrt")
    flag = membership_flag_mechanism(0.5, 0.1, marker=float(universe.x[0]))
    for pairs in pair_sets(u, n).values():
        check_approx(sqrt_erm, pairs, 0.0)
        check_approx(flag, pairs, 0.5)
        for m in (1, 2):
            check_approx(subsample_wrapper(flag, m), pairs, 0.3)
        check_pure(flag, pairs)


@pytest.mark.parametrize("u,n", SIZES)
def test_stability_audit_matches_oracle(u, n):
    problem, space = threshold_classification(resolution=8)
    universe = threshold_universe(u)
    for pairs in pair_sets(u, n).values():
        for eps in (0.5, 2.0):
            mech = exponential_mechanism(problem, space, eps)
            seen = [0]
            got = stability_audit(mech, counting(pairs, seen))
            assert seen[0] == len(pairs)
            assert got == oracle_stability(mech, pairs, universe)


# ---------------------------------------------------------------------------
# Law counts


def counted(mech, blocks):
    law_rows = mech.law_rows

    def wrapper(block):
        blocks.append(block.atom_ids.shape)
        # Each multiset is built once, on its atoms in id order.
        assert (np.diff(block.atom_ids, axis=1) >= 0).all()
        return law_rows(block)

    mech.law_rows = wrapper
    return mech


def test_one_law_per_multiset():
    problem, space = threshold_classification(resolution=16)
    blocks = []
    mech = counted(exponential_mechanism(problem, space, 1.0), blocks)
    pairs = exhaustive_neighbor_pairs(threshold_universe(6), 5)
    audit_pure_dp(mech, pairs)
    assert blocks == [(math.comb(6 + 5 - 1, 5), 5)] == [(252, 5)]


def test_subsample_base_rows_shared_across_datasets():
    problem, space = threshold_classification(resolution=16)
    base_blocks, wrapper_blocks = [], []
    base = counted(exponential_mechanism(problem, space, 1.0), base_blocks)
    wrapped = counted(subsample_wrapper(base, 2), wrapper_blocks)
    audit_pure_dp(wrapped, exhaustive_neighbor_pairs(threshold_universe(6), 5))
    assert wrapper_blocks == [(252, 5)]
    assert base_blocks == [(math.comb(6 + 2 - 1, 2), 2)] == [(21, 2)]


def test_one_law_per_count_vector_on_unsorted_ids():
    problem, space = threshold_classification(resolution=16)
    blocks = []
    mech = counted(exponential_mechanism(problem, space, 1.0), blocks)
    pairs = list(sampled_neighbor_pairs(threshold_universe(6), 5, 200, seed=3))
    datasets = [d for pair in pairs for d in pair]
    assert any((np.diff(d.atom_ids) < 0).any() for d in datasets)
    vectors = {np.bincount(d.atom_ids, minlength=6).tobytes() for d in datasets}
    audit_pure_dp(mech, pairs)
    assert blocks == [(len(vectors), 5)]
    assert len(vectors) < len(datasets)


# ---------------------------------------------------------------------------
# Multiset keys


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 5000), cols=st.integers(1, 8), top=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1), equal=st.booleans())
@example(rows=1, cols=6, top=5, seed=0, equal=False)
@example(rows=300, cols=6, top=5, seed=1, equal=True)
@example(rows=200, cols=1, top=9, seed=2, equal=False)
@example(rows=5000, cols=6, top=5, seed=3, equal=False)
def test_unique_rows_match_numpy_unique(rows, cols, top, seed, equal):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, top + 1, size=(1 if equal else rows, cols))
    if equal:
        counts = np.repeat(counts, rows, axis=0)
    vectors, inverse = _unique_rows(counts)
    ref_vectors, ref_inverse = np.unique(counts, axis=0, return_inverse=True)
    assert vectors.dtype == ref_vectors.dtype
    assert np.array_equal(vectors, ref_vectors)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))


def test_law_table_refuses_datasets_without_ids():
    problem, space = threshold_classification(resolution=4)
    mech = exponential_mechanism(problem, space, 1.0)
    universe = threshold_universe(4)
    plain = [(universe.take([0, 1]), universe.take([0, 2]))]
    for audit in (lambda pairs: audit_pure_dp(mech, pairs),
                  lambda pairs: audit_approx_dp(mech, pairs, 1.0),
                  lambda pairs: stability_audit(mech, pairs)):
        with pytest.raises(ValueError, match=r"atom ids \(Dataset.of_atoms\)"):
            audit(plain)


def test_law_table_refuses_ids_into_a_second_support():
    problem, space = threshold_classification(resolution=4)
    mech = exponential_mechanism(problem, space, 1.0)
    first, second = threshold_universe(4), threshold_universe(4)
    pairs = [(Dataset.of_atoms(first, [0, 1]), Dataset.of_atoms(second, [0, 2]))]
    with pytest.raises(ValueError, match="into one support"):
        audit_pure_dp(mech, pairs)


def test_audits_refuse_datasets_of_mixed_sizes():
    problem, space = threshold_classification(resolution=4)
    mech = exponential_mechanism(problem, space, 1.0)
    universe = threshold_universe(4)
    pairs = [(Dataset.of_atoms(universe, [0, 1]), Dataset.of_atoms(universe, [0, 2])),
             (Dataset.of_atoms(universe, [0, 1, 3]), Dataset.of_atoms(universe, [0, 2, 3]))]
    for audit in (lambda pairs: audit_pure_dp(mech, pairs),
                  lambda pairs: audit_approx_dp(mech, pairs, 1.0),
                  lambda pairs: stability_audit(mech, pairs)):
        with pytest.raises(ValueError, match=re.escape("one size, got sizes [2, 3]")):
            audit(pairs)


def test_audits_refuse_no_pairs_and_no_law():
    problem, space = threshold_classification(resolution=4)
    with pytest.raises(ValueError, match="no neighbor pairs were supplied"):
        audit_pure_dp(exponential_mechanism(problem, space, 1.0), [])
    lawless = Mechanism(name="draws-only",
                        sample_many=lambda data, seeds: np.zeros(len(seeds), dtype=int))
    pairs = exhaustive_neighbor_pairs(threshold_universe(4), 2)
    with pytest.raises(ValueError, match="'draws-only' has no exact law to audit"):
        audit_pure_dp(lawless, pairs)


def test_subsample_law_of_a_dataset_without_ids_is_its_of_atoms_twin():
    # A dataset without ids is its own support, each point an atom: its law
    # is the mixture over its C(n, m) index subsets, as for the same points
    # with ids.
    problem, space = threshold_classification(resolution=4)
    wrapped = subsample_wrapper(exponential_mechanism(problem, space, 1.0), 2)
    plain = wrapped.law(threshold_universe(4))
    twin = wrapped.law(Dataset.of_atoms(threshold_universe(4), [0, 1, 2, 3]))
    assert np.array_equal(plain.probabilities, twin.probabilities)
    assert np.array_equal(plain.log_probabilities, twin.log_probabilities)


# ---------------------------------------------------------------------------
# Exactness


def test_sampled_law_is_marked_inexact(monkeypatch):
    # Four distinct points hold C(4, 3) = 4 sub-multisets of size 3, past the
    # cap of 2: the law raises naming the mechanism rather than being sampled.
    # Repeated points hold one sub-multiset, and the default cap admits all 4.
    problem, space = threshold_classification(resolution=4)
    base = exponential_mechanism(problem, space, 1.0)
    support = Dataset(
        x=np.array([0.1, 0.3, 0.6, 0.9]), y=np.array([0.0, 0.0, 1.0, 1.0])
    )
    distinct = Dataset.of_atoms(support, [0, 1, 2, 3])
    repeated = Dataset.of_atoms(support, [1, 1, 1, 1])
    wrapped = subsample_wrapper(base, 3)
    monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 2)
    with pytest.raises(SizeLimitError, match=re.escape(repr(wrapped.name))):
        wrapped.law(distinct)
    assert wrapped.law(repeated).probabilities.sum() == pytest.approx(1.0)
    monkeypatch.undo()
    law = wrapped.law(distinct)
    assert law.probabilities.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("audit", ["pure", "approx", "stability"])
def test_audits_refuse_sampled_laws(audit, monkeypatch):
    # The multiset of all four atoms has C(4, 3) = 4 sub-multisets, past the
    # cap of 2, so its law is refused instead of being estimated.
    problem, space = threshold_classification(resolution=4)
    base = exponential_mechanism(problem, space, 1.0)
    monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 2)
    wrapped = subsample_wrapper(base, 3)
    universe = threshold_universe(4)
    pairs = exhaustive_neighbor_pairs(universe, 4)
    with pytest.raises(SizeLimitError, match=re.escape(repr(wrapped.name))):
        if audit == "pure":
            audit_pure_dp(wrapped, pairs)
        elif audit == "approx":
            audit_approx_dp(wrapped, pairs, 1.0)
        else:
            stability_audit(wrapped, pairs)


def test_boost_over_a_capped_subsample_is_refused(monkeypatch):
    # A boost with one part runs its base on the first n // 2 points (the
    # audit's law rows put them in sorted order).  Four distinct points
    # there pass the subsample's cap, so the boost has no exact law for
    # them, and its audit must say so.
    problem, space = threshold_classification(resolution=4)
    em = exponential_mechanism(problem, space, 1.0)
    monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 2)
    sub = subsample_wrapper(em, 3)
    boost = boost_high_confidence(sub, space, 2.0, 1.0)
    assert boost.info["parts"] == 1
    distinct = Dataset.of_atoms(threshold_universe(4), [0, 1, 2, 3, 3, 3, 3, 3])
    with pytest.raises(SizeLimitError, match=re.escape(repr(sub.name))):
        boost.law(distinct)
    pairs = exhaustive_neighbor_pairs(threshold_universe(4), 8)
    with pytest.raises(SizeLimitError, match=re.escape(repr(sub.name))):
        audit_pure_dp(boost, pairs)


# ---------------------------------------------------------------------------
# Planted defect


def overconfident_em(problem, space, epsilon, factor):
    """An exponential mechanism run at factor * epsilon that claims epsilon."""
    real = exponential_mechanism(problem, space, factor * epsilon)
    return Mechanism(
        name=f"em-x{factor}(eps={epsilon:g})",
        sample_many=real.sample_many,
        law_rows=real.law_rows,
        budget=lambda n: PrivacyBudget(epsilon),
        problem=problem,
        space=space,
    )


def test_planted_exponent_defect_fails_the_pure_audit():
    problem, space = threshold_classification(resolution=64)
    pairs = list(exhaustive_neighbor_pairs(threshold_universe(6), 5))
    for eps, realized in ((0.5, 0.5853), (1.0, 1.2110), (2.0, 2.3342)):
        mech = overconfident_em(problem, space, eps, factor=3)
        report = audit_pure_dp(mech, pairs)
        assert report.max_log_ratio == pytest.approx(realized, abs=1e-4)
        assert report.max_log_ratio > mech.claimed_budget(5).epsilon + 1e-9
