"""Audits, gap measurements, and the experiment-level study helpers."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dperm import analysis
from dperm.analysis import (
    aerm_bound,
    aerm_bound_stated,
    aerm_gap,
    audit_approx_dp,
    audit_pure_dp,
    chi_square_gof,
    consistency_suite,
    counterexample_experiment,
    empirical_law_on_grid,
    exhaustive_neighbor_pairs,
    phase_transition_experiment,
    sample_counts,
    sampled_neighbor_pairs,
    stability_audit,
    total_variation,
    utility_tail_check,
)
from dperm.mechanisms import (
    Mechanism,
    boost_high_confidence,
    erm_mechanism,
    exponential_mechanism,
    membership_flag_mechanism,
    subsample_wrapper,
)
from dperm.problems import (
    PROBLEM_BUILDERS,
    Dataset,
    discrete_points,
    erm,
    labeled_threshold,
    objective_vector,
    population_risk_vector,
    risk_vector,
)
from dperm.seeding import spawn_seed, trial_rng
from dperm.spaces import SizeLimitError


def two_atom_universe():
    return Dataset(x=np.array([0.3, 0.7]), y=np.array([0.0, 1.0]))


def itertools_neighbor_pairs(universe, n):
    """The enumerator as a loop over itertools multisets, one pair at a time:
    each multiset's first occurrence of each atom, replaced by each other
    atom in ascending order."""
    for ms in itertools.combinations_with_replacement(range(universe.n), n):
        base = Dataset.of_atoms(universe, ms)
        seen = set()
        for pos, a in enumerate(ms):
            if a in seen:
                continue
            seen.add(a)
            for b in range(universe.n):
                if b == a:
                    continue
                swapped = list(ms)
                swapped[pos] = b
                yield base, Dataset.of_atoms(universe, swapped)


def left_runs(pairs):
    """Where a new left object starts."""
    return [i for i, (left, _) in enumerate(pairs) if i == 0 or left is not pairs[i - 1][0]]


class TestNeighborPairs:
    def pair_count_formula(self, u, n):
        # Each size-n multiset over u atoms contributes one ordered pair per
        # (present atom, other atom) combination.
        total = 0
        for ms in itertools.combinations_with_replacement(range(u), n):
            total += len(set(ms)) * (u - 1)
        return total

    @pytest.mark.parametrize("u,n", [(2, 3), (2, 6), (3, 3), (4, 2)])
    def test_pair_count(self, u, n):
        universe = Dataset(
            x=(np.arange(u) + 0.5) / u, y=np.arange(u, dtype=float) % 2
        )
        pairs = list(exhaustive_neighbor_pairs(universe, n))
        assert len(pairs) == self.pair_count_formula(u, n)

    def test_pairs_differ_in_one_slot(self):
        universe = two_atom_universe()
        for left, right in exhaustive_neighbor_pairs(universe, 4):
            assert left.n == right.n == 4
            diffs = np.sum(np.sort(left.x) != np.sort(right.x))
            assert diffs == 1

    def test_cap(self):
        universe = Dataset(x=(np.arange(6) + 0.5) / 6, y=np.zeros(6))
        with pytest.raises(SizeLimitError):
            list(exhaustive_neighbor_pairs(universe, 14))

    @pytest.mark.parametrize("u,n", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 4), (6, 5)])
    def test_pairs_equal_the_itertools_enumerator(self, u, n):
        universe = Dataset(x=(np.arange(u) + 0.5) / u, y=np.arange(u, dtype=float) % 2)
        got = list(exhaustive_neighbor_pairs(universe, n))
        want = list(itertools_neighbor_pairs(universe, n))
        assert len(got) == len(want)
        for pair, oracle in zip(got, want):
            for d, o in zip(pair, oracle):
                assert d.support is universe
                assert np.array_equal(d.atom_ids, o.atom_ids)
                assert np.array_equal(d.x, o.x) and np.array_equal(d.y, o.y)
                assert d.atom_ids.dtype == o.atom_ids.dtype and d.x.dtype == o.x.dtype
                assert not any(a.flags.writeable for a in (d.x, d.y, d.atom_ids))
        assert left_runs(got) == left_runs(want)
        assert len(left_runs(got)) == math.comb(u + n - 1, n)

    def test_cap_is_checked_before_any_array_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("an array was built before the cap check")

        monkeypatch.setattr(analysis.itertools, "combinations_with_replacement", built)
        monkeypatch.setattr(analysis, "DatasetBlock", built)
        universe = Dataset(x=(np.arange(50) + 0.5) / 50, y=np.zeros(50))
        with pytest.raises(SizeLimitError, match="exceeds the cap of 200000"):
            next(exhaustive_neighbor_pairs(universe, 40))

    def test_cell_budget_is_checked_before_any_array_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("an array was built before the cell budget check")

        monkeypatch.setattr(analysis.itertools, "combinations_with_replacement", built)
        monkeypatch.setattr(analysis, "DatasetBlock", built)
        # 100,002 pairs pass the pair cap; their 5e9 id cells do not.
        with pytest.raises(SizeLimitError, match="id cells of neighbor pairs exceeds"):
            next(exhaustive_neighbor_pairs(two_atom_universe(), 50_000))

    def test_sampled_pairs_come_in_both_orders(self):
        universe = two_atom_universe()
        pairs = list(sampled_neighbor_pairs(universe, 5, count=3, seed=1))
        assert len(pairs) == 6
        a, b = pairs[0], pairs[1]
        assert np.array_equal(a[0].x, b[1].x)
        assert np.array_equal(a[1].x, b[0].x)


class TestPureAudit:
    def test_randomized_response_hits_epsilon_exactly(self):
        # delta = 0 turns the membership flag into plain randomized response,
        # whose worst log-ratio is exactly epsilon.
        eps = 0.8
        flag = membership_flag_mechanism(eps, 0.0, marker=0.3)
        universe = two_atom_universe()
        report = audit_pure_dp(flag, exhaustive_neighbor_pairs(universe, 3))
        assert report.max_log_ratio == pytest.approx(eps, abs=1e-12)
        assert report.pairs_probed == 6
        assert report.witness is not None

    def test_deterministic_mechanism_audits_infinite(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        raw = erm_mechanism(problem, space)
        universe = two_atom_universe()
        report = audit_pure_dp(raw, exhaustive_neighbor_pairs(universe, 3))
        assert report.max_log_ratio == math.inf

    def test_em_within_epsilon(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        universe = two_atom_universe()
        for eps in (0.1, 1.0, 2.0):
            mech = exponential_mechanism(problem, space, eps)
            report = audit_pure_dp(
                mech, exhaustive_neighbor_pairs(universe, 4)
            )
            assert report.max_log_ratio <= eps + 1e-9

    def test_empty_pairs_rejected(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        with pytest.raises(ValueError):
            audit_pure_dp(exponential_mechanism(problem, space, 1.0), [])


class TestApproxAudit:
    def test_flag_realizes_its_delta(self):
        eps, delta = 0.5, 0.07
        flag = membership_flag_mechanism(eps, delta, marker=0.3)
        universe = two_atom_universe()
        report = audit_approx_dp(
            flag, exhaustive_neighbor_pairs(universe, 3), epsilon=eps
        )
        assert report.realized_delta == pytest.approx(delta, abs=1e-12)

    def test_generous_epsilon_realizes_zero(self):
        flag = membership_flag_mechanism(0.5, 0.0, marker=0.3)
        universe = two_atom_universe()
        report = audit_approx_dp(
            flag, exhaustive_neighbor_pairs(universe, 3), epsilon=5.0
        )
        assert report.realized_delta == 0.0


def test_stability_audit_matches_direct_computation():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
    mech = exponential_mechanism(problem, space, 1.0)
    universe = two_atom_universe()
    pairs = list(exhaustive_neighbor_pairs(universe, 2))
    got = stability_audit(mech, pairs)

    losses = problem.loss_matrix(space.payloads, universe)  # (|H|, probes)
    worst = 0.0
    for left, right in pairs:
        p = mech.law(left).probabilities
        q = mech.law(right).probabilities
        worst = max(worst, float(np.max(np.abs((p - q) @ losses))))
    assert got == pytest.approx(worst, abs=1e-15)


class TestAermBound:
    def test_frozen_value(self):
        value = aerm_bound(10**4, 0.1, 2**10, 0.0, 0.0)
        assert value == pytest.approx(0.2281693729459664, abs=1e-15)

    def test_formula(self):
        n, eps, k, rho, zeta = 50, 0.5, 17.0, 1.5, 0.01
        manual = 9.0 * ((rho + 2.0) * math.log(n) + math.log(k)) / (n * eps)
        assert aerm_bound(n, eps, k, rho, zeta) == pytest.approx(
            manual + 2 * zeta
        )

    def test_stated_variant_flips_log_k(self):
        checked = aerm_bound(100, 1.0, 8.0, 0.0, 0.0)
        stated = aerm_bound_stated(100, 1.0, 8.0, 0.0, 0.0)
        assert stated < checked
        assert aerm_bound(100, 1.0, 1.0, 0.0, 0.0) == pytest.approx(
            aerm_bound_stated(100, 1.0, 1.0, 0.0, 0.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            aerm_bound(1, 1.0, 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            aerm_bound(10, -1.0, 2.0, 0.0, 0.0)


def test_aerm_gap_zero_for_erm_point_mass():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
    data = labeled_threshold(0.5, support_size=16).sample(9, trial_rng(0, 0))
    assert aerm_gap(erm_mechanism(problem, space), data) == pytest.approx(0.0)


def test_utility_tail_rows_match_direct_computation():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
    data = labeled_threshold(0.5, support_size=32).sample(30, trial_rng(1, 0))
    eps = 1.0
    mech = exponential_mechanism(problem, space, eps)
    rows = utility_tail_check(mech, data, [0.05, 0.2])

    values = objective_vector(problem, space, data)
    law = mech.law(data).probabilities
    best = values.min()
    for row in rows:
        tail = law[values > best + 2 * row.t].sum()
        members = (values <= best + row.t + 1e-12).sum()
        bound = (space.size / members) * math.exp(-eps * data.n * row.t / 4.0)
        assert row.tail_mass == pytest.approx(tail, abs=1e-15)
        assert row.bound == pytest.approx(bound, rel=1e-12)
        assert row.ok


def test_utility_tail_requires_pure_budget():
    flag = membership_flag_mechanism(1.0, 0.1, marker=0.5)
    data = two_atom_universe()
    with pytest.raises(ValueError):
        utility_tail_check(flag, data, [0.1])


class TestConsistencySuite:
    def independent_exact_chain(self, resolution, n, eps):
        """Recompute the exact-mode gaps with nothing but numpy."""
        thresholds = (np.arange(resolution) + 0.5) / resolution
        atoms = [(0.3, 0.0), (0.7, 1.0)]
        probs = np.array([0.5, 0.5])

        def loss_row(x, y):
            return ((x > thresholds) != (y > 0.5)).astype(float)

        pop = probs[0] * loss_row(*atoms[0]) + probs[1] * loss_row(*atoms[1])
        scale = eps * n / 4.0

        def law_of(ids):
            emp = np.mean([loss_row(*atoms[i]) for i in ids], axis=0)
            w = np.exp(-scale * (emp - emp.min()))
            return w / w.sum(), emp

        excess = gen = aerm = 0.0
        for ids in itertools.product(range(2), repeat=n):
            weight = float(np.prod(probs[list(ids)]))
            law, emp = law_of(ids)
            excess += weight * (law @ pop - pop.min())
            gen += weight * (law @ pop - law @ emp)
            aerm += weight * (law @ emp - emp.min())

        stability = 0.0
        for ids in itertools.product(range(2), repeat=n):
            law, _ = law_of(ids)
            for slot in range(n):
                for other in range(2):
                    if other == ids[slot]:
                        continue
                    flipped = list(ids)
                    flipped[slot] = other
                    law2, _ = law_of(flipped)
                    for x, y in atoms:
                        shift = abs((law - law2) @ loss_row(x, y))
                        stability = max(stability, float(shift))
        return excess, gen, aerm, stability

    def test_exact_mode_matches_independent_oracle(self):
        resolution, n, eps = 4, 2, 1.0
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=resolution)
        mech = exponential_mechanism(problem, space, eps)
        dist = discrete_points(
            np.array([0.3, 0.7]), y=np.array([0.0, 1.0]),
            probs=np.array([0.5, 0.5]),
        )
        report = consistency_suite(mech, dist, n=n, mode="exact")
        excess, gen, aerm, stability = self.independent_exact_chain(
            resolution, n, eps
        )
        assert report.excess_risk == pytest.approx(excess, abs=1e-12)
        assert report.generalization_gap == pytest.approx(gen, abs=1e-12)
        assert report.aerm_gap == pytest.approx(aerm, abs=1e-12)
        assert report.stability_gap == pytest.approx(stability, abs=1e-12)
        assert report.stability_bound == pytest.approx(math.expm1(eps))
        assert report.decomposition_ok and report.generalization_ok

    def test_mc_mode_reports_errors_and_passes(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(
            np.array([0.3, 0.7]), y=np.array([0.0, 1.0]),
            probs=np.array([0.5, 0.5]),
        )
        report = consistency_suite(mech, dist, n=25, mode="mc", trials=60)
        assert report.trials == 60
        assert report.excess_se > 0
        assert report.decomposition_ok and report.generalization_ok

    def test_exact_mode_size_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "ENUMERATION_CAP", 10)
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(
            np.array([0.3, 0.7]), y=np.array([0.0, 1.0]),
            probs=np.array([0.5, 0.5]),
        )
        with pytest.raises(SizeLimitError):
            consistency_suite(mech, dist, n=40, mode="exact")

    def test_exact_mode_refuses_past_the_cell_budget_before_any_array(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("an array was built before the cell budget check")

        monkeypatch.setattr(analysis.itertools, "combinations_with_replacement", built)
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(np.array([0.3, 0.7]), y=np.array([0.0, 1.0]))
        # 50,001 multisets, within a cap on rows, hold 2.5e9 id cells.
        with pytest.raises(SizeLimitError, match="id cells exceeds"):
            consistency_suite(mech, dist, n=50_000, mode="exact")

    # At 2 atoms and n = 25 the exhaustive pairs hold 2 x 26 x 25 id cells.
    @pytest.mark.parametrize("budget,sampled", [(1299, True), (1300, False)])
    def test_mc_mode_past_the_cell_budget_takes_sampled_pairs(
            self, monkeypatch, budget, sampled):
        calls = {"exhaustive_neighbor_pairs": [], "sampled_neighbor_pairs": []}
        monkeypatch.setattr(analysis, "ENUMERATION_CAP", budget)
        for name, made in calls.items():
            monkeypatch.setattr(analysis, name, _counting(getattr(analysis, name), made))
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(np.array([0.3, 0.7]), y=np.array([0.0, 1.0]))
        report = consistency_suite(mech, dist, n=25, mode="mc", trials=60)
        assert [len(made) for made in calls.values()] == ([0, 1] if sampled else [1, 0])
        assert report.decomposition_ok and report.generalization_ok

    @staticmethod
    def per_dataset_gaps(mech, dist, dataset):
        """Excess, generalization and AERM gap of one dataset, from its own
        law and risk_vector."""
        pop = population_risk_vector(mech.problem, mech.space, dist)
        p = mech.law(dataset).probabilities
        emp = risk_vector(mech.problem, mech.space, dataset)
        return (float(p @ pop) - float(pop.min()), float(p @ pop) - float(p @ emp),
                float(p @ emp) - float(emp.min()))

    def multinomial_oracle(self, mech, dist, n):
        """The exact-mode sums from a loop over itertools multisets, each
        weighted by the float of its exact Fraction probability."""
        sums = [0.0, 0.0, 0.0]
        weights = []
        for ids in itertools.combinations_with_replacement(range(dist.support.n), n):
            counts = np.bincount(ids, minlength=dist.support.n)
            weight = Fraction(math.factorial(n))
            for p, c in zip(dist.probs.tolist(), counts.tolist()):
                weight *= Fraction(p) ** c / math.factorial(c)
            weights.append(float(weight))
            gaps = self.per_dataset_gaps(mech, dist, Dataset.of_atoms(dist.support, ids))
            sums = [s + weights[-1] * g for s, g in zip(sums, gaps)]
        return sums, weights

    def test_exact_mode_across_a_block_boundary(self):
        # 3 atoms, n = 15: 136 multisets, past one TRIAL_BLOCK of 128.
        assert math.comb(15 + 2, 15) == 136 > analysis.TRIAL_BLOCK
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(np.array([0.2, 0.5, 0.8]), y=np.array([0.0, 1.0, 1.0]),
                               probs=np.array([0.2, 0.3, 0.5]))
        report = consistency_suite(mech, dist, n=15, mode="exact")
        (excess, gen, aerm), _ = self.multinomial_oracle(mech, dist, 15)
        assert report.trials == 0
        assert (report.excess_risk, report.generalization_gap, report.aerm_gap) == (
            excess, gen, aerm)

    def test_exact_weights_past_the_float_range_of_their_terms(self):
        # At n = 1100 the multinomial coefficient overflows a float and 0.5^n
        # underflows; each weight is still the float of its exact rational.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(np.array([0.3, 0.7]), y=np.array([0.0, 1.0]))
        report = consistency_suite(mech, dist, n=1100, mode="exact")
        (excess, gen, aerm), weights = self.multinomial_oracle(mech, dist, 1100)
        assert len(weights) == 1101
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert (report.excess_risk, report.generalization_gap, report.aerm_gap) == (
            excess, gen, aerm)

    def test_mc_mode_equals_the_per_trial_oracle(self):
        # 300 trials: two full blocks of 128 and one of 44.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(np.array([0.2, 0.5, 0.8]), y=np.array([0.0, 1.0, 1.0]),
                               probs=np.array([0.2, 0.3, 0.5]))
        report = consistency_suite(mech, dist, n=7, mode="mc", trials=300, seed=11)
        gaps = np.array([self.per_dataset_gaps(mech, dist, dist.sample(7, trial_rng(11, t)))
                         for t in range(300)])
        assert report.trials == 300
        assert [report.excess_risk, report.generalization_gap, report.aerm_gap] == (
            gaps.mean(axis=0).tolist())
        assert [report.excess_se, report.generalization_se, report.aerm_se] == (
            (gaps.std(axis=0, ddof=1) / math.sqrt(300)).tolist())

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_mechanism_without_law_rejected(self, mode):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        em = exponential_mechanism(problem, space, 1.0)
        sample_only = Mechanism(name="sample-only", sample_many=em.sample_many,
                                budget=em.budget, problem=problem, space=space)
        dist = discrete_points(np.array([0.3, 0.7]), y=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="with a law"):
            consistency_suite(sample_only, dist, n=3, mode=mode)

    def test_continuous_distribution_rejected(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        mech = exponential_mechanism(problem, space, 1.0)
        with pytest.raises(ValueError):
            consistency_suite(mech, labeled_threshold(0.5), n=3)


class TestCounterexample:
    def test_frozen_prefix(self):
        result = counterexample_experiment(1.0, 3, [16, 256])
        gaps = [row.max_gap for row in result.rows]
        assert gaps[0] == pytest.approx(0.600646730605, abs=1e-9)
        assert gaps[1] == pytest.approx(0.643147624828, abs=1e-9)
        assert result.monotone
        assert result.final_exceeds_half

    def test_ratio_gate(self):
        result = counterexample_experiment(1.0, 3, [16], ratio_threshold=14.0)
        row = result.rows[0]
        assert row.ratio == pytest.approx(math.log(16) / 0.75)
        assert not row.must_exceed_half
        assert result.threshold_ok


def test_phase_transition_smoke():
    rows = phase_transition_experiment(
        rates=[0.5], n_grid=[100], trials=5, seed=0
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.subsample == 10
    assert 0.0 <= row.mean_excess <= 1.0
    assert row.stderr >= 0.0


class TestGof:
    def test_pools_small_expected_bins(self):
        # expected cells [28, 8, 2, 2]: the 2s fold into the 8 until the
        # pooled tail clears the minimum, leaving two cells.
        p = np.array([0.7, 0.2, 0.05, 0.05])
        counts = np.array([28, 8, 2, 2])
        result = chi_square_gof(p, counts)
        assert result.bins == 2
        assert result.statistic == pytest.approx(0.0)
        assert result.pvalue == pytest.approx(1.0)

    def test_gross_misfit_rejected(self):
        p = np.array([0.5, 0.5])
        counts = np.array([900, 100])
        result = chi_square_gof(p, counts)
        assert result.pvalue < 1e-6

    def test_needs_two_effective_bins(self):
        with pytest.raises(ValueError):
            chi_square_gof(np.array([1.0]), np.array([50]))

    def test_pooled_case_equals_scipy_chisquare(self):
        p = np.array([0.7, 0.2, 0.05, 0.05])
        counts = np.array([28, 8, 2, 2])
        e = p * 40
        # The two 2s pool, then fold into the 8.
        expected = np.array([e[0], e[1] + (e[2] + e[3])])
        observed = np.array([28.0, 12.0])
        expected = expected * (observed.sum() / expected.sum())
        result = chi_square_gof(p, counts)
        ref = stats.chisquare(observed, expected)
        assert (result.statistic, result.pvalue) == (ref.statistic, ref.pvalue)

    def test_sixteen_bin_law_equals_scipy_chisquare(self):
        # The law and draws of c12 (threshold resolution 16), at fewer draws;
        # every expected count is at least 5, so no bin pools.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        mech = exponential_mechanism(problem, space, 1.0)
        data = labeled_threshold(0.5, support_size=64).sample(40, trial_rng(7, 0))
        law = mech.law(data).probabilities
        counts = sample_counts(mech, data, draws=20_000, seed=123)
        expected = law * 20_000
        assert len(law) == 16 and expected.min() >= 5.0
        order = np.argsort(expected)[::-1]
        observed = counts[order].astype(float)
        expected = expected[order] * (observed.sum() / expected[order].sum())
        result = chi_square_gof(law, counts)
        ref = stats.chisquare(observed, expected)
        assert result.bins == 16
        assert (result.statistic, result.pvalue) == (ref.statistic, ref.pvalue)


class TestTotalVariation:
    def test_hand_values(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation(np.array([0.5, 0.5]), np.array([0.75, 0.25])) == 0.25
        assert total_variation(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    @given(st.integers(2, 20), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_bounds(self, k, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        tv = total_variation(p, q)
        assert 0.0 <= tv <= 1.0 + 1e-12


class TestEmpiricalLaw:
    def test_two_bins(self):
        law = empirical_law_on_grid(np.array([0.1, 0.9]), 0.0, 1.0, 2)
        assert np.allclose(law, [0.5, 0.5])

    def test_boundary_samples(self):
        law = empirical_law_on_grid(np.array([0.0, 1.0]), 0.0, 1.0, 4)
        assert law[0] == 0.5
        assert law[-1] == 0.5


def test_sample_counts_deterministic():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
    mech = exponential_mechanism(problem, space, 1.0)
    data = labeled_threshold(0.5, support_size=8).sample(6, trial_rng(0, 0))
    a = sample_counts(mech, data, draws=500, seed=9)
    b = sample_counts(mech, data, draws=500, seed=9)
    assert np.array_equal(a, b)
    assert a.sum() == 500


def _per_seed_counts(mech, data, draws, seed):
    out = np.zeros(mech.space.size, dtype=int)
    for i in range(draws):
        out[int(mech.sample(data, spawn_seed(seed, i)))] += 1
    return out


def _counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return wrapped


class TestSampleCountsBatch:
    @pytest.fixture
    def em_case(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        mech = exponential_mechanism(problem, space, 1.0)
        data = labeled_threshold(0.5, support_size=64).sample(40, trial_rng(0, 0))
        return mech, data

    @pytest.mark.parametrize("draws", [1, 999, 1000, 4000])
    def test_em_batch_equals_per_seed_loop(self, em_case, draws):
        mech, data = em_case
        assert mech.sample_many is not None
        for seed in (0, 9, 2**40 + 3):
            counts = sample_counts(mech, data, draws, seed)
            assert np.array_equal(counts, _per_seed_counts(mech, data, draws, seed))

    def test_one_law_per_call_after_rebinding(self, em_case):
        # perfbench's tracing replaces law and sample after construction.
        mech, data = em_case
        expected = _per_seed_counts(mech, data, 4000, 5)
        laws, draws = [], []
        mech.law = _counting(mech.law, laws)
        mech.sample = _counting(mech.sample, draws)
        assert np.array_equal(sample_counts(mech, data, 4000, 5), expected)
        assert len(laws) == 1 and not draws

    @pytest.fixture
    def support_case(self):
        problem, space = PROBLEM_BUILDERS["finite-support"](6, 2)
        weights = 0.7 ** np.arange(6)
        data = discrete_points((np.arange(6) + 0.5) / 6, probs=weights / weights.sum()).sample(
            60, trial_rng(3, 0))
        return problem, space, data

    def test_erm_batch_is_the_argmin(self, support_case):
        problem, space, data = support_case
        mech = erm_mechanism(problem, space)
        best = erm(problem, space, data)
        seeds = [spawn_seed(11, i) for i in range(150)]
        assert mech.sample_many(data, seeds).tolist() == [best] * 150
        assert mech.sample(data, seeds[0]) == best
        assert sample_counts(mech, data, 150, 11)[best] == 150

    def test_own_samplers_keep_the_per_seed_loop(self, support_case):
        # The subsample wrapper's sample_many makes one base draw per seed
        # and never builds its own law.
        problem, space, data = support_case
        em = exponential_mechanism(problem, space, 1.0)
        mech = subsample_wrapper(em, 10)
        laws, draws = [], []
        expected = _per_seed_counts(mech, data, 150, 11)
        mech.law = _counting(mech.law, laws)
        em.sample = _counting(em.sample, draws)
        assert np.array_equal(sample_counts(mech, data, 150, 11), expected)
        assert len(draws) == 150 and not laws

    def test_boost_builds_each_part_law_once(self, support_case):
        problem, space, data = support_case
        em = exponential_mechanism(problem, space, 1.0)
        mech = boost_high_confidence(em, space, 0.2, 1.0)
        expected = _per_seed_counts(mech, data, 150, 11)
        part_laws, laws, draws = [], [], []
        em.law = _counting(em.law, part_laws)
        mech.law = _counting(mech.law, laws)
        mech.sample = _counting(mech.sample, draws)
        assert np.array_equal(sample_counts(mech, data, 150, 11), expected)
        assert len(part_laws) == mech.info["parts"]
        assert not laws and not draws
