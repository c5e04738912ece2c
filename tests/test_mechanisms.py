"""Mechanism laws, privacy wrappers, and the continuous samplers.

The numeric constants in this file were frozen from closed forms computed
independently of the library code (notes kept with the frozen values).
"""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import laplace as scipy_laplace

from dperm import mechanisms
from dperm.mechanisms import (
    LOG_CONSISTENCY_TOL,
    LOG_UNDERFLOW,
    ChainResult,
    Mechanism,
    MechanismDistribution,
    PrivacyBudget,
    amplify_approx,
    amplify_pure,
    boost_high_confidence,
    boost_parts,
    check_law_rows,
    em_scale,
    erm_mechanism,
    exponential_mechanism,
    laplace_icdf,
    logconcave_sampler,
    logsumexp_rows,
    membership_flag_mechanism,
    normalized_logit_rows,
    normalized_probability_rows,
    pth_power_erm_batch,
    subsample_wrapper,
)
from dperm.problems import (
    PROBLEM_BUILDERS,
    Dataset,
    DatasetBlock,
    discrete_points,
    labeled_threshold,
    objective_vector,
    packed_datasets,
    risk_vector,
    uniform_box,
)
from dperm.draws import categorical, uniform_rows
from dperm.seeding import spawn_seed, spawn_seeds, trial_rng
from dperm.spaces import FiniteHypothesisSpace, SizeLimitError


def two_point_space():
    return FiniteHypothesisSpace(
        payloads=np.array([[0.0], [1.0]]), measure=np.ones(2)
    )


class TestBudget:
    def test_pure_flag(self):
        assert PrivacyBudget(1.0).pure
        assert not PrivacyBudget(1.0, 0.1).pure

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(-0.5)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, delta=1.5)


class TestDistribution:
    def test_from_logits_normalizes(self):
        space = two_point_space()
        law = MechanismDistribution.from_logits(space, np.array([0.0, 1.0]))
        assert law.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.exp(law.log_probabilities), law.probabilities)

    def test_rejects_bad_sum(self):
        space = two_point_space()
        with pytest.raises(ValueError):
            MechanismDistribution(
                space=space,
                probabilities=np.array([0.6, 0.6]),
                log_probabilities=np.log([0.6, 0.6]),
            )

    def test_rejects_log_mismatch(self):
        space = two_point_space()
        with pytest.raises(ValueError):
            MechanismDistribution(
                space=space,
                probabilities=np.array([0.5, 0.5]),
                log_probabilities=np.array([-0.5, -0.9]),
            )

    def test_rejects_representable_log_at_zero_mass(self):
        space = two_point_space()
        with pytest.raises(ValueError):
            MechanismDistribution(
                space=space,
                probabilities=np.array([1.0, 0.0]),
                log_probabilities=np.array([0.0, -600.0]),
            )

    def test_accepts_true_underflow(self):
        # log-weights spread beyond exp's range: the linear entry is 0.0 but
        # the log entry stays finite and must be accepted as consistent.
        space = two_point_space()
        law = MechanismDistribution.from_logits(space, np.array([0.0, -800.0]))
        assert law.probabilities[1] == 0.0
        assert law.log_probabilities[1] == pytest.approx(-800.0)
        assert law.log_probabilities[1] < LOG_UNDERFLOW

    @pytest.mark.parametrize("gap", [735.0, 738.5, 740.0, 742.0, 744.0])
    def test_accepts_subnormal_mass(self, gap):
        # exp(-gap) is subnormal: it keeps so few bits that its own log sits
        # beyond the tolerance of the exact log-probability.
        p, logp = normalized_logit_rows(np.array([[0.0, -gap]]))
        assert 0 < p[0, 1] < np.finfo(float).tiny
        assert abs(np.log(p[0, 1]) - logp[0, 1]) > LOG_CONSISTENCY_TOL
        check_law_rows(p, logp)
        MechanismDistribution(two_point_space(), p[0], logp[0])

    def test_em_law_with_subnormal_mass(self):
        # The two-point closed form at a logit gap of 740: eps * n / 4.
        problem, _ = PROBLEM_BUILDERS["threshold"](resolution=2)
        data = Dataset(x=np.array([0.9]), y=np.array([1.0]))
        law = exponential_mechanism(problem, two_point_space(), 4 * 740.0).law(data)
        assert 0 < law.probabilities[1] < np.finfo(float).tiny

    @pytest.mark.parametrize("entry, shift", [((1, 1), 1e-9), ((1, 1), -1e-9),
                                              ((0, 1), 1.0), ((0, 1), -1.0)])
    def test_refuses_log_mismatch_of_normal_and_subnormal_mass(self, entry, shift):
        # Row 0 has a subnormal entry, row 1 only normal ones.
        p, logp = normalized_logit_rows(np.array([[0.0, -740.0], [0.0, -3.0]]))
        check_law_rows(p, logp)
        logp[entry] += shift
        with pytest.raises(ValueError, match="disagree beyond tolerance"):
            check_law_rows(p, logp)

    def test_sampling_and_expectation(self):
        space = two_point_space()
        p, logp = normalized_probability_rows(np.array([[0.25, 0.75]]))
        law = MechanismDistribution(space, p[0], logp[0])
        rng = np.random.default_rng(0)
        draws = [categorical(law.probabilities, rng.random()) for _ in range(4000)]
        assert abs(np.mean(np.array(draws) == 1) - 0.75) < 0.03
        assert law.expectation(np.array([0.0, 4.0])) == pytest.approx(3.0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=50))
    @settings(max_examples=100)
    def test_from_logits_always_valid(self, logits):
        space = FiniteHypothesisSpace(
            payloads=np.arange(len(logits), dtype=float)[:, None],
            measure=np.ones(len(logits)),
        )
        law = MechanismDistribution.from_logits(space, np.array(logits))
        assert abs(law.probabilities.sum() - 1.0) <= 1e-12
        assert np.all(law.probabilities >= 0)


def logsumexp_cases():
    """Inputs for the kernel-versus-scipy checks: sizes 1 to 65,536, ties at
    the maximum, rounded inputs with many ties, -inf entries, an all -inf
    input, and magnitudes up to 1e308."""
    rng = np.random.default_rng(20)
    cases = [np.zeros(1), np.array([-3.5]), np.full(7, 2.25), np.full(4, -np.inf)]
    cases.append(np.array([0.0, -np.inf, 1.0, -np.inf]))
    cases.append(np.array([1e308, -1e308, 1e308]))
    cases.append(np.array([1e308, 1e308 * (1 - 1e-15), 1.0]))
    for size in (1, 2, 3, 7, 8, 9, 16, 17, 100, 484, 1000, 4099, 20_000,
                 32_767, 32_768, 32_769, 65_536):
        for scale in (1e-3, 1.0, 30.0, 700.0, 1e6, 1e300):
            x = scale * rng.standard_normal(size)
            cases.append(x)
            cases.append(np.round(x / scale * 2) * scale)
            cases.append(np.where(rng.random(size) < 0.3, -np.inf, x))
            tied = x.copy()
            tied[rng.integers(size, size=max(1, size // 4))] = x.max()
            cases.append(tied)
    return cases


class TestLogSumExp:
    def test_equals_scipy_bit_for_bit(self):
        # Spreads past the float range overflow a - max to -inf, which is
        # the right term; both sides warn about it, so silence that here.
        with np.errstate(over="ignore"):
            for a in logsumexp_cases():
                assert logsumexp_rows(a[None, :])[0] == scipy_logsumexp(a), a

    def test_rows_equal_scipy_per_row(self):
        rng = np.random.default_rng(21)
        for width in (1, 2, 3, 5, 8, 9, 17):
            rows = np.round(5 * rng.standard_normal((500, width)), 1)
            rows[::7, 0] = -np.inf
            rows[::11] = -np.inf
            out = logsumexp_rows(rows)
            assert out.shape == (500,)
            for row, value in zip(rows, out):
                assert value == scipy_logsumexp(row)

    def test_all_neg_inf_is_neg_inf_without_warning(self):
        with np.errstate(all="raise"):
            assert logsumexp_rows(np.full((1, 3), -np.inf))[0] == -np.inf
            assert np.all(logsumexp_rows(np.full((2, 3), -np.inf)) == -np.inf)


class TestExponentialMechanism:
    def test_two_point_closed_form(self):
        # One data point at 0.9 labeled 1, two threshold hypotheses with
        # losses (0, 1): P(good) = 1 / (1 + exp(-eps*n/4)).  At eps = 4, n = 1
        # that is the logistic value at 1.
        space = two_point_space()
        problem, _ = PROBLEM_BUILDERS["threshold"](resolution=2)
        data = Dataset(x=np.array([0.9]), y=np.array([1.0]))
        mech = exponential_mechanism(problem, space, epsilon=4.0)
        law = mech.law(data)
        assert law.probabilities[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_scale_convention(self):
        # Sensitivity of the mean objective is 2/n, so the exponent is
        # eps * n / 4.
        assert em_scale(2.0, 10) == pytest.approx(5.0)

    def test_law_prefers_lower_objective(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        data = labeled_threshold(0.5, support_size=32).sample(25, trial_rng(0, 0))
        law = exponential_mechanism(problem, space, 1.0).law(data)
        objectives = objective_vector(problem, space, data)
        order = np.argsort(objectives)
        probs = law.probabilities[order]
        assert np.all(np.diff(probs) <= 1e-15)

    def test_law_ignores_point_order(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        data = labeled_threshold(0.5, support_size=16).sample(12, trial_rng(5, 0))
        perm = np.random.default_rng(1).permutation(data.n)
        shuffled = Dataset(x=data.x[perm], y=data.y[perm])
        a = exponential_mechanism(problem, space, 1.0).law(data)
        b = exponential_mechanism(problem, space, 1.0).law(shuffled)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_huge_scale_underflow_is_handled(self):
        # Regression: at n = 10^4 the exponent scale is eps*n/4 = 2500 and
        # off-optimal hypotheses underflow the linear representation.
        problem, space = PROBLEM_BUILDERS["finite-support"]()
        data = uniform_box([0.0], [1.0]).sample(10_000, trial_rng(2, 0))
        law = exponential_mechanism(problem, space, 1.0).law(data)
        assert law.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(law.log_probabilities[law.probabilities > 0]))

    def test_sampling_matches_law(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        data = labeled_threshold(0.5, support_size=8).sample(6, trial_rng(8, 0))
        mech = exponential_mechanism(problem, space, 1.0)
        law = mech.law(data).probabilities
        draws = np.array([mech.sample(data, seed=trial_rng(9, t).integers(2**63))
                          for t in range(3000)])
        freq = np.bincount(draws, minlength=space.size) / len(draws)
        assert np.max(np.abs(freq - law)) < 0.03

    def test_derived_sample_reads_law_at_call_time(self):
        # A dataset is drawn through law_rows, read at call time, on its
        # one-row block: the block of its ids, or, without ids, of its own
        # points as the support.  Neither draw reads law.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        data = labeled_threshold(0.5, support_size=8).sample(6, trial_rng(8, 0))
        plain = Dataset(x=data.x, y=data.y)
        mech = exponential_mechanism(problem, space, 1.0)
        expected = mech.sample(data, 7)
        assert mech.sample(plain, 7) == expected
        built, blocks = [], []
        law, law_rows = mech.law, mech.law_rows

        def spy_law(dataset):
            built.append(dataset)
            return law(dataset)

        def spy_law_rows(block):
            blocks.append(block.atom_ids.tolist())
            return law_rows(block)

        mech.law, mech.law_rows = spy_law, spy_law_rows
        assert mech.sample(data, 7) == expected
        assert blocks == [[data.atom_ids.tolist()]] and not built
        assert mech.sample(plain, 7) == expected
        assert blocks == [[data.atom_ids.tolist()], [list(range(plain.n))]]
        assert not built

    def test_claimed_budget(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        mech = exponential_mechanism(problem, space, 0.7)
        assert mech.claimed_budget(50) == PrivacyBudget(0.7)

    def test_erm_point_mass(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        data = labeled_threshold(0.5, support_size=16).sample(15, trial_rng(3, 0))
        law = erm_mechanism(problem, space).law(data)
        assert np.sort(law.probabilities)[-1] == 1.0
        with pytest.raises(ValueError):
            erm_mechanism(problem, space).claimed_budget(15)


class TestAmplification:
    def test_pure_frozen_values(self):
        amp = amplify_pure(1.0, 0.25)
        assert amp.tight == pytest.approx(0.5293850802659188, abs=1e-15)
        assert amp.relaxed == pytest.approx(1.1752011936438014, abs=1e-15)

    def test_boundary_values(self):
        # The two-sided tight bound equals eps exactly at gamma = 1/2 and
        # climbs to 2 eps at gamma = 1.
        assert amplify_pure(1.0, 0.5).tight == pytest.approx(1.0, abs=1e-12)
        assert amplify_pure(1.0, 1.0).tight == pytest.approx(2.0)

    def test_approx_frozen_values(self):
        amp = amplify_approx(1.0, 0.01, 0.1)
        assert amp.epsilon == pytest.approx(0.383272276941325, abs=1e-15)
        assert amp.delta == pytest.approx(0.0027182818284590456, abs=1e-18)

    @given(st.floats(0.01, 3.0), st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_tight_between_zero_and_relaxed(self, eps, gamma):
        amp = amplify_pure(eps, gamma)
        assert 0.0 <= amp.tight <= amp.relaxed + 1e-12
        assert amp.tight <= 2.0 * eps + 1e-12

    @given(st.floats(0.01, 3.0), st.floats(0.01, 0.49))
    @settings(max_examples=200)
    def test_amplification_shrinks_epsilon_below_half_rate(self, eps, gamma):
        assert amplify_pure(eps, gamma).tight < eps

    def test_input_validation(self):
        with pytest.raises(ValueError):
            amplify_pure(1.0, 0.0)
        with pytest.raises(ValueError):
            amplify_pure(1.0, 1.5)
        with pytest.raises(ValueError):
            amplify_approx(1.0, 1.5, 0.5)


def hypergeometric_subsample_law(base, dataset, m):
    """Independent oracle for the subsample mixture law.

    Groups the C(n, m) subsets by how many points they take from each
    distinct value, weighting each group by the multivariate hypergeometric
    count, instead of enumerating subsets one by one.
    """
    values = [tuple(np.atleast_1d(dataset.x[i]).tolist())
              + ((dataset.y[i],) if dataset.y is not None else ())
              for i in range(dataset.n)]
    distinct = sorted(set(values))
    counts = np.array([values.count(v) for v in distinct])
    total = math.comb(dataset.n, m)
    law = None
    for take in itertools.product(*[range(c + 1) for c in counts]):
        if sum(take) != m:
            continue
        weight = 1
        for t, c in zip(take, counts):
            weight *= math.comb(int(c), int(t))
        idx = []
        for v, t in zip(distinct, take):
            positions = [i for i, w in enumerate(values) if w == v]
            idx.extend(positions[:t])
        sub = dataset.take(np.array(sorted(idx), dtype=int))
        p = base.law(sub).probabilities * (weight / total)
        law = p if law is None else law + p
    return law


class TestSubsampling:
    def test_mixture_matches_hypergeometric_oracle(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        base = exponential_mechanism(problem, space, 1.0)
        support = Dataset(x=np.array([0.2, 0.45, 0.7]), y=np.array([0.0, 0.0, 1.0]))
        # x = [0.2, 0.2, 0.7, 0.7, 0.7] and [0.7, 0.2, 0.45, 0.7, 0.2, 0.7].
        two_points = Dataset.of_atoms(support, [0, 0, 2, 2, 2])
        three_points = Dataset.of_atoms(support, [2, 0, 1, 2, 0, 2])
        for data in (two_points, three_points):
            for m in (1, 2, 3):
                law = subsample_wrapper(base, m=m).law(data).probabilities
                oracle = hypergeometric_subsample_law(base, data, m)
                assert np.allclose(law, oracle, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_block_rows_equal_the_sequential_mixture(self, m):
        # Each row is the mixture summed one sub-multiset at a time, in
        # lexicographic order of the kept counts, over base.law of the
        # sub-multiset on ascending ids: bit for bit, in both views.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        support = labeled_threshold(0.5, support_size=5).support
        block = DatasetBlock(support, list(itertools.combinations_with_replacement(range(5), 4)))
        flag = membership_flag_mechanism(0.5, 0.1, marker=float(support.x[0]))
        for base in (exponential_mechanism(problem, space, 1.0), flag):
            wrapped = subsample_wrapper(base, m)
            p, logp = wrapped.law_rows(block)
            for i, data in enumerate(block):
                counts = np.bincount(data.atom_ids)
                present = np.flatnonzero(counts)
                acc = np.zeros(base.space.size)
                for kept in itertools.product(*(range(c + 1) for c in counts[present])):
                    if sum(kept) == m:
                        weight = math.prod(map(math.comb, counts[present].tolist(), kept))
                        sub = Dataset.of_atoms(support, np.repeat(present, kept))
                        acc += weight / math.comb(4, m) * base.law(sub).probabilities
                p_acc, logp_acc = normalized_probability_rows(acc[None])
                oracle = MechanismDistribution(base.space, p_acc[0], logp_acc[0])
                law = wrapped.law(data)
                for got in ((p[i], logp[i]), (law.probabilities, law.log_probabilities)):
                    assert np.array_equal(got[0], oracle.probabilities)
                    assert np.array_equal(got[1], oracle.log_probabilities)

    def test_budget_fixed_m(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        base = exponential_mechanism(problem, space, 1.0)
        wrapped = subsample_wrapper(base, m=2)
        budget = wrapped.claimed_budget(8)
        assert budget.epsilon == pytest.approx(amplify_pure(1.0, 0.25).tight)
        assert budget.delta == 0.0

    def test_budget_sqrt_rule(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        raw = erm_mechanism(problem, space)
        wrapped = subsample_wrapper(raw, m="sqrt")
        budget = wrapped.claimed_budget(9)
        assert budget.epsilon == 0.0
        assert budget.delta == pytest.approx(1.0 / 3.0)

    def test_fixed_m_requires_base_claim(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        raw = erm_mechanism(problem, space)
        with pytest.raises(ValueError):
            subsample_wrapper(raw, m=2)

    def test_budget_approx_base(self):
        flag = membership_flag_mechanism(1.0, 0.01, marker=0.5)
        wrapped = subsample_wrapper(flag, m=1)
        budget = wrapped.claimed_budget(10)
        amp = amplify_approx(1.0, 0.01, 0.1)
        assert budget.epsilon == pytest.approx(amp.epsilon)
        assert budget.delta == pytest.approx(amp.delta)

    def test_sample_draws_only_m_points(self):
        # A mechanism that records the sub-dataset size it was handed.
        seen = []

        def spy_sample_many(dataset, seeds):
            seen.append(dataset.n)
            return np.zeros(len(seeds), dtype=int)

        spy = Mechanism(
            name="spy", sample_many=spy_sample_many, budget=lambda n: PrivacyBudget(1.0)
        )
        data = uniform_box([0.0], [1.0]).sample(12, trial_rng(0, 0))
        subsample_wrapper(spy, m=3).sample(data, seed=5)
        assert seen == [3]

    def test_sampled_law_mode_kicks_in(self, monkeypatch):
        # Past the cap, where a sampled law once stood in, the law is
        # refused; under the cap it is built.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        base = exponential_mechanism(problem, space, 1.0)
        data = labeled_threshold(0.5, support_size=8).sample(6, trial_rng(1, 0))
        law = subsample_wrapper(base, m=3).law(data)
        assert law.probabilities.sum() == pytest.approx(1.0)
        monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 2)
        capped = subsample_wrapper(base, m=3)
        with pytest.raises(SizeLimitError, match=re.escape(repr(capped.name))):
            capped.law(data)

    def test_exact_cap_is_read_when_the_law_is_built(self, monkeypatch):
        # The cap is a module constant read by law_rows at call time, so a
        # wrapper built under the default cap refuses once it is lowered.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        support = labeled_threshold(0.5, support_size=4).support
        block = DatasetBlock(support, [[0, 1, 2, 3]])  # C(4, 2) = 6 sub-multisets
        wrapped = subsample_wrapper(exponential_mechanism(problem, space, 1.0), 2)
        built = wrapped.law_rows(block)[0]
        monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 5)
        with pytest.raises(SizeLimitError, match="more than 5 distinct size-2"):
            wrapped.law_rows(block)
        with pytest.raises(SizeLimitError, match=re.escape(repr(wrapped.name))):
            wrapped.law(block[0])
        monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 6)
        assert np.array_equal(wrapped.law_rows(block)[0], built)


def sub_multisets_oracle(counts, m):
    """Every vector s with 0 <= s_i <= counts_i and sum m, in lexicographic
    order: the generator the subsample law enumerated one row with."""
    k = len(counts)
    s = [0] * k

    def fill(start, amount):
        # The smallest tail: as much as fits, as far right as it goes.
        for j in range(k - 1, start - 1, -1):
            s[j] = min(counts[j], amount)
            amount -= s[j]

    if sum(counts) < m:
        return
    fill(0, m)
    yield tuple(s)
    while True:
        rest = 0
        for i in range(k - 1, -1, -1):
            if rest >= 1 and s[i] < counts[i]:
                break
            rest += s[i]
        else:
            return
        s[i] += 1
        fill(i + 1, rest - 1)
        yield tuple(s)


@st.composite
def count_blocks(draw):
    """A (T, k) block of atom counts, every row of one size n, and 1 <= m <= n."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                        min_size=1, max_size=4))
    return np.stack([np.bincount(row, minlength=k) for row in ids]), draw(st.integers(1, n))


class TestSubMultisetTerms:
    @settings(max_examples=100, deadline=None)
    @given(case=count_blocks())
    @example(case=(np.array([[0, 3, 0, 2]]), 1))  # absent atoms, m = 1
    @example(case=(np.array([[2, 0, 1, 1]]), 4))  # m = n
    @example(case=(np.array([[5]]), 3))  # a single atom
    @example(case=(np.array([[0, 4, 0]]), 2))  # a single atom among absent ones
    @example(case=(np.array([[4, 0, 0], [1, 2, 1], [0, 0, 4]]), 2))
    def test_terms_are_the_generators_vectors_in_its_order(self, case):
        # Row by row, in block order, each row's sub-multisets as the
        # generator gave them over the row's present atoms.
        counts, m = case
        row, kept, atoms = mechanisms._sub_multiset_terms(counts, m, 10**5, "x")
        assert np.array_equal(atoms, np.flatnonzero(counts.any(axis=0)))
        expected = []
        for r, c in enumerate(counts):
            present = np.flatnonzero(c)
            for s in sub_multisets_oracle(c[present].tolist(), m):
                full = np.zeros(len(c), dtype=int)
                full[present] = s
                expected.append((r, tuple(full[atoms].tolist())))
        assert list(zip(row.tolist(), map(tuple, kept.tolist()))) == expected

    def test_cap_refuses_exactly_one_past_it(self, monkeypatch):
        # Four distinct points hold C(4, 2) = 6 sub-multisets of size 2: a
        # cap of 6 builds the law, a cap of 5 refuses it, naming the
        # mechanism, also when the row sits below rows under the cap.
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
        base = exponential_mechanism(problem, space, 1.0)
        support = labeled_threshold(0.5, support_size=4).support
        block = DatasetBlock(support, [[0, 0, 0, 1], [1, 1, 2, 2], [0, 1, 2, 3]])
        wrapped = subsample_wrapper(base, 2)
        monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 6)
        exact = wrapped.law_rows(block)[0]
        assert exact.shape == (3, space.size)
        monkeypatch.setattr(mechanisms, "SUBSAMPLE_EXACT_CAP", 5)
        message = re.escape(f"mechanism {wrapped.name!r}: 4 points hold more than 5 "
                            "distinct size-2 sub-multisets")
        with pytest.raises(SizeLimitError, match=message):
            wrapped.law_rows(block)
        with pytest.raises(SizeLimitError, match=message):
            wrapped.law(block[2])
        assert np.array_equal(wrapped.law_rows(DatasetBlock(support, block.atom_ids[:2]))[0],
                              exact[:2])


def _which_kept_mechanism(size):
    """A base whose law is a point mass on the copies of atom 0 it is given."""

    def law_rows(block):
        p = np.zeros((len(block), size))
        p[np.arange(len(block)), block.counts()[:, 0]] = 1.0
        with np.errstate(divide="ignore"):
            return p, np.log(p)

    space = FiniteHypothesisSpace(payloads=np.arange(size, dtype=float)[:, None],
                                  measure=np.ones(size))
    return Mechanism(name="which-kept", law_rows=law_rows,
                     budget=lambda n: PrivacyBudget(1.0), space=space)


class TestSubsampleWeightsPast2To53:
    # Atoms 0 and 1 with 29 and 31 copies, n = 60, m = 30: C(60, 30) is
    # about 1.2e17, past 2^53, so float or int64 arithmetic can round the
    # products or the quotient differently from Python ints.
    COUNTS = (29, 31)
    N, M = 60, 30

    def weights(self):
        total = math.comb(self.N, self.M)
        kept = range(max(0, self.M - self.COUNTS[1]), min(self.COUNTS[0], self.M) + 1)
        return {s: math.prod(map(math.comb, self.COUNTS, (s, self.M - s))) / total
                for s in kept}

    def test_each_weight_is_the_python_int_quotient(self, monkeypatch):
        weights = self.weights()
        assert math.comb(self.N, self.M) > 2**53
        floats = {s: float(math.comb(self.COUNTS[0], s))
                  * float(math.comb(self.COUNTS[1], self.M - s))
                  / float(math.comb(self.N, self.M)) for s in weights}
        assert floats != weights  # the float products round differently here
        mixtures = []
        normalize = mechanisms.normalized_probability_rows
        monkeypatch.setattr(mechanisms, "normalized_probability_rows",
                            lambda acc: mixtures.append(acc.copy()) or normalize(acc))
        support = labeled_threshold(0.5, support_size=2).support
        data = Dataset.of_atoms(support, [0] * self.COUNTS[0] + [1] * self.COUNTS[1])
        subsample_wrapper(_which_kept_mechanism(self.M + 1), self.M).law(data)
        # Term s puts its weight alone on hypothesis s, so the mixture row
        # before normalization is the weights themselves.
        (mixture,) = mixtures
        assert mixture.shape == (1, self.M + 1)
        assert {s: mixture[0, s] for s in weights} == weights
        assert not np.delete(mixture[0], list(weights)).any()

    def test_law_equals_the_sequential_mixture(self):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        base = exponential_mechanism(problem, space, 1.0)
        support = labeled_threshold(0.5, support_size=2).support
        data = Dataset.of_atoms(support, [1] * self.COUNTS[1] + [0] * self.COUNTS[0])
        acc = np.zeros(space.size)
        for s, weight in self.weights().items():
            sub = Dataset.of_atoms(support, [0] * s + [1] * (self.M - s))
            acc += weight * base.law(sub).probabilities
        p, logp = normalized_probability_rows(acc[None])
        oracle = MechanismDistribution(space, p[0], logp[0])
        law = subsample_wrapper(base, self.M).law(data)
        assert np.array_equal(law.probabilities, oracle.probabilities)
        assert np.array_equal(law.log_probabilities, oracle.log_probabilities)


class TestMembershipFlag:
    def test_law_closed_form(self):
        eps, delta = 1.0, 0.1
        flag = membership_flag_mechanism(eps, delta, marker=0.25)
        present = Dataset(x=np.array([0.25, 0.75]), y=np.array([0.0, 1.0]))
        absent = Dataset(x=np.array([0.75, 0.75]), y=np.array([1.0, 1.0]))
        p_same = (1 - delta) * math.exp(eps) / (1 + math.exp(eps)) + delta
        law_present = flag.law(present).probabilities
        law_absent = flag.law(absent).probabilities
        assert law_present[1] == pytest.approx(p_same, abs=1e-15)
        assert law_absent[0] == pytest.approx(p_same, abs=1e-15)

    def test_budget(self):
        flag = membership_flag_mechanism(0.5, 0.05, marker=0.1)
        assert flag.claimed_budget(3) == PrivacyBudget(0.5, 0.05)


class TestLaplace:
    def test_icdf_center(self):
        assert laplace_icdf(0.5, scale=3.0) == 0.0

    @given(st.floats(0.001, 0.999), st.floats(0.1, 5.0))
    @settings(max_examples=200)
    def test_icdf_matches_scipy(self, u, scale):
        ours = laplace_icdf(u, scale)
        ref = scipy_laplace.ppf(u, loc=0.0, scale=scale)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def bisection_oracle(x, p, tol=1e-10):
    """The fixed bisection that pth_power_erm_batch must reproduce bit for
    bit: one halving count for the whole batch, each halving decided by the
    sign of the float gradient at the bracket midpoint."""
    x = np.asarray(x, dtype=float)
    lo = x.min(axis=1).copy()
    hi = x.max(axis=1).copy()
    iters = max(1, math.ceil(math.log2(max(float((hi - lo).max()), tol) / tol)) + 2)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        diff = mid[:, None] - x
        grad = (np.sign(diff) * np.abs(diff) ** (p - 1)).sum(axis=1)
        go_left = grad > 0
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid)
    return 0.5 * (lo + hi)


@st.composite
def erm_batches(draw):
    """(rows, n) batches whose rows differ in kind, scale and offset, so the
    batch-wide halving count exceeds what the narrow rows need alone."""
    n = draw(st.sampled_from([1, 2, 3, 8, 33, 200]))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.empty((rows, n))
    for r in range(rows):
        kind = draw(
            st.sampled_from(["uniform", "constant", "two-point", "duplicates", "skewed"])
        )
        scale = draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e3, 1e6]))
        offset = draw(st.sampled_from([0.0, -0.5, 7.0]))
        if kind == "uniform":
            row = rng.uniform(0.0, 1.0, n)
        elif kind == "constant":
            row = np.full(n, rng.uniform())
        elif kind == "two-point":
            row = rng.integers(0, 2, n).astype(float)
        elif kind == "duplicates":
            row = rng.integers(0, 5, n) / 4.0
        else:
            row = rng.beta(0.2, 5.0, n)
        x[r] = offset + scale * row
    return x


def exact_gradient(x, h, p):
    """sum_i (h - x_i)^(p-1) in exact rational arithmetic; p - 1 is odd."""
    return sum((h - Fraction(float(v))) ** (p - 1) for v in x)


def root_within(x, out, p, tol):
    """Whether the exact root of the gradient lies in [out - tol, out + tol]."""
    out, tol = Fraction(float(out)), Fraction(tol)
    return exact_gradient(x, out - tol, p) <= 0 <= exact_gradient(x, out + tol, p)


class TestPthPowerErm:
    @given(erm_batches(), st.sampled_from([2, 4, 10]))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_bisection(self, x, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pth_power_erm_batch(x, p)
        assert np.array_equal(got, bisection_oracle(x, p))

    def test_halving_count_is_batch_wide(self):
        wide = np.array([[0.0, 1e6, 3e5], [0.2, 0.7, 0.3]])
        batch = pth_power_erm_batch(wide, p=10)
        assert np.array_equal(batch, bisection_oracle(wide, 10))
        # alone, the narrow row stops after fewer halvings
        assert batch[1] != pth_power_erm_batch(wide[1:], p=10)[0]

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.sampled_from([2, 4, 10]),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_within_tolerance_exactly(self, values, p):
        x = np.array([values])
        out = pth_power_erm_batch(x, p)[0]
        assert root_within(values, out, p, 1e-10)
        # planted: an output off by twice the tolerance fails the same check
        assert not root_within(values, out + 2e-10, p, 1e-10)

    def brute_minimum(self, x, p):
        grid = np.linspace(x.min(), x.max(), 200_001)
        vals = np.abs(x[None, :] - grid[:, None]) ** p
        return grid[np.argmin(vals.mean(axis=1))]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(0, 1, size=7)
            fast = pth_power_erm_batch(x[None, :], p=10)[0]
            slow = self.brute_minimum(x, 10)
            assert fast == pytest.approx(slow, abs=1e-4)

    def test_p2_is_the_mean(self):
        x = np.array([0.1, 0.5, 0.6])
        assert pth_power_erm_batch(x[None, :], p=2)[0] == pytest.approx(x.mean(), abs=1e-9)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(6, 9))
        batch = pth_power_erm_batch(x, p=10)
        for row in range(6):
            one = pth_power_erm_batch(x[row][None, :], p=10)[0]
            assert batch[row] == pytest.approx(one, abs=1e-9)

    def test_constant_sample(self):
        assert pth_power_erm_batch(np.array([[0.3, 0.3, 0.3]]), p=4)[0] == pytest.approx(0.3)

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            pth_power_erm_batch(np.array([[0.1, 0.2]]), p=3)

    @pytest.mark.parametrize(
        "rows, bad",
        [
            # The range itself overflows to inf.
            ([[-1e308, 1e308]], 0),
            # |x - h|^9 overflows, so the gradient would be inf - inf.
            ([[0.0, 3e39, 1e40]], 0),
            ([[0.2, 0.7, 0.3], [0.0, 3e39, 1e40]], 1),
        ],
    )
    def test_overflowing_row_is_refused_by_name(self, rows, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^row {bad} spans .* overflows float64"):
                pth_power_erm_batch(np.array(rows))


class TestBoosting:
    def test_part_layout(self):
        train, validation = boost_parts(10, 3)
        assert [t.tolist() for t in train] == [[0, 1], [2, 3], [4, 5]]
        assert validation.tolist() == [6, 7, 8, 9]

    def test_too_small_to_split(self):
        with pytest.raises(ValueError):
            boost_parts(3, 5)

    def test_budget_takes_worst_epsilon(self):
        problem, space = PROBLEM_BUILDERS["finite-support"](cells=4, max_subset_size=2)
        base = exponential_mechanism(problem, space, 2.0)
        boosted = boost_high_confidence(base, space, delta_target=0.2, epsilon=1.0)
        budget = boosted.claimed_budget(60)
        assert budget.epsilon == pytest.approx(2.0)
        assert boosted.info["parts"] == math.ceil(math.log(3 / 0.2))

    def test_claim_of_a_size_dependent_base_uses_the_part_size(self):
        problem, space = PROBLEM_BUILDERS["finite-support"](cells=3, max_subset_size=1)
        base = subsample_wrapper(exponential_mechanism(problem, space, 2.0), 2)
        boosted = boost_high_confidence(base, space, delta_target=0.5, epsilon=0.1)
        # a = ceil(ln 6) = 2 parts, so n = 60 gives parts of 60 // 3 = 20.
        assert boosted.info["parts"] == 2
        part_claim = amplify_pure(2.0, 2 / 20).tight
        assert part_claim > 0.1
        assert part_claim != pytest.approx(amplify_pure(2.0, 2 / 60).tight)
        assert boosted.claimed_budget(60) == PrivacyBudget(part_claim, 0.0)

    def test_base_without_claim_refused(self):
        problem, space = PROBLEM_BUILDERS["finite-support"](cells=3, max_subset_size=1)
        with pytest.raises(ValueError, match="privacy claim"):
            boost_high_confidence(
                erm_mechanism(problem, space), space, delta_target=0.5, epsilon=1.0
            )

    def test_exact_law_matches_sampling(self):
        # Small enough for tuple enumeration; GOF against 20k draws.
        from dperm.analysis import chi_square_gof

        problem, space = PROBLEM_BUILDERS["finite-support"](cells=3, max_subset_size=1)
        base = exponential_mechanism(problem, space, 1.0)
        boosted = boost_high_confidence(base, space, delta_target=0.5, epsilon=1.0)
        data = discrete_points(
            np.array([0.1, 0.5, 0.9]), probs=np.array([0.6, 0.3, 0.1])
        ).sample(12, trial_rng(0, 0))
        law = boosted.law(data).probabilities
        # The same draws as boosted.sample seed by seed, from 2 part laws.
        draws = boosted.sample_many(
            data, [trial_rng(1, t).integers(2**63) for t in range(20_000)])
        counts = np.bincount(draws, minlength=space.size)
        result = chi_square_gof(law, counts)
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize(
        "kind, kwargs, base_eps, delta_target, n",
        [
            # a = 2 parts over 4 hypotheses.
            ("finite-support", dict(cells=3, max_subset_size=1), 1.0, 0.5, 12),
            # a = 3 parts over 7 hypotheses.
            ("finite-support", dict(cells=3, max_subset_size=2), 2.0, 0.2, 16),
            # A base so sharp that its part laws put exactly zero mass on
            # most hypotheses, so the zero-weight tuples are skipped.
            ("finite-support", dict(cells=3, max_subset_size=2), 5000.0, 0.5, 9),
        ],
    )
    def test_exact_law_equals_tuple_loop(self, kind, kwargs, base_eps, delta_target, n):
        problem, space = PROBLEM_BUILDERS[kind](**kwargs)
        base = exponential_mechanism(problem, space, base_eps)
        boosted = boost_high_confidence(base, space, delta_target=delta_target, epsilon=1.0)
        data = discrete_points(
            np.array([0.1, 0.5, 0.9]), probs=np.array([0.5, 0.3, 0.2])
        ).sample(n, trial_rng(3, n))
        a = boosted.info["parts"]
        train, validation = boost_parts(n, a)
        part_laws = [base.law(data.take(idx)).probabilities for idx in train]
        if base_eps > 100:
            assert all(np.sum(law == 0.0) > 0 for law in part_laws)
        val_risks = risk_vector(problem, space, data.take(validation))
        scale = 1.0 * n / (4.0 * (a + 1))
        # The tuple loop the array law replaced, with scipy's logsumexp.
        oracle = np.zeros(space.size)
        for combo in itertools.product(range(space.size), repeat=a):
            weight = 1.0
            for j, hid in enumerate(combo):
                weight *= part_laws[j][hid]
            if weight == 0.0:
                continue
            logits = -scale * val_risks[np.asarray(combo)]
            sel = np.exp(logits - scipy_logsumexp(logits))
            for j, hid in enumerate(combo):
                oracle[hid] += weight * sel[j]
        oracle = oracle / oracle.sum()
        assert np.array_equal(boosted.law(data).probabilities, oracle)

    def test_over_cap_is_sample_only(self):
        # 93 hypotheses to the 5th power dwarfs the enumeration cap, so the
        # mechanism is built without a law and sampling still works.
        problem, space = PROBLEM_BUILDERS["finite-support"](cells=8, max_subset_size=3)
        base = exponential_mechanism(problem, space, 1.0)
        boosted = boost_high_confidence(base, space, delta_target=0.05, epsilon=1.0)
        assert boosted.law is None
        data = uniform_box([0.0], [1.0]).sample(60, trial_rng(2, 0))
        assert 0 <= boosted.sample(data, seed=1) < space.size


class TestRandomWalk:
    def test_acceptance_tuned_and_in_box(self):
        problem, _ = PROBLEM_BUILDERS["pth-power"]()
        data = uniform_box([0.0], [1.0]).sample(40, trial_rng(7, 0))
        sampler = logconcave_sampler(problem, [0.0], [1.0], 2.0, steps=20_000)
        result = sampler.run(data, seed=11)
        assert 0.15 <= result.acceptance_rate <= 0.65
        assert result.samples.min() >= 0.0
        assert result.samples.max() <= 1.0
        assert result.scale == em_scale(2.0, data.n)

    def test_deterministic_given_seed(self):
        problem, _ = PROBLEM_BUILDERS["pth-power"]()
        data = uniform_box([0.0], [1.0]).sample(10, trial_rng(7, 1))
        sampler = logconcave_sampler(problem, [0.0], [1.0], 1.0, steps=500)
        a = sampler.run(data, seed=3).samples
        b = sampler.run(data, seed=3).samples
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        problem, _ = PROBLEM_BUILDERS["pth-power"]()
        with pytest.raises(ValueError):
            logconcave_sampler(problem, [0.0, 0.0], [1.0], 1.0, steps=100)

    @pytest.mark.parametrize("case", ["pth-power", "logistic-2d", "short", "tight-box"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_run_equals_the_oracle_bit_for_bit(self, case, seed, monkeypatch):
        sampler, data = _chain_case(case)
        expected = _oracle_run(sampler, data, seed)
        draws = []

        def counted(s):
            # Passes every draw through; counts them by kind.
            return _CountingGenerator(np.random.Generator(np.random.PCG64(s)), draws)

        monkeypatch.setattr(np.random, "default_rng", counted)
        result = sampler.run(data, seed)
        monkeypatch.undo()
        assert np.array_equal(result.samples, expected.samples)
        assert result.samples.dtype == expected.samples.dtype
        assert result.samples.shape == expected.samples.shape
        assert result.acceptance_rate == expected.acceptance_rate
        assert result.step_size == expected.step_size
        assert result.scale == expected.scale
        # One standard_normal(d) per step, one random() per in-box proposal.
        total = sampler.burn_in + sampler.steps
        assert draws.count("normal") == total
        if case == "tight-box":
            assert draws.count("uniform") < 0.6 * total


class _CountingGenerator:
    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, size):
        self.draws.append("normal")
        return self.rng.standard_normal(size)

    def random(self):
        self.draws.append("uniform")
        return self.rng.random()


def _chain_case(case):
    """A sampler and a dataset: pth-power on [0, 1] (d = 1, no regularizer),
    logistic on [-1, 1]^2 (labels and a regularizer), a run shorter than its
    burn-in, and a box so tight that about half the proposals leave it."""
    pth, _ = PROBLEM_BUILDERS["pth-power"]()
    points = uniform_box([0.0], [1.0]).sample(40, trial_rng(7, 0))
    if case == "pth-power":
        return logconcave_sampler(pth, [0.0], [1.0], 2.0, steps=2000), points
    if case == "short":
        return logconcave_sampler(pth, [0.0], [1.0], 2.0, steps=300), points
    if case == "tight-box":
        return logconcave_sampler(pth, [0.3], [0.31], 2.0, steps=2000), points
    logistic, _ = PROBLEM_BUILDERS["logistic"](d=2)
    rng = np.random.default_rng(5)
    labeled = Dataset(x=rng.uniform(0.0, 1.0, (30, 2)), y=rng.integers(0, 2, 30))
    return logconcave_sampler(logistic, [-1.0, -1.0], [1.0, 1.0], 2.0, steps=1500), labeled


def _oracle_run(self, dataset, seed):
    """RandomWalkSampler.run as first written: array box test, the loss row's
    .mean(), and attribute lookups in the step."""
    rng = np.random.default_rng(seed)
    d = len(self.lower)

    def objective_at(h: np.ndarray) -> float:
        row = h[None, :]
        loss = float(self.problem.loss_matrix(row, dataset)[0].mean())
        return loss + float(self.problem.reg_vector(dataset.n, row)[0])

    scale = em_scale(self.epsilon, dataset.n)
    sigma = float(self.step_size)
    width = float(np.min(self.upper - self.lower))
    state = 0.5 * (self.lower + self.upper)
    energy = objective_at(state)

    kept = np.empty((self.steps, d))
    accepted = 0
    window_accepts = 0
    total = self.burn_in + self.steps
    for t in range(total):
        proposal = state + sigma * rng.standard_normal(d)
        ok = bool((proposal >= self.lower).all() and (proposal <= self.upper).all())
        if ok:
            new_energy = objective_at(proposal)
            # 1 - U keeps the draw strictly positive before the log.
            if math.log(1.0 - rng.random()) < -scale * (new_energy - energy):
                state, energy = proposal, new_energy
                if t >= self.burn_in:
                    accepted += 1
                else:
                    window_accepts += 1
        if t < self.burn_in and (t + 1) % 50 == 0:
            rate = window_accepts / 50.0
            sigma = float(
                np.clip(sigma * math.exp(0.5 * (rate - 0.4)), 1e-6 * width, width)
            )
            window_accepts = 0
        if t >= self.burn_in:
            kept[t - self.burn_in] = state

    samples = kept[:, 0] if d == 1 else kept
    return ChainResult(
        samples=samples,
        acceptance_rate=accepted / self.steps,
        step_size=sigma,
        scale=scale,
    )


def _threshold_case():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=4)
    data = labeled_threshold(0.5, support_size=8).sample(6, trial_rng(1, 0))
    return problem, space, data


def _em():
    problem, space, data = _threshold_case()
    return exponential_mechanism(problem, space, 1.0), data


def _erm():
    problem, space, data = _threshold_case()
    return erm_mechanism(problem, space), data


def _flag():
    _, _, data = _threshold_case()
    return membership_flag_mechanism(1.0, 0.1, marker=data.x[0]), data


def _subsample_exact():
    base, data = _em()
    return subsample_wrapper(base, m=3), data


def _boost():
    problem, space = PROBLEM_BUILDERS["finite-support"](cells=3, max_subset_size=1)
    data = discrete_points(
        np.array([0.1, 0.5, 0.9]), probs=np.array([0.6, 0.3, 0.1])
    ).sample(12, trial_rng(0, 0))
    base = exponential_mechanism(problem, space, 1.0)
    mech = boost_high_confidence(base, space, delta_target=0.5, epsilon=1.0)
    return mech, data


def _boost_sample_only():
    # 4 hypotheses and 2 parts give 16 candidate tuples, past a cap of 15.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanisms, "BOOST_LAW_CAP", 15)
        mech, data = _boost()
    assert mech.law is None
    return mech, data


def _state(mech):
    """Every field of a mechanism: dicts by value, the rest by identity."""
    return {k: dict(v) if isinstance(v, dict) else id(v) for k, v in vars(mech).items()}


@pytest.mark.parametrize(
    "build",
    [_em, _erm, _flag, _subsample_exact, _boost, _boost_sample_only],
)
def test_no_mechanism_changes_during_a_computation(build):
    mech, data = build()
    before = _state(mech)
    for seed in range(3):
        if mech.law is not None:
            mech.law(data)
        mech.sample(data, seed)
        if mech.budget is not None:
            mech.claimed_budget(data.n)
    assert _state(mech) == before


@pytest.mark.parametrize("build", [_em, _erm, _flag, _subsample_exact, _boost])
def test_sample_is_the_one_row_case_of_sample_many(build):
    # A dataset is drawn on its one-row block: the block of its ids, or, for
    # the id-less copy, of its own points; both give sample_many's draw on
    # the dataset.
    mech, data = build()
    assert data.atom_ids is not None
    plain = Dataset(x=data.x, y=data.y)
    for seed in (0, 7, 2**40 + 3):
        draws = [mech.sample(data, seed), int(mech.sample_many(data, [seed])[0]),
                 mech.sample(plain, seed), int(mech.sample_many(plain, [seed])[0])]
        assert draws == [draws[0]] * 4


def _em_row_case(size, trials, n, seed=0):
    """An EM over the pth-power grid of ``size`` hypotheses, and a block of
    ``trials`` datasets of n points from a law on 256 uniform atoms; its
    losses are not 0/1, so ``risk_rows`` takes the loss path item by item."""
    problem, space = PROBLEM_BUILDERS["pth-power"](resolution=size)
    assert space.size == size
    mech = exponential_mechanism(problem, space, 3.0)
    atoms = discrete_points(uniform_box([0.0], [1.0]).sample(256, trial_rng(seed, 0)).x)
    return mech, atoms.datasets_at(trial_rng(seed, n).random((trials, n)))


def boost_draw_oracle(base, space, a, epsilon, dataset, seed):
    """One boost draw as a per-draw loop: the base sampled on each part, then
    the selection law built with scipy and drawn by Generator.choice."""
    train, validation = boost_parts(dataset.n, a)
    candidates = [int(base.sample(dataset.take(idx), spawn_seed(seed, j)))
                  for j, idx in enumerate(train)]
    val_risks = risk_vector(base.problem, space, dataset.take(validation))
    logits = -(epsilon * dataset.n / (4.0 * (a + 1))) * val_risks[candidates]
    sel = np.exp(logits - scipy_logsumexp(logits))
    sel = sel / sel.sum()
    rng = np.random.default_rng(spawn_seed(seed, a))
    return candidates[int(rng.choice(a, p=sel))]


def law_oracle(logits):
    """The exponential-mechanism law of one logit row, by scipy's logsumexp
    and the log view shifted by math.log of the linear total."""
    logp = logits - scipy_logsumexp(logits)
    p = np.exp(logp)
    total = float(p.sum())
    return p / total, logp - math.log(total)


class TestLawRows:
    # 8 is numpy's unrolled pairwise-sum width and 128 its block, so these
    # sizes put the row sums on both sides of each.
    @pytest.mark.parametrize("size", [8, 128, 129, 1025])
    def test_em_rows_equal_the_laws(self, size):
        for n in (1, 2, 7, 40, 300):
            mech, datasets = _em_row_case(size, 3, n)
            p, logp = mech.law_rows(datasets)
            assert p.shape == logp.shape == (len(datasets), size)
            for row, dataset in enumerate(datasets):
                law = mech.law(dataset)
                assert np.array_equal(p[row], law.probabilities)
                assert np.array_equal(logp[row], law.log_probabilities)

    def test_log_view_takes_math_log_of_each_total(self):
        # The linear total of a normalized row lies within a few ulps of 1.
        # At 1 - 2^-52 numpy's log can differ from math.log in the last bit,
        # and then log-probabilities in [-4, -2), where subtracting 2^-52 is
        # a rounding tie, come out one ulp apart; audits read this view.
        rows_np_log_would_change = 0
        for n in range(1, 51):
            mech, datasets = _em_row_case(8, 3, n, seed=8)
            problem, space = mech.problem, mech.space
            p, logp = mech.law_rows(datasets)
            for row, dataset in enumerate(datasets):
                logits = (np.log(space.measure)
                          - em_scale(3.0, n) * objective_vector(problem, space, dataset))
                want_p, want_logp = law_oracle(logits)
                assert np.array_equal(p[row], want_p)
                assert np.array_equal(logp[row], want_logp)
                shifted = logits - scipy_logsumexp(logits)
                total = np.exp(shifted).sum()
                rows_np_log_would_change += not np.array_equal(
                    want_logp, shifted - np.log(np.array([total]))[0])
        top = 1.0 - 2.0**-52
        if np.log(np.array([top]))[0] != math.log(top):
            assert rows_np_log_would_change > 0

    def test_rows_are_checked_one_by_one(self, monkeypatch):
        mech, datasets = _em_row_case(8, 3, 4)
        normalize = mechanisms.normalized_logit_rows

        def off_sum(logits):
            p, logp = normalize(logits)
            p[1] *= 1.5
            return p, logp

        monkeypatch.setattr(mechanisms, "normalized_logit_rows", off_sum)
        with pytest.raises(ValueError, match=r"sum to 1\.(5|49)"):
            mech.law_rows(datasets)
        with pytest.raises(ValueError, match=r"sum to 1\.(5|49)"):
            mech.sample_many(datasets, [1, 2, 3])

    def test_each_law_is_checked_once(self, monkeypatch):
        # Mechanism checks each law_rows call once; law is its row 0 and is
        # not checked again.  A subsample call also checks its base block.
        calls = []
        check = mechanisms.check_law_rows
        monkeypatch.setattr(mechanisms, "check_law_rows",
                            lambda p, logp: calls.append(len(p)) or check(p, logp))
        em, block = _em_row_case(8, 3, 4)
        flag = membership_flag_mechanism(1.0, 0.1, marker=float(np.ravel(block.support.x)[0]))
        for mech, per_call in ((em, 1), (flag, 1), (subsample_wrapper(em, 2), 2)):
            calls.clear()
            mech.law(block[0])
            assert len(calls) == per_call
            calls.clear()
            mech.law_rows(block)
            assert len(calls) == per_call and calls[-1] == len(block)

    def test_hand_written_rows_are_checked(self):
        space = FiniteHypothesisSpace(payloads=np.zeros((3, 1)), measure=np.ones(3))
        bad = np.array([0.5, 0.4, 0.0])

        def law_rows(block):
            p = np.tile(bad, (len(block), 1))
            with np.errstate(divide="ignore"):
                return p, np.log(p)

        mech = Mechanism(name="hand-written", law_rows=law_rows, space=space)
        support = Dataset(x=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"sum to 0\.9"):
            mech.law(support)
        with pytest.raises(ValueError, match=r"sum to 0\.9"):
            mech.law_rows(DatasetBlock(support, [[0, 1], [1, 1]]))
        with pytest.raises(ValueError, match=r"sum to 0\.9"):
            mech.sample(support, 3)

    @pytest.mark.parametrize("bad_p, bad_logp", [
        ([0.5, -0.1, 0.6], [-1.0, -1.0, -1.0]),
        ([0.5, 0.4, 0.0], [math.log(0.5), math.log(0.4), -np.inf]),
        ([0.5, 0.5, 0.0], [math.log(0.5), -0.5, -np.inf]),
        ([0.5, 0.5, 0.0], [math.log(0.5), math.log(0.5), -700.0]),
        ([0.5, 0.5, 0.0], [np.nan, math.log(0.5), -np.inf]),
    ])
    def test_row_check_message_is_the_law_check(self, bad_p, bad_logp):
        space = FiniteHypothesisSpace(payloads=np.zeros((3, 1)), measure=np.ones(3))
        good_p = np.array([0.25, 0.25, 0.5])
        p, logp = np.stack([good_p] * 3), np.log(np.stack([good_p] * 3))
        p[2], logp[2] = bad_p, bad_logp
        with pytest.raises(ValueError) as one:
            MechanismDistribution(space, p[2], logp[2])
        with pytest.raises(ValueError) as rows:
            check_law_rows(p, logp)
        assert str(rows.value) == str(one.value)

    def test_em_rows_from_atom_counts_equal_the_loss_path(self):
        # The laws of datasets drawn from a discrete law, whose risks come
        # from atom counts, equal the loss path on the same points without
        # ids: from_logits of the log measure minus the scaled
        # objective_vector.  So do the laws of two datasets without ids: a
        # packed one on a fine grid, and pth-power points, whose losses are
        # not 0/1.
        def loss_path(mech, dataset):
            values = objective_vector(mech.problem, mech.space, dataset)
            return MechanismDistribution.from_logits(
                mech.space, np.log(mech.space.measure) - em_scale(1.0, dataset.n) * values)

        problem, space = PROBLEM_BUILDERS["threshold"](resolution=257)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = labeled_threshold(0.5, support_size=512)
        for n in (1, 3, 100, 2000):
            datasets = dist.datasets_at(trial_rng(12, n).random((3, n)))
            p, logp = mech.law_rows(datasets)
            for row, dataset in enumerate(datasets):
                law = loss_path(mech, Dataset(x=dataset.x, y=dataset.y))
                assert np.array_equal(p[row], law.probabilities)
                assert np.array_equal(logp[row], law.log_probabilities)
        fine = exponential_mechanism(*PROBLEM_BUILDERS["threshold"](resolution=65536), 1.0)
        pth = exponential_mechanism(*PROBLEM_BUILDERS["pth-power"](), 1.0)
        for mech, dataset in ((fine, packed_datasets(1.0, 3).datasets[10]),
                              (pth, uniform_box([0.0], [1.0]).sample(40, trial_rng(13, 0)))):
            assert dataset.atom_ids is None
            law, want = mech.law(dataset), loss_path(mech, dataset)
            assert np.array_equal(law.probabilities, want.probabilities)
            assert np.array_equal(law.log_probabilities, want.log_probabilities)

    def test_law_is_row_zero_of_law_rows(self):
        # law(dataset) is row 0 of law_rows on the dataset's one-row block,
        # so each row of a block's law_rows equals the law of its item and,
        # bit for bit, of the item's points without ids.  The subsample law
        # of repeated points without ids sums over their C(n, m) index
        # subsets, not their sub-multisets, so it meets the hypergeometric
        # oracle to 1e-12 instead.
        for build in (_em, _erm, _flag, _subsample_exact, _boost):
            mech, data = build()
            block = DatasetBlock(data.support, np.stack(
                [data.atom_ids, data.atom_ids[::-1], np.sort(data.atom_ids)]))
            p, logp = mech.law_rows(block)
            for row, item in enumerate(block):
                laws = [mech.law(item)]
                if build is not _subsample_exact:
                    laws.append(mech.law(Dataset(x=item.x, y=item.y)))
                for law in laws:
                    assert np.array_equal(p[row], law.probabilities)
                    assert np.array_equal(logp[row], law.log_probabilities)
        base, data = _em()
        plain = Dataset(x=data.x, y=data.y)
        assert len(np.unique(plain.x)) < plain.n
        law = subsample_wrapper(base, m=3).law(plain).probabilities
        assert np.allclose(law, hypergeometric_subsample_law(base, plain, 3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [8, 129])
    def test_em_sample_many_over_datasets_equals_sample(self, size):
        for n in (1, 5, 12, 40, 300):
            mech, datasets = _em_row_case(size, 6, n, seed=4)
            seeds = [trial_rng(5, n + i).integers(2**63) for i in range(len(datasets))]
            ids = mech.sample_many(datasets, seeds)
            assert ids.tolist() == [mech.sample(d, s) for d, s in zip(datasets, seeds)]
            assert ids.tolist() == [
                np.random.default_rng(s).choice(size, p=mech.law(d).probabilities)
                for d, s in zip(datasets, seeds)]
            # The one-dataset form draws every seed from that dataset's law.
            assert mech.sample_many(datasets[0], seeds).tolist() == [
                mech.sample(datasets[0], s) for s in seeds]

    def test_sample_many_needs_one_dataset_per_seed(self):
        mech, datasets = _em_row_case(8, 2, 4)
        with pytest.raises(ValueError, match="2 datasets for 3 seeds"):
            mech.sample_many(datasets, [1, 2, 3])

    def test_sample_many_refuses_a_list_of_datasets(self):
        # A batch of datasets is a DatasetBlock; no mechanism stacks a list.
        mech, datasets = _em_row_case(8, 2, 4)
        base = exponential_mechanism(*PROBLEM_BUILDERS["threshold"](resolution=4), 1.0)
        mechs = [mech, subsample_wrapper(mech, 3),
                 boost_high_confidence(base, base.space, 0.5, 1.0)]
        for m in mechs:
            with pytest.raises(TypeError) as err:
                m.sample_many(list(datasets), [1, 2])
            assert re.search(r"\bDataset\b", str(err.value))
            assert re.search(r"\bDatasetBlock\b", str(err.value))

    def test_law_rows_refuse_a_list_of_datasets(self):
        # The ERM rows, the subsample mixture and the EM rows
        # all take one DatasetBlock; two sizes in a list are refused.
        mech, block = _em_row_case(8, 2, 4)
        d1, d2 = block[0], block[1].take([0, 1, 2])
        for m in (erm_mechanism(mech.problem, mech.space), subsample_wrapper(mech, 2), mech):
            with pytest.raises(TypeError) as err:
                m.law_rows([d1, d2])
            assert re.search(r"\bDatasetBlock\b", str(err.value))
            assert "list" in str(err.value)

    def test_own_sampler_gets_a_per_seed_sample_many(self):
        mech, datasets = _em_row_case(8, 3, 9)
        sub = subsample_wrapper(mech, 3)
        ids = sub.sample_many(datasets, [5, 6, 7])
        assert ids.tolist() == [sub.sample(d, s) for d, s in zip(datasets, [5, 6, 7])]

    def test_em_rows_of_a_block_equal_its_items(self):
        problem, space = PROBLEM_BUILDERS["finite-support"](cells=8, max_subset_size=3)
        mech = exponential_mechanism(problem, space, 2.0)
        block = discrete_points((np.arange(8) + 0.5) / 8).datasets_at(
            uniform_rows(spawn_seeds(15, np.arange(130)), 50))
        laws = [mech.law(d) for d in block]
        p, logp = mech.law_rows(block)
        assert np.array_equal(p, np.stack([law.probabilities for law in laws]))
        assert np.array_equal(logp, np.stack([law.log_probabilities for law in laws]))

    @pytest.mark.parametrize("trials", [1, 129])
    @pytest.mark.parametrize("max_subset_size, delta_target", [(1, 0.5), (2, 0.2)])
    def test_boost_sample_many_on_a_block(self, monkeypatch, max_subset_size, delta_target,
                                          trials):
        problem, space = PROBLEM_BUILDERS["finite-support"](
            cells=3, max_subset_size=max_subset_size)
        base = exponential_mechanism(problem, space, 1.0)
        boosted = boost_high_confidence(base, space, delta_target, 1.0)
        atoms = discrete_points(np.array([0.1, 0.5, 0.9]), probs=np.array([0.6, 0.3, 0.1]))
        block = atoms.datasets_at(uniform_rows(spawn_seeds(16, np.arange(trials)), 17))
        seeds = spawn_seeds(17, np.arange(trials))
        datasets = list(block)
        # The block is split as an id array: no dataset is built per trial.
        built = []
        of_atoms = Dataset.of_atoms.__func__
        monkeypatch.setattr(Dataset, "of_atoms",
                            classmethod(lambda cls, *a: built.append(1) or of_atoms(cls, *a)))
        ids = boosted.sample_many(block, seeds).tolist()
        assert built == []
        assert ids == [boosted.sample(d, s) for d, s in zip(datasets, seeds.tolist())]
        assert ids == [boost_draw_oracle(base, space, boosted.info["parts"], 1.0, d, s)
                       for d, s in zip(datasets, seeds.tolist())]

    @pytest.mark.parametrize(
        "max_subset_size, delta_target, parts", [(1, 0.5, 2), (2, 0.2, 3)]
    )
    def test_boost_sample_many_equals_sample(self, max_subset_size, delta_target, parts):
        problem, space = PROBLEM_BUILDERS["finite-support"](
            cells=3, max_subset_size=max_subset_size)
        base = exponential_mechanism(problem, space, 1.0)
        boosted = boost_high_confidence(base, space, delta_target, 1.0)
        assert boosted.info["parts"] == parts
        atoms = discrete_points(np.array([0.1, 0.5, 0.9]), probs=np.array([0.6, 0.3, 0.1]))
        seeds = [int(trial_rng(6, i).integers(2**63)) for i in range(300)]
        data = atoms.sample(16, trial_rng(0, 0))
        # One dataset: each part's base law is built once for all seeds.
        ids = boosted.sample_many(data, seeds).tolist()
        assert ids == [boosted.sample(data, s) for s in seeds]
        assert ids == [boost_draw_oracle(base, space, parts, 1.0, data, s) for s in seeds]
        # One block per size, one dataset per seed: one base call draws the
        # candidates of every part of every dataset.
        for n in (8, 14, 20):
            datasets = atoms.datasets_at(trial_rng(7, n).random((100, n)))
            block_seeds = seeds[n:n + 100]
            base_calls = []
            base_sample_many = base.sample_many
            base.sample_many = lambda data, s: (base_calls.append(len(s))
                                                or base_sample_many(data, s))
            ids = boosted.sample_many(datasets, block_seeds).tolist()
            assert base_calls == [parts * len(block_seeds)]
            base.sample_many = base_sample_many
            assert ids == [boosted.sample(d, s) for d, s in zip(datasets, block_seeds)]
            assert ids == [boost_draw_oracle(base, space, parts, 1.0, d, s)
                           for d, s in zip(datasets, block_seeds)]
            # The same points without atom ids, drawn one dataset at a time,
            # give the same draws.
            assert [boosted.sample(Dataset(x=d.x), s)
                    for d, s in zip(datasets, block_seeds)] == ids
