"""One test per advertised guarantee, at its stated tolerance and budget.

Each test measures the quantity the package claims to control and asserts
the exact inequality, with the measured numbers in the failure message.

One test fails by design and is kept red rather than weakened:

* ``test_c08_gap_growth_monotone``: the packed family does not change with
  the grid, so the worst gap converges to a fixed limit (about 0.64278)
  instead of growing; from resolution 2^8 on it dips below its peak by a few
  1e-4, so exact nondecrease across the sweep does not hold.

``test_c09_location_learner_rate`` checks the rates run against the excess
risk computed by quadrature from the learner's definition.  The
``loglog_slope`` row of scripts/rates.conf still fails its [-1.1, -0.7]
band, an n^(-0.9) rate that this clamped learner cannot reach.

Both are documented in the README with the measured numbers; regenerate
them with scripts/counterexample.conf and scripts/rates.conf.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from dperm.analysis import (
    audit_approx_dp,
    audit_pure_dp,
    chi_square_gof,
    consistency_suite,
    counterexample_experiment,
    empirical_law_on_grid,
    exhaustive_neighbor_pairs,
    sample_counts,
    stability_audit,
    total_variation,
)
from dperm.config import default_config
from dperm.experiments import run_experiment
from dperm.mechanisms import (
    amplify_approx,
    amplify_pure,
    exponential_mechanism,
    logconcave_sampler,
    membership_flag_mechanism,
    subsample_wrapper,
)
from dperm.problems import (
    PROBLEM_BUILDERS,
    Dataset,
    discrete_points,
    labeled_threshold,
)
from dperm.seeding import trial_rng


class Budget:
    """Context manager that fails the test if wall time exceeds the cap."""

    def __init__(self, seconds: float):
        self.cap = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.cap, (
                f"runtime {elapsed:.1f}s exceeds the {self.cap:.0f}s budget"
            )
        return False


def four_atom_universe():
    return Dataset(
        x=np.array([0.1, 0.35, 0.6, 0.85]),
        y=np.array([0.0, 0.0, 1.0, 1.0]),
    )


def two_atom_universe():
    return Dataset(x=np.array([0.25, 0.75]), y=np.array([0.0, 1.0]))


def test_c01_exponential_mechanism_privacy_audit():
    """Exhaustive audit of the private threshold learner stays within eps."""
    with Budget(10):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=64)
        universe = four_atom_universe()
        pairs = list(exhaustive_neighbor_pairs(universe, 3))
        for eps in (0.1, 0.5, 1.0, 2.0):
            mech = exponential_mechanism(problem, space, eps)
            report = audit_pure_dp(mech, pairs)
            assert report.max_log_ratio <= eps + 1e-9, (
                f"eps={eps}: max log-ratio {report.max_log_ratio:.12g}, "
                f"witness {report.witness}"
            )


def test_c02_stability_bound():
    """Exact replace-one stability is at most e^eps - 1, and 2*eps for eps <= 1."""
    with Budget(10):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        universe = four_atom_universe()
        pairs = list(exhaustive_neighbor_pairs(universe, 3))
        for eps in (0.25, 0.5, 1.0, 2.0):
            mech = exponential_mechanism(problem, space, eps)
            gap = stability_audit(mech, pairs)
            assert gap <= math.expm1(eps) + 1e-9, (
                f"eps={eps}: stability gap {gap:.12g} > e^eps-1"
            )
            if eps <= 1.0:
                assert gap <= 2.0 * eps, (
                    f"eps={eps}: stability gap {gap:.12g} > 2 eps"
                )


def test_c03_pure_subsampling_amplification():
    """Realized eps of the exact subsample mixture <= tight <= relaxed bound."""
    with Budget(30):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
        universe = two_atom_universe()
        n = 6
        pairs = list(exhaustive_neighbor_pairs(universe, n))
        for eps in (0.5, 1.0, 2.0):
            base = exponential_mechanism(problem, space, eps)
            for m in (1, 2, 3):
                wrapped = subsample_wrapper(base, m)
                realized = audit_pure_dp(wrapped, pairs).max_log_ratio
                amp = amplify_pure(eps, m / n)
                assert realized <= amp.tight + 1e-9, (
                    f"eps={eps} m={m}: realized {realized:.12g} > "
                    f"tight {amp.tight:.12g}"
                )
                assert amp.tight <= amp.relaxed + 1e-12


def test_c04_approximate_subsampling_amplification():
    """Realized delta at the amplified eps stays within gamma e^eps delta."""
    with Budget(30):
        delta = 0.01
        worst = -1.0
        for eps0 in (0.1, 1.0):
            for n, m in ((10, 1), (4, 1), (4, 2)):
                gamma = m / n
                base = membership_flag_mechanism(eps0, delta, marker=0.25)
                wrapped = subsample_wrapper(base, m)
                universe = two_atom_universe()
                pairs = exhaustive_neighbor_pairs(universe, n)
                amp = amplify_approx(eps0, delta, gamma)
                realized = audit_approx_dp(
                    wrapped, pairs, epsilon=amp.epsilon
                ).realized_delta
                claimed = gamma * math.exp(eps0) * delta
                assert realized <= claimed + 1e-12, (
                    f"eps0={eps0} gamma={gamma}: realized delta "
                    f"{realized:.12g} > {claimed:.12g}"
                )
                worst = max(worst, realized)
        # the audit must bite somewhere, not realize zero across the board
        assert worst > 0.0


def test_c05_aerm_bound():
    """Mean exact empirical-suboptimality gap stays under the universal bound."""
    with Budget(60):
        config = default_config(
            "aerm", n_grid=[100, 1000, 10000], epsilon=[0.1, 1.0], trials=40
        )
        outcome = run_experiment(config)
        assert outcome.passed, f"failures: {outcome.failures}"
        assert outcome.checked == 6


@pytest.mark.parametrize("problem", ["threshold", "finite-support"])
def test_c06_utility_tail(problem):
    """Exact tail mass <= sublevel-ratio bound for 20 thresholds."""
    with Budget(30):
        config = default_config("utility-tail", problem=problem, t_count=20)
        outcome = run_experiment(config)
        assert outcome.passed, f"failures: {outcome.failures}"
        assert outcome.checked == 20


def test_c07_consistency_decomposition_exact():
    """n=3 exact enumeration: excess risk <= stability + mean AERM gap."""
    with Budget(30):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(
            np.array([0.3, 0.7]), y=np.array([0.0, 1.0]),
            probs=np.array([0.5, 0.5]),
        )
        report = consistency_suite(mech, dist, n=3, mode="exact")
        slack = report.stability_gap + report.aerm_gap + 1e-9
        assert report.excess_risk <= slack, (
            f"excess {report.excess_risk:.12g} > stability "
            f"{report.stability_gap:.12g} + aerm {report.aerm_gap:.12g}"
        )
        assert report.decomposition_ok and report.generalization_ok


def test_c07_consistency_decomposition_mc():
    """n=100 Monte Carlo: the same inequality within 4 pooled SE."""
    with Budget(120):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        mech = exponential_mechanism(problem, space, 1.0)
        dist = discrete_points(
            np.array([0.3, 0.7]), y=np.array([0.0, 1.0]),
            probs=np.array([0.5, 0.5]),
        )
        report = consistency_suite(mech, dist, n=100, mode="mc", trials=2000)
        assert report.trials == 2000
        assert report.decomposition_ok, (
            f"excess {report.excess_risk:.6g} vs gen "
            f"{report.generalization_gap:.6g} + aerm {report.aerm_gap:.6g}"
        )
        assert report.generalization_ok


@pytest.fixture(scope="module")
def packed_gap_sweep():
    with Budget(120):
        return counterexample_experiment(1.0, 3, [2**4, 2**8, 2**12, 2**16])


def test_c08_final_gap_exceeds_half(packed_gap_sweep):
    """At the finest grid the worst packed-dataset gap exceeds 1/2."""
    assert math.ceil(math.exp(3)) == 21  # family size the sweep packs
    final = packed_gap_sweep.rows[-1]
    assert final.resolution == 2**16
    assert final.max_gap > 0.5, f"final gap {final.max_gap:.12g}"
    assert packed_gap_sweep.final_exceeds_half
    assert packed_gap_sweep.threshold_ok


def test_c08_gap_growth_monotone(packed_gap_sweep):
    """RED BY DESIGN: the gap saturates and dips ~3.6e-4 after its peak.

    Measured gaps at resolutions 2^4, 2^8, 2^12, 2^16:
    0.600646730605, 0.643147624828, 0.642785499932, 0.642769206006.
    The climb is real from 2^4 to 2^8; past that the gap sits at its
    ceiling and wobbles downward, so exact nondecrease fails.
    """
    gaps = [row.max_gap for row in packed_gap_sweep.rows]
    assert packed_gap_sweep.monotone, (
        f"gap sequence {[f'{g:.12g}' for g in gaps]} is not nondecreasing"
    )


def _clamped_laplace_excess(n: int, exponent: float) -> float:
    """E[R(clip(1/2 + L, 0, 1))] - R(1/2) for L ~ Laplace(2 / (n eps(n))).

    R(h) = (h^11 + (1 - h)^11) / 11 is the population risk of the p = 10
    power loss under the uniform data law, minimized at h* = 1/2.  The clamp
    sends the mass of |L| > 1/2 to an endpoint, where R = 1/11.
    """
    def risk(h):
        return (h**11 + (1.0 - h) ** 11) / 11.0

    scale = 2.0 / (n * float(n) ** (-exponent))
    inside, _ = quad(
        lambda l: risk(0.5 + l) * math.exp(-abs(l) / scale) / (2.0 * scale),
        -0.5, 0.5, points=[0.0],
    )
    clamped = math.exp(-0.5 / scale) * risk(1.0)
    return inside + clamped - risk(0.5)


def test_c09_location_learner_rate():
    """Mean excess risk and its log-log slope match the clamped-Laplace
    prediction within 4 standard errors.

    With eps(n) = n^(-9/10) the noise scale 2/(n eps(n)) = 2 n^(-1/10) runs
    from 1.26 down to 0.63 over n in {1e2..1e5}, so the clamp at [0, 1]
    holds 45-67 % of the mass and the excess barely decays: the predicted
    slope is about -0.047.  The prediction centres the noise at h* = 1/2
    and ignores the ERM's own spread, which adds under 3e-6 at n = 100,
    below 1/500 of a row's standard error.  The accepted slope range,
    about [-0.073, -0.020], excludes both no decay (0) and the unclamped
    n^(-0.2) rate.
    """
    with Budget(300):
        config = default_config("rates")
        outcome = run_experiment(config)
        mean_rows = [r for r in outcome.rows if r.metric == "excess_mean"]
        assert [r.n for r in mean_rows] == list(config["n_grid"])
        predicted = [
            _clamped_laplace_excess(r.n, config["epsilon_exponent"])
            for r in mean_rows
        ]
        for row, expected in zip(mean_rows, predicted):
            assert abs(row.value - expected) <= 4 * row.stderr, (
                f"n={row.n}: excess {row.value:.6g} vs predicted "
                f"{expected:.6g}, stderr {row.stderr:.3g}"
            )

        slope_rows = [r for r in outcome.rows if r.metric == "loglog_slope"]
        assert len(slope_rows) == 1
        slope = slope_rows[0].value
        logn = np.log([float(r.n) for r in mean_rows])
        expected_slope = float(np.polyfit(logn, np.log(predicted), 1)[0])
        # Delta method: slope = sum w_i log m_i with the polyfit weights w.
        weights = (logn - logn.mean()) / ((logn - logn.mean()) ** 2).sum()
        slope_se = math.sqrt(sum(
            (w * r.stderr / r.value) ** 2 for w, r in zip(weights, mean_rows)
        ))
        assert abs(slope - expected_slope) <= 4 * slope_se, (
            f"slope {slope:.6g} vs predicted {expected_slope:.6g}, "
            f"stderr {slope_se:.3g}"
        )


def test_c10_subsampling_phase_transition():
    """r=1/2 subsampled ERM keeps learning; r=1 stalls above it."""
    with Budget(300):
        outcome = run_experiment(default_config("phase", trials=1000))
        assert outcome.passed, f"failures: {outcome.failures}"


def test_c11_boosting_failure_frequency():
    """Calibrated confidence boosting misses at most delta + 3 SE."""
    with Budget(300):
        config = default_config(
            "boost", delta=[0.1, 0.3], trials=2000, calibration_trials=500
        )
        outcome = run_experiment(config)
        assert outcome.passed, f"failures: {outcome.failures}"


def test_c12_sampler_fidelity():
    """Law vs 1e5 draws chi-square p > 0.001; MCMC vs grid law TV <= 0.05."""
    with Budget(120):
        problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
        mech = exponential_mechanism(problem, space, 1.0)
        data = labeled_threshold(0.5, support_size=64).sample(40, trial_rng(7, 0))
        law = mech.law(data).probabilities
        counts = sample_counts(mech, data, draws=100_000, seed=123)
        gof = chi_square_gof(law, counts)
        assert gof.pvalue > 0.001, f"GOF p={gof.pvalue:.6g}"

        convex, grid = PROBLEM_BUILDERS["pth-power"](resolution=64)
        chain_data = Dataset(x=trial_rng(11, 0).uniform(0.2, 0.8, 40), y=None)
        grid_law = exponential_mechanism(convex, grid, 2.0).law(chain_data)
        sampler = logconcave_sampler(convex, 0.0, 1.0, 2.0, 200_000)
        chain = sampler.run(chain_data, seed=2)
        empirical = empirical_law_on_grid(chain.samples, 0.0, 1.0, 64)
        tv = total_variation(grid_law.probabilities, empirical)
        assert tv <= 0.05, f"TV {tv:.6g}"
