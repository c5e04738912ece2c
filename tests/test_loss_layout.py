"""The threshold loss table's memory layout: the kernel against the old
point-minor expression, and every reader of the table against an oracle
that sees the same values in C order.

``threshold_classification``'s ``loss_matrix`` computes its comparisons
hypothesis-major and returns the transpose of an (n, k) array, so the (k, n)
table it returns is F-ordered.  A reader whose float sums depend on the
order of the table's cells must fix the layout itself; the oracle problem
below returns ``np.ascontiguousarray`` of the real table, so any reader that
does not would read different bits under it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dperm.analysis as analysis
from dperm.analysis import counterexample_experiment, exhaustive_neighbor_pairs, stability_audit
from dperm.mechanisms import exponential_mechanism
from dperm.problems import (
    Dataset,
    Problem,
    discrete_points,
    labeled_threshold,
    population_risk_vector,
    risk_rows,
    risk_vector,
    threshold_classification,
)
from dperm.seeding import trial_rng
from dperm.spaces import GridSpec, discretize_box


def point_minor_losses(payloads, dataset):
    """The threshold loss as it was computed before: points on the inner
    axis of a C-ordered (k, n) array."""
    pred = dataset.x[None, :] > payloads[:, 0, None]
    return (pred != (dataset.y[None, :] > 0.5)).astype(float)


def c_ordered(problem):
    """The problem with the same loss values, returned in C order."""
    return Problem(name=problem.name, dimension=problem.dimension,
                   loss_matrix=lambda payloads, dataset: np.ascontiguousarray(
                       problem.loss_matrix(payloads, dataset)))


def c_ordered_threshold(resolution):
    problem, space = threshold_classification(resolution=resolution)
    return c_ordered(problem), space


def threshold_universe(u):
    xs = (np.arange(u) + 0.5) / u
    return Dataset(x=xs, y=(xs > 0.5).astype(float))


def _skewed(dist, skew):
    weights = skew ** np.arange(len(dist.probs))
    return discrete_points(dist.x_atoms, y=dist.y_atoms, probs=weights / weights.sum())


# ---------------------------------------------------------------------------
# The kernel


@st.composite
def grids_and_data(draw):
    """A threshold grid on a random domain and labeled points, some of them
    exactly on grid values."""
    resolution = draw(st.integers(1, 300))
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.01, 3.0))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32))
    on_grid = draw(st.integers(0, n))
    return resolution, (lo, hi), n, on_grid, seed


class TestKernel:
    @given(case=grids_and_data())
    @example(case=(65536, (0.0, 1.0), 3, 3, 0))
    @example(case=(1, (0.0, 1.0), 1, 1, 1))
    @settings(max_examples=60, deadline=None)
    def test_values_equal_the_point_minor_expression(self, case):
        resolution, domain, n, on_grid, seed = case
        # The grid lives on the random domain; the loss takes any payloads.
        problem, _ = threshold_classification(resolution=1)
        space = discretize_box(GridSpec((domain[0],), (domain[1],), (resolution,)))
        rng = trial_rng(seed, 0)
        x = rng.uniform(*domain, size=n)
        x[:on_grid] = space.payloads[rng.integers(0, space.size, size=on_grid), 0]
        data = Dataset(x=x, y=rng.integers(0, 2, size=n))
        table = problem.loss_matrix(space.payloads, data)
        assert table.shape == (space.size, n)
        assert table.dtype == np.float64
        assert np.array_equal(table, point_minor_losses(space.payloads, data))
        assert not np.signbit(table).any()
        # Hypothesis-major: the transpose is the C-ordered (n, k) array the
        # comparisons were made in.  A rewrite that computes point-minor
        # again loses the speed this layout buys, and fails here.
        assert table.T.flags.c_contiguous


# ---------------------------------------------------------------------------
# The readers, bit for bit against the C-ordered oracle


class TestReadersIgnoreTheLayout:
    def test_risk_rows_and_risk_vector(self):
        problem, space = threshold_classification(resolution=257)
        oracle = c_ordered(problem)
        for skew in (1.0, 0.97):
            dist = _skewed(labeled_threshold(0.5, support_size=512), skew)
            block = dist.datasets_at(trial_rng(21, 0).random((40, 30)))
            assert risk_rows(problem, space, block).tobytes() == \
                risk_rows(oracle, space, block).tobytes()
            for data in (block[0], block[7], Dataset(x=block[3].x, y=block[3].y)):
                assert risk_vector(problem, space, data).tobytes() == \
                    risk_vector(oracle, space, data).tobytes()

    def test_em_law_rows(self):
        problem, space = threshold_classification(resolution=64)
        dist = labeled_threshold(0.5, support_size=6)
        block = dist.datasets_at(trial_rng(22, 0).random((25, 5)))
        for eps in (0.5, 2.0):
            got = exponential_mechanism(problem, space, eps).law_rows(block)
            want = exponential_mechanism(c_ordered(problem), space, eps).law_rows(block)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("resolution,support", [(257, 512), (64, 6), (16, 100)])
    @pytest.mark.parametrize("skew", [1.0, 0.97, 0.7])
    def test_population_risk_vector(self, resolution, support, skew):
        # Its product with probs sums floats over the table's points, so it
        # takes the table in C order first; without that, 6 of these 9
        # cases read other bits here, the uniform law at (16, 100) among
        # them.
        problem, space = threshold_classification(resolution=resolution)
        dist = _skewed(labeled_threshold(0.5, support_size=support), skew)
        assert population_risk_vector(problem, space, dist).tobytes() == \
            population_risk_vector(c_ordered(problem), space, dist).tobytes()

    @pytest.mark.parametrize("universe,n,resolution", [(6, 5, 64), (4, 3, 8)])
    def test_stability_audit(self, universe, n, resolution):
        # Its matmul stack sums floats over the hypotheses, so it takes the
        # table in C order first.  Removing that np.ascontiguousarray turns
        # this test red: at universe 6, n 5, the gaps at eps 0.5, 1 and 2
        # change in their last bits.
        problem, space = threshold_classification(resolution=resolution)
        atoms = threshold_universe(universe)
        pairs = list(exhaustive_neighbor_pairs(atoms, n))
        for eps in (0.25, 0.5, 1.0, 2.0):
            got = stability_audit(exponential_mechanism(problem, space, eps), pairs)
            want = stability_audit(exponential_mechanism(c_ordered(problem), space, eps), pairs)
            assert repr(got) == repr(want), f"eps={eps}"

    def test_counterexample_gaps(self, monkeypatch):
        resolutions = [16, 256, 4096, 65536]
        got = counterexample_experiment(1.0, 3, resolutions)
        monkeypatch.setattr(analysis, "threshold_classification", c_ordered_threshold)
        want = counterexample_experiment(1.0, 3, resolutions)
        assert [repr(r.max_gap) for r in got.rows] == [repr(r.max_gap) for r in want.rows]
        assert [r.argmax_dataset for r in got.rows] == [r.argmax_dataset for r in want.rows]
