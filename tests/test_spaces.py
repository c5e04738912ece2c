"""Hypothesis grids, sublevel sets, and the measure-ratio estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dperm import spaces
from dperm.problems import PROBLEM_BUILDERS, labeled_threshold
from dperm.spaces import (
    FiniteHypothesisSpace,
    GridSpec,
    SizeLimitError,
    discretize_box,
    estimate_sublevel_condition,
    sublevel_set,
)


def unit_grid(resolution: int) -> GridSpec:
    return GridSpec(lower=(0.0,), upper=(1.0,), resolution=(resolution,))


class TestGrid:
    def test_unit_interval_centers(self):
        space = discretize_box(unit_grid(4))
        assert space.size == 4
        assert np.allclose(space.payloads[:, 0], [0.125, 0.375, 0.625, 0.875])
        assert np.all(space.measure == 1.0)

    def test_two_dimensional_row_major(self):
        grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 2.0), resolution=(2, 3))
        space = discretize_box(grid)
        assert space.size == 6
        # Last axis fastest: first two rows share the first coordinate.
        assert np.allclose(space.payloads[0], [0.25, 1.0 / 3.0])
        assert np.allclose(space.payloads[1], [0.25, 1.0])
        assert np.allclose(space.payloads[3], [0.75, 1.0 / 3.0])

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(spaces, "GRID_CAP", 99)
        with pytest.raises(SizeLimitError):
            discretize_box(unit_grid(100))

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(lower=(1.0,), upper=(0.0,), resolution=(4,))
        with pytest.raises(ValueError):
            GridSpec(lower=(0.0,), upper=(1.0,), resolution=(0,))

    @given(st.integers(1, 200))
    @settings(max_examples=40)
    def test_grid_is_deterministic(self, r):
        a = discretize_box(unit_grid(r))
        b = discretize_box(unit_grid(r))
        assert a.payloads.tobytes() == b.payloads.tobytes()


class TestSpaceValidation:
    def test_measure_must_be_positive(self):
        with pytest.raises(ValueError):
            FiniteHypothesisSpace(
                payloads=np.zeros((2, 1)), measure=np.array([1.0, 0.0])
            )

    def test_payload_accessors(self):
        space = discretize_box(unit_grid(3))
        assert space.payloads.shape == (3, 1)
        assert np.allclose(space.payloads[:, 0], [1 / 6, 0.5, 5 / 6])


class TestSublevel:
    def test_hand_example(self):
        space = discretize_box(unit_grid(4))
        values = np.array([0.9, 0.1, 0.3, 0.8])
        report = sublevel_set(space, values, t=0.25)
        assert report.member_count == 2  # 0.1 and 0.3
        assert report.measure == 2.0
        assert report.ratio == 2.0

    def test_minimizer_always_included(self):
        space = discretize_box(unit_grid(5))
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        report = sublevel_set(space, values, t=0.0)
        assert report.member_count == 1
        assert np.isfinite(report.ratio)

    def test_negative_threshold_rejected(self):
        space = discretize_box(unit_grid(2))
        with pytest.raises(ValueError):
            sublevel_set(space, np.array([0.0, 1.0]), t=-0.1)

    @given(st.integers(2, 40), st.floats(0.0, 2.0))
    @settings(max_examples=60)
    def test_ratio_monotone_in_t(self, r, t):
        # Growing t can only grow the set, so the ratio cannot increase.
        space = discretize_box(unit_grid(r))
        rng = np.random.default_rng(r)
        values = rng.random(r)
        wide = sublevel_set(space, values, t + 0.5)
        narrow = sublevel_set(space, values, t)
        assert wide.ratio <= narrow.ratio + 1e-12
        assert narrow.ratio >= 1.0


def test_sublevel_condition_fit_smoke():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=32)
    dist = labeled_threshold(0.5, support_size=64)
    fit = estimate_sublevel_condition(
        problem, dist, space, n=60, t_grid=[0.05, 0.1, 0.2, 0.4],
        replications=5, seed=0,
    )
    assert len(fit.table) == 4
    ratios = [r for _, r in fit.table]
    assert all(r >= 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
    assert fit.k_hat > 0


def test_sublevel_condition_needs_two_thresholds():
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
    dist = labeled_threshold(0.5, support_size=8)
    with pytest.raises(ValueError):
        estimate_sublevel_condition(
            problem, dist, space, n=10, t_grid=[0.1], replications=2, seed=0
        )
