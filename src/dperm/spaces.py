"""Finite hypothesis spaces over box domains.

A hypothesis space here is always finite: an id-indexed array of parameter
vectors with strictly positive measure weights.  Grids are built by cutting a
box into equal cells and taking cell centers, so the enumeration is a pure
function of the grid specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SizeLimitError",
    "GridSpec",
    "FiniteHypothesisSpace",
    "SublevelReport",
    "SublevelConditionFit",
    "discretize_box",
    "sublevel_set",
    "estimate_sublevel_condition",
]

REL_MEASURE_TOL = 1e-12
SUBLEVEL_TOL = 1e-12
GRID_CAP = 10**7


class SizeLimitError(ValueError):
    """Requested enumeration exceeds a configured size cap."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with a per-dimension resolution.

    Parameters
    ----------
    lower, upper : tuple of float
        Box bounds, strictly increasing per axis.
    resolution : tuple of int
        Number of cells per axis, all >= 1.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.lower) == len(self.upper) == len(self.resolution)):
            raise ValueError(
                f"dimension mismatch: lower {len(self.lower)}, upper {len(self.upper)}, "
                f"resolution {len(self.resolution)}"
            )
        if len(self.lower) == 0:
            raise ValueError("grid must have at least one dimension")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid box axis [{lo}, {hi}]")
        for r in self.resolution:
            if r < 1:
                raise ValueError(f"resolution must be >= 1, got {r}")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def size(self) -> int:
        return int(np.prod([int(r) for r in self.resolution], dtype=object))


@dataclass(eq=False)
class FiniteHypothesisSpace:
    """Finite set of hypotheses with positive measure weights.

    ``payloads`` holds one parameter vector per row; ids are the row indices.
    """

    payloads: np.ndarray
    measure: np.ndarray

    def __post_init__(self) -> None:
        self.payloads = np.asarray(self.payloads)
        if self.payloads.ndim == 1:
            self.payloads = self.payloads[:, None]
        self.measure = np.asarray(self.measure, dtype=float)
        if len(self.payloads) == 0:
            raise ValueError("hypothesis space must be non-empty")
        if self.measure.shape != (len(self.payloads),):
            raise ValueError(
                f"measure shape {self.measure.shape} does not match {len(self.payloads)} hypotheses"
            )
        if not np.all(self.measure > 0):
            raise ValueError("measure weights must be strictly positive")
        total = float(self.measure.sum())
        if not math.isfinite(total):
            raise ValueError("total measure must be finite")
        self.total_measure = total

    @property
    def size(self) -> int:
        return len(self.payloads)


@dataclass(frozen=True)
class SublevelReport:
    """Membership summary of one objective sublevel set."""

    t: float
    member_count: int
    measure: float
    ratio: float


def discretize_box(grid: GridSpec) -> FiniteHypothesisSpace:
    """Enumerate the cell centers of ``grid`` as a hypothesis space.

    Cell ``(i_1, ..., i_d)`` maps to the point with coordinate
    ``lower_k + (i_k + 1/2) * (upper_k - lower_k) / resolution_k``.  Axes are
    enumerated in row-major order (last axis fastest), so the same GridSpec
    always yields the bitwise-identical payload array.  Every hypothesis
    has weight 1 (counting measure).

    Raises SizeLimitError when the cell count exceeds ``GRID_CAP``.
    """
    if grid.size > GRID_CAP:
        raise SizeLimitError(
            f"grid holds {grid.size} cells, above the cap of {GRID_CAP}"
        )
    axes = [
        lo + (np.arange(r) + 0.5) * ((hi - lo) / r)
        for lo, hi, r in zip(grid.lower, grid.upper, grid.resolution)
    ]
    if grid.dimension == 1:
        payloads = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        payloads = np.stack([m.ravel() for m in mesh], axis=1)
    return FiniteHypothesisSpace(
        payloads=payloads, measure=np.ones(len(payloads))
    )


def sublevel_set(
    space: FiniteHypothesisSpace, objective_values: np.ndarray, t: float
) -> SublevelReport:
    """Measure of ``{h : F(h) <= min F + t}`` with the absolute boundary
    tolerance ``SUBLEVEL_TOL``.

    ``ratio`` is total measure over sublevel measure; it is finite because the
    minimizer itself always belongs to the set.
    """
    values = np.asarray(objective_values, dtype=float)
    if values.shape != (space.size,):
        raise ValueError(
            f"objective values shape {values.shape} does not match space size {space.size}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("objective values must be finite")
    if t < 0:
        raise ValueError(f"threshold t must be >= 0, got {t}")
    cutoff = values.min() + t + SUBLEVEL_TOL
    mask = values <= cutoff
    member_measure = float(space.measure[mask].sum())
    return SublevelReport(
        t=float(t),
        member_count=int(mask.sum()),
        measure=member_measure,
        ratio=space.total_measure / member_measure,
    )


@dataclass(frozen=True)
class SublevelConditionFit:
    """Log-log fit of mean sublevel mass ratios against 1/t."""

    k_hat: float
    rho_hat: float
    table: tuple[tuple[float, float], ...]  # (t, mean ratio)


def estimate_sublevel_condition(
    problem,
    distribution,
    space: FiniteHypothesisSpace,
    n: int,
    t_grid: Sequence[float],
    replications: int,
    seed: int,
) -> SublevelConditionFit:
    """Monte Carlo estimate of the sublevel mass condition.

    Draws ``replications`` datasets of size ``n``, averages the ratio
    total/sublevel measure for each t, and fits
    ``log E[ratio] = log K + rho * log(1/t)`` by ordinary least squares.
    """
    from . import problems as _problems
    from .seeding import trial_rng

    ts = [float(t) for t in t_grid]
    if len(ts) < 2:
        raise ValueError("t_grid needs at least two points for the fit")
    if any(t <= 0 for t in ts):
        raise ValueError("t values must be positive")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    ratios = np.zeros((replications, len(ts)))
    for rep in range(replications):
        rng = trial_rng(seed, rep)
        dataset = distribution.sample(n, rng)
        values = _problems.objective_vector(problem, space, dataset)
        for j, t in enumerate(ts):
            ratios[rep, j] = sublevel_set(space, values, t).ratio
    mean_ratio = ratios.mean(axis=0)
    x = np.log(1.0 / np.asarray(ts))
    slope, intercept = np.polyfit(x, np.log(mean_ratio), 1)
    table = tuple((t, float(r)) for t, r in zip(ts, mean_ratio))
    return SublevelConditionFit(
        k_hat=float(np.exp(intercept)), rho_hat=float(slope), table=table
    )
