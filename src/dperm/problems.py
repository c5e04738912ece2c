"""Learning problems: bounded losses, datasets, and data distributions.

Every shipped problem keeps its loss inside [0, 1] exactly (rescaling by a
documented constant where the raw loss is wider), which is what the privacy
calibration of the mechanisms assumes.  Constructors probe that range with
seeded random draws and refuse to build a problem violating it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .draws import categorical
from .spaces import FiniteHypothesisSpace, GridSpec, SizeLimitError, discretize_box

__all__ = [
    "Dataset",
    "Problem",
    "DataDistribution",
    "PackedFamily",
    "empirical_risk",
    "risk_vector",
    "objective",
    "objective_vector",
    "erm",
    "population_risk_vector",
    "packed_datasets",
    "uniform_box",
    "discrete_points",
    "labeled_threshold",
    "threshold_classification",
    "linear_logistic",
    "pth_power_mean",
    "finite_support_estimation",
]

DEFAULT_PACKING_CAP = 10**6


@dataclass(eq=False)
class Dataset:
    """Sample of points, optionally labeled.

    ``x`` has shape (n,) or (n, d); ``y`` is None or an (n,) array of labels.
    """

    x: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim not in (1, 2):
            raise ValueError(f"x must be 1- or 2-dimensional, got shape {self.x.shape}")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != (len(self.x),):
                raise ValueError(
                    f"labels shape {self.y.shape} does not match {len(self.x)} points"
                )

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def labeled(self) -> bool:
        return self.y is not None

    def point(self, i: int):
        """Point i in the scalar-loss convention: x, or (x, y) when labeled."""
        xi = self.x[i] if self.x.ndim == 1 else self.x[i, :]
        if self.y is None:
            return xi
        return (xi, self.y[i])

    def take(self, indices) -> "Dataset":
        """Sub-dataset at the given positions (copy)."""
        idx = np.asarray(indices)
        return Dataset(
            x=self.x[idx].copy(), y=None if self.y is None else self.y[idx].copy()
        )

    def multiset_order(self) -> np.ndarray:
        """Positions that list the points in lexicographic order of their
        coordinates, then label.  Two datasets hold the same multiset of
        points exactly when their points agree in this order."""
        keys = [self.x] if self.x.ndim == 1 else list(self.x.T)
        if self.y is not None:
            keys.append(self.y)
        return np.lexsort(keys[::-1])


def _zero_reg(n: int, payload: np.ndarray) -> float:
    return 0.0


def _zero_reg_vector(n: int, space: FiniteHypothesisSpace) -> np.ndarray:
    return np.zeros(space.size)


def _zero_zeta(n: int) -> float:
    return 0.0


@dataclass(eq=False)
class Problem:
    """A bounded-loss learning problem.

    ``loss`` is the scalar reference implementation; ``loss_matrix`` is the
    vectorized route returning an (|H|, n) array.  The two must agree, and the
    test suite holds them to that.  ``zeta(n)`` is sup over hypotheses of the
    regularizer magnitude at sample size n.
    """

    name: str
    dimension: int
    loss: Callable
    loss_matrix: Callable
    regularizer: Callable = _zero_reg
    reg_vector: Callable = _zero_reg_vector
    zeta: Callable = _zero_zeta


@dataclass(eq=False)
class DataDistribution:
    """Distribution over points, discrete (enumerable atoms) or continuous."""

    kind: str
    x_atoms: np.ndarray | None = None
    y_atoms: np.ndarray | None = None
    probs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    theta: float | None = None

    @property
    def discrete(self) -> bool:
        return self.x_atoms is not None

    def atoms(self) -> Dataset:
        if not self.discrete:
            raise ValueError(f"{self.kind} distribution has no finite support")
        return Dataset(x=self.x_atoms.copy(), y=None if self.y_atoms is None else self.y_atoms.copy())

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        if self.discrete:
            idx = categorical(self.probs, rng.random(n))
            y = None if self.y_atoms is None else self.y_atoms[idx]
            return Dataset(x=self.x_atoms[idx], y=y)
        x = rng.uniform(self.lower, self.upper, size=(n, len(self.lower)))
        if x.shape[1] == 1:
            x = x[:, 0]
        if self.theta is not None:
            return Dataset(x=x, y=(x > self.theta).astype(float))
        return Dataset(x=x)


def uniform_box(lower, upper) -> DataDistribution:
    """Uniform distribution on an axis-aligned box (continuous)."""
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape or not np.all(lo < hi):
        raise ValueError("box bounds must satisfy lower < upper per axis")
    return DataDistribution(kind="uniform-box", lower=lo, upper=hi)


def discrete_points(x, y=None, probs=None) -> DataDistribution:
    """Distribution supported on explicit atoms, uniform unless probs given."""
    xa = np.asarray(x, dtype=float)
    ya = None if y is None else np.asarray(y, dtype=float)
    if probs is None:
        p = np.full(len(xa), 1.0 / len(xa))
    else:
        p = np.asarray(probs, dtype=float)
        if p.shape != (len(xa),) or not np.all(p >= 0):
            raise ValueError("probs must be nonnegative, one per atom")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs sum to {p.sum()}, not 1")
    if ya is not None and ya.shape != (len(xa),):
        raise ValueError("labels must align with atoms")
    return DataDistribution(kind="discrete-points", x_atoms=xa, y_atoms=ya, probs=p)


def labeled_threshold(theta: float, support_size: int = 0) -> DataDistribution:
    """x uniform on [0,1], label 1(x > theta).

    With ``support_size`` = M > 0 the x marginal is uniform over the M cell
    centers of [0,1] instead, making the distribution enumerable.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    if support_size:
        xs = (np.arange(support_size) + 0.5) / support_size
        return discrete_points(xs, y=(xs > theta).astype(float))
    return DataDistribution(
        kind="labeled-threshold", lower=np.array([0.0]), upper=np.array([1.0]), theta=theta
    )


# ---------------------------------------------------------------------------
# risk evaluation


def empirical_risk(problem: Problem, payload: np.ndarray, dataset: Dataset) -> float:
    """Mean scalar loss of one hypothesis; reference (unvectorized) route."""
    total = 0.0
    for i in range(dataset.n):
        v = float(problem.loss(payload, dataset.point(i)))
        total += v
    return total / dataset.n


def risk_vector(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> np.ndarray:
    """Empirical risk of every hypothesis, via the vectorized loss."""
    losses = problem.loss_matrix(space, dataset)
    if losses.shape != (space.size, dataset.n):
        raise ValueError(
            f"loss matrix shape {losses.shape}, expected {(space.size, dataset.n)}"
        )
    if not np.isfinite(losses).all():
        raise ValueError("loss matrix contains non-finite entries")
    return losses.mean(axis=1)


def objective(problem: Problem, payload: np.ndarray, dataset: Dataset) -> float:
    return empirical_risk(problem, payload, dataset) + float(
        problem.regularizer(dataset.n, payload)
    )


def objective_vector(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> np.ndarray:
    """Regularized objective for every hypothesis."""
    values = risk_vector(problem, space, dataset) + problem.reg_vector(dataset.n, space)
    if not np.isfinite(values).all():
        raise ValueError("objective contains non-finite values")
    return values


def erm(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> int:
    """Id of the objective minimizer; exact ties resolve to the lowest id."""
    return int(np.argmin(objective_vector(problem, space, dataset)))


def population_risk_vector(
    problem: Problem, space: FiniteHypothesisSpace, distribution: DataDistribution
) -> np.ndarray:
    """Exact population risk of every hypothesis (discrete distributions)."""
    if not distribution.discrete:
        raise ValueError("exact population risk needs an enumerable support")
    return problem.loss_matrix(space, distribution.atoms()) @ distribution.probs


# ---------------------------------------------------------------------------
# packed hard instances


@dataclass(eq=False)
class PackedFamily:
    """Family of threshold datasets that no single private learner fits."""

    datasets: list
    thresholds: np.ndarray
    eta: float
    count: int


def packed_datasets(
    epsilon: float, n: int, max_count: int = DEFAULT_PACKING_CAP
) -> PackedFamily:
    """K = ceil(e^(eps*n)) labeled datasets packed into [0,1].

    With eta = 1/K, threshold i sits at (i + 1/2) * eta; dataset i holds
    floor(n/2) copies of h_i - eta/6 labeled 0 and ceil(n/2) copies of
    h_i + eta/6 labeled 1, so threshold i classifies its own dataset
    perfectly while the surrounding intervals [h_i +- eta/3] stay disjoint.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    count_exact = math.exp(epsilon * n)
    if count_exact > max_count:
        raise SizeLimitError(
            f"packing needs ceil(e^(eps*n)) = ceil({count_exact:.3g}) datasets, "
            f"above the cap of {max_count}"
        )
    k = math.ceil(count_exact)
    eta = 1.0 / k
    thresholds = (np.arange(k) + 0.5) * eta
    n_below = n // 2
    n_above = n - n_below
    datasets = []
    for h in thresholds:
        x = np.concatenate(
            [np.full(n_below, h - eta / 6.0), np.full(n_above, h + eta / 6.0)]
        )
        y = np.concatenate([np.zeros(n_below), np.ones(n_above)])
        datasets.append(Dataset(x=x, y=y))
    return PackedFamily(datasets=datasets, thresholds=thresholds, eta=eta, count=k)


# ---------------------------------------------------------------------------
# shipped problems


def _probe_unit_range(problem: Problem, space: FiniteHypothesisSpace, sampler, trials: int = 64) -> None:
    # Constructor-time A1 check on seeded random (hypothesis, point) pairs.
    rng = np.random.default_rng(12345)
    ids = rng.integers(0, space.size, size=trials)
    for hid in ids:
        z = sampler(rng)
        v = float(problem.loss(space.payloads[hid], z))
        if not (0.0 <= v <= 1.0 + 1e-12):
            raise ValueError(
                f"{problem.name}: loss {v} outside [0,1] for a probed pair"
            )


def threshold_classification(
    resolution: int = 32, domain: tuple[float, float] = (0.0, 1.0)
) -> tuple[Problem, FiniteHypothesisSpace]:
    """0-1 loss threshold classifiers h(x) = 1(x > h) on a 1-d grid."""
    space = discretize_box(GridSpec((domain[0],), (domain[1],), (resolution,)))

    def loss(payload, z):
        x, y = z
        return float((float(x) > payload[0]) != bool(round(float(y))))

    def loss_matrix(sp, dataset):
        thr = sp.scalar_payloads()
        pred = dataset.x[None, :] > thr[:, None]
        return (pred != (dataset.y[None, :] > 0.5)).astype(float)

    problem = Problem(
        name="threshold_classification",
        dimension=1,
        loss=loss,
        loss_matrix=loss_matrix,
    )

    def sampler(rng):
        return (rng.uniform(domain[0], domain[1]), float(rng.integers(0, 2)))

    _probe_unit_range(problem, space, sampler)
    return problem, space


def linear_logistic(
    d: int = 1, resolution: int = 16, lam: float = 0.1
) -> tuple[Problem, FiniteHypothesisSpace]:
    """Logistic loss of linear scores w.x on the weight box [-1,1]^d.

    The raw loss log(1 + exp(-(2y-1) w.x)) over x in [0,1]^d is divided by
    its exact maximum log(1 + exp(d)), so values stay in (0, 1] and the
    Lipschitz constant in w is sqrt(d) / log(1 + exp(d)).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    scale = math.log1p(math.exp(d))
    space = discretize_box(GridSpec((-1.0,) * d, (1.0,) * d, (resolution,) * d))
    max_norm2 = float(np.max(np.sum(space.payloads**2, axis=1)))

    def loss(payload, z):
        x, y = z
        margin = (2.0 * float(y) - 1.0) * float(np.dot(payload, np.atleast_1d(x)))
        return float(np.logaddexp(0.0, -margin) / scale)

    def loss_matrix(sp, dataset):
        x = dataset.x if dataset.x.ndim == 2 else dataset.x[:, None]
        scores = sp.payloads @ x.T
        sign = 2.0 * dataset.y[None, :] - 1.0
        return np.logaddexp(0.0, -sign * scores) / scale

    def regularizer(n, payload):
        return lam * float(np.dot(payload, payload)) / math.sqrt(n)

    def reg_vector(n, sp):
        return lam * np.sum(sp.payloads**2, axis=1) / math.sqrt(n)

    problem = Problem(
        name="linear_logistic",
        dimension=d,
        loss=loss,
        loss_matrix=loss_matrix,
        regularizer=regularizer,
        reg_vector=reg_vector,
        zeta=lambda n: lam * max_norm2 / math.sqrt(n),
    )

    def sampler(rng):
        return (rng.uniform(0.0, 1.0, size=d), float(rng.integers(0, 2)))

    _probe_unit_range(problem, space, sampler)
    return problem, space


def pth_power_mean(resolution: int = 64) -> tuple[Problem, FiniteHypothesisSpace]:
    """Location estimation on [0,1] with loss |x - h|^10 (no regularizer)."""
    space = discretize_box(GridSpec((0.0,), (1.0,), (resolution,)))

    def loss(payload, z):
        return float(abs(float(z) - payload[0]) ** 10)

    def loss_matrix(sp, dataset):
        h = sp.scalar_payloads()
        return np.abs(dataset.x[None, :] - h[:, None]) ** 10

    problem = Problem(
        name="pth_power_mean",
        dimension=1,
        loss=loss,
        loss_matrix=loss_matrix,
    )
    _probe_unit_range(problem, space, lambda rng: rng.uniform(0.0, 1.0))
    return problem, space


def finite_support_estimation(
    cells: int = 8, max_subset_size: int = 3
) -> tuple[Problem, FiniteHypothesisSpace]:
    """Support estimation on [0,1]: h is a union of grid cells, loss 1(z not in h).

    Hypotheses are all cell subsets of size <= max_subset_size (a finite
    stand-in for arbitrary finite supports); the payload stores the subset
    as a bitmask and the space carries a per-hypothesis cell membership
    table for vectorized evaluation.
    """
    if cells < 1 or cells > 50:
        raise ValueError(f"cells must be in 1..50, got {cells}")
    if not 0 <= max_subset_size <= cells:
        raise ValueError(f"max_subset_size must be in 0..{cells}")
    masks = []
    for size in range(max_subset_size + 1):
        for combo in itertools.combinations(range(cells), size):
            masks.append(sum(1 << c for c in combo))
    membership = np.zeros((len(masks), cells), dtype=bool)
    for row, mask in enumerate(masks):
        for c in range(cells):
            membership[row, c] = bool((mask >> c) & 1)
    space = FiniteHypothesisSpace(
        payloads=np.asarray(masks, dtype=float)[:, None],
        measure=np.ones(len(masks)),
        meta={"cells": cells, "cell_membership": membership},
    )

    def cell_of(values):
        idx = np.minimum((np.asarray(values) * cells).astype(int), cells - 1)
        return idx

    def loss(payload, z):
        mask = int(payload[0])
        cell = int(cell_of(float(z)))
        return 0.0 if (mask >> cell) & 1 else 1.0

    def loss_matrix(sp, dataset):
        inside = sp.meta["cell_membership"][:, cell_of(dataset.x)]
        return 1.0 - inside.astype(float)

    problem = Problem(
        name="finite_support_estimation",
        dimension=1,
        loss=loss,
        loss_matrix=loss_matrix,
    )
    _probe_unit_range(problem, space, lambda rng: rng.uniform(0.0, 1.0))
    return problem, space


PROBLEM_BUILDERS = {
    "threshold": threshold_classification,
    "logistic": linear_logistic,
    "pth-power": pth_power_mean,
    "finite-support": finite_support_estimation,
}
