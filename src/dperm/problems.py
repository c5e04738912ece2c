"""Learning problems: bounded losses, datasets, and data distributions.

A problem is one vectorized loss: ``loss_matrix(payloads, dataset)`` maps
the (k, d) payload rows of k hypotheses and a dataset of n points to the
(k, n) array of losses.  Every shipped problem keeps that loss inside
[0, 1] exactly (rescaling by a documented constant where the raw loss is
wider), which is what the privacy calibration of the mechanisms assumes.
Constructors probe that range on seeded random hypotheses and points and
refuse to build a problem violating it.

A dataset drawn from a discrete law carries its atom ids into the law's
``support``.  A batch of datasets is always a :class:`DatasetBlock`: T
datasets of n points as one read-only (T, n) id array, which
:func:`risk_rows` counts in one ``bincount`` without building a dataset
per row.  One dataset, with or without ids, takes the loss path,
:func:`risk_vector`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .draws import categorical
from .spaces import FiniteHypothesisSpace, GridSpec, SizeLimitError, discretize_box

__all__ = [
    "Dataset",
    "DatasetBlock",
    "Problem",
    "DataDistribution",
    "PackedFamily",
    "risk_rows",
    "risk_vector",
    "objective_rows",
    "objective_vector",
    "erm",
    "population_risk_vector",
    "packed_datasets",
    "discrete_points",
    "labeled_threshold",
    "threshold_classification",
    "linear_logistic",
    "pth_power_mean",
    "finite_support_estimation",
]

PACKING_CAP = 10**6
LOGISTIC_LAM = 0.1
# The exponent p of the location loss |x - h|^p: pth_power_mean's loss, the
# rates learner's ERM (mechanisms.pth_power_erm_batch) and its closed-form
# population risk all read it at call time.
PTH_POWER = 10


def _atom_ids(support: "Dataset", ids) -> np.ndarray:
    """``ids`` as a read-only intp array, every id an atom of ``support``."""
    ids = np.array(ids, dtype=np.intp)
    if ids.size and not (ids.min() >= 0 and ids.max() < support.n):
        raise ValueError(f"atom ids must lie in [0, {support.n}), the atoms of the support")
    ids.flags.writeable = False
    return ids


@dataclass(eq=False)
class Dataset:
    """Sample of points, optionally labeled.

    ``x`` has shape (n,) or (n, d); ``y`` is None or an (n,) array of labels.

    A dataset drawn from a discrete law (:meth:`of_atoms`) also carries its
    atom ids: point i is atom ``atom_ids[i]`` of the law's ``support``.  Its
    ``x``, ``y`` and ``atom_ids`` are read-only, so the points cannot drift
    from the ids that :func:`risk_rows` counts.  Other datasets carry None
    in both fields.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    atom_ids: np.ndarray | None = field(default=None, init=False, repr=False)
    support: "Dataset | None" = field(default=None, init=False, repr=False)

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

    @classmethod
    def of_atoms(cls, support: "Dataset", ids) -> "Dataset":
        """The points ``support.take(ids)``, carrying ``ids`` as their atom
        ids; x, y and the ids are read-only, every id in [0, ``support.n``)."""
        return cls._of_checked_atoms(support, _atom_ids(support, ids))

    @classmethod
    def _of_checked_atoms(cls, support: "Dataset", ids: np.ndarray) -> "Dataset":
        """:meth:`of_atoms` on ids that :func:`_atom_ids` has already given.
        The points are rows of ``support``, whose x and y are checked, so
        ``__post_init__`` is not run again."""
        data = cls.__new__(cls)
        data.x = support.x[ids]
        data.y = None if support.y is None else support.y[ids]
        for a in (data.x, data.y):
            if a is not None:
                a.flags.writeable = False
        data.atom_ids, data.support = ids, support
        return data

    @property
    def n(self) -> int:
        return len(self.x)

    def take(self, indices) -> "Dataset":
        """Sub-dataset at the given positions (copy); a dataset with atom
        ids keeps the ids at those positions and the same support."""
        idx = np.asarray(indices)
        if self.atom_ids is not None:
            return Dataset.of_atoms(self.support, self.atom_ids[idx])
        return Dataset(
            x=self.x[idx].copy(), y=None if self.y is None else self.y[idx].copy()
        )


class DatasetBlock:
    """T datasets of n points each, drawn from the discrete law whose
    ``support`` they share, stored as one read-only (T, n) array of atom ids.
    It is a sequence of T datasets (``len``, indexing, iteration), and the
    one form a batch of datasets takes; every id lies in [0, ``support.n``).

    Item i is ``Dataset.of_atoms(support, atom_ids[i])``, built only when it
    is asked for and without checking its ids again; :func:`risk_rows` of a
    0/1 loss, and so :func:`objective_rows` and the exponential mechanism's
    ``law_rows``, read the ids directly and build no dataset.
    """

    def __init__(self, support: Dataset, atom_ids) -> None:
        ids = _atom_ids(support, atom_ids)
        if ids.ndim != 2:
            raise ValueError(f"expected one row of atom ids per dataset, got shape {ids.shape}")
        self.support, self.atom_ids = support, ids

    @property
    def n(self) -> int:
        """Points per dataset."""
        return self.atom_ids.shape[1]

    def __len__(self) -> int:
        return len(self.atom_ids)

    def __getitem__(self, i) -> Dataset:
        return Dataset._of_checked_atoms(self.support, self.atom_ids[operator.index(i)])

    def counts(self) -> np.ndarray:
        """The (T, ``support.n``) atom counts of every row, from one
        ``bincount`` (row i's ids offset by i * ``support.n``)."""
        t, k = len(self), self.support.n
        keys = (self.atom_ids + (np.arange(t) * k)[:, None]).ravel()
        return np.bincount(keys, minlength=t * k).reshape(t, k)

    def columns(self, indices) -> "DatasetBlock":
        """Every dataset taken at the same positions: item i is
        ``self[i].take(indices)``."""
        return DatasetBlock(self.support, self.atom_ids[:, indices])


def _unique_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(counts, axis=0, return_inverse=True)`` for a 2-d integer
    array: the distinct rows in ascending lexicographic order, and the index
    of each row among them.  One ``lexsort`` over the columns, which is
    several times faster than ``unique``'s sort of the rows as records."""
    order = np.lexsort(counts.T[::-1])
    ordered = counts[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    rows = np.empty(len(ordered), dtype=np.intp)
    rows[order] = np.cumsum(first) - 1
    return ordered[first], rows


def _zero_reg_vector(n: int, payloads: np.ndarray) -> np.ndarray:
    return np.zeros(len(payloads))


def _zero_zeta(n: int) -> float:
    return 0.0


@dataclass(eq=False)
class Problem:
    """A bounded-loss learning problem.

    ``loss_matrix(payloads, dataset)`` returns the (k, n) losses of the k
    hypotheses whose parameter vectors are the rows of the (k, dimension)
    array ``payloads``, in any memory layout (the threshold loss is
    F-ordered); a reader whose float result depends on the order of its
    sums fixes the layout itself, as :func:`population_risk_vector` and
    the stability audit do with ``np.ascontiguousarray``.
    ``reg_vector(n, payloads)`` returns their k regularizer values at
    sample size n.  ``zeta(n)`` is sup over hypotheses of the regularizer
    magnitude at sample size n.
    """

    name: str
    dimension: int
    loss_matrix: Callable
    reg_vector: Callable = _zero_reg_vector
    zeta: Callable = _zero_zeta


@dataclass(eq=False)
class DataDistribution:
    """Distribution over points, discrete (enumerable atoms) or continuous.

    A discrete law builds its ``support``, the atoms as one read-only
    :class:`Dataset`, once at construction; the datasets it draws carry
    their atom ids into it.
    """

    kind: str
    x_atoms: np.ndarray | None = None
    y_atoms: np.ndarray | None = None
    probs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    theta: float | None = None
    support: Dataset | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.discrete:
            self.support = self.atoms()
            for a in (self.support.x, self.support.y):
                if a is not None:
                    a.flags.writeable = False

    @property
    def discrete(self) -> bool:
        return self.x_atoms is not None

    def atoms(self) -> Dataset:
        if not self.discrete:
            raise ValueError(f"{self.kind} distribution has no finite support")
        return Dataset(x=self.x_atoms.copy(), y=None if self.y_atoms is None else self.y_atoms.copy())

    def datasets_at(self, u: np.ndarray) -> DatasetBlock:
        """The block of datasets of a discrete law, one per row of the 2-d
        ``u``, whose point j of dataset i is drawn by the uniform ``u[i, j]``.
        Every uniform of the block is mapped in one ``categorical`` call,
        which maps each uniform on its own: item i is ``dataset_at(u[i])``,
        and the dataset at ``u[i, idx]`` is the one at ``u[i]`` taken at
        ``idx``."""
        if not self.discrete:
            raise ValueError(f"{self.kind} distribution has no finite support")
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise ValueError(f"expected one row of uniforms per dataset, got shape {u.shape}")
        ids = categorical(self.probs, u.ravel()).reshape(u.shape)
        return DatasetBlock(self.support, ids)

    def dataset_at(self, u: np.ndarray) -> Dataset:
        """The dataset of a discrete law whose point i is drawn by the uniform
        ``u[i]``: item 0 of the one-row :meth:`datasets_at`."""
        return self.datasets_at(np.asarray(u)[None])[0]

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        if self.discrete:
            return self.dataset_at(rng.random(n))
        x = rng.uniform(self.lower, self.upper, size=(n, len(self.lower)))
        if x.shape[1] == 1:
            x = x[:, 0]
        return Dataset(x=x, y=(x > self.theta).astype(float))


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


def _loss_table(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> np.ndarray:
    losses = problem.loss_matrix(space.payloads, dataset)
    if losses.shape != (space.size, dataset.n):
        raise ValueError(
            f"loss matrix shape {losses.shape}, expected {(space.size, dataset.n)}"
        )
    if not np.isfinite(losses).all():
        raise ValueError("loss matrix contains non-finite entries")
    return losses


def risk_rows(problem: Problem, space: FiniteHypothesisSpace, block: DatasetBlock) -> np.ndarray:
    """Empirical risk of every hypothesis on each dataset of a
    :class:`DatasetBlock`, as the rows of a (T, |H|) array.

    The losses are evaluated once, on the atoms present in the block, and
    :meth:`DatasetBlock.counts` counts every row.  If that table is all 0/1
    (+0.0 or 1.0), row i is counts_i @ table.T / n: its sums are exact
    integers, so it equals :func:`risk_vector` of item i bit for bit.  This assumes, as every shipped loss does, that a point's loss does
    not depend on the other points.  Any other table falls back to
    :func:`risk_vector` item by item, because its sums depend on the order of
    the points.
    """
    if not isinstance(block, DatasetBlock):
        raise TypeError("risk_rows takes one DatasetBlock (risk_vector takes one Dataset), "
                        f"got {type(block).__name__}")
    support, counts = block.support, block.counts()
    present = np.flatnonzero(counts.any(axis=0))
    atoms = Dataset(x=support.x[present], y=None if support.y is None else support.y[present])
    table = _loss_table(problem, space, atoms)
    # A -0.0 entry is left to the loss path, where a sum of -0.0s keeps its
    # sign.
    if ((table == 1.0) | ((table == 0.0) & ~np.signbit(table))).all():
        return (counts[:, present].astype(float) @ table.T) / block.n
    return np.array([risk_vector(problem, space, d) for d in block])


def risk_vector(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> np.ndarray:
    """Empirical risk of every hypothesis: the mean of ``loss_matrix`` over
    the dataset's points."""
    return _loss_table(problem, space, dataset).mean(axis=1)


def _regularized(problem: Problem, space: FiniteHypothesisSpace, risks, n: int) -> np.ndarray:
    """The risks plus the regularizer at sample size n, checked finite."""
    risks += problem.reg_vector(n, space.payloads)
    if not np.isfinite(risks).all():
        raise ValueError("objective contains non-finite values")
    return risks


def objective_rows(problem: Problem, space: FiniteHypothesisSpace, block: DatasetBlock) -> np.ndarray:
    """Regularized objective of every hypothesis on each dataset of a
    :class:`DatasetBlock`, as the rows of a (T, |H|) array: the
    :func:`risk_rows` plus one regularizer row, at the block's one size."""
    return _regularized(problem, space, risk_rows(problem, space, block), block.n)


def objective_vector(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> np.ndarray:
    """Regularized objective for every hypothesis: :func:`risk_vector` plus
    the regularizer."""
    return _regularized(problem, space, risk_vector(problem, space, dataset), dataset.n)


def erm(problem: Problem, space: FiniteHypothesisSpace, dataset: Dataset) -> int:
    """Id of the objective minimizer; exact ties resolve to the lowest id."""
    return int(np.argmin(objective_vector(problem, space, dataset)))


def population_risk_vector(
    problem: Problem, space: FiniteHypothesisSpace, distribution: DataDistribution
) -> np.ndarray:
    """Exact population risk of every hypothesis (discrete distributions).

    The loss table is taken in C order first, so the float sums of the
    product with ``probs`` run in one order whatever layout
    ``loss_matrix`` returns.
    """
    if not distribution.discrete:
        raise ValueError("exact population risk needs an enumerable support")
    losses = np.ascontiguousarray(problem.loss_matrix(space.payloads, distribution.support))
    return losses @ distribution.probs


# ---------------------------------------------------------------------------
# packed hard instances


@dataclass(eq=False)
class PackedFamily:
    """Family of threshold datasets that no single private learner fits."""

    datasets: list
    thresholds: np.ndarray
    eta: float
    count: int


def packed_datasets(epsilon: float, n: int) -> PackedFamily:
    """K = ceil(e^(eps*n)) labeled datasets packed into [0,1], refused with
    SizeLimitError past ``PACKING_CAP`` (or past the float range).

    With eta = 1/K, threshold i sits at (i + 1/2) * eta; dataset i holds
    floor(n/2) copies of h_i - eta/6 labeled 0 and ceil(n/2) copies of
    h_i + eta/6 labeled 1, so threshold i classifies its own dataset
    perfectly while the surrounding intervals [h_i +- eta/3] stay disjoint.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    try:
        count_exact = math.exp(epsilon * n)
    except OverflowError:
        count_exact = math.inf
    if count_exact > PACKING_CAP:
        raise SizeLimitError(
            f"packing needs ceil(e^(eps*n)) = ceil({count_exact:.3g}) datasets, "
            f"above the cap of {PACKING_CAP}"
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


def _probe_unit_range(problem: Problem, space: FiniteHypothesisSpace, draw_points) -> None:
    # Constructor-time A1 check on every pair of 64 seeded random hypotheses
    # and 64 seeded random points; draw_points(rng, m) returns a dataset of m
    # points.
    rng = np.random.default_rng(12345)
    ids = rng.integers(0, space.size, size=64)
    losses = problem.loss_matrix(space.payloads[ids], draw_points(rng, 64))
    outside = ~((losses >= 0.0) & (losses <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(
            f"{problem.name}: loss {losses[outside][0]} outside [0,1] for a probed pair"
        )


def _unit_points(rng, m):
    return Dataset(x=rng.uniform(0.0, 1.0, size=m))


def threshold_classification(resolution: int = 32) -> tuple[Problem, FiniteHypothesisSpace]:
    """0-1 loss threshold classifiers h(x) = 1(x > h) on a grid of [0, 1]."""
    space = discretize_box(GridSpec((0.0,), (1.0,), (resolution,)))

    def loss_matrix(payloads, dataset):
        # Hypothesis-major: the comparisons run along the k hypotheses (65,536
        # against 3 points in the counterexample sweep), and the (k, n)
        # result is the transpose, F-ordered.
        pred = dataset.x[:, None] > payloads[:, 0]
        return (pred != (dataset.y[:, None] > 0.5)).astype(float).T

    problem = Problem(
        name="threshold_classification", dimension=1, loss_matrix=loss_matrix
    )
    _probe_unit_range(
        problem,
        space,
        lambda rng, m: Dataset(
            x=rng.uniform(0.0, 1.0, size=m), y=rng.integers(0, 2, size=m)
        ),
    )
    return problem, space


def linear_logistic(d: int = 1, resolution: int = 16) -> tuple[Problem, FiniteHypothesisSpace]:
    """Logistic loss of linear scores w.x on the weight box [-1,1]^d, with
    the regularizer ``LOGISTIC_LAM`` |w|^2 / sqrt(n).

    The raw loss log(1 + exp(-(2y-1) w.x)) over x in [0,1]^d is divided by
    its exact maximum log(1 + exp(d)), so values stay in (0, 1] and the
    Lipschitz constant in w is sqrt(d) / log(1 + exp(d)).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    scale = math.log1p(math.exp(d))
    space = discretize_box(GridSpec((-1.0,) * d, (1.0,) * d, (resolution,) * d))
    max_norm2 = float(np.max(np.sum(space.payloads**2, axis=1)))

    def loss_matrix(payloads, dataset):
        x = dataset.x if dataset.x.ndim == 2 else dataset.x[:, None]
        scores = payloads @ x.T
        sign = 2.0 * dataset.y[None, :] - 1.0
        return np.logaddexp(0.0, -sign * scores) / scale

    def reg_vector(n, payloads):
        return LOGISTIC_LAM * np.sum(payloads**2, axis=1) / math.sqrt(n)

    problem = Problem(
        name="linear_logistic",
        dimension=d,
        loss_matrix=loss_matrix,
        reg_vector=reg_vector,
        zeta=lambda n: LOGISTIC_LAM * max_norm2 / math.sqrt(n),
    )
    _probe_unit_range(
        problem,
        space,
        lambda rng, m: Dataset(
            x=rng.uniform(0.0, 1.0, size=(m, d)), y=rng.integers(0, 2, size=m)
        ),
    )
    return problem, space


def pth_power_mean(resolution: int = 64) -> tuple[Problem, FiniteHypothesisSpace]:
    """Location estimation on [0,1] with loss |x - h|^p, p = ``PTH_POWER``
    read at call time (no regularizer)."""
    space = discretize_box(GridSpec((0.0,), (1.0,), (resolution,)))

    def loss_matrix(payloads, dataset):
        return np.abs(dataset.x[None, :] - payloads[:, 0, None]) ** PTH_POWER

    problem = Problem(name="pth_power_mean", dimension=1, loss_matrix=loss_matrix)
    _probe_unit_range(problem, space, _unit_points)
    return problem, space


def finite_support_estimation(
    cells: int = 8, max_subset_size: int = 3
) -> tuple[Problem, FiniteHypothesisSpace]:
    """Support estimation on [0,1]: h is a union of grid cells, loss 1(z not in h).

    Hypotheses are all cell subsets of size <= max_subset_size (a finite
    stand-in for arbitrary finite supports), by size and then in
    lexicographic order; a hypothesis's payload is its 0/1 membership row
    over the cells.
    """
    if cells < 1 or cells > 50:
        raise ValueError(f"cells must be in 1..50, got {cells}")
    if not 0 <= max_subset_size <= cells:
        raise ValueError(f"max_subset_size must be in 0..{cells}")
    subsets = [
        subset
        for size in range(max_subset_size + 1)
        for subset in itertools.combinations(range(cells), size)
    ]
    payloads = np.zeros((len(subsets), cells))
    rows = np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets])
    payloads[rows, np.fromiter(itertools.chain(*subsets), dtype=np.intp)] = 1.0
    space = FiniteHypothesisSpace(payloads=payloads, measure=np.ones(len(subsets)))

    def loss_matrix(payloads, dataset):
        cell = np.minimum((dataset.x * cells).astype(int), cells - 1)
        return 1.0 - payloads[:, cell]

    problem = Problem(
        name="finite_support_estimation", dimension=cells, loss_matrix=loss_matrix
    )
    _probe_unit_range(problem, space, _unit_points)
    return problem, space


PROBLEM_BUILDERS = {
    "threshold": threshold_classification,
    "logistic": linear_logistic,
    "pth-power": pth_power_mean,
    "finite-support": finite_support_estimation,
}
