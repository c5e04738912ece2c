"""Exact privacy audits, stability and risk-gap measurements, and the
counterexample and phase-transition studies.

The functions here only measure; every verdict, and every claimed bound a
measurement is held to, lives in the drivers of :mod:`dperm.experiments`.
The audits measure the privacy loss of a mechanism's exact output laws on
enumerated (or sampled) neighboring datasets.  Neighbors differ in exactly
one point drawn from a finite universe of atoms; each is
``Dataset.of_atoms(universe, ids)``.
Every shipped mechanism's law depends on the dataset only through its
multiset of points (objectives are averages), and a multiset over one
universe is its vector of atom counts.  Each audit call reads its pairs
once and builds one law matrix: a row per distinct count vector, all built
by one ``mechanism.law_rows`` call over a ``DatasetBlock``, in
``(rows x |H|)`` arrays.  The audits map each pair to two rows and compute
the gaps of all pairs with array operations, one fixed-size block of pairs
at a time; exact consistency reads the same vectors as ``DatasetBlock`` rows.
Every law is exact: a law too large to build raises
:class:`dperm.spaces.SizeLimitError`, which ends the audit that asked for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .mechanisms import (
    Mechanism,
    em_scale,
    exponential_mechanism,
)
from .problems import (
    DataDistribution,
    Dataset,
    DatasetBlock,
    _unique_rows,
    labeled_threshold,
    objective_vector,
    packed_datasets,
    population_risk_vector,
    risk_rows,
    risk_vector,
    threshold_classification,
)
from .draws import reseeded_generators, uniform_rows
from .seeding import spawn_seed, spawn_seeds
from .spaces import SizeLimitError, sublevel_set

NEIGHBOR_PAIR_CAP = 2 * 10**5
# Id cells (rows x n) of exact consistency's multisets or of exhaustive pairs.
ENUMERATION_CAP = 10**7
# Random neighbor pairs of the stability audit when exhaustive_neighbor_pairs
# refuses the exhaustive ones.
STABILITY_SAMPLES = 200
# Expected count below which chi_square_gof pools a bin.
GOF_MIN_EXPECTED = 5.0
# Pairs per audit block times |H|: bounds the audits' working arrays.
AUDIT_BLOCK_CELLS = 2**16
# Monte Carlo trials whose laws and risks are built as the rows of one
# array: bounds that array whatever the trial count.
TRIAL_BLOCK = 128


# ---------------------------------------------------------------------------
# Neighbor enumeration


def _pair_refusal(u: int, n: int) -> Optional[str]:
    """Why :func:`exhaustive_neighbor_pairs` refuses size-n multisets over
    u atoms, or None: past ``NEIGHBOR_PAIR_CAP`` ordered pairs, or past
    ``ENUMERATION_CAP`` id cells in their rows."""
    bound = math.comb(n + u - 1, n) * min(n, u) * (u - 1)
    if bound > NEIGHBOR_PAIR_CAP:
        return f"up to {bound} ordered neighbor pairs exceeds the cap of {NEIGHBOR_PAIR_CAP}"
    if bound * n > ENUMERATION_CAP:
        return f"up to {bound * n} id cells of neighbor pairs exceeds the cap of {ENUMERATION_CAP}"
    return None


def _multisets(u: int, n: int) -> np.ndarray:
    """Every size-n multiset over u atoms as one (rows, n) array: the
    ascending id rows of ``itertools.combinations_with_replacement``, in its
    order."""
    return np.array(list(itertools.combinations_with_replacement(range(u), n)), dtype=np.intp)


def exhaustive_neighbor_pairs(universe: Dataset, n: int) -> Iterator[tuple[Dataset, Dataset]]:
    """All ordered neighbor pairs of size-n datasets over a finite universe.

    Datasets are enumerated as multisets of universe atoms, which is lossless
    for the mechanisms in this package (their laws ignore point order).  For
    every multiset and every atom it contains, one occurrence is replaced by
    each other atom; iterating all multisets therefore produces each ordered
    pair exactly once in each direction.  The multisets are the rows of
    :func:`_multisets`, in order; the first occurrence of each atom is
    replaced, by each other atom in ascending order.  The left and the right
    id rows of every pair are built as two arrays and checked once, as two
    :class:`DatasetBlock` s; each pair is an item of each, and a multiset's
    run of pairs shares one left dataset.

    Raises SizeLimitError when the ordered-pair count would exceed
    ``NEIGHBOR_PAIR_CAP``, or their id cells ``ENUMERATION_CAP``, before
    any array is built.
    """
    u = universe.n
    if n < 1 or u < 2:
        raise ValueError("need n >= 1 and a universe of at least two atoms")
    refusal = _pair_refusal(u, n)
    if refusal:
        raise SizeLimitError(refusal)
    multisets = _multisets(u, n)
    first = np.ones(multisets.shape, dtype=bool)
    first[:, 1:] = multisets[:, 1:] != multisets[:, :-1]
    # One pair per first occurrence and other atom: u - 1 in a row.
    rows, slots = (np.repeat(index, u - 1) for index in np.nonzero(first))
    swap = np.tile(np.arange(u - 1), len(rows) // (u - 1))
    swap += swap >= multisets[rows, slots]
    swapped = multisets[rows]
    swapped[np.arange(len(rows)), slots] = swap
    rights = iter(DatasetBlock(universe, swapped))
    runs = first.sum(axis=1) * (u - 1)
    for left, run in zip(DatasetBlock(universe, multisets), runs.tolist()):
        for _ in range(run):
            yield left, next(rights)


def sampled_neighbor_pairs(
    universe: Dataset, n: int, count: int, seed: int
) -> Iterator[tuple[Dataset, Dataset]]:
    """``count`` random neighbor pairs, each yielded in both orders, as
    ``Dataset.of_atoms(universe, ids)`` with the ids in drawn order."""
    u = universe.n
    if n < 1 or u < 2:
        raise ValueError("need n >= 1 and a universe of at least two atoms")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ids = rng.integers(0, u, size=n)
        pos = int(rng.integers(0, n))
        b = int(rng.integers(0, u - 1))
        if b >= ids[pos]:
            b += 1
        swapped = ids.copy()
        swapped[pos] = b
        first = Dataset.of_atoms(universe, ids)
        second = Dataset.of_atoms(universe, swapped)
        yield first, second
        yield second, first


def _audit_laws(
    mechanism: Mechanism, pairs: Iterable[tuple[Dataset, Dataset]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Dataset]:
    """Read ``pairs`` once and return the law matrix of their multisets, as
    (probabilities, log-probabilities), with the left and right row of
    every pair and the support their datasets share.

    Every dataset must carry atom ids (:meth:`Dataset.of_atoms`) into one
    support and have one size.  A multiset is then its vector of atom
    counts, so datasets that differ only in point order share a row.  The
    rows are the distinct count vectors in ascending order, and
    ``mechanism.law_rows`` builds their laws on the atoms in id order, in
    one call.
    """
    if mechanism.law is None:
        raise ValueError(f"mechanism {mechanism.name!r} has no exact law to audit")
    lefts: list[Dataset] = []
    rights: list[Dataset] = []
    run: list[int] = []  # each pair's left dataset, an index into lefts
    last = None
    for a, b in pairs:
        # Enumerators hand out one left dataset for a run of pairs.
        if a is not last:
            last = a
            lefts.append(a)
        run.append(len(lefts) - 1)
        rights.append(b)
    if not rights:
        raise ValueError("no neighbor pairs were supplied")
    datasets = lefts + rights
    support = datasets[0].support
    if support is None or len({d.support for d in datasets}) > 1:
        raise ValueError("an audit keys a dataset by its atom counts: it "
                         "needs atom ids (Dataset.of_atoms) into one support")
    ids = [d.atom_ids for d in datasets]
    sizes = {len(i) for i in ids}
    if len(sizes) > 1:
        raise ValueError(f"an audit needs datasets of one size, got sizes {sorted(sizes)}")
    counts = DatasetBlock(support, np.concatenate(ids).reshape(len(ids), -1)).counts()
    vectors, rows = _unique_rows(counts)
    atoms = np.repeat(np.tile(np.arange(support.n), len(vectors)), vectors.ravel())
    p, logp = mechanism.law_rows(DatasetBlock(support, atoms.reshape(len(vectors), -1)))
    return p, logp, rows[run], rows[len(lefts):], support


# ---------------------------------------------------------------------------
# Privacy audits


@dataclass(frozen=True)
class PureAuditReport:
    """Worst pointwise log-likelihood ratio found over the probed pairs."""

    max_log_ratio: float
    pairs_probed: int
    witness: Optional[dict] = None


@dataclass(frozen=True)
class ApproxAuditReport:
    """Largest realized delta at a fixed epsilon over the probed pairs."""

    epsilon: float
    realized_delta: float
    pairs_probed: int
    witness: Optional[dict] = None


def audit_pure_dp(
    mechanism: Mechanism, pairs: Iterable[tuple[Dataset, Dataset]]
) -> PureAuditReport:
    """Exact pure-DP audit: max over pairs and hypotheses of |log P - log Q|.

    A hypothesis with mass under one law and none under the other realizes an
    infinite ratio and is reported as such; zero-zero entries carry no
    evidence and are skipped.
    """
    p, logp, left_rows, right_rows, _ = _audit_laws(mechanism, pairs)
    step = max(1, AUDIT_BLOCK_CELLS // p.shape[1])
    worst = 0.0
    witness: Optional[dict] = None
    for first in range(0, len(left_rows), step):
        block = slice(first, first + step)
        left, right = left_rows[block], right_rows[block]
        lp, lq = logp[left], logp[right]
        with np.errstate(invalid="ignore"):
            gaps = np.abs(lp - lq)
        gaps[np.isneginf(lp) & np.isneginf(lq)] = 0.0
        hids = gaps.argmax(axis=1)
        values = gaps[np.arange(len(hids)), hids]
        j = int(values.argmax())
        # Strict: the witness is the first pair that reaches the maximum.
        if witness is None or values[j] > worst:
            worst = float(values[j])
            hid = int(hids[j])
            witness = {
                "pair_index": first + j,
                "hypothesis_id": hid,
                "log_ratio": worst,
                "p": float(p[left[j], hid]),
                "q": float(p[right[j], hid]),
            }
    return PureAuditReport(max_log_ratio=worst, pairs_probed=len(left_rows),
                           witness=witness)


def audit_approx_dp(
    mechanism: Mechanism,
    pairs: Iterable[tuple[Dataset, Dataset]],
    epsilon: float,
) -> ApproxAuditReport:
    """Exact approximate-DP audit at a fixed epsilon.

    For each ordered pair the realized delta is sum_h max(0, P(h) - e^eps Q(h));
    the report keeps the maximum.  Direction matters, so callers must supply
    ordered pairs covering both orientations (the enumerators here do).
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    p, _, left_rows, right_rows, _ = _audit_laws(mechanism, pairs)
    step = max(1, AUDIT_BLOCK_CELLS // p.shape[1])
    factor = math.exp(epsilon)
    worst = -1.0
    witness: Optional[dict] = None
    for first in range(0, len(left_rows), step):
        block = slice(first, first + step)
        values = np.clip(p[left_rows[block]] - factor * p[right_rows[block]], 0.0, None).sum(axis=1)
        j = int(values.argmax())
        if values[j] > worst:
            worst = float(values[j])
            witness = {"pair_index": first + j, "realized_delta": worst}
    return ApproxAuditReport(epsilon=epsilon, realized_delta=worst,
                             pairs_probed=len(left_rows), witness=witness)


def stability_audit(
    mechanism: Mechanism, pairs: Iterable[tuple[Dataset, Dataset]]
) -> float:
    """Exact replace-one stability: the largest shift in expected loss at any
    point z of the pairs' support when one dataset point is swapped.

    Returns sup over pairs and atoms z of |E_P loss(h, z) - E_Q loss(h, z)|.
    """
    if mechanism.problem is None or mechanism.space is None:
        raise ValueError("stability audit needs a mechanism bound to a problem")
    p, _, left_rows, right_rows, support = _audit_laws(mechanism, pairs)
    step = max(1, AUDIT_BLOCK_CELLS // p.shape[1])
    # C order fixes the summation order of the products below, whatever
    # layout loss_matrix returns.
    losses = np.ascontiguousarray(
        mechanism.problem.loss_matrix(mechanism.space.payloads, support)
    )
    worst = 0.0
    for first in range(0, len(left_rows), step):
        block = slice(first, first + step)
        diff = p[left_rows[block]] - p[right_rows[block]]
        # A stack of one-row products: each matches a lone diff @ losses bit
        # for bit, which one (pairs x |H|) product does not.
        shifts = np.matmul(diff[:, None, :], losses)
        worst = max(worst, float(np.abs(shifts).max()))
    return worst


# ---------------------------------------------------------------------------
# Risk gaps


def aerm_gap(mechanism: Mechanism, dataset: Dataset) -> float:
    """Exact expected suboptimality in empirical risk under the output law."""
    if mechanism.problem is None or mechanism.space is None:
        raise ValueError("aerm gap needs a mechanism bound to a problem")
    law = mechanism.law(dataset)
    risks = risk_vector(mechanism.problem, mechanism.space, dataset)
    return law.expectation(risks) - float(risks.min())


def aerm_bound(
    n: int, epsilon: float, sublevel_k: float, sublevel_rho: float, zeta_n: float
) -> float:
    """Universal suboptimality bound for the exponential-mechanism learner:

        9 [ (rho + 2) ln n + ln K ] / (n epsilon) + 2 zeta(n)

    valid for n >= 2 given a sublevel condition with constants (K, rho) and a
    regularizer ceiling zeta(n).  On a finite space with counting measure the
    condition always holds at K = |H|, rho = 0.
    """
    if n < 2:
        raise ValueError(f"the bound needs n >= 2, got {n}")
    if epsilon <= 0 or sublevel_k < 1:
        raise ValueError("epsilon must be positive and K at least 1")
    return (
        9.0 * ((sublevel_rho + 2.0) * math.log(n) + math.log(sublevel_k))
        / (n * epsilon)
        + 2.0 * zeta_n
    )


def aerm_bound_stated(
    n: int, epsilon: float, sublevel_k: float, sublevel_rho: float, zeta_n: float
) -> float:
    """Companion form with the sign of the ln K term flipped and a single
    zeta, kept so reports can show both readings side by side.  The checked
    bound is :func:`aerm_bound`, which is the self-consistent one."""
    if n < 2:
        raise ValueError(f"the bound needs n >= 2, got {n}")
    if epsilon <= 0 or sublevel_k < 1:
        raise ValueError("epsilon must be positive and K at least 1")
    return (
        9.0 * ((sublevel_rho + 2.0) * math.log(n) + math.log(1.0 / sublevel_k))
        / (n * epsilon)
        + zeta_n
    )


@dataclass(frozen=True)
class TailCheckRow:
    t: float
    tail_mass: float
    bound: float


def utility_tail_check(
    mechanism: Mechanism, dataset: Dataset, t_grid: Sequence[float]
) -> list[TailCheckRow]:
    """The tail mass P[objective(H) > min + 2t] at each t, and its bound
    ratio(t) * exp(-em_scale(eps, n) t).

    ``ratio(t)`` is the inverse relative measure of the t-sublevel set of the
    realized objective, so both sides are computed exactly from the law.
    Requires a pure claimed budget (the exponent uses claimed epsilon).
    """
    if mechanism.problem is None or mechanism.space is None:
        raise ValueError("the tail check needs a mechanism bound to a problem")
    budget = mechanism.claimed_budget(dataset.n)
    if not budget.pure:
        raise ValueError("the tail bound is stated for pure budgets only")
    values = objective_vector(mechanism.problem, mechanism.space, dataset)
    law = mechanism.law(dataset)
    best = float(values.min())
    scale = em_scale(budget.epsilon, dataset.n)
    rows = []
    for t in t_grid:
        if t <= 0:
            raise ValueError(f"t values must be positive, got {t}")
        report = sublevel_set(mechanism.space, values, float(t))
        tail = float(law.probabilities[values > best + 2.0 * t].sum())
        rows.append(TailCheckRow(t=float(t), tail_mass=tail,
                                 bound=report.ratio * math.exp(-scale * float(t))))
    return rows


# ---------------------------------------------------------------------------
# Consistency suite


@dataclass(frozen=True)
class GapReport:
    """Stability, AERM, generalization, and excess-risk gaps for one
    mechanism, dataset size, and sampling distribution.

    In exact mode every expectation is a finite sum over datasets and the
    standard errors are zero; in Monte Carlo mode gaps carry standard errors.
    """

    mode: str
    n: int
    trials: int
    excess_risk: float
    generalization_gap: float
    aerm_gap: float
    stability_gap: float
    excess_se: float
    generalization_se: float
    aerm_se: float


def consistency_suite(
    mechanism: Mechanism,
    distribution: DataDistribution,
    n: int,
    mode: str = "exact",
    trials: int = 200,
    seed: int = 0,
) -> GapReport:
    """Measure the chain from stability to excess risk on one configuration.

    Both modes take the excess, generalization and AERM gaps of each dataset
    from one ``law_rows`` and one ``risk_rows`` call per block of
    ``TRIAL_BLOCK`` datasets, each mean a dot product ``p @ values`` of a
    law row (BLAS, as the committed CSVs were written).

    Exact mode reads every size-n multiset over the distribution's atoms
    (:func:`_multisets`, at most ``ENUMERATION_CAP`` id cells), weights each
    by its exact multinomial probability, rounded once, and sums weight x gap
    one multiset at a time in enumeration order.  Monte Carlo mode averages
    the same gaps over ``trials`` sampled datasets, with standard errors.
    Both modes require a discrete distribution so population risks are exact
    sums.  The stability gap is exact over every neighbor pair while
    :func:`exhaustive_neighbor_pairs` takes them, and over
    ``STABILITY_SAMPLES`` random pairs past its caps.
    """
    if mechanism.problem is None or mechanism.space is None or mechanism.law is None:
        raise ValueError("the consistency suite needs a problem-bound mechanism with a law")
    if not distribution.discrete:
        raise ValueError("exact population risks need a discrete distribution")
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    problem, space = mechanism.problem, mechanism.space
    universe = distribution.support
    pop = population_risk_vector(problem, space, distribution)
    best_pop = float(pop.min())

    if mode == "exact":
        cells = math.comb(n + universe.n - 1, n) * n
        if cells > ENUMERATION_CAP:
            raise SizeLimitError(f"multiset enumeration of {cells} id cells exceeds "
                                 f"the cap of {ENUMERATION_CAP}; use mode='mc'")
        multisets = _multisets(universe.n, n)
        count = len(multisets)

        def block_at(rows: range) -> DatasetBlock:
            return DatasetBlock(universe, multisets[rows.start:rows.stop])
    else:
        if trials < 2:
            raise ValueError(f"mc mode needs trials >= 2, got {trials}")
        count = trials

        def block_at(rows: range) -> DatasetBlock:
            # distribution.sample(n, trial_rng(seed, t)) for each trial t.
            return distribution.datasets_at(
                uniform_rows(spawn_seeds(seed, np.arange(rows.start, rows.stop)), n))

    gaps = np.empty((count, 3))  # excess, generalization, aerm
    for start in range(0, count, TRIAL_BLOCK):
        rows = range(start, min(start + TRIAL_BLOCK, count))
        block = block_at(rows)
        p = mechanism.law_rows(block)[0]
        emp = risk_rows(problem, space, block)
        for i, t in enumerate(rows):
            mean_pop = float(p[i] @ pop)
            mean_emp = float(p[i] @ emp[i])
            gaps[t] = mean_pop - best_pop, mean_pop - mean_emp, mean_emp - float(emp[i].min())

    if mode == "exact":
        # The weight of counts c is the float of n! prod_i p_i^c_i / c_i!,
        # each p_i = num_i / den_i its exact binary value: int / int rounds
        # once, where a float coefficient overflows past n = 170 and 0.5^n
        # underflows past n = 1074.
        ratios = [p.as_integer_ratio() for p in distribution.probs.tolist()]
        counts = DatasetBlock(universe, multisets).counts().tolist()
        excess = gen = aerm = mass = 0.0
        # Summed one multiset at a time, in enumeration order.
        for c, (e, g, a) in zip(counts, gaps.tolist()):
            weight = (math.factorial(n) * math.prod(num**k for (num, _), k in zip(ratios, c))
                      / math.prod(math.factorial(k) * den**k for (_, den), k in zip(ratios, c)))
            excess += weight * e
            gen += weight * g
            aerm += weight * a
            mass += weight
        if abs(mass - 1.0) > 1e-9:
            raise AssertionError(f"multiset weights sum to {mass}, not 1")
        se_e = se_g = se_a = 0.0
        trials_used = 0
    else:
        excess, gen, aerm = gaps.mean(axis=0).tolist()
        se_e, se_g, se_a = (gaps.std(axis=0, ddof=1) / math.sqrt(trials)).tolist()
        trials_used = trials

    if _pair_refusal(universe.n, n) is None:
        pairs = exhaustive_neighbor_pairs(universe, n)
    else:
        pairs = sampled_neighbor_pairs(
            universe, n, STABILITY_SAMPLES, spawn_seed(seed, 2**31)
        )
    return GapReport(
        mode=mode,
        n=n,
        trials=trials_used,
        excess_risk=excess,
        generalization_gap=gen,
        aerm_gap=aerm,
        stability_gap=stability_audit(mechanism, pairs),
        excess_se=se_e,
        generalization_se=se_g,
        aerm_se=se_a,
    )


# ---------------------------------------------------------------------------
# Counterexample and phase-transition studies


@dataclass(frozen=True)
class CounterexampleRow:
    resolution: int
    max_gap: float
    argmax_dataset: int
    ratio: float


@dataclass(frozen=True)
class CounterexampleResult:
    """Worst-case AERM gaps of the private learner on the packed family,
    swept over grid resolutions; each row's ``ratio`` is ln(resolution) /
    em_scale(epsilon, n)."""

    epsilon: float
    n: int
    rows: tuple[CounterexampleRow, ...]


def counterexample_experiment(
    epsilon: float,
    n: int,
    resolutions: Sequence[int],
) -> CounterexampleResult:
    """Sweep grid resolutions and record the worst AERM gap over the packed
    dataset family for the exponential-mechanism threshold learner.

    The family is built so that every dataset admits a zero-empirical-risk
    threshold, yet under a fixed privacy level the learner's expected
    empirical risk stays bounded away from zero.  The family does not change
    with the grid (K = ceil(e^(epsilon n)) datasets, 21 at the shipped
    epsilon = 1, n = 3), so the gap does not grow with resolution: it
    converges, there to 0.6427798, and wobbles around that value (0.6006 at
    resolution 16, 0.6431 at 256, 0.6428 at 4096).  The driver's monotone
    row of the shipped sweep is therefore red by design, as is
    ``test_c08_gap_growth_monotone``.
    """
    if len(resolutions) < 1 or any(int(g) < 1 for g in resolutions):
        raise ValueError("resolutions must be positive integers")
    family = packed_datasets(epsilon, n)
    rows = []
    for g in resolutions:
        g = int(g)
        problem, space = threshold_classification(resolution=g)
        mech = exponential_mechanism(problem, space, epsilon)
        worst, arg = -1.0, -1
        for i, dataset in enumerate(family.datasets):
            gap = aerm_gap(mech, dataset)
            if gap > worst:
                worst, arg = gap, i
        rows.append(CounterexampleRow(resolution=g, max_gap=worst, argmax_dataset=arg,
                                      ratio=math.log(g) / em_scale(epsilon, n)))
    return CounterexampleResult(epsilon=epsilon, n=n, rows=tuple(rows))


@dataclass(frozen=True)
class PhaseRow:
    rate: float
    n: int
    subsample: int
    mean_excess: float
    stderr: float


def phase_transition_experiment(
    rates: Sequence[float],
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    resolution: int = 257,
    support_size: int = 512,
    theta: float = 0.5,
) -> list[PhaseRow]:
    """Excess population risk of ERM run on a size-ceil(n^(1-r)) subsample.

    At r = 1/2 the subsample still grows with n and learning proceeds; at
    r = 1 the learner sees a single point forever and stalls.  Rows report
    the Monte Carlo mean and standard error of the excess risk for each
    (rate, n) cell; callers decide which comparisons to assert.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    problem, space = threshold_classification(resolution=resolution)
    distribution = labeled_threshold(theta, support_size=support_size)
    pop = population_risk_vector(problem, space, distribution)
    best = float(pop.min())
    rows = []
    for ri, rate in enumerate(rates):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rates must lie in [0, 1], got {rate}")
        for ni, n in enumerate(n_grid):
            m = min(int(math.ceil(n ** (1.0 - rate))), n)
            m = max(m, 1)
            cell_seed = spawn_seed(seed, ri * (len(n_grid) + 1) + ni)
            excesses = np.empty(trials)
            for start in range(0, trials, TRIAL_BLOCK):
                block = range(start, min(start + TRIAL_BLOCK, trials))
                # Row t is the subsample of distribution.sample(n, rng),
                # rng = trial_rng(cell_seed, t), with only the m kept uniforms
                # mapped to points.
                kept = np.empty((len(block), m))
                seeds = spawn_seeds(cell_seed, np.arange(block.start, block.stop))
                for row, rng in zip(kept, reseeded_generators(seeds)):
                    u = rng.random(n)
                    row[:] = u[rng.choice(n, size=m, replace=False)]
                emp = risk_rows(problem, space, distribution.datasets_at(kept))
                excesses[start : start + len(block)] = pop[np.argmin(emp, axis=1)] - best
            rows.append(
                PhaseRow(
                    rate=float(rate),
                    n=int(n),
                    subsample=m,
                    mean_excess=float(excesses.mean()),
                    stderr=float(excesses.std(ddof=1) / math.sqrt(trials)),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Distribution comparison helpers


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("expected two probability vectors of equal length")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12) or abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a probability vector")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class GofResult:
    statistic: float
    pvalue: float
    dof: int
    bins: int


def chi_square_gof(probabilities: np.ndarray, counts: np.ndarray) -> GofResult:
    """Pearson goodness-of-fit of observed counts against an exact law.

    Bins whose expected count falls below ``GOF_MIN_EXPECTED`` are pooled,
    largest-expectation bins kept as-is, so the chi-square approximation
    stays honest.  Needs at least two effective bins after pooling.
    """
    p = np.asarray(probabilities, dtype=float)
    c = np.asarray(counts, dtype=float)
    if p.shape != c.shape or p.ndim != 1:
        raise ValueError("probabilities and counts must be 1-d and aligned")
    draws = float(c.sum())
    if draws <= 0:
        raise ValueError("counts are empty")
    expected = p * draws
    order = np.argsort(expected)[::-1]
    exp_sorted = expected[order]
    obs_sorted = c[order]
    keep = int(np.searchsorted(-exp_sorted, -GOF_MIN_EXPECTED, side="right"))
    if keep < len(exp_sorted):
        pooled_exp = float(exp_sorted[keep:].sum())
        pooled_obs = float(obs_sorted[keep:].sum())
        exp_eff = np.append(exp_sorted[:keep], pooled_exp)
        obs_eff = np.append(obs_sorted[:keep], pooled_obs)
        if pooled_exp < GOF_MIN_EXPECTED and keep >= 1:
            exp_eff[keep - 1] += exp_eff[-1]
            obs_eff[keep - 1] += obs_eff[-1]
            exp_eff, obs_eff = exp_eff[:-1], obs_eff[:-1]
    else:
        exp_eff, obs_eff = exp_sorted, obs_sorted
    positive = exp_eff > 0
    exp_eff, obs_eff = exp_eff[positive], obs_eff[positive]
    if len(exp_eff) < 2:
        raise ValueError("law too concentrated for a goodness-of-fit test")
    # Rescale expectations to the observed total so the test sums match.
    exp_eff = exp_eff * (obs_eff.sum() / exp_eff.sum())
    # scipy.stats takes about 1 s to import and serves only this call, so
    # it is imported here rather than with the package.
    from scipy import stats

    stat, pvalue = stats.chisquare(obs_eff, exp_eff)
    return GofResult(
        statistic=float(stat),
        pvalue=float(pvalue),
        dof=len(exp_eff) - 1,
        bins=len(exp_eff),
    )


def empirical_law_on_grid(
    samples: np.ndarray, lower: float, upper: float, resolution: int
) -> np.ndarray:
    """Histogram scalar samples onto the cells of a uniform grid, as a
    probability vector aligned with ``discretize_box`` cell order."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or len(s) == 0:
        raise ValueError("expected a nonempty 1-d sample array")
    if not (upper > lower) or resolution < 1:
        raise ValueError("need upper > lower and resolution >= 1")
    idx = np.clip(
        np.floor((s - lower) / (upper - lower) * resolution).astype(int),
        0,
        resolution - 1,
    )
    return np.bincount(idx, minlength=resolution) / len(s)


def sample_counts(
    mechanism: Mechanism, dataset: Dataset, draws: int, seed: int
) -> np.ndarray:
    """Histogram of ``draws`` independent outputs over the hypothesis ids.

    Draw i uses seed ``spawn_seed(seed, i)``; all draws go through one
    ``sample_many`` call, so a mechanism whose draws come from its law takes
    them all from one law, and a boost builds each part's base law once.
    """
    if mechanism.space is None:
        raise ValueError("sample_counts needs a finite-space mechanism")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    ids = mechanism.sample_many(dataset, spawn_seeds(seed, np.arange(draws)))
    return np.bincount(ids, minlength=mechanism.space.size)
