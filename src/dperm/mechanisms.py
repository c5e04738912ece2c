"""Randomized learners over finite hypothesis spaces, plus privacy wrappers.

Every mechanism here exposes the same two call paths:

* ``law_rows(block)`` is the one law a mechanism builds: the exact output
  laws of the datasets of a :class:`~dperm.problems.DatasetBlock`, as the
  rows of (T, |H|) probability and log-probability arrays over the
  hypothesis ids of a finite space.  Every law is exact: a law too large
  to build raises :class:`dperm.spaces.SizeLimitError` instead of being
  estimated, so auditing code never sees a sampled law.  ``law(dataset)``,
  a :class:`MechanismDistribution`, is its one-row case on the dataset's
  one-row block: its atom ids over its support or, without ids, its own
  points as the support.
* ``sample_many(data, seeds)`` is the one way a mechanism draws: draw i
  under seed i, on one :class:`~dperm.problems.Dataset` or on item i of a
  block with one row per seed.  Unless a factory gives its own, every draw
  comes from the law: one law for a dataset, the rows of ``law_rows(block)``
  for a block.  Its uniforms come from :func:`dperm.draws.first_uniforms`,
  which gives each seed's ``default_rng(seed).random()`` bit for bit, for a
  block of seeds in one array kernel.  ``sample(dataset, seed)`` is its
  one-row case.  The seed is consumed as-is (callers derive per-trial seeds
  themselves); sub-draws inside composite mechanisms fork the seed through
  :func:`dperm.seeding.spawn_seeds` so the pieces stay independent.

Every draw from a probability vector goes through
:func:`dperm.draws.categorical` with the generator's own uniforms, so it
gives the index that ``Generator.choice(p=...)`` would give.

Budgets are claims, not measurements.  ``budget(n)`` is what the mechanism
promises at dataset size ``n``, read through ``claimed_budget(n)``; the audit
routines in :mod:`dperm.analysis` check those promises against the realized
laws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .draws import categorical, first_uniforms
from .problems import (Dataset, DatasetBlock, Problem, _unique_rows, objective_rows,
                       risk_rows)
from .seeding import spawn_seed, spawn_seeds
from .spaces import FiniteHypothesisSpace, SizeLimitError

PROB_SUM_TOL = 1e-12
LOG_CONSISTENCY_TOL = 1e-10
LOG_UNDERFLOW = -740.0
FLOAT_MIN = float(np.finfo(np.float64).min)
FLOAT_TINY = float(np.finfo(np.float64).tiny)
SUBSAMPLE_EXACT_CAP = 10**5
BOOST_LAW_CAP = 2 * 10**5
FLAG_TOL = 1e-9


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a real 2-d array with no NaN and
    no +inf.

    The steps are those of scipy.special.logsumexp on real input, so each
    result is the same to the last bit: the m entries at the row's maximum
    are taken out of the sum, the rest are summed as exp(a - max), that sum
    is divided by m, and the result is log1p(s) + log(m) + max.  An all
    -inf row gives -inf.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=1)
    top = a == a_max[:, None]
    m = top.sum(axis=1)
    # An all -inf row would make a - a_max NaN; the lowest float as its
    # shift keeps every entry at -inf.
    e = np.where(top, -np.inf, a)
    e -= np.maximum(a_max, FLOAT_MIN)[:, None]
    # m >= 1, so a zero sum stays exactly 0 after the division.
    s = np.exp(e, out=e).sum(axis=1) / m
    return np.log1p(s) + np.log(m) + a_max


@dataclass(frozen=True)
class PrivacyBudget:
    """A claimed (epsilon, delta) privacy level."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def pure(self) -> bool:
        return self.delta == 0.0


def normalized_logit_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and log-probabilities of each row of a 2-d array of
    unnormalized log-weights; :meth:`MechanismDistribution.from_logits` is
    its one-row case.

    The exponentiated weights are renormalized once more in linear space:
    at |H| in the tens of thousands the raw exp of (logits - logsumexp) can
    miss a unit sum by more than PROB_SUM_TOL in accumulated rounding.  The
    log view is shifted by each row's ``math.log`` of that sum, not by
    ``np.log``, which may differ from it in the last bit.
    """
    if not (logits < np.inf).all():
        raise ValueError("logits must be < inf and not NaN")
    lse = logsumexp_rows(logits)
    if not all(map(math.isfinite, lse.tolist())):
        raise ValueError("logits carry no finite mass")
    logp = logits - lse[:, None]
    p = np.exp(logp)
    total = p.sum(axis=1)
    p /= total[:, None]
    logp -= np.array([math.log(t) for t in total.tolist()])[:, None]
    return p, logp


def normalized_probability_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and log-probabilities of each row of a 2-d array of
    nonnegative weights, each row divided by its sum."""
    total = weights.sum(axis=1)
    if not (np.isfinite(total).all() and (total > 0).all()):
        raise ValueError("probabilities must have positive finite mass")
    p = weights / total[:, None]
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    return p, logp


def check_law_rows(p: np.ndarray, logp: np.ndarray) -> None:
    """Check each row of 2-d arrays of probabilities and log-probabilities
    as one exact law; :class:`MechanismDistribution` runs the one-row case.

    Each linear row must be finite, nonnegative and sum to one within
    PROB_SUM_TOL, and agree with its log row to within LOG_CONSISTENCY_TOL
    on every entry of positive mass: the log of a normal entry lies within
    the tolerance of its log-probability, and a subnormal entry lies between
    exp of its log-probability minus and plus the tolerance.
    """
    total = p.sum(axis=1)
    off = np.abs(total - 1.0)
    # One test passes every valid row: a NaN or inf entry puts its row sum
    # off 1, and p.min() is NaN when any entry is.
    if not (off.max() <= PROB_SUM_TOL and p.min() >= 0):
        if not (p.min() >= 0 and np.isfinite(p).all()):
            raise ValueError("probabilities must be finite and nonnegative")
        row = int(np.argmax(off > PROB_SUM_TOL))
        raise ValueError(
            f"probabilities sum to {float(total[row])!r}, not 1 within {PROB_SUM_TOL}"
        )
    # Every row sums to one, so every row has an entry of positive mass.
    pos = p > 0
    logp_pos = logp[pos]
    # The largest log-probability off the support; NaN if any is NaN.
    off_support = np.where(pos, -np.inf, logp).max()
    if not logp_pos.max() <= 1e-12 or np.isnan(off_support):
        raise ValueError("log-probabilities must be <= 0 and not NaN")
    if np.abs(np.log(p[pos]) - logp_pos).max() > LOG_CONSISTENCY_TOL:
        # A subnormal p keeps fewer bits than its log-probability resolves,
        # so its own log may sit far off: there p must be what exp rounds
        # to at some log within the tolerance of logp.  Only a failed first
        # test pays for this second one.
        q = p[pos]
        far = np.abs(np.log(q) - logp_pos) > LOG_CONSISTENCY_TOL
        q, logq = q[far], logp_pos[far]
        if not ((q < FLOAT_TINY) & (np.exp(logq - LOG_CONSISTENCY_TOL) <= q)
                & (q <= np.exp(logq + LOG_CONSISTENCY_TOL))).all():
            raise ValueError("linear and log probabilities disagree beyond tolerance")
    # exp underflows to 0.0 just below log of the smallest subnormal
    # (about -744.4), so a zero linear entry is consistent with any
    # log-probability under that floor, not only with -inf.
    if off_support > LOG_UNDERFLOW:
        raise ValueError(
            "zero-mass hypotheses must carry log-probability -inf "
            f"or below the underflow floor {LOG_UNDERFLOW}"
        )


@dataclass(eq=False)
class MechanismDistribution:
    """Exact output law of a mechanism over a finite hypothesis space.

    Probabilities are stored both linearly and in log form; the two views
    must agree to within LOG_CONSISTENCY_TOL on every hypothesis of positive
    mass, and the linear view must sum to one within PROB_SUM_TOL.  These are
    enforced at construction (:func:`check_law_rows`) because audit
    arithmetic downstream silently degrades when they drift.
    """

    space: FiniteHypothesisSpace
    probabilities: np.ndarray
    log_probabilities: np.ndarray

    def __post_init__(self) -> None:
        self._set_views(self.probabilities, self.log_probabilities)
        check_law_rows(self.probabilities[None], self.log_probabilities[None])

    def _set_views(self, probabilities, log_probabilities) -> None:
        p = np.asarray(probabilities, dtype=float)
        logp = np.asarray(log_probabilities, dtype=float)
        if p.shape != (self.space.size,) or logp.shape != (self.space.size,):
            raise ValueError(
                "probability vectors must have one entry per hypothesis, "
                f"got shapes {p.shape} and {logp.shape} for |H|={self.space.size}"
            )
        self.probabilities = p
        self.log_probabilities = logp

    @classmethod
    def _of_checked_row(
        cls, space: FiniteHypothesisSpace, p: np.ndarray, logp: np.ndarray
    ) -> "MechanismDistribution":
        """The law of one row that :func:`check_law_rows` has passed: only
        the shapes are checked again."""
        law = cls.__new__(cls)
        law.space = space
        law._set_views(p, logp)
        return law

    @classmethod
    def from_logits(
        cls, space: FiniteHypothesisSpace, logits: np.ndarray
    ) -> "MechanismDistribution":
        """Normalize unnormalized log-weights into a distribution (the
        one-row case of :func:`normalized_logit_rows`)."""
        logits = np.asarray(logits, dtype=float)
        if logits.shape != (space.size,):
            raise ValueError(
                f"expected {space.size} logits, got shape {logits.shape}"
            )
        p, logp = normalized_logit_rows(logits[None])
        return cls(space=space, probabilities=p[0], log_probabilities=logp[0])

    def expectation(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.space.size,):
            raise ValueError("values must have one entry per hypothesis")
        return float(self.probabilities @ values)


LawRowsFn = Callable[[DatasetBlock], tuple[np.ndarray, np.ndarray]]
SampleManyFn = Callable[[Union[Dataset, DatasetBlock], Sequence[int]], np.ndarray]
BudgetFn = Callable[[int], PrivacyBudget]


def _one_row(dataset: Dataset) -> DatasetBlock:
    """A dataset's one-row block: its ids over its support, or its own points."""
    if dataset.atom_ids is None:
        return DatasetBlock(dataset, np.arange(dataset.n)[None])
    return DatasetBlock(dataset.support, dataset.atom_ids[None])


def _block_for(data, seeds: Sequence[int]) -> DatasetBlock:
    """``sample_many``'s data when it is not one dataset: a block, a row per seed."""
    if not isinstance(data, DatasetBlock):
        raise TypeError(f"sample_many takes one Dataset or one DatasetBlock, "
                        f"got {type(data).__name__}")
    if len(data) != len(seeds):
        raise ValueError(
            f"got {len(data)} datasets for {len(seeds)} seeds; "
            "pass one dataset or one per seed"
        )
    return data


@dataclass(eq=False)
class Mechanism:
    """A randomized learner bundled with its claimed privacy budget.

    ``budget(n)`` is the claim at dataset size n, read through
    :meth:`claimed_budget`; None means the mechanism makes no claim.

    ``law_rows(block)`` is the one law a factory gives: the laws of a
    block's datasets as the rows of (T, |H|) probability and log-probability
    arrays.  It takes one :class:`dperm.problems.DatasetBlock`.  It is None
    when the mechanism gives no law (a boost whose candidate tuples pass its
    cap, or a wrapper of such a base), and so is ``law``.  The given
    ``law_rows`` is wrapped so that every call starts with the one type
    check, raising ``TypeError`` on any data but a block, and ends in one
    :func:`check_law_rows`; factories check neither.  ``law(dataset)`` is
    derived: row 0 of ``law_rows`` on the dataset's one-row block
    (:func:`_one_row`), not checked again.

    ``sample_many(data, seeds)`` is the one draw primitive.  It takes one
    :class:`dperm.problems.Dataset` or one :class:`dperm.problems.DatasetBlock`
    with a row per seed, and returns an array of ids: draw i under seed i,
    on the one dataset or on item i of the block.  Any other data raises
    ``TypeError``.  ``seeds`` may be a uint64 array
    (:func:`dperm.seeding.spawn_seeds`).  Unless the factory gives it,
    every draw comes from the law, read at call time: ``self.law(dataset)``
    once for one dataset, or ``self.law_rows(block)`` for a block.  The
    uniforms are ``first_uniforms(seeds)``, each seed's
    ``default_rng(seed).random()`` bit for bit, in one kernel call.
    :meth:`sample` is its one-row case.
    """

    name: str
    budget: Optional[BudgetFn] = None
    problem: Optional[Problem] = None
    space: Optional[FiniteHypothesisSpace] = None
    info: dict = field(default_factory=dict)
    sample_many: Optional[SampleManyFn] = None
    law_rows: Optional[LawRowsFn] = None
    law: Optional[Callable[[Dataset], MechanismDistribution]] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.sample_many is None and self.law_rows is None:
            raise ValueError(f"mechanism {self.name!r} has neither sample_many nor law_rows")
        if self.law_rows is not None:
            given = self.law_rows

            def law_rows(block: DatasetBlock) -> tuple[np.ndarray, np.ndarray]:
                if not isinstance(block, DatasetBlock):
                    raise TypeError("law_rows takes one DatasetBlock (law takes one "
                                    f"Dataset), got {type(block).__name__}")
                p, logp = given(block)
                check_law_rows(p, logp)
                return p, logp

            def law(dataset: Dataset) -> MechanismDistribution:
                p, logp = self.law_rows(_one_row(dataset))
                return MechanismDistribution._of_checked_row(self.space, p[0], logp[0])

            self.law_rows, self.law = law_rows, law
        if self.sample_many is None:

            def sample_many(data, seeds: Sequence[int]) -> np.ndarray:
                u = first_uniforms(seeds)
                if isinstance(data, Dataset):
                    return categorical(self.law(data).probabilities, u)
                return categorical(self.law_rows(_block_for(data, seeds))[0], u)

            self.sample_many = sample_many

    def sample(self, dataset: Dataset, seed: int) -> int:
        """One draw: ``sample_many`` on one seed and the dataset's one-row block."""
        return int(self.sample_many(_one_row(dataset), [seed])[0])

    def claimed_budget(self, n: int) -> PrivacyBudget:
        if n < 1:
            raise ValueError(f"dataset size must be >= 1, got {n}")
        if self.budget is None:
            raise ValueError(f"mechanism {self.name!r} makes no privacy claim")
        return self.budget(n)


def em_scale(epsilon: float, n: int) -> float:
    """Exponent scale for the exponential mechanism on unit-range losses.

    With losses in [0, 1], a one-point swap moves the averaged objective by
    at most 1/n (the regularizer depends on n only).  McSherry and Talwar's
    scale for that sensitivity is epsilon * n / 2; epsilon * n / 4 is half
    of it, so the mechanism is (epsilon / 2)-DP and its claim of epsilon is
    valid but twice that.
    """
    return epsilon * n / 4.0


def exponential_mechanism(
    problem: Problem, space: FiniteHypothesisSpace, epsilon: float
) -> Mechanism:
    """Regularized ERM via the exponential mechanism at pure budget epsilon.

    Weights each hypothesis by measure(h) * exp(-em_scale * objective(h, Z)).
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")

    log_measure = np.log(space.measure)

    def law_rows(block: DatasetBlock) -> tuple[np.ndarray, np.ndarray]:
        values = objective_rows(problem, space, block)
        return normalized_logit_rows(log_measure - em_scale(epsilon, block.n) * values)

    return Mechanism(
        name=f"em({problem.name},eps={epsilon:g})",
        law_rows=law_rows,
        budget=lambda n: PrivacyBudget(epsilon),
        problem=problem,
        space=space,
    )


def erm_mechanism(problem: Problem, space: FiniteHypothesisSpace) -> Mechanism:
    """Deterministic regularized ERM: a point mass on the best hypothesis.

    Ties break toward the lowest hypothesis id.  Carries no privacy claim;
    it exists as the base case for wrappers (subsampling an arbitrary
    learner) and as the non-private comparison arm in experiments.
    """

    def law_rows(block: DatasetBlock) -> tuple[np.ndarray, np.ndarray]:
        values = objective_rows(problem, space, block)
        probs = np.zeros_like(values)
        probs[np.arange(len(block)), np.argmin(values, axis=1)] = 1.0
        return normalized_probability_rows(probs)

    return Mechanism(
        name=f"erm({problem.name})",
        law_rows=law_rows,
        problem=problem,
        space=space,
    )


def laplace_icdf(u: float, scale: float) -> float:
    """Inverse CDF of the centered Laplace distribution; u = 1/2 maps to 0."""
    if not (0.0 < u < 1.0):
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    if not (scale > 0):
        raise ValueError(f"scale must be positive, got {scale}")
    w = u - 0.5
    return -scale * math.copysign(1.0, w) * math.log1p(-2.0 * abs(w))


_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
ERM_BLOCK_CELLS = 2**17
ERM_TOL = 1e-10
ERM_NEWTON_PASSES = 64


def _bisection_gradient(x: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """The bisection's float value of sum_i sign(h - x_i)|h - x_i|^(p-1)
    per row; the sign of this exact expression decides each halving."""
    diff = h[:, None] - x
    return (np.sign(diff) * np.abs(diff) ** (p - 1)).sum(axis=1)


def _power_sums(
    x: np.ndarray, h: np.ndarray, p: int, d: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row sums of d^(p-2), d^(p-1) and |d|^(p-1) for d = h - x.

    The powers come from repeated squaring of d in the buffers d and t
    (4 multiplies for p = 10), so no pow, sign or abs of d is taken.
    """
    np.subtract(h[:, None], x, out=d)
    if p == 2:
        t.fill(1.0)
    else:
        np.multiply(d, d, out=t)
        half = (p - 2) // 2
        for bit in bin(half)[3:]:
            np.multiply(t, t, out=t)
            if bit == "1":
                np.multiply(t, d, out=t)
                np.multiply(t, d, out=t)
    slope = t.sum(axis=1)
    np.multiply(t, d, out=t)
    grad = t.sum(axis=1)
    np.abs(t, out=t)
    return slope, grad, t.sum(axis=1)


def _certified_guards(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: int,
    d: np.ndarray, t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, points left <= right such that the bisection's gradient is
    certified not positive at every mid <= left and positive at every
    mid >= right; (-inf, inf) where nothing is certified.  See
    pth_power_erm_batch."""
    rows, n = x.shape
    k = n + 2 * p + 8
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    tau = 2.0 * n * (p + 4) * _SMALLEST_SUBNORMAL
    left = np.full(rows, -np.inf)
    right = np.full(rows, np.inf)
    flat = lo == hi
    # Every mid of a constant row is the point itself, where the gradient is 0.
    left[flat] = lo[flat]

    def threshold(s: np.ndarray) -> np.ndarray:
        return 4.0 * (gamma * (s + tau) / (1.0 - gamma) + tau)

    def sums_at(idx: np.ndarray, h: np.ndarray):
        m = idx.size
        return _power_sums(x if m == rows else x[idx], h, p, d[:m], t[:m])

    below, above = lo.copy(), hi.copy()
    h = 0.5 * (below + above)
    active = np.flatnonzero(~flat)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(ERM_NEWTON_PASSES):
            if active.size == 0:
                break
            here = h[active]
            slope, grad, size = sums_at(active, here)
            lower = np.where(grad <= 0, here, below[active])
            upper = np.where(grad >= 0, here, above[active])
            slope *= p - 1
            step = grad / slope
            nxt = here - step
            inside = (nxt >= lower) & (nxt <= upper)
            nxt = np.where(inside, nxt, 0.5 * (lower + upper))
            ulps = 4.0 * np.spacing(np.abs(here))
            guard = np.maximum(2.0 * threshold(size) / slope, ulps)
            done = inside & (np.abs(step) <= 0.25 * guard)
            below[active], above[active], h[active] = lower, upper, nxt
            width = guard[done] + 2.0 * np.abs(step[done])
            left[active[done]] = nxt[done] - width
            right[active[done]] = nxt[done] + width
            active = active[~done & np.isfinite(guard)]
        for point, sign in ((left, -1.0), (right, 1.0)):
            held = np.flatnonzero(np.isfinite(left) & np.isfinite(right))
            if held.size == 0:
                break
            _, grad, size = sums_at(held, point[held])
            failed = held[~(np.isfinite(size) & (sign * grad >= threshold(size)))]
            left[failed] = -np.inf
            right[failed] = np.inf
    return left, right


def pth_power_erm_batch(x: np.ndarray, p: int = 10) -> np.ndarray:
    """Row-wise exact minimizer of sum_i |x_i - h|^p over h, for even p >= 2,
    on a (trials, n) batch of samples.

    The derivative p * G(h), G(h) = sum_i sign(h - x_i)|h - x_i|^(p-1), is
    continuous and increasing, so bisection on [min x, max x] pins the root.
    The result is the float of a fixed bisection: ceil(log2(R / ERM_TOL)) + 2
    halvings (R the widest row range of the batch), each keeping the half
    where the float expression ``_bisection_gradient`` changes sign.  The
    bracket certifies the tolerance; this kernel returns that float bit for
    bit, but decides most halvings without evaluating the expression:

    1. Newton.  A safeguarded Newton iteration finds each row's root r of G
       inside its bracket (a step that leaves it falls back to the bracket
       midpoint), with powers formed by repeated squaring.
    2. Guard.  Write S(h) = sum_i |h - x_i|^(p-1).  For h off the root,
       |G(h)| / S(h) = |A - B| / (A + B), with A and B the sums over the
       points below and above h; moving h away from the root grows one and
       shrinks the other, so both |G| and |G| / S grow monotonically.  The
       float error of the bisection's expression is at most
       gamma * S(h) + tau, with gamma = k u / (1 - k u), k = n + 2p + 8,
       u = 2^-53, tau = 2 n (p + 4) * 2^-1074: one rounding in h - x_i,
       pow within 4 ulps, the sum within gamma_(n-1), and the subnormal
       floor per term.  The repeated-squaring sums obey the same bound.  So
       if G(right) >= 2 (gamma * S(right) + tau), then at every h >= right
       the error is at most G(h) / 2 and the expression is positive; the
       mirror case holds for left.  The kernel checks this at
       left, right = r -/+ g from the repeated-squaring sums, asking for
       4 (gamma * S + tau) with S bounded above by its own error: one unit
       pays for the error of the checked sum itself and one for the few
       roundings of the test.  The half-width is
       g = max(2 * 4 (gamma * S + tau) / G'(r), 4 ulps of r) plus twice the
       last Newton step, where the first term is twice the distance at
       which the slope G' of the last Newton pass reaches the threshold;
       Newton stops once its step is under a quarter of that max.  A row
       the check cannot certify (Newton not converged, a zero slope, an
       overflowed power) gets (-inf, inf); a constant row, where every mid
       is the point and the expression is exactly 0, gets (point, inf).
    3. Replay.  The halvings run again on (trials,)-sized arrays: a mid at
       or right of ``right`` keeps the left half, one at or left of
       ``left`` keeps the right half, and only for the rows whose mid falls
       strictly between does the expression itself decide.  Uncertified
       rows thus run the plain bisection.

    Rows are processed in blocks of about ERM_BLOCK_CELLS cells, so scratch
    memory stays bounded whatever the batch size.  A row whose range R is so
    wide that n R^(p-1) nears the float64 maximum is refused with a
    ValueError naming it: there the expression overflows to inf - inf and
    the halvings would follow NaN.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("expected a (trials, n) array with n >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    trials, n = x.shape
    lo = x.min(axis=1)
    hi = x.max(axis=1)
    # Every |h - x_i| the search meets is at most the row's range R, so the
    # sums of |h - x_i|^(p-1) stay finite while n R^(p-1) is well inside the
    # float range (the factor 2 covers the roundings of d and its power).
    with np.errstate(over="ignore"):
        span = hi - lo
        reach = n * span ** (p - 1)
    wide = np.flatnonzero(~(reach < np.finfo(float).max / 2))
    if wide.size:
        row = int(wide[0])
        raise ValueError(
            f"row {row} spans {float(span[row])!r}: the sum of its "
            f"{n} terms |x - h|^{p - 1} overflows float64"
        )
    # 60 halvings shrink any unit-length bracket far below ERM_TOL = 1e-10.
    iters = max(1, math.ceil(math.log2(max(float(span.max()), ERM_TOL) / ERM_TOL)) + 2)
    block = max(1, ERM_BLOCK_CELLS // n)
    d = np.empty((min(block, trials), n))
    t = np.empty_like(d)
    left = np.empty(trials)
    right = np.empty(trials)
    for s in range(0, trials, block):
        rows = slice(s, s + block)
        left[rows], right[rows] = _certified_guards(
            x[rows], lo[rows], hi[rows], p, d, t
        )
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        go_left = mid >= right
        near = np.flatnonzero((mid > left) & (mid < right))
        for s in range(0, near.size, block):
            rows = near[s : s + block]
            go_left[rows] = _bisection_gradient(x[rows], mid[rows], p) > 0
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid)
    return 0.5 * (lo + hi)


def membership_flag_mechanism(epsilon: float, delta: float, marker: float) -> Mechanism:
    """A deliberately minimal (epsilon, delta) mechanism used as an audit
    target: it releases a randomized-response bit that says whether any data
    point sits within ``FLAG_TOL`` of the marker value.

    With probability 1 - delta the true bit passes through randomized
    response at level epsilon; with probability delta it is released as-is.
    On any neighbor pair that flips the bit, the realized delta at epsilon is
    exactly delta, so audits of wrappers built on this base have a known
    ground truth to compare against.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    space = FiniteHypothesisSpace(
        payloads=np.array([[0.0], [1.0]]), measure=np.ones(2)
    )
    keep = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    p_same = (1.0 - delta) * keep + delta
    p_flip = (1.0 - delta) * (1.0 - keep)

    laws = np.array([[p_same, p_flip], [p_flip, p_same]])  # row b: the true bit is b

    def law_rows(block: DatasetBlock) -> tuple[np.ndarray, np.ndarray]:
        x = block.support.x if block.support.x.ndim == 1 else block.support.x[:, 0]
        bits = (np.abs(x - marker) <= FLAG_TOL)[block.atom_ids].any(axis=1)
        return normalized_probability_rows(laws[bits.astype(np.intp)])

    return Mechanism(
        name=f"membership-flag(eps={epsilon:g},delta={delta:g})",
        law_rows=law_rows,
        budget=lambda n: PrivacyBudget(epsilon, delta),
        space=space,
    )


@dataclass(frozen=True)
class AmplifiedPure:
    """Pure-DP level after subsampling: a valid bound and its linear relaxation.

    ``tight`` is valid but not tight: at gamma = 2/3, epsilon = 0.1 it is
    0.133, where Balle, Barthe and Gaboardi (2018) give 0.068.
    """

    tight: float
    relaxed: float


def amplify_pure(epsilon: float, gamma: float) -> AmplifiedPure:
    """Privacy amplification for a pure epsilon-DP base under subsampling
    without replacement at rate gamma.

    tight   = log(1 + gamma(e^eps - 1)) - log(1 + gamma(e^-eps - 1))
    relaxed = 2 gamma (e^eps - e^-eps), an upper bound on tight.

    Both are valid bounds; neither is tight (see :class:`AmplifiedPure`).
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    up = math.log1p(gamma * math.expm1(epsilon))
    down = math.log1p(gamma * math.expm1(-epsilon))
    tight = up - down
    relaxed = 2.0 * gamma * (math.exp(epsilon) - math.exp(-epsilon))
    return AmplifiedPure(tight=tight, relaxed=relaxed)


def amplify_approx(epsilon: float, delta: float, gamma: float) -> PrivacyBudget:
    """Amplification for an (epsilon, delta) base under subsampling without
    replacement at rate gamma:

    epsilon' = log(1 + gamma e^eps (e^eps - 1)),  delta' = gamma e^eps delta.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    eps_out = math.log1p(gamma * math.exp(epsilon) * math.expm1(epsilon))
    delta_out = gamma * math.exp(epsilon) * delta
    return PrivacyBudget(eps_out, min(delta_out, 1.0))


def _sub_multiset_terms(
    counts: np.ndarray, m: int, cap: int, name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The size-m sub-multisets of every row of a (T, k) array of atom counts.

    Returns (row, kept, atoms): term i keeps ``kept[i, j]`` copies of atom
    ``atoms[j]`` from row ``row[i]``, where ``atoms`` are the atoms with a
    count in some row.  Each row's terms are consecutive and in the
    lexicographic order of their kept counts.  They are built atom by atom:
    every prefix of kept counts that can still reach m is extended by each
    count the next atom allows, in ascending order, and the last atom keeps
    what is left.  A prefix has at least one completion, so no row has more
    prefixes than terms: a row that would pass ``cap`` raises SizeLimitError
    naming mechanism ``name`` before its prefixes are built.
    """
    atoms = np.flatnonzero(counts.any(axis=0))
    have = counts[:, atoms].T
    # after[j]: each row's points past atom j, all that a prefix ending at
    # atom j can still keep.
    after = have[::-1].cumsum(axis=0)[::-1] - have
    t = len(counts)
    row = np.arange(t)  # each prefix's row
    room = np.full(t, m)  # copies each prefix has still to keep
    kept = np.zeros((t, len(atoms)), dtype=np.intp)
    for j in range(len(atoms) - 1):
        # Each prefix keeps low, low + 1, ... copies of atom j: count choices.
        low = np.maximum(room - after[j][row], 0)
        count = np.minimum(have[j][row], room) - low + 1
        ends = count.cumsum()
        # The block's total bounds each row's count.
        if ends[-1] > cap and np.bincount(row, count).max() > cap:
            raise SizeLimitError(
                f"mechanism {name!r}: {int(have[:, 0].sum())} points hold more than "
                f"{cap} distinct size-{m} sub-multisets"
            )
        parent = np.arange(len(row)).repeat(count)
        s = np.arange(ends[-1]) - (ends - count - low)[parent]
        row, room, kept = row[parent], room[parent] - s, kept[parent]
        kept[:, j] = s
    kept[:, -1] = room
    return row, kept, atoms


def subsample_wrapper(base: Mechanism, m: Union[int, str]) -> Mechanism:
    """Run ``base`` on a uniform size-m subsample drawn without replacement.

    ``m`` is either a fixed positive integer or the string ``"sqrt"`` for
    m = floor(sqrt(n)).  The sqrt rule is the only mode allowed when the base
    carries no privacy claim at all: an arbitrary base subsampled at that rate
    is claimed (0, 1/sqrt(n)).  A base with a pure claim is amplified through
    amplify_pure's bound (valid, not tight); a base with delta > 0 goes
    through amplify_approx.

    The exact law is a mixture over the distinct size-m sub-multisets of the
    dataset, not over all C(n, m) index subsets.  A dataset's multiset is
    its vector of atom counts c over the support: the sub-multiset that
    keeps s_i of the c_i copies of each present atom has the multivariate
    hypergeometric weight prod_i C(c_i, s_i) / C(n, m) and contributes the
    base law of that sub-multiset, its ids in ascending order.  A dataset
    without atom ids is its own support, each point an atom, so its law is
    the mixture over its C(n, m) index subsets.  ``law_rows(block)``
    enumerates the sub-multisets of every row as one count array
    (:func:`_sub_multiset_terms`, each row in lexicographic order), takes
    each weight from Python ints, builds the base laws of the distinct ones
    over the whole block in one ``base.law_rows`` call, and sums each row's
    mixture in enumeration order.  Past ``SUBSAMPLE_EXACT_CAP`` distinct
    sub-multisets of one row (reached only by datasets of mostly distinct
    points) it raises SizeLimitError naming the mechanism; the cap is read
    when the law is built.
    """
    sqrt_rule = m == "sqrt"
    if not sqrt_rule:
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
            raise ValueError(f"m must be a positive integer or 'sqrt', got {m!r}")
        m = int(m)
    if base.budget is None and not sqrt_rule:
        raise ValueError(
            "a fixed subsample size needs a base privacy claim; "
            "use m='sqrt' to wrap an arbitrary base"
        )

    name = f"subsample({base.name},m={'sqrt' if sqrt_rule else m})"

    def subsample_size(n: int) -> int:
        size = int(math.isqrt(n)) if sqrt_rule else m
        if size > n:
            raise ValueError(f"subsample size {size} exceeds dataset size {n}")
        return size

    def budget(n: int) -> PrivacyBudget:
        size = subsample_size(n)
        gamma = size / n
        if base.budget is None:
            return PrivacyBudget(0.0, 1.0 / math.sqrt(n))
        claimed = base.claimed_budget(size)
        if claimed.pure:
            return PrivacyBudget(amplify_pure(claimed.epsilon, gamma).tight, 0.0)
        return amplify_approx(claimed.epsilon, claimed.delta, gamma)

    def law_rows(block: DatasetBlock) -> tuple[np.ndarray, np.ndarray]:
        n = block.n
        size = subsample_size(n)
        counts = block.counts()
        row, kept, atoms = _sub_multiset_terms(counts, size, SUBSAMPLE_EXACT_CAP, name)
        # Each term's weight prod_i C(c_i, s_i) / C(n, m), from Python ints.
        have = counts[row[:, None], atoms]
        combs = np.array([[math.comb(c, s) for s in range(size + 1)]
                          for c in range(int(have.max()) + 1)], dtype=object)
        weights = (np.multiply.reduce(combs[have, kept], axis=1)
                   / math.comb(n, size)).astype(float)
        # The base laws of the distinct sub-multisets, on ascending ids.
        vectors, base_rows = _unique_rows(kept)
        ids = atoms[np.arange(vectors.size) % len(atoms)].repeat(vectors.ravel())
        base_p = base.law_rows(DatasetBlock(block.support, ids.reshape(len(vectors), size)))[0]
        # weight[j] and source[j] hold each row's j-th term (rows come in
        # block order); a row with fewer terms is padded with weight 0.0,
        # whose term adds +0.0 and leaves the sum's bits.  So every row is
        # summed in enumeration order, one term position of all rows at a
        # time.
        column = np.arange(len(row)) - row.searchsorted(row)
        weight = np.zeros((column.max() + 1, len(block), 1))
        weight[column, row, 0] = weights
        source = np.zeros(weight.shape[:2], dtype=np.intp)
        source[column, row] = base_rows
        acc = np.zeros((len(block), base.space.size))
        for w, j in zip(weight, source):
            acc += w * base_p[j]
        return normalized_probability_rows(acc)

    def sample_many(data, seeds: Sequence[int]) -> np.ndarray:
        # Draw i keeps the subset chosen under spawn_seed(seeds[i], 0) and
        # runs the base on it under spawn_seed(seeds[i], 1).
        datasets = [data] * len(seeds) if isinstance(data, Dataset) else _block_for(data, seeds)
        ids = []
        for dataset, seed in zip(datasets, seeds):
            rng = np.random.default_rng(spawn_seed(seed, 0))
            subset = rng.choice(dataset.n, size=subsample_size(dataset.n), replace=False)
            ids.append(base.sample(dataset.take(subset), spawn_seed(seed, 1)))
        return np.array(ids)

    return Mechanism(
        name=name,
        sample_many=sample_many,
        law_rows=None if base.law_rows is None else law_rows,
        budget=budget,
        problem=base.problem,
        space=base.space,
    )


def boost_parts(n: int, a: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Index split into a training parts plus a validation remainder."""
    part = n // (a + 1)
    if part < 1:
        raise ValueError(
            f"dataset of size {n} cannot be split into {a + 1} parts"
        )
    train = [np.arange(j * part, (j + 1) * part) for j in range(a)]
    validation = np.arange(a * part, n)
    return train, validation


def boost_high_confidence(
    base: Mechanism,
    space: FiniteHypothesisSpace,
    delta_target: float,
    epsilon: float,
) -> Mechanism:
    """Confidence boosting: run the base on a = ceil(ln(3/delta)) disjoint
    parts, then privately select among the candidates by validation risk.

    The selection step is an exponential mechanism on validation empirical
    risk.  Swapping one point of the full dataset perturbs at most one
    candidate's training part and every validation risk, which bounds the
    selection utility's sensitivity by 2(a+1)/n and fixes the exponent scale
    at epsilon * n / (4(a+1)).  The composite claims
    (max(base epsilon, epsilon), base delta), with the base claim taken at
    the size of one part, n // (a+1).

    The exact law enumerates candidate tuples and is materialized only while
    |H|^a stays within ``BOOST_LAW_CAP`` when the mechanism is built; past
    that the mechanism is sample-only.
    """
    if not (0.0 < delta_target < 3.0):
        raise ValueError(
            f"delta_target must lie in (0, 3) so that ceil(ln(3/delta)) >= 1, "
            f"got {delta_target}"
        )
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if base.budget is None:
        raise ValueError("boosting requires a base mechanism with a privacy claim")
    if base.problem is None:
        raise ValueError("boosting requires a base mechanism bound to a problem")
    a = math.ceil(math.log(3.0 / delta_target))
    problem = base.problem

    def selection_scale(n: int) -> float:
        return epsilon * n / (4.0 * (a + 1))

    def budget(n: int) -> PrivacyBudget:
        claimed = base.claimed_budget(n // (a + 1))
        return PrivacyBudget(max(claimed.epsilon, epsilon), claimed.delta)

    def split(block: DatasetBlock) -> tuple[DatasetBlock, DatasetBlock]:
        # The training parts, trial-major, and the validation columns.
        train, validation = boost_parts(block.n, a)
        part = len(train[0])
        parts = DatasetBlock(block.support, block.atom_ids[:, :a * part].reshape(-1, part))
        return parts, block.columns(validation)

    def law_rows(block: DatasetBlock) -> tuple[np.ndarray, np.ndarray]:
        parts, validation = split(block)
        part_laws = base.law_rows(parts)[0].reshape(len(block), a, space.size)
        val_risks = risk_rows(problem, space, validation)
        scale = selection_scale(block.n)
        # One row per candidate tuple, in itertools.product order.
        combos = np.indices((space.size,) * a).reshape(a, -1).T
        probs = np.zeros((len(block), space.size))
        for row, laws, risks in zip(probs, part_laws, val_risks):
            weight = laws[0][combos[:, 0]]
            for j in range(1, a):
                weight = weight * laws[j][combos[:, j]]
            keep = weight != 0.0
            kept = combos[keep]
            logits = -scale * risks[kept]
            sel = np.exp(logits - logsumexp_rows(logits)[:, None])
            # add.at accumulates in index order, the order of the tuple loop.
            np.add.at(row, kept.ravel(), (weight[keep][:, None] * sel).ravel())
        return normalized_probability_rows(probs)

    streams = np.arange(a + 1, dtype=np.uint64)[:, None]

    def sample_many(data, seeds: Sequence[int]) -> np.ndarray:
        # Draw i runs the base on part j under spawn_seed(seeds[i], j) and
        # selects under spawn_seed(seeds[i], a).  On one dataset the parts
        # are the same for every seed, so each base law is built once; a
        # block splits its id array, and one base call draws every part's
        # candidate, with the parts trial-major.
        # Row i: the seeds of draw i's parts, then of its selection.
        sub = spawn_seeds(seeds, streams).T
        if isinstance(data, Dataset):
            train, validation = boost_parts(data.n, a)
            candidates = np.column_stack([base.sample_many(data.take(idx), sub[:, j])
                                          for j, idx in enumerate(train)])
            risks = risk_rows(problem, space, _one_row(data).columns(validation))
        else:
            parts, validation = split(_block_for(data, seeds))
            candidates = base.sample_many(parts, sub[:, :a].ravel()).reshape(-1, a)
            risks = risk_rows(problem, space, validation)
        logits = -selection_scale(data.n) * np.take_along_axis(risks, candidates, axis=1)
        sel = np.exp(logits - logsumexp_rows(logits)[:, None])
        sel /= sel.sum(axis=1, keepdims=True)
        pick = categorical(sel, first_uniforms(sub[:, a]))
        return candidates[np.arange(len(seeds)), pick]

    has_law = base.law_rows is not None and space.size**a <= BOOST_LAW_CAP
    return Mechanism(
        name=f"boost({base.name},delta={delta_target:g},eps={epsilon:g})",
        sample_many=sample_many,
        law_rows=law_rows if has_law else None,
        budget=budget,
        problem=problem,
        space=space,
        info={"parts": a},
    )


@dataclass(frozen=True)
class ChainResult:
    """Output of one Metropolis run: kept states plus tuning diagnostics."""

    samples: np.ndarray
    acceptance_rate: float
    step_size: float
    scale: float


@dataclass(eq=False)
class RandomWalkSampler:
    """Random-walk Metropolis targeting exp(-em_scale * objective) on a box.

    A gridless stand-in for the exponential mechanism when the hypothesis
    space is continuous.  Convergence is approximate, so this object is not a
    Mechanism and makes no privacy claim; compare its empirical law against a
    matched finite-grid mechanism to quantify the gap.

    The chain runs ``burn_in`` = max(1000, steps // 10) tuning steps before
    its ``steps`` kept ones, from the initial proposal scale ``step_size``,
    an eighth of the box's mean side; both are set at construction.
    """

    problem: Problem
    lower: np.ndarray
    upper: np.ndarray
    epsilon: float
    steps: int
    step_size: float = field(init=False)
    burn_in: int = field(init=False)

    def __post_init__(self) -> None:
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not np.all(self.upper > self.lower):
            raise ValueError("box must have positive side lengths")
        if len(self.lower) != self.problem.dimension:
            raise ValueError(
                f"box dimension {len(self.lower)} does not match problem "
                f"dimension {self.problem.dimension}"
            )
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps}")
        self.burn_in = max(1000, self.steps // 10)
        self.step_size = float(np.mean(self.upper - self.lower)) / 8.0

    def run(self, dataset: Dataset, seed: int) -> ChainResult:
        rng = np.random.default_rng(seed)
        d = len(self.lower)
        # Each step draws standard_normal(d), then random() only for a
        # proposal inside the box.  The step works on locals and Python
        # floats: the box test compares the proposal's list against the
        # bounds' lists (inclusive, so NaN fails as with the array test), and
        # add.reduce / n is the IEEE sum and division that .mean() runs on a
        # 1-d row.
        normal, uniform, log = rng.standard_normal, rng.random, math.log
        loss_matrix, reg_vector = self.problem.loss_matrix, self.problem.reg_vector
        add, le = np.add.reduce, operator.le
        lower, upper = self.lower.tolist(), self.upper.tolist()
        n = dataset.n

        def objective_at(h: np.ndarray) -> float:
            row = h[None, :]
            return float(add(loss_matrix(row, dataset)[0]) / n) + float(reg_vector(n, row)[0])

        scale = em_scale(self.epsilon, n)
        sigma = float(self.step_size)
        width = float(np.min(self.upper - self.lower))
        state = 0.5 * (self.lower + self.upper)
        energy = objective_at(state)

        burn_in = self.burn_in
        kept = np.empty((self.steps, d))
        accepted = 0
        window_accepts = 0
        for t in range(burn_in + self.steps):
            proposal = state + sigma * normal(d)
            box = proposal.tolist()
            if all(map(le, lower, box)) and all(map(le, box, upper)):
                new_energy = objective_at(proposal)
                # 1 - U keeps the draw strictly positive before the log.
                if log(1.0 - uniform()) < -scale * (new_energy - energy):
                    state, energy = proposal, new_energy
                    if t >= burn_in:
                        accepted += 1
                    else:
                        window_accepts += 1
            if t >= burn_in:
                kept[t - burn_in] = state
            elif (t + 1) % 50 == 0:
                rate = window_accepts / 50.0
                sigma = float(
                    np.clip(sigma * math.exp(0.5 * (rate - 0.4)), 1e-6 * width, width)
                )
                window_accepts = 0

        samples = kept[:, 0] if d == 1 else kept
        return ChainResult(
            samples=samples,
            acceptance_rate=accepted / self.steps,
            step_size=sigma,
            scale=scale,
        )


# Metropolis sampler for the continuous exponential-mechanism density of a
# convex problem on a box domain.
logconcave_sampler = RandomWalkSampler
