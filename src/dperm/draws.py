"""The one categorical draw kernel.

``categorical(p, u)`` returns the index that ``Generator.choice(len(p),
size, p=p)`` returns when it draws the uniforms ``u``: it runs the same
checks on ``p``, builds the same normalized CDF and gives
``cdf.searchsorted(u, side="right")``, the i with cdf[i - 1] <= u < cdf[i].
Feeding it ``rng.random(size)`` therefore reproduces ``choice`` draw for
draw.

A large batch is looked up in a guide table (Chen & Asau 1974; Devroye,
"Non-Uniform Random Variate Generation", 1986, section III.2.4) instead of
by binary search over the whole CDF.  Uniform u starts at the first atom
whose CDF passes the left edge j / k of its bucket j = floor(u k) and steps
forward once.  The few uniforms still not bracketed are binary searched:
those in a bucket that more atoms share, and those just below an edge j / k
whose product u k rounded up to j.  Either way the result is the
searchsorted index.  No clip of j to k - 1 is needed: u <= 1 - 2^-53, and
for every k < 2^53 that product rounds to below k.  Which path runs depends
only on the batch size and the CDF length.
"""

from __future__ import annotations

import numpy as np

# The sum check of Generator.choice: sqrt of the float64 machine epsilon.
SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
# Below this many uniforms, or below one per atom, building and reading the
# table costs more than binary search (microbenchmark in BENCH_draws.json).
GUIDE_MIN_DRAWS = 1000


def categorical(p: np.ndarray, u):
    """Indices drawn from ``p`` by ``u``, exactly as ``Generator.choice``
    draws them.

    A 1-d ``p`` is one law, and ``u`` is a float or a 1-d array of floats in
    [0, 1).  A 2-d ``p`` holds one law per row, and ``u`` holds one float
    per row; row i gives ``categorical(p[i], u[i])``.  Every row gets the
    checks of the 1-d call, with the same messages.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d or 2-d array")
    if p.ndim == 2:
        if u.shape != (len(p),):
            raise ValueError(f"expected {len(p)} uniforms, one per row, got shape {u.shape}")
        if len(p) == 1:
            # One row is the 1-d call on a 1-element u, whose scalar checks
            # cost less than the row-wise ones.
            p = p[0]
    total = p.sum(axis=-1)
    miss = abs(total - 1.0)
    # One test passes every valid law: it fails on NaN, on a negative entry
    # and on a sum off 1; the checks below then name the first that holds.
    if not (miss <= SUM_ATOL if p.ndim == 1 else miss.max() <= SUM_ATOL) or p.min() < 0:
        if np.isnan(total).any():
            raise ValueError("probabilities contain NaN")
        if p.min() < 0:
            raise ValueError("probabilities are not non-negative")
        first = total[miss > SUM_ATOL][0] if p.ndim == 2 else total
        raise ValueError(f"probabilities sum to {first!r}, not 1 within {SUM_ATOL:.3g}")
    cdf = p.cumsum(axis=-1)
    if p.ndim == 2:
        cdf /= cdf[:, -1:]
        # A CDF row is nondecreasing, so the count of its entries <= u is
        # the row's searchsorted(u, side="right").
        return (cdf <= u[:, None]).sum(axis=1)
    cdf /= cdf[-1]
    k = cdf.size
    if u.size < max(GUIDE_MIN_DRAWS, k):
        return cdf.searchsorted(u, side="right")
    guide = cdf.searchsorted(np.arange(k) / k, side="right")
    i = guide[(u * k).astype(np.intp)]
    below = np.concatenate(([0.0], cdf))  # below[i] = cdf[i - 1]
    i += cdf[i] <= u
    off = np.flatnonzero((cdf[i] <= u) | (below[i] > u))
    i[off] = cdf.searchsorted(u[off], side="right")
    return i
