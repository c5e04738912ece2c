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
    """Indices drawn from ``p`` by ``u`` (a float, or a 1-d array of floats
    in [0, 1)), exactly as ``Generator.choice`` draws them."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d array")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within {SUM_ATOL:.3g}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.asarray(u, dtype=float)
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
