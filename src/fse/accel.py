"""Sequence acceleration used by the boundary-regime series and the
oscillatory quadrature tails."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

WYNN_TINY = 1e-290


def wynn_epsilon(partials):
    """Wynn's epsilon extrapolation of a sequence of partial sums.

    Returns (estimate, spread) where spread is the absolute difference of
    the last two accessible even-column entries, usable as a crude error
    gauge.  Works on real or complex input.  For a sequence that already
    converges the estimate just tracks it; for bounded oscillation (the
    alternating 1, 0, 1, 0, ... pattern) it returns the Cesaro-type limit.
    """
    s = [complex(v) for v in partials]
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    if n == 1:
        return s[0], abs(s[0])
    prev2 = [0.0 + 0.0j] * (n + 1)  # epsilon_{-1}
    prev1 = list(s)                 # epsilon_0
    best = s[-1]
    alt = s[-2]
    col = 0
    while len(prev1) >= 2:
        cur = []
        degenerate = False
        for j in range(len(prev1) - 1):
            d = prev1[j + 1] - prev1[j]
            ad = abs(d)
            # a vanishing difference means the previous column already
            # converged; deepening past it only amplifies roundoff
            if ad < WYNN_TINY or not np.isfinite(ad):
                degenerate = True
                break
            cur.append(prev2[j + 1] + 1.0 / d)
        if degenerate:
            break
        col += 1
        if col % 2 == 0 and cur:
            cand = cur[-1]
            if np.isfinite(abs(cand)):
                alt = cur[-3] if len(cur) >= 3 else best
                best = cand
        prev2, prev1 = prev1, cur
    return best, abs(best - alt)


@lru_cache(maxsize=128)
def _binomial_mean(k: int) -> np.ndarray:
    """Weights C(k, i) / 2^k, i = 0..k, each correctly rounded."""
    scale = 2 ** k
    return np.array([math.comb(k, i) / scale for i in range(k + 1)])


def euler_alternating(terms):
    """Euler transform of sum((-1)^k a_k) given the signed terms themselves.

    `terms` are the signed contributions t_k (already alternating in sign).
    Pairwise averaging of the n partial sums S_j, iterated k times, leaves
    2^-k sum_i C(k, i) S_(j+i); the top of that triangle (k = n - 1) is the
    estimate, and its gap to the last entry of the row below (k = n - 2,
    over S_1..S_(n-1)) the spread.  Returns (estimate, spread).
    """
    s = np.cumsum(np.asarray(terms, dtype=complex))
    n = s.size
    if n == 0:
        raise ValueError("empty sequence")
    est = _binomial_mean(n - 1) @ s
    if n == 1:
        return est, abs(est)
    return est, abs(est - _binomial_mean(n - 2) @ s[1:])
