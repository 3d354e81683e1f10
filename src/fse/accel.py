"""Sequence acceleration used by the boundary-regime series and the
oscillatory quadrature tails."""

from __future__ import annotations

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


def euler_alternating(terms):
    """Euler transform of sum((-1)^k a_k) given the signed terms themselves.

    `terms` are the signed contributions t_k (already alternating in sign).
    Averaging of partial sums is iterated to the top of the triangle.
    Returns (estimate, spread).
    """
    t = [complex(v) for v in terms]
    if not t:
        raise ValueError("empty sequence")
    row = list(np.cumsum(t))
    stage_last = [row[-1]]
    while len(row) >= 2:
        row = [0.5 * (row[j] + row[j + 1]) for j in range(len(row) - 1)]
        stage_last.append(row[-1])
    est = stage_last[-1]
    spread = abs(est - stage_last[-2]) if len(stage_last) >= 2 else abs(est)
    return est, spread
