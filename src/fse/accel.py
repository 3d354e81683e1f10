"""Sequence acceleration for the oscillatory quadrature tails: the Euler
transform of an alternating series.  No H series is resummed: a
series-index-0 set, whose residue series has a finite radius, takes the
Mellin-Barnes contour instead."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


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
