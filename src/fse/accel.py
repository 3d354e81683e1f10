"""Sequence acceleration for the oscillatory quadrature tails: the Euler
transform of an alternating series, for every prefix of its terms in one
pass."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def _binomial_triangle(size: int) -> np.ndarray:
    """Lower triangle of the weights C(k, i) / 2^k, k, i = 0..size-1, each
    correctly rounded, as a complex size x size array (zero above the
    diagonal); its leading n x n block is the triangle of n terms."""
    out = np.zeros((size, size), dtype=complex)
    for k in range(size):
        scale = 2 ** k
        out[k, :k + 1] = [math.comb(k, i) / scale for i in range(k + 1)]
    return out


def euler_alternating(terms):
    """Euler transform of sum((-1)^k a_k), given the signed terms themselves,
    at every prefix of them.

    `terms` are the signed contributions t_k (already alternating in sign).
    Pairwise averaging of the n partial sums S_j, iterated k times, leaves
    2^-k sum_i C(k, i) S_(j+i); the top of that triangle (k = n - 1) is the
    estimate of the first n terms, and its gap to the last entry of the row
    below (k = n - 2, over S_1..S_(n-1)) their spread (for n = 1, the
    estimate's modulus).  Returns (estimates, spreads), two arrays whose
    entry n - 1 belongs to the first n terms: two products of the partial
    sums with a cached triangle of the weights, O(n^2) work and memory.
    """
    s = np.cumsum(np.asarray(terms, dtype=complex))
    n = s.size
    if n == 0:
        raise ValueError("empty sequence")
    # kept at the next power of two, so a few triangles serve every n
    weights = _binomial_triangle(1 << (n - 1).bit_length())[:n, :n]
    est = weights @ s
    spread = np.abs(est)
    spread[1:] = np.abs(est[1:] - weights[:-1, :-1] @ s[1:])
    return est, spread
