"""Latency percentiles with the ten-samples-beyond rule."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of quantile q among n sorted samples."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly after the nearest-rank quantile position."""
    return n - rank(n, q)


def min_samples(q: float) -> int:
    """Smallest sample count leaving at least MIN_BEYOND samples beyond q."""
    n = MIN_BEYOND + 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n
