"""Adaptive quadrature engines and discrete Fourier-pair checkers.

Three strategies cover the integral shapes the solvers need: plain
adaptive bisection on a finite interval, an oscillatory splitter for
semi-infinite cosine/sine integrals with algebraic decay, and a rotated
ray for integrands that decay only off the real axis.  These routines are
the ground truth the closed forms are compared against, so they share no
code with the H-function evaluators.

Every integrand is an array function: it takes a float or complex numpy
array of nodes and returns an array of the same shape, elementwise (numpy
ufuncs such as np.exp and np.cos, not math or cmath).  Each panel costs one
call on all of its nodes.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .accel import euler_alternating
from .errors import GridTooCoarse, QuadratureFailure, ValidationError
from .numerics import leg_nodes

OSC_HALF_PERIODS = 96   # half-period pieces osc_semi_inf sums at most
RAY_PANELS = 1500       # adaptive panel cap of ray_segment
_TAIL_U_MIN = 2.0 ** -511  # smallest mapped node u with 1/u^2 finite


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError("grid endpoints must be finite")
        if not (self.start < self.stop):
            raise ValidationError("grid start must be below stop")
        if self.count < 2:
            raise ValidationError("grid count must be at least 2")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@lru_cache(maxsize=1)
def _panel_rule():
    """The 15- and 30-point Gauss-Legendre nodes on [-1, 1] as one 45-node
    set, with the weights of each rule."""
    x15, w15 = leg_nodes(15)
    x30, w30 = leg_nodes(30)
    return np.concatenate((x15, x30)), w15, w30


def _panel_est(f, a: float, b: float):
    """One panel: order-30 value and its deviation from order-15, from one
    call of f on both rules' nodes."""
    x, w15, w30 = _panel_rule()
    half = 0.5 * (b - a)
    y = f(half * x + 0.5 * (a + b))
    v1 = half * (w15 @ y[:15])
    v2 = half * (w30 @ y[15:])
    return v2, abs(v2 - v1)


def adaptive(f, a: float, b: float, tol: float, max_panels: int = 800):
    """Heap-driven bisection; returns (value, error bound, panels used).

    f maps an array of nodes in [a, b] to the array of integrand values.
    """
    val, err = _panel_est(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total = val
    toterr = err
    count = 1
    serial = 1
    while toterr > tol and count < max_panels:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lv, le = _panel_est(f, pa, mid)
        rv, re_ = _panel_est(f, mid, pb)
        total += lv + rv - pval
        toterr += le + re_ - perr
        heapq.heappush(heap, (-le, serial, pa, mid, lv, le))
        heapq.heappush(heap, (-re_, serial + 1, mid, pb, rv, re_))
        serial += 2
        count += 1
    # re-sum in interval order: deterministic and kinder to cancellation
    panels = sorted(heap, key=lambda t: t[2])
    total = sum(p[4] for p in panels)
    toterr = sum(p[5] for p in panels)
    return total, toterr, count


def osc_semi_inf(g, omega: float, kind: str, tol: float):
    """Integral of g over [0, inf) where g oscillates like cos/sin(omega p).

    Splits at the oscillation zeros, then feeds the alternating half-period
    pieces to Euler acceleration; g (an array integrand) must supply the
    oscillating factor itself and decay algebraically.
    """
    if omega <= 0.0:
        raise ValidationError("oscillation frequency hint must be positive")
    if kind == "cos":
        first = 0.5 * math.pi / omega
    elif kind == "sin":
        first = math.pi / omega
    else:
        raise ValidationError("oscillation kind must be 'cos' or 'sin'")
    half = math.pi / omega
    head, head_err, _ = adaptive(g, 0.0, first, 0.1 * tol)
    pieces = []
    perr = 0.0
    for j in range(OSC_HALF_PERIODS):
        lo = first + j * half
        hi = lo + half
        v, e, _ = adaptive(g, lo, hi, 0.05 * tol / (j + 1.0) ** 2, max_panels=60)
        pieces.append(v)
        perr += e
        if j >= 7 and j % 2 == 1:
            est, spread = euler_alternating(pieces)
            if spread < 0.1 * tol:
                return head + est, head_err + perr + spread, j + 1
    est, spread = euler_alternating(pieces)
    return head + est, head_err + perr + spread, OSC_HALF_PERIODS


def tail_algebraic(g, cut: float, decay: float, tol: float):
    """Integral of g over [cut, inf) for g ~ p^(-decay-1), decay > 0.

    Inverting p = 1/u maps the tail to (0, 1/cut]; a further power map
    u = u0 v^m flattens the fractional endpoint behavior so fixed-order
    panels see a smooth integrand.
    """
    if decay <= 0.0:
        raise ValidationError("tail decay exponent must be positive")
    u0 = 1.0 / cut
    m = max(2, math.ceil(3.0 / decay))

    def h(v):
        u = u0 * v ** m
        if not np.all(u > _TAIL_U_MIN):
            # slow decay makes m large, and u0 v^m underflows at the nodes
            # near v = 0, where p * p = 1/u^2 would overflow
            raise QuadratureFailure(
                "tail map v^%d underflows at decay %.3g; tail integral not finite"
                % (m, decay))
        p = 1.0 / u
        return g(p) * p * p * u0 * m * v ** (m - 1)

    val, err, count = adaptive(h, 0.0, 1.0, tol, max_panels=200)
    if not (cmath.isfinite(val) and math.isfinite(err)):
        raise QuadratureFailure("tail integral not finite at decay %.3g" % decay)
    return val, err, count


def ray_segment(f, angle: float, radius: float, tol: float):
    """Integral of f along the ray t*e^(i*angle), t in [0, radius]; f maps
    an array of complex points to its values.

    The radial variable runs through t = v^4 so endpoint fractional powers
    in the integrand do not defeat the panel error estimator.
    """
    rot = cmath.exp(1j * angle)

    def h(v):
        t = v ** 4
        return 4.0 * v ** 3 * f(t * rot)

    val, err, count = adaptive(h, 0.0, radius ** 0.25, tol, RAY_PANELS)
    return rot * val, err, count


def fourier_pair_check(samples, grid: GridSpec, hbar: float = 1.0):
    """Round-trip and Plancherel defects of a sampled wavefunction.

    Forward transform (1/2pi hbar) integral of e^(-ipx/hbar) psi dx and its
    inverse are discretized with trapezoid weights on conjugate grids, so
    insufficient edge decay shows up as a real defect instead of being
    hidden by an exactly unitary DFT pair.  Returns (roundtrip, ratio) with
    ratio = norm(psi)^2 / (2 pi hbar norm(psihat)^2).
    """
    if hbar <= 0.0:
        raise ValidationError("hbar must be positive")
    psi = np.asarray(list(samples), dtype=complex)
    n = grid.count
    if psi.shape != (n,):
        raise ValidationError("sample count must match the grid")
    if not np.all(np.isfinite(psi.real) & np.isfinite(psi.imag)):
        raise ValidationError("samples must be finite")
    if not np.any(psi):
        return 0.0, 1.0
    x = grid.nodes()
    dx = x[1] - x[0]
    wx = np.full(n, dx)
    wx[0] = wx[-1] = 0.5 * dx
    dp = 2.0 * math.pi * hbar / (n * dx)
    p = dp * (np.arange(n) - n // 2)
    wp = np.full(n, dp)
    wp[0] = wp[-1] = 0.5 * dp
    kernel = np.exp(-1j * np.outer(p, x) / hbar)
    psihat = kernel @ (wx * psi) / (2.0 * math.pi * hbar)
    back = kernel.conj().T @ (wp * psihat)
    roundtrip = float(np.max(np.abs(back - psi)))
    if roundtrip > 1e-3:
        raise GridTooCoarse(
            "Fourier round-trip defect %.2e; refine or widen the grid" % roundtrip)
    ratio = float(np.sum(wx * np.abs(psi) ** 2)
                  / (2.0 * math.pi * hbar * np.sum(wp * np.abs(psihat) ** 2)))
    return roundtrip, ratio
