"""Adaptive quadrature engines.

Three strategies cover the integral shapes the solvers need: plain
adaptive bisection on a finite interval, an oscillatory splitter for a
real Fourier integral over [0, inf) with algebraic decay, and a rotated
ray for integrands that decay only off the real axis.  These routines are
the ground truth the closed forms are compared against, so they share no
code with the H-function evaluators.

Every integrand is an array function: it takes a 1-D float or complex
numpy array of nodes and returns an array of the same shape, elementwise
(numpy ufuncs such as np.exp and np.cos, not math or cmath).  One call
evaluates the nodes of a batch of panels: adaptive's first panels
(ADAPTIVE_START equal ones, or the graded ones its caller gives, as the
x = 0 delta oracle gives at most 23 toward p = 0 and past the resolvent's
knee), a bisection step's two halves, or, in osc_semi_inf, the head's six
panels graded toward p = 0 together with the first panels of OSC_BATCH
half-period pieces, so most oscillatory integrals take one call of the
integrand and, for the Euler sum of their pieces, one euler_alternating
call; a batch's pieces whose first panel misses its tolerance are all
bisected before that call.  A panel's error claim is at least its
rounding floor (_ROUNDING).
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .accel import euler_alternating
from .errors import QuadratureFailure, ValidationError

OSC_HALF_PERIODS = 96   # half-period pieces osc_semi_inf sums at most
OSC_BATCH = 32          # pieces whose first panels share one call of g
ADAPTIVE_START = 4      # equal first panels of adaptive, one call of f
RAY_PANELS = 1500       # adaptive panel cap of ray_segment
_TAIL_U_MIN = 2.0 ** -511  # smallest mapped node u with 1/u^2 finite
# a panel's least error claim per unit of its integral of |f|: QUADPACK's
# rounding floor of 50 ulps (Piessens et al., QUADPACK, Springer 1983)
_ROUNDING = 50.0 * np.finfo(float).eps
# osc_semi_inf's first head panels, in units of pi/omega: graded toward
# p = 0, where the integrand may carry a fractional power of p
_HEAD_EDGES = np.array([0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
# adaptive's first panel edges, in units of b - a from a
_START_EDGES = np.arange(ADAPTIVE_START + 1) / ADAPTIVE_START


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
        if not math.isfinite(self.stop - self.start):
            # np.linspace would step by inf and hand out NaN nodes
            raise ValidationError("grid span stop - start overflows double range")
        try:
            object.__setattr__(self, "count", operator.index(self.count))
        except TypeError:
            raise ValidationError("grid count must be an integer") from None
        if self.count < 2:
            raise ValidationError("grid count must be at least 2")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@lru_cache(maxsize=1)
def _panel_rule():
    """The 15- and 30-point Gauss-Legendre nodes on [-1, 1] as one 45-node
    set, with the weights of each rule and the order-30 weights times
    _ROUNDING."""
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x30, w30 = np.polynomial.legendre.leggauss(30)
    return np.concatenate((x15, x30)), w15, w30, _ROUNDING * w30


def _panel_est(f, a: np.ndarray, b: np.ndarray):
    """Panels [a_i, b_i] from one call of f on all of their nodes: each
    panel's order-30 value and its error claim, as arrays.  The claim is
    the value's deviation from order 15, but at least _ROUNDING times the
    order-30 rule applied to |f|: on a smooth panel the deviation alone
    can sit far below the rounding of the nodes and of f."""
    x, w15, w30, floor30 = _panel_rule()
    half = 0.5 * (b - a)
    nodes = half[:, None] * x + (0.5 * (a + b))[:, None]
    y = f(nodes.ravel()).reshape(nodes.shape)
    y30 = y[:, 15:]
    s30 = y30 @ w30
    err = np.maximum(np.abs(s30 - y[:, :15] @ w15), np.abs(y30) @ floor30)
    return half * s30, np.abs(half) * err


def _bisect(f, first, tol: float, max_panels: int):
    """Heap-driven bisection from first panels (a, b, val, err) that tile
    an interval; returns (value, error bound, panels used).  Each step
    splits the panel with the largest error and evaluates both halves in
    one call of f."""
    heap = [(-e, i, a, b, v, e) for i, (a, b, v, e) in enumerate(first)]
    toterr = sum(p[5] for p in heap)
    count = serial = len(heap)
    heapq.heapify(heap)
    while toterr > tol and count < max_panels:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        val, err = _panel_est(f, np.array([pa, mid]), np.array([mid, pb]))
        # Python scalars on the heap add and compare faster than numpy's
        (lv, rv), (le, re_) = val.tolist(), err.tolist()
        toterr += le + re_ - perr
        heapq.heappush(heap, (-le, serial, pa, mid, lv, le))
        heapq.heappush(heap, (-re_, serial + 1, mid, pb, rv, re_))
        serial += 2
        count += 1
    # re-sum in interval order: deterministic and kinder to cancellation
    panels = sorted(heap, key=lambda t: t[2])
    return sum(p[4] for p in panels), sum(p[5] for p in panels), count


def adaptive(f, a: float, b: float, tol: float, max_panels: int = 800,
             grading: np.ndarray = _START_EDGES):
    """Heap-driven bisection; returns (value, error bound, panels used).

    f maps an array of nodes in [a, b] to the array of integrand values.
    The first panels have the edges a + (b - a) grading, grading rising
    from 0 to 1: ADAPTIVE_START equal panels unless the caller grades
    them.  They are one call of f, and each bisection step after them is
    one call on the nodes of both halves.
    """
    edges = a + (b - a) * grading
    edges[-1] = b  # exactly
    lo, hi = edges[:-1], edges[1:]
    val, err = _panel_est(f, lo, hi)
    return _bisect(f, list(zip(lo.tolist(), hi.tolist(), val.tolist(), err.tolist())),
                   tol, max_panels)


def osc_semi_inf(g, omega: float, tol: float):
    """Integral of g over [0, inf) where g oscillates like e^(i omega p).

    The head [0, pi/omega] starts from six panels graded toward p = 0
    (edges _HEAD_EDGES times pi/omega), where g may have a fractional
    power, and is bisected from there.  The half-period pieces after it
    alternate in sign and go to Euler acceleration.  One call of g gives
    the head's six panels and the first panels of the first OSC_BATCH
    pieces, and each later call the first panels of OSC_BATCH more.  The
    sum stops at the first odd piece j >= 9 where the Euler estimates of
    pieces 0..j and 0..j-2 each have spread below 0.1 tol and agree within
    0.1 tol; err_est adds twice the larger of their spreads and twice
    their change to the panel errors, and work counts the pieces summed.
    Each batch first bisects every piece whose first panel misses its
    tolerance, then makes one euler_alternating call, which gives every
    estimate of the pieces so far, and one search of them for the stop.
    g (a real array integrand) must supply the oscillating factor itself,
    at any phase, and decay algebraically.
    """
    if omega <= 0.0:
        raise ValidationError("oscillation frequency hint must be positive")
    half = math.pi / omega
    edges = _HEAD_EDGES * half
    lo = half + np.arange(OSC_BATCH) * half
    a, b = np.concatenate((edges[:-1], lo)), np.concatenate((edges[1:], lo + half))
    val, err = _panel_est(g, a, b)
    nh = edges.size - 1
    head, head_err, _ = _bisect(g, list(zip(a[:nh], b[:nh], val[:nh], err[:nh])),
                                0.1 * tol, 800)
    val, err = val[nh:], err[nh:]
    pieces = np.empty(OSC_HALF_PERIODS, dtype=complex)
    perr = np.empty(OSC_HALF_PERIODS)
    piece_tol = 0.05 * tol / np.arange(1.0, OSC_HALF_PERIODS + 1.0) ** 2
    j = 0  # pieces in so far
    while True:
        end = j + val.size
        pieces[j:end], perr[j:end] = val, err
        for i in (j + np.flatnonzero(err > piece_tol[j:end])).tolist():
            lo_i = half + i * half
            pieces[i], perr[i], _ = _bisect(g, [(lo_i, lo_i + half, pieces[i], perr[i])],
                                            piece_tol[i], 60)
        # stop attempts at odd j of this batch from 9 on, each against j - 2
        js = np.arange(max(9, j | 1), end, 2)
        est, spread = euler_alternating(pieces[:end])
        change = np.abs(est[js] - est[js - 2])
        worst = np.maximum(np.maximum(spread[js], spread[js - 2]), change)
        hit = np.flatnonzero(worst < 0.1 * tol)
        if hit.size or end == OSC_HALF_PERIODS:
            k = hit[0] if hit.size else -1
            n = int(js[k]) + 1
            # the error is at most the last attempt's plus the change:
            # near its sign change Euler's error stalls while the spread
            # keeps falling, so the larger spread is charged
            euler_err = 2.0 * (max(spread[n - 1], spread[n - 3]) + change[k])
            return head + est[n - 1], head_err + perr[:n].sum() + euler_err, n
        j = end
        lo = half + np.arange(j, min(j + OSC_BATCH, OSC_HALF_PERIODS)) * half
        val, err = _panel_est(g, lo, lo + half)


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

