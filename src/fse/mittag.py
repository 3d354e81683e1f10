"""One-parameter Mittag-Leffler function E_b(z) on 0 < b <= 1.

Two schemes share the work; at b = 1, ml_eval returns E_1(z) = exp(z)
itself.  A Taylor sum handles the ball where double precision keeps
enough digits (the largest term grows like exp(|z|^(1/b)), so the ball is
capped in that quantity, not just in |z|).  Inside it a sum whose
rounding floor will miss rel_tol, predicted from (b, z, rel_tol) before
its first term (_taylor_misses), takes the contour first.  Everything
else goes through an inverse-Laplace parabolic contour with optimally
tuned (mu, h, N), after the optimal-parabolic-contour construction for
Laplace inversion at t = 1.  That construction handles any number of
sorted singularities; the image of E_b with b <= 1 has two at most, the
branch point at 0 and one pole on the principal sheet, so the contour has
two candidate regions: left of the pole, which then adds its residue, and
right of it.

The z-free work is kept across calls, since a time grid calls both
routes many times at one b, by functools.lru_cache, least recently used
out first: the Taylor log-coefficients -log Gamma(b k + 1) of the last
_TABLE_CAP orders b (_log_coefs), each computed the first time a sum
reads it, so at most POWER_SUM_CAP + 1 of them; and, in one table of the
last _CONTOUR_CAP contours (_contour), keyed on b, log epsilon and rung,
every contour a call has run on.  A contour is its (h, N) and the nodes'
w, s^b and e^s s^b.  With no pole on the principal sheet (mu, h, N)
depend on log epsilon alone (rung None), so a pole-free call only divides
by (s^b - z) w and sums.  With a pole they follow the pole's phi, which
moves with z; so phi is taken down to a rung [lo, hi] of a fixed ladder,
16 rungs an octave, and the contour is tuned to the rung's edge on its
own side of the pole: left of it to lo <= phi, right of it to hi >= phi,
so the pole lies at least as far from the nodes as the tuning assumed,
and every z on the rung shares one contour.  A pole call whose rung's
contour misses rel_tol runs again on one tuned to its own phi, which is
not kept; it comes from the same builder as the kept ones (_build).  A
cold call fills the tables and then reads them as a warm one does, and
every kept value has the bits of a fresh one.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, ValidationError
from .numerics import MACH_EPS, power_sum
from .result import EvalResult, _check_argument, _check_rel_tol, _meets_tol

LOG_MACH_EPS = math.log(MACH_EPS)
_DBL_MAX = sys.float_info.max

SERIES_RADIUS = 10.0
# exp(|z|^(1/beta)) is the top of the Taylor hump; keep it below ~e^12 so
# roundoff on the partial sums stays near 1e-11 absolute
SERIES_ROOT_CAP = 12.0
# the orders whose log-coefficients are kept, about 170 KB each at the
# term cap, and the contours kept over all orders, log epsilon and rungs.
# Over rel_tol in [1e-14, 1e-2] a contour has at most 2 N + 1 = 365 nodes
# (ml_contour), three complex arrays of 5.8 KB each, so a full contour
# table takes under 18.5 MB, and with the coefficients of _TABLE_CAP
# orders (5.5 MB) both tables stay under 25 MB; a time grid of a few
# orders builds a few hundred contours
_TABLE_CAP = 32
_CONTOUR_CAP = 1024
# rung j = 16 e + k of the ladder holds 2^e m_k <= phi < 2^e m_(k+1), with
# the mantissas m_k = 2^(k/16), k = 0..16: scaling by 2^e is exact, so
# the rung's edges bracket phi to the bit.  From phi = 4 (log epsilon -
# log eps) on, the left region's (mu, h, N) no longer depend on phi (its
# sqrt(phi) is capped at 2 sqrt(log epsilon - log eps)) and the right
# region is closed (phi past log epsilon - log eps), so one top rung holds
# them all; that edge lies below 2^7 at every rel_tol, and _TOP_RUNG above
# every rung under it
_RUNGS_PER_OCTAVE = 16
_RUNG_MANTISSAS = tuple(2.0 ** (k / _RUNGS_PER_OCTAVE) for k in range(_RUNGS_PER_OCTAVE + 1))
_TOP_RUNG = 7 * _RUNGS_PER_OCTAVE
# _taylor_misses predicts a miss only where its predicted rounding floor
# exceeds _MISS_MARGIN times rel_tol times its predicted |E_beta(z)|.
# Against the whole sum's err_est, over 152,000 random in-ball sums (beta
# uniform in [0.01, 0.99999] or log-uniform from 0.001, every phase,
# rel_tol log-uniform in [1e-14, 1e-2]) no sum that meets rel_tol had a
# ratio above 1.34, so the margin of 2 sends none of them to the contour
_MISS_MARGIN = 2.0
# nor any sum that might reach the POWER_SUM_CAP-term cap, whose refusal
# ml_eval passes on: its term at k = _CAP_PROBE_K must lie below
# e^_CAP_PROBE_LOG.  Over 40,000 random in-ball sums (beta log-uniform in
# [0.001, 1)) that term was above e^-16 for all 853 that hit the cap, and
# on the benchmark's time grids it is below e^-690 for every in-ball sum
_CAP_PROBE_K = 1000
_CAP_PROBE_LOG = -50.0


def _validate(beta: float, z: complex, rel_tol: float) -> complex:
    """complex(z) once beta, z and rel_tol pass: a NaN z is invalid, an
    infinite one past double range; either would only reach numpy as a
    warning or stall the series."""
    if not (0.0 < beta <= 1.0):
        raise ValidationError("beta must satisfy 0 < beta <= 1")
    _check_rel_tol(rel_tol)
    return _check_argument(z, "Mittag-Leffler")


class _LogCoefs(dict):
    """-log Gamma(beta k + 1) by k, each computed on its first read."""

    __slots__ = ("beta",)

    def __init__(self, beta):
        self.beta = beta

    def __missing__(self, k):
        coef = self[k] = -math.lgamma(self.beta * k + 1.0)
        return coef


# the log-coefficients of the last _TABLE_CAP orders, by beta
_log_coefs = lru_cache(maxsize=_TABLE_CAP)(_LogCoefs)


def ml_series(beta: float, z: complex, rel_tol: float = 1e-10):
    """Taylor sum of E_beta at z, (value, err_est, nterms): power_sum over
    the log-coefficients -log Gamma(beta k + 1), read from the order's kept
    ones and computed only past them, so a sum at any z reuses them.  Its
    terms fall slowly at small beta (the ratio is about |z| / (beta k)^beta),
    so the rest of the sum is claimed as the geometric tail at the last
    term ratios, not as the last term alone.  The sum always runs whole;
    ml_eval skips the sums _taylor_misses predicts to miss rel_tol.  The
    tuple is raw: ml_eval and `fse ml` accept it only when err_est meets
    rel_tol."""
    z = _validate(beta, z, rel_tol)
    return power_sum(z, _log_coefs(beta).__getitem__, rel_tol,
                     "Mittag-Leffler series", head=1.0)


def _taylor_misses(beta: float, z: complex, rel_tol: float) -> bool:
    """Whether ml_series's err_est at z (0 < |z| in the series ball) will
    miss rel_tol, predicted before its first term.

    With x = |z|^(1/beta) and phi = |arg z|, power_sum charges term k,
    t_k = |z|^k / Gamma(beta k + 1), a rounding claim of
    (4 + |ln t_k| + k phi) eps t_k.  The terms form a hump at k ~ x / beta
    that sums to about e^x / beta, with |ln t_k| <= x on it, so the claims
    sum to about eps (e^x / beta) (4 + x + (x / beta) phi).  E_beta(z) is
    about its algebraic tail 1 / (|z| |Gamma(1 - beta)|) plus the pole's
    exponential e^(x cos(phi / beta)) / beta (Podlubny 1999, 1.2), with the
    pole's phase clamped at pi so that a pole just off the principal sheet
    still counts.  A miss is predicted when the floor exceeds _MISS_MARGIN
    times rel_tol times that size, and only where the term at k =
    _CAP_PROBE_K is below e^_CAP_PROBE_LOG, so that the sum cannot reach
    its term cap.
    """
    x = abs(z) ** (1.0 / beta)
    phi = abs(math.atan2(z.imag, z.real))
    floor = MACH_EPS * math.exp(x) / beta * (4.0 + x + x / beta * phi)
    size = (1.0 / (abs(z) * abs(math.gamma(1.0 - beta)))
            + math.exp(x * math.cos(min(phi / beta, math.pi))) / beta)
    return (floor > _MISS_MARGIN * rel_tol * size
            and _CAP_PROBE_K * math.log(abs(z)) - math.lgamma(beta * _CAP_PROBE_K + 1.0)
            < _CAP_PROBE_LOG)


def _param_left(phi, log_epsilon):
    """Contour parameters (mu, h, N) for the region left of the pole,
    0 < mu < phi, bounded by the branch point at 0 and the pole's phi."""
    f_max = math.exp(log_epsilon - LOG_MACH_EPS)
    sq = min(math.sqrt(phi), 2.0 * math.sqrt(log_epsilon - LOG_MACH_EPS))
    f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
    sqb = 2.0 * sq / (2.0 + f_bar ** -1.0)
    log_epsilon = log_epsilon - math.log(f_bar)
    w = -sqb ** 2 / log_epsilon
    mu = (sqb / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_epsilon
    N = int(math.ceil(math.sqrt(1.0 - log_epsilon / mu) / h))
    return mu, h, N


def _param_right(phi, log_epsilon):
    """Contour parameters (mu, h, N) for the unbounded region right of the
    pole's phi (of the branch point alone when phi = 0), or None when the
    roundoff budget is blown."""
    sq_j = math.sqrt(phi)
    phibar = phi * 1.01 if phi > 0 else 0.01
    f_min, f_max, f_tar = 1.0, 10.0, 5.0
    while True:
        log_eps_phi = log_epsilon / phibar
        N = int(math.ceil(phibar / math.pi * (1.0 - 1.5 * log_eps_phi + math.sqrt(1.0 - 2.0 * log_eps_phi))))
        A = math.pi * N / phibar
        sq_mu = math.sqrt(phibar) * abs(4.0 - A) / abs(7.0 - math.sqrt(1.0 + 12.0 * A))
        if phi == 0 or f_min < ((math.sqrt(phibar) - sq_j) / sq_mu) ** -1.0 < f_max:
            break
        phibar = (f_tar ** -1.0 * sq_mu + sq_j) ** 2
    mu = sq_mu ** 2
    h = (-3.0 * A - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * A)) / (4.0 - A) / N
    threshold = log_epsilon - LOG_MACH_EPS
    if mu > threshold:
        # the roundoff budget is blown; rebalance toward the epsilon floor
        Q = f_tar ** -1.0 * math.sqrt(mu) if phi > 0 else 0.0
        phibar = (Q + sq_j) ** 2
        if phibar >= threshold:
            return None
        w = math.sqrt(LOG_MACH_EPS / (LOG_MACH_EPS - log_epsilon))
        u = math.sqrt(-phibar / LOG_MACH_EPS)
        mu = threshold
        N = int(math.ceil(w * log_epsilon / (2.0 * math.pi * (u * w - 1.0))))
        h = w / N
    return mu, h, N


def _rung(phi, log_epsilon):
    """The ladder's rung j of a pole's phi > 0: _TOP_RUNG from
    4 (log epsilon - log eps) on."""
    if phi >= 4.0 * (log_epsilon - LOG_MACH_EPS):
        return _TOP_RUNG
    mantissa, e = math.frexp(phi)
    return _RUNGS_PER_OCTAVE * (e - 1) + bisect_right(_RUNG_MANTISSAS, 2.0 * mantissa) - 1


def _rung_edges(j, log_epsilon):
    """(lo, hi) of rung j: lo <= phi < hi for every phi on it."""
    if j == _TOP_RUNG:
        return 4.0 * (log_epsilon - LOG_MACH_EPS), math.inf
    e, k = divmod(j, _RUNGS_PER_OCTAVE)
    return math.ldexp(_RUNG_MANTISSAS[k], e), math.ldexp(_RUNG_MANTISSAS[k + 1], e)


def _contour_params(lo, hi, log_epsilon):
    """(mu, h, N, left) of the region with fewer nodes for a pole whose
    phi lies in [lo, hi]: left of it, tuned to lo, or right of it, tuned
    to hi; lo = hi = 0 when there is no pole, and then right of the branch
    point alone.  With a pole the left region always exists, and with none
    the right one, which _param_right never declines at phi = 0."""
    best, left = None, False
    if lo > 0:
        best, left = _param_left(lo, log_epsilon), True
    if hi < log_epsilon - LOG_MACH_EPS:
        right = _param_right(hi, log_epsilon)
        if right is not None and (best is None or right[2] < best[2]):
            best, left = right, False
    return best + (left,)


def _nodes(beta, mu, h, N):
    """The z-free parts of the contour's integrand at its nodes: w = 1 + iu,
    s^beta and e^s s^beta, for s = mu w^2 and u = h k, |k| <= N."""
    w = np.arange(-N, N + 1) * (1j * h) + 1.0
    s = w * w * mu
    s_beta = np.exp(np.log(s) * beta)
    return w, s_beta, np.exp(s) * s_beta


def _overflow_free(w, s_beta, num):
    """(z_cap, arg_floor) of a contour's nodes: for |z| < z_cap and
    |arg z| > arg_floor no node's (s^beta - z) w or quotient can overflow,
    whether or not z has a pole on the principal sheet.

    |s^beta - z| |w| <= (max|s^beta| + |z|) max|w|, below DBL_MAX / 4
    under z_cap, which bounds the difference, every product the complex
    multiply forms and the divisor's rescaling in the division.  The angle
    between z and each s^beta is at least |arg z| - max|arg s^beta|, so
    above arg_floor = max|arg s^beta| + 1e-9 (1e-9 covers the rounding of
    both angles, and of the difference) |s^beta - z| >=
    max(|s^beta|, |z|) sin(1e-9).  Since |w| >= 1, no quotient then exceeds
    max|num| / (min|s^beta| 2e-9 / pi), and reach < 1e-9 keeps that below
    DBL_MAX / 8 and the divisor's reciprocal finite; past it nothing is
    free.
    """
    size = np.abs(s_beta)
    z_cap = _DBL_MAX / (4.0 * float(np.abs(w).max())) - float(size.max())
    reach = 16.0 * max(float(np.abs(num).max()), 1.0) / (float(size.min()) * _DBL_MAX)
    arg_floor = float(np.abs(np.angle(s_beta)).max()) + 1e-9 if reach < 1e-9 else math.inf
    return z_cap, arg_floor


def _build(beta, log_epsilon, lo, hi):
    """The contour of a pole whose phi lies in [lo, hi], or of none at
    lo = hi = 0 (_contour_params): (h, N, w, s^beta, e^s s^beta, left,
    z_cap, arg_floor), with _overflow_free's bound on its nodes, which
    holds whether or not the contour has a pole."""
    mu, h, N, left = _contour_params(lo, hi, log_epsilon)
    nodes = _nodes(beta, mu, h, N)
    return (h, N) + nodes + (left,) + _overflow_free(*nodes)


@lru_cache(maxsize=_CONTOUR_CAP)
def _contour(beta, log_epsilon, rung):
    """The kept _build of a pole whose phi lies on the ladder's rung, built
    at the rung's edges, or of none at rung None, built at 0, 0.  Kept by
    lru_cache, which keys a keyword call apart from a positional one, so
    every call passes the three positionally."""
    lo, hi = (0.0, 0.0) if rung is None else _rung_edges(rung, log_epsilon)
    return _build(beta, log_epsilon, lo, hi)


def _invert(beta, z, log_epsilon, contour, pole):
    """(value, err_est, nodes) of E_beta(z) on one contour record (_build):
    the nodes' sum, plus the residue exp(s0)/beta at the pole s0 when the
    record runs left of it.  Inside the record's _overflow_free bound the
    quotients are formed without the overflow check."""
    h, N, w, s_beta, num, left, z_cap, arg_floor = contour
    if abs(z) < z_cap and abs(math.atan2(z.imag, z.real)) > arg_floor:
        contrib = num / ((s_beta - z) * w)
    else:
        try:
            with np.errstate(over="raise"):
                contrib = num / ((s_beta - z) * w)
        except FloatingPointError:
            raise NonConvergence(
                "inversion contour of E_beta overflows double range at |z| = %.4g"
                % abs(z)) from None
    integral = h / math.pi * contrib.sum()
    asum = h / math.pi * np.abs(contrib).sum()
    residue = 0.0 + 0.0j
    if left:
        try:
            residue += cmath.exp(pole) / beta
        except OverflowError:
            raise NonConvergence(
                "residue exp(%.4g) of E_beta(z) overflows double range" % pole.real)
    val = integral + residue
    err = 3.0 * math.exp(log_epsilon) * max(abs(integral), abs(val)) + MACH_EPS * (asum + abs(residue))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NonConvergence("contour value for E_beta overflowed double range")
    return val, err, 2 * N + 1


def ml_contour(beta: float, z: complex, rel_tol: float = 1e-10):
    """E_beta(z) by inverse Laplace transform on a tuned parabolic contour.

    The Laplace image s^(beta-1)/(s^beta - z) has a branch point at the
    origin and at most one pole on the principal sheet: the poles are
    s^beta = z e^(2 pi i k), and |arg z + 2 pi k| < beta pi <= pi holds
    for k = 0 only, when |arg z| < beta pi.  The parabola s = mu (1 + iu)^2
    keeps the singularities with phi(s) = (Re s + |s|)/2 < mu on its left,
    so it runs in one of two regions: left of the pole (0 < mu < phi of
    the pole), where the pole's residue exp(s0)/beta is added, or right of
    it (mu > phi, unbounded), the only region when there is no pole.  The
    region with fewer nodes wins.  It has no node cap: over rel_tol in
    [1e-14, 1e-2], on every rung and at a dense sweep of phi in {0} u
    [1e-15, 1e300], the winner has at most 2 N + 1 = 365 nodes
    (tests/test_mittag.py); from phi = 4 (log epsilon - log eps) on it no
    longer depends on phi, and at phi <= 1e-15 the pole counts as none.

    The nodes are s = mu w^2 with w = 1 + iu, u = h k for |k| <= N.  Each
    takes one complex logarithm: s^beta = exp(beta log s) on the principal
    branch, and the rest of the integrand follows by division, since
    s^(beta-1) ds = (s^beta / s) 2 mu w du = s^beta (2i / w) du; the 2i
    cancels against the 1 / (2 pi i) of the inversion.  With no pole,
    (mu, h, N) depend on log epsilon alone, so the nodes' w, s^beta and
    e^s s^beta are kept per beta and log epsilon (_contour at rung None)
    and a call only forms e^s s^beta / ((s^beta - z) w) and sums.  With a
    pole they follow the pole's phi, so they are tuned to the edges of its
    rung lo <= phi < hi on a fixed ladder, 16 rungs an octave (_rung): the
    left region to lo, which keeps its mu below lo and so below phi, the
    right region to hi, which keeps its mu above hi and so above phi.
    Either way the pole lies on its side of the contour, at least as far
    from it as the tuning assumed, and the contour is kept per beta, log
    epsilon and rung, so every z whose pole falls on the rung reads it;
    the residue is still taken at the exact pole.  An edge's tuning can
    raise err_est's rounding floor eps sum|node| (right of the pole mu
    rises with hi), so a pole call whose kept contour misses rel_tol runs
    again on a contour tuned to phi itself and not kept: it returns what a
    per-call tuning returns, and the ladder loses no answer of that
    tuning.  A refusal on a kept contour needs no rerun: below the top
    rung, phi < 4 (log epsilon - log eps) keeps |z| and the residue far
    inside double range, and on the top rung the contour is the one tuned
    to phi.  Near double range (|z| ~ 5e307) (s^beta - z) w overflows at
    most nodes, which would then add 0 to the sum, so the quotients are
    formed under np.errstate(over="raise") and an overflow refuses.  Every
    contour, kept or tuned to phi, comes from one builder (_build) with its
    bound (_overflow_free), and a call skips that check (about 1.3 us)
    where the bound rules overflow out: |z| below DBL_MAX / (4 max|w|) -
    max|s^beta|, about 1e307, and |arg z| at least 1e-9 past every node's
    |arg s^beta| <= 2 beta atan(N h).  That lies well below beta pi, so
    the whole pole-free side clears it, and so do some pole calls (on the
    time factor's E < 0 ray, from beta = 2/3, where the pole appears, to
    about 0.75, and at some |z| beyond).  Past the bound the check and its
    refusal stay.
    Returns (value, err_est, nodes), nodes summed over the contours it
    ran, raw like ml_series's tuple.
    """
    z = _validate(beta, z, rel_tol)
    if z == 0:
        return 1.0 + 0.0j, 0.0, 0
    log_epsilon = math.log(max(0.1 * rel_tol, 1e-15))
    ang = math.atan2(z.imag, z.real)  # cmath.phase overflows at 1e300 + 1e-300j
    pole, phi = None, 0.0
    if abs(ang) < beta * math.pi:
        try:
            radius = abs(z) ** (1.0 / beta)
        except OverflowError:
            raise NonConvergence("Laplace pole of E_beta(z) overflows double range")
        pole = radius * cmath.exp(1j * ang / beta)
        phi = (pole.real + abs(pole)) / 2.0
        if phi <= 1e-15:
            # on the negative axis to rounding: left of every contour
            pole, phi = None, 0.0

    rung = None if pole is None else _rung(phi, log_epsilon)
    val, err, work = _invert(beta, z, log_epsilon, _contour(beta, log_epsilon, rung), pole)
    if pole is not None and not _meets_tol(err, val, rel_tol):
        val, err, nodes = _invert(beta, z, log_epsilon, _build(beta, log_epsilon, phi, phi), pole)
        work += nodes
    if z.imag == 0.0:
        val = complex(val.real, 0.0)
    return val, err, work


def ml_eval(beta: float, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """E_beta(z) with automatic scheme selection and an honest accuracy gate.

    At beta = 1 it returns E_1(z) = exp(z) directly (method "exp").
    Otherwise the series is tried first inside the ball
    |z| <= min(SERIES_RADIUS, SERIES_ROOT_CAP^beta), that is |z|^(1/beta) <=
    SERIES_ROOT_CAP, written so that no power overflows at a tiny beta, and
    every other point goes to the contour.  In the ball a sum that
    _taylor_misses predicts to miss rel_tol runs after the contour, and
    only if the contour misses too: the prediction fires on no sum that
    meets rel_tol and on none that could reach the term cap, so the order
    moves no answer and no refusal, and a refusal names the series first
    as before.  Both routes are looked up as module globals at each call.
    It raises NonConvergence when neither scheme's error
    estimate meets rel_tol relative to the returned magnitude; this is
    inherent near deep sign-changing arguments where the function is
    exponentially smaller than the roundoff floor of any fixed-precision
    route.
    """
    z = _validate(beta, z, rel_tol)
    if z == 0:
        return EvalResult(1.0 + 0.0j, 0.0, "series", 1)
    if beta == 1.0:
        # E_1 is the exponential; cmath rounds it to within an ulp or two,
        # and an underflowing value to within one subnormal step
        try:
            val = cmath.exp(z)
        except OverflowError:
            raise NonConvergence(
                "E_1(z) = exp(z) overflows double range at Re z = %.4g" % z.real)
        return EvalResult(val, 2.0 * MACH_EPS * abs(val) + math.ulp(0.0), "exp", 1)
    if abs(z) > min(SERIES_RADIUS, SERIES_ROOT_CAP ** beta):
        order = ("contour",)
    elif _taylor_misses(beta, z, rel_tol):
        order = ("contour", "series")
    else:
        order = ("series", "contour")
    tried = {}
    for method in order:
        val, err, work = (ml_series if method == "series" else ml_contour)(beta, z, rel_tol)
        if _meets_tol(err, val, rel_tol):
            return EvalResult(val, err, method, work)
        tried[method] = "%s err_est %.2e at |value| %.2e" % (method, err, abs(val))
    detail = "; ".join(tried[m] for m in ("series", "contour") if m in tried)
    raise NonConvergence(
        "E_beta(z) error estimate misses rel_tol %.1e (%s)" % (rel_tol, detail))
