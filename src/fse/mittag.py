"""One-parameter Mittag-Leffler function E_b(z) on 0 < b <= 1.

Two schemes share the work.  A Taylor sum handles the ball where double
precision keeps enough digits (the largest term grows like exp(|z|^(1/b)),
so the ball is capped in that quantity, not just in |z|).  Everything else
goes through an inverse-Laplace parabolic contour with optimally tuned
(mu, h, N), including residue contributions for the pole of the Laplace
image that can cross to the right of the contour.  The parameter tuning
follows the optimal-parabolic-contour construction for Laplace inversion
at t = 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergence, ValidationError
from .result import EvalResult

MACH_EPS = float(np.finfo(float).eps)
LOG_MACH_EPS = math.log(MACH_EPS)

SERIES_RADIUS = 10.0
# exp(|z|^(1/beta)) is the top of the Taylor hump; keep it below ~e^12 so
# roundoff on the partial sums stays near 1e-11 absolute
SERIES_ROOT_CAP = 12.0
TERM_CAP = 2000
CONTOUR_NODE_CAP = 500


def _validate(beta: float, rel_tol: float):
    if not (0.0 < beta <= 1.0):
        raise ValidationError("beta must satisfy 0 < beta <= 1")
    if not (1e-14 <= rel_tol <= 1e-2):
        raise ValidationError("rel_tol must lie in [1e-14, 1e-2]")


def ml_series(beta: float, z: complex, rel_tol: float = 1e-10):
    """Taylor sum of E_beta at z with a three-term stop rule.

    Returns (value, err_est, nterms).  err_est combines the truncation
    tail with a roundoff floor proportional to the largest partial sum.
    """
    _validate(beta, rel_tol)
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j, 0.0, 1
    logz = cmath.log(z)
    total = 1.0 + 0.0j
    peak = 1.0
    round_acc = 0.0
    small_run = 0
    last_mag = 0.0
    for k in range(1, TERM_CAP + 1):
        lg = math.lgamma(beta * k + 1.0)
        expo = k * logz - lg
        if expo.real > 700.0:
            raise NonConvergence(
                "Mittag-Leffler series term overflows double range at k=%d" % k)
        term = cmath.exp(expo)
        total += term
        peak = max(peak, abs(total))
        round_acc += (4.0 + abs(expo.real) + abs(expo.imag)) * MACH_EPS * abs(term)
        last_mag = abs(term)
        # stop only after three consecutive small terms: near sign flips a
        # single small term proves nothing
        if last_mag < rel_tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    else:
        raise NonConvergence("Mittag-Leffler series hit the %d-term cap" % TERM_CAP)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise NonConvergence("Mittag-Leffler series overflowed double range")
    err = last_mag + round_acc + MACH_EPS * peak
    if z.imag == 0.0:
        total = complex(total.real, 0.0)
    return total, err, k + 1


def _param_bounded(phi_j, phi_j1, pj, qj, log_epsilon, t=1.0):
    """Contour parameters for a region bounded by two singularity strengths.

    Returns (mu, h, N) or None when the accuracy budget is inadmissible."""
    fac = 1.01
    f_max = math.exp(log_epsilon - LOG_MACH_EPS)
    sq_j = math.sqrt(phi_j)
    threshold = 2.0 * math.sqrt((log_epsilon - LOG_MACH_EPS) / t)
    sq_j1 = min(math.sqrt(phi_j1), threshold - sq_j)
    f_bar = None
    if pj < 1e-14 and qj < 1e-14:
        sqb_j, sqb_j1 = sq_j, sq_j1
    elif pj < 1e-14:
        sqb_j = sq_j
        f_min = fac * (sq_j / (sq_j1 - sq_j)) ** qj if sq_j > 0 else fac
        if f_min >= f_max:
            return None
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fq = f_bar ** (-1.0 / qj)
        sqb_j1 = (2.0 * sq_j1 - fq * sq_j) / (2.0 + fq)
    elif qj < 1e-14:
        sqb_j1 = sq_j1
        f_min = fac * (sq_j1 / (sq_j1 - sq_j)) ** pj
        if f_min >= f_max:
            return None
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / pj)
        sqb_j = (2.0 * sq_j + fp * sq_j1) / (2.0 - fp)
    else:
        f_min = fac * (sq_j + sq_j1) / (sq_j1 - sq_j) ** max(pj, qj)
        if f_min >= f_max:
            return None
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / pj)
        fq = f_bar ** (-1.0 / qj)
        w = -phi_j1 * t / log_epsilon
        den = 2.0 + w - (1.0 + w) * fp + fq
        sqb_j = ((2.0 + w + fq) * sq_j + fp * sq_j1) / den
        sqb_j1 = (-(1.0 + w) * fq * sq_j + (2.0 + w - (1.0 + w) * fp) * sq_j1) / den
    if f_bar is not None:
        log_epsilon = log_epsilon - math.log(f_bar)
    w = -sqb_j1 ** 2 * t / log_epsilon
    mu = (((1.0 + w) * sqb_j + sqb_j1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_epsilon * (sqb_j1 - sqb_j) / ((1.0 + w) * sqb_j + sqb_j1)
    N = int(math.ceil(math.sqrt(1.0 - log_epsilon / t / mu) / h))
    return mu, h, N


def _param_unbounded(phi_j, pj, log_epsilon, t=1.0):
    """Contour parameters for the outermost, unbounded region."""
    sq_j = math.sqrt(phi_j)
    phibar = phi_j * 1.01 if phi_j > 0 else 0.01
    f_min, f_max, f_tar = 1.0, 10.0, 5.0
    while True:
        phi_t = phibar * t
        log_eps_phi = log_epsilon / phi_t
        N = int(math.ceil(phi_t / math.pi * (1.0 - 1.5 * log_eps_phi + math.sqrt(1.0 - 2.0 * log_eps_phi))))
        A = math.pi * N / phi_t
        sq_mu = math.sqrt(phibar) * abs(4.0 - A) / abs(7.0 - math.sqrt(1.0 + 12.0 * A))
        fbar = ((math.sqrt(phibar) - sq_j) / sq_mu) ** (-pj) if pj >= 1e-14 else 0.0
        if pj < 1e-14 or (f_min < fbar < f_max):
            break
        phibar = (f_tar ** (-1.0 / pj) * sq_mu + sq_j) ** 2
    mu = sq_mu ** 2
    h = (-3.0 * A - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * A)) / (4.0 - A) / N
    threshold = (log_epsilon - LOG_MACH_EPS) / t
    if mu > threshold:
        # the roundoff budget is blown; rebalance toward the epsilon floor
        Q = f_tar ** (-1.0 / pj) * math.sqrt(mu) if abs(pj) >= 1e-14 else 0.0
        phibar = (Q + sq_j) ** 2
        if phibar >= threshold:
            return None
        w = math.sqrt(LOG_MACH_EPS / (LOG_MACH_EPS - log_epsilon))
        u = math.sqrt(-phibar * t / LOG_MACH_EPS)
        mu = threshold
        N = int(math.ceil(w * log_epsilon / (2.0 * math.pi * (u * w - 1.0))))
        h = math.sqrt(LOG_MACH_EPS / (LOG_MACH_EPS - log_epsilon)) / N
    return mu, h, N


def ml_contour(beta: float, z: complex, rel_tol: float = 1e-10):
    """E_beta(z) by inverse Laplace transform on a tuned parabolic contour.

    The Laplace image s^(beta-1)/(s^beta - z) has a branch point at the
    origin and, when |arg z| < beta*pi, one pole on the principal sheet.
    Singularities are sorted by phi(s) = (Re s + |s|)/2; the region with
    the cheapest admissible node count wins, and singularities right of
    it contribute residues exp(s0)/beta.
    Returns (value, err_est, nodes).
    """
    _validate(beta, rel_tol)
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j, 0.0, 0
    t = 1.0
    log_epsilon = math.log(max(0.1 * rel_tol, 1e-15))
    ang = cmath.phase(z)
    poles = []
    if abs(ang) < beta * math.pi:
        try:
            radius = abs(z) ** (1.0 / beta)
        except OverflowError:
            raise NonConvergence("Laplace pole of E_beta(z) overflows double range")
        poles.append(radius * cmath.exp(1j * ang / beta))
    phis = [0.0] + [(s.real + abs(s)) / 2.0 for s in poles]
    sings = [0j] + poles
    keep = [0] + [i for i in range(1, len(phis)) if phis[i] > 1e-15]
    phis = [phis[i] for i in keep]
    sings = [sings[i] for i in keep]
    p_str = [0.0] + [1.0] * (len(phis) - 1)
    q_str = [1.0] * (len(phis) - 1) + [math.inf]

    best = None
    for _ in range(8):
        phis_ext = phis + [math.inf]
        for j in range(len(phis)):
            if phis_ext[j] >= (log_epsilon - LOG_MACH_EPS) / t or phis_ext[j] >= phis_ext[j + 1]:
                continue
            if j < len(phis) - 1:
                got = _param_bounded(phis_ext[j], phis_ext[j + 1], p_str[j], q_str[j], log_epsilon)
            else:
                got = _param_unbounded(phis_ext[j], p_str[j], log_epsilon)
            if got is None:
                continue
            if best is None or got[2] < best[2]:
                best = (got[0], got[1], got[2], j)
        if best is not None and best[2] <= CONTOUR_NODE_CAP:
            break
        log_epsilon += math.log(10.0)
        best = None
    if best is None:
        raise NonConvergence("no admissible inversion contour for E_beta")
    mu, h, N, j_sel = best

    k = np.arange(-N, N + 1)
    u = h * k
    s = mu * (1j * u + 1.0) ** 2
    ds = 2j * mu * (1j * u + 1.0)
    contrib = np.exp(s * t) * s ** (beta - 1.0) / (s ** beta - z) * ds
    integral = h * np.sum(contrib) / (2j * math.pi)
    asum = h * np.sum(np.abs(contrib)) / (2.0 * math.pi)
    residues = 0.0 + 0.0j
    ressum = 0.0
    for s0 in sings[j_sel + 1:]:
        try:
            r = cmath.exp(t * s0) / beta
        except OverflowError:
            raise NonConvergence(
                "residue exp(%.4g) of E_beta(z) overflows double range" % s0.real)
        residues += r
        ressum += abs(r)
    val = integral + residues
    err = 3.0 * math.exp(log_epsilon) * max(abs(integral), abs(val)) + MACH_EPS * (asum + ressum)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NonConvergence("contour value for E_beta overflowed double range")
    if z.imag == 0.0:
        val = complex(val.real, 0.0)
    return val, err, 2 * N + 1


def ml_eval(beta: float, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """E_beta(z) with automatic scheme selection and an honest accuracy gate.

    Raises NonConvergence when neither scheme's error estimate meets
    rel_tol relative to the returned magnitude; this is inherent near deep
    sign-changing arguments where the function is exponentially smaller
    than the roundoff floor of any fixed-precision route.
    """
    _validate(beta, rel_tol)
    z = complex(z)
    if z == 0:
        return EvalResult(1.0 + 0.0j, 0.0, "series", 1)
    in_ball = abs(z) <= SERIES_RADIUS and abs(z) ** (1.0 / beta) <= SERIES_ROOT_CAP
    tried = []
    if in_ball:
        val, err, work = ml_series(beta, z, rel_tol)
        if err <= rel_tol * max(abs(val), 1e-300):
            return EvalResult(val, err, "series", work)
        tried.append(("series", err, abs(val)))
    val, err, work = ml_contour(beta, z, rel_tol)
    if err <= rel_tol * max(abs(val), 1e-300):
        return EvalResult(val, err, "contour", work)
    tried.append(("contour", err, abs(val)))
    detail = "; ".join("%s err_est %.2e at |value| %.2e" % t for t in tried)
    raise NonConvergence(
        "E_beta(z) error estimate misses rel_tol %.1e (%s)" % (rel_tol, detail))


def ml_as_foxh(beta: float, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """E_beta(z) routed through its H-function representation.

    The representation carries argument -z, so positive real z sits on the
    boundary ray where the Mellin-Barnes integral stops existing; such
    points are refused by the existence gate rather than continued.
    z = 0 short-circuits to the exact value 1.
    """
    _validate(beta, rel_tol)
    z = complex(z)
    if z == 0:
        return EvalResult(1.0 + 0.0j, 0.0, "closed-form", 0)
    from .foxh import FoxHParams, eval_auto

    params = FoxHParams(
        m=1, n=1,
        upper=((0.0, 1.0),),
        lower=((0.0, 1.0), (0.0, beta)),
    )
    res = eval_auto(params, -z, rel_tol)
    val = res.value
    if z.imag == 0.0 and abs(val.imag) <= 1e-13 * abs(val):
        val = complex(val.real, 0.0)
    return EvalResult(val, res.err_est, res.method, res.work)
