"""Bound-state wavefunction for the attractive point potential.

The closed form combines four H-function evaluations at phase-rotated
arguments; the quadrature route integrates the momentum-space resolvent
directly and is the independent oracle.  For x < 0 the sine integral flips
sign with the coordinate (the cosine one is even), a rule the oracle
fixes unambiguously.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import DomainError, NonConvergence, QuadratureFailure, ValidationError
from .foxh import FoxHParams, eval_auto, eval_contour, eval_series
from .quadrature import adaptive, osc_semi_inf, tail_algebraic
from .result import DeltaConfig, EvalResult, _check_positive, _route

_ROUTES = {"auto": eval_auto, "series": eval_series, "contour": eval_contour}


def _even_part_params(alpha: float) -> FoxHParams:
    a1 = 1.0 - 1.0 / alpha
    return FoxHParams(m=2, n=1,
                      upper=((a1, 1.0 / alpha), (0.5, 0.5)),
                      lower=((0.0, 1.0), (a1, 1.0 / alpha), (0.5, 0.5)))


def _odd_part_params(alpha: float) -> FoxHParams:
    a1 = 1.0 - 1.0 / alpha
    return FoxHParams(m=2, n=1,
                      upper=((a1, 1.0 / alpha),),
                      lower=((0.5, 0.5), (a1, 1.0 / alpha), (0.0, 0.5)))


def _hbar_scales(cfg: DeltaConfig):
    """(zeta per unit |x|, (2 pi hbar)^2), refused when an extreme hbar takes
    them out of double range; the divisor must be a normal float."""
    try:
        zscale = (cfg.hbar ** cfg.alpha * cfg.c_alpha / -cfg.energy) ** (-1.0 / cfg.alpha)
        h2 = (2.0 * math.pi * cfg.hbar) ** 2
    except (OverflowError, ZeroDivisionError):
        zscale = h2 = 0.0
    if not (0.0 < zscale < math.inf and sys.float_info.min <= h2 < math.inf):
        raise NonConvergence("hbar = %g puts the delta-well scales out of double range" % cfg.hbar)
    return zscale, h2


def _prefactors(cfg: DeltaConfig, h2: float):
    scal = (cfg.c_alpha / (-cfg.energy)) ** (-1.0 / cfg.alpha)
    denom = h2 * cfg.alpha * cfg.energy
    pref1 = -math.pi * cfg.gamma_strength * cfg.k_norm / denom * scal
    pref2 = -1j * cfg.gamma_strength * cfg.k_norm * math.sqrt(math.pi) \
        / (2.0 * denom) * scal
    return pref1, pref2


def delta_closed_form(cfg: DeltaConfig, x: float, rel_tol: float = 1e-9,
                      method: str = "auto") -> EvalResult:
    """Wavefunction at x != 0 from the four-H-function assembly."""
    if x == 0.0:
        raise DomainError("closed form is undefined at x = 0; use the quadrature route")
    if not math.isfinite(x):
        raise ValidationError("x must be finite")
    ev = _route(_ROUTES, method)
    zscale, h2 = _hbar_scales(cfg)
    zeta = abs(x) * zscale
    ph = cmath.exp(-1j * cfg.theta * math.pi / (2.0 * cfg.alpha))
    pref1, pref2 = _prefactors(cfg, h2)
    work = 0
    err = 0.0
    labels = []
    even = _even_part_params(cfg.alpha)
    if cfg.theta == 0.0:
        r = ev(even, zeta, rel_tol)
        b1 = 2.0 * r.value
        err += 2.0 * abs(pref1) * r.err_est
        work += r.work
        labels.append(r.method)
        b2 = 0.0 + 0.0j
    else:
        rp = ev(even, zeta * ph, rel_tol)
        rm = ev(even, zeta * ph.conjugate(), rel_tol)
        b1 = ph * rp.value + ph.conjugate() * rm.value
        err += abs(pref1) * (rp.err_est + rm.err_est)
        work += rp.work + rm.work
        labels += [rp.method, rm.method]
        odd = _odd_part_params(cfg.alpha)
        sp = ev(odd, 0.5 * zeta * ph, rel_tol)
        sm = ev(odd, 0.5 * zeta * ph.conjugate(), rel_tol)
        b2 = ph * sp.value - ph.conjugate() * sm.value
        err += abs(pref2) * (sp.err_est + sm.err_est)
        work += sp.work + sm.work
        labels += [sp.method, sm.method]
    sgn = 1.0 if x > 0.0 else -1.0
    value = pref1 * b1 + sgn * pref2 * b2
    label = labels[0] if len(set(labels)) == 1 else "mixed"
    return EvalResult(value=value, err_est=err, method="closed[%s]" % label,
                      work=work)


def delta_classical(hbar: float, mass: float, energy: float, lam: complex,
                    x: float) -> complex:
    """Textbook bound state of the point potential: lam * e^(-|x| kappa)."""
    if not (hbar > 0.0 and mass > 0.0):
        raise ValidationError("hbar and mass must be positive")
    if not (energy < 0.0):
        raise ValidationError("the bound state needs energy < 0")
    kappa = math.sqrt(-2.0 * mass * energy) / hbar
    return complex(lam) * math.exp(-abs(x) * kappa)


def delta_quadrature(cfg: DeltaConfig, x: float, abs_tol: float = 1e-9) -> EvalResult:
    """Oracle route: cosine/sine integrals of the momentum-space resolvent.

    The denominator C|p|^alpha e^(+-i theta pi/2) - E never vanishes for
    E < 0 (its real part stays above -E), so both integrands are smooth
    with algebraic decay.
    """
    if not math.isfinite(x):
        raise ValidationError("x must be finite")
    _check_positive(abs_tol, "abs_tol")
    h2 = _hbar_scales(cfg)[1]
    pref = cfg.gamma_strength * cfg.k_norm / h2
    if not cmath.isfinite(pref):
        raise NonConvergence(
            "prefactor gamma * k_norm / (2 pi hbar)^2 overflows (gamma = %g)"
            % cfg.gamma_strength)
    th2 = cfg.theta * math.pi / 2.0
    ca = cfg.c_alpha
    en = cfg.energy
    rot_p = cmath.exp(1j * th2)
    rot_m = rot_p.conjugate()

    def gsum(p):
        q = ca * p ** cfg.alpha
        return 1.0 / (q * rot_p - en) + 1.0 / (q * rot_m - en)

    def gdif(p):
        q = ca * p ** cfg.alpha
        return 1.0 / (q * rot_p - en) - 1.0 / (q * rot_m - en)

    omega = abs(x) / cfg.hbar
    work = 0
    if omega < 1e-12:
        # no oscillation: split at the resolvent knee.  Past the cut the
        # leading tail 2 cos(th2) / (C p^alpha) is integrated in closed
        # form, and only the remainder, E / (q r (q r - E)) summed over
        # r = e^(+-i th2), which is O(p^(-2 alpha)), is mapped; the bare
        # p^(-alpha) tail defeats the map for alpha near 1
        knee = (-en / ca) ** (1.0 / cfg.alpha)
        cut = 50.0 * knee + 50.0

        def rest(p):
            q = ca * p ** cfg.alpha
            return en * (1.0 / (q * rot_p * (q * rot_p - en))
                         + 1.0 / (q * rot_m * (q * rot_m - en)))

        lead = 2.0 * math.cos(th2) / ca * cut ** (1.0 - cfg.alpha) / (cfg.alpha - 1.0)
        v1, e1, w1 = adaptive(gsum, 0.0, cut, 0.5 * abs_tol)
        v2, e2, w2 = tail_algebraic(rest, cut, 2.0 * cfg.alpha - 1.0, 0.5 * abs_tol)
        i1 = v1 + lead + v2
        i2 = 0.0 + 0.0j
        ierr = e1 + e2
        work = w1 + w2
    else:
        sgn = 1.0 if x > 0.0 else -1.0
        i1, e1, w1 = osc_semi_inf(lambda p: gsum(p) * np.cos(omega * p),
                                  omega, "cos", abs_tol)
        i2, e2, w2 = osc_semi_inf(lambda p: gdif(p) * np.sin(omega * p),
                                  omega, "sin", abs_tol)
        i2 = sgn * i2
        ierr = e1 + e2
        work = w1 + w2
    value = pref * (i1 + 1j * i2)
    err = abs(pref) * ierr
    if err > max(abs_tol, 1e-6 * abs(value)):
        raise QuadratureFailure(
            "resolvent integrals stalled at error %.2e for x = %g" % (err, x))
    return EvalResult(value=value, err_est=err, method="quadrature", work=work)


def _delta_value(cfg: DeltaConfig, x: float, tol: float,
                 method: str = "auto") -> EvalResult:
    """The wavefunction by the named route; "auto" takes the quadrature
    oracle at x = 0, where the closed form is undefined."""
    if method == "quadrature" or (x == 0.0 and method == "auto"):
        return delta_quadrature(cfg, x, abs_tol=tol)
    return delta_closed_form(cfg, x, rel_tol=tol, method=method)
