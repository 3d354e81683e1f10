"""Wavefunction for the linear-ramp potential.

Closed form is a single H-function of the shifted, rescaled coordinate.
The ascending power series (entire in y) doubles as the evaluation route
where the H-representation's sector excludes the argument (y <= 0), and
the rotated-ray quadrature of the momentum integral is the independent
oracle.  Outputs at x < 0 are analytic continuation beyond the wall and
carry a flag in the method tag.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure
# eval_auto and log_gamma are unused here; their bindings stay for
# perfbench's CONSUMER_SITES
from .foxh import PLAN_CAP, FoxHParams, _ROUTES, eval_auto
from .numerics import log_gamma, power_sum
from .quadrature import ray_segment
from .result import (EvalResult, LinearConfig, _check_argument, _check_finite,
                     _check_positive, _check_rel_tol, _check_scales, _route)

_RAMP_STOP = 1e-16
# largest exponent the ray integrand may reach: e^600 leaves a rounding
# error near eps e^600 ~ 1e245 in the ray sums, far past any error the
# route accepts, and keeps exp, the v^3 factor and the panel sums finite
_RAY_EXP_CAP = 600.0


# kept per ramp under foxh's table policy: a call on a known ramp builds no
# set and hands foxh the very set its plan is keyed on
@lru_cache(maxsize=PLAN_CAP)
def _h_params(cfg: LinearConfig) -> FoxHParams:
    ap1 = cfg.alpha + 1.0
    c = (2.0 + cfg.alpha - cfg.theta) / (2.0 * ap1)
    w = (cfg.alpha + cfg.theta) / (2.0 * ap1)
    return FoxHParams(m=1, n=1,
                      upper=((cfg.alpha / ap1, 1.0 / ap1), (c, w)),
                      lower=((0.0, 1.0), (c, w)))


# the scales scaled_coordinate derives, in order
_SCALES = ("length scale (C/(hbar F (alpha + 1)))^(1/(alpha + 1))", "n_norm")


def scaled_coordinate(cfg: LinearConfig, x: float) -> float:
    """Dimensionless y: coordinate shifted to the turning point and rescaled.

    The ramp's _SCALES are derived here for both routes and refused by name
    (result._check_scales) when extreme but valid hbar, C and F take one
    out of double range, and so is a y past it, as the ramp's argument."""
    _check_finite(x, "x")
    scales = []
    try:
        scales.append((cfg.c_alpha / (cfg.hbar * cfg.slope * (cfg.alpha + 1.0))) ** (
            1.0 / (cfg.alpha + 1.0)))
        scales.append(cfg.n_norm)
    except (OverflowError, ZeroDivisionError):
        scales.append(math.inf)
    y = (x - cfg.energy / cfg.slope) / cfg.hbar / _check_scales(scales, _SCALES, cfg)[0]
    return _check_argument(y, "ramp").real


def _flag(label: str, x: float) -> str:
    return label + "|x<0" if x < 0.0 else label


def _ascending_series(alpha: float, theta: float, y: float):
    """Entire power series of the scaled wavefunction, sans prefactor, as
    power_sum's (value, err_est, nterms).

    Term k is Gamma((k+1)/(alpha+1)) sin(pi c (k+1)) y^k / k!.  The sine
    makes the terms non-monotone, so the last-term tail is trusted only
    past the fixed tight stop _RAMP_STOP, whatever the caller's rel_tol.
    """
    ap1 = alpha + 1.0
    c = (2.0 + alpha - theta) / (2.0 * ap1)

    def log_coef(k):
        sine = math.sin(math.pi * c * (k + 1))
        return complex(math.lgamma((k + 1) / ap1) - math.lgamma(k + 1.0)
                       + math.log(abs(sine)), math.pi if sine < 0.0 else 0.0)

    tot, err, terms = power_sum(y, log_coef, _RAMP_STOP, "ascending series")
    return tot.real, err, terms


def linear_closed_form(cfg: LinearConfig, x: float, rel_tol: float = 1e-9,
                       method: str = "auto") -> EvalResult:
    """Wavefunction via the H-function (y > 0), by the route method names,
    or its entire series (y <= 0), which runs to its own fixed stop."""
    y = scaled_coordinate(cfg, x)
    _check_rel_tol(rel_tol)
    ev = _route(_ROUTES, method)
    if y > 0.0:
        pref = 2.0 * math.pi * cfg.n_norm / (cfg.alpha + 1.0)
        r = ev(_h_params(cfg), y, rel_tol)
        return EvalResult(value=pref * r.value, err_est=abs(pref) * r.err_est,
                          method=_flag("h[%s]" % r.method, x), work=r.work)
    # the H sector excludes y <= 0; the series is entire and continues it
    tot, err, terms = _ascending_series(cfg.alpha, cfg.theta, y)
    pref = 2.0 * cfg.n_norm / (cfg.alpha + 1.0)
    return EvalResult(value=complex(pref * tot), err_est=abs(pref) * err,
                      method=_flag("series-continuation", x), work=terms)


def linear_classical_airy(hbar: float, mass: float, energy: float,
                          slope: float, lam: complex, x: float) -> complex:
    """Airy-type series of the classical (alpha=2) ramp eigenfunction."""
    _check_positive(hbar, "hbar")
    _check_positive(mass, "mass")
    _check_positive(slope, "slope")
    _check_finite(energy, "energy")
    lam = complex(lam)
    _check_finite(lam.real, "lam")
    _check_finite(lam.imag, "lam")
    _check_finite(x, "x")
    u = (x - energy / slope) * (2.0 * mass * slope / hbar ** 2) ** (1.0 / 3.0)
    # the alpha = 2, theta = 0 series: c = 2/3, argument 3^(1/3) u
    tot, _, _ = _ascending_series(2.0, 0.0, 3.0 ** (1.0 / 3.0) * u)
    return lam / math.pi * tot


def linear_quadrature(cfg: LinearConfig, x: float,
                      abs_tol: float = 1e-10) -> EvalResult:
    """Oracle route: the momentum integral on a rotated ray.

    The ray w = t e^(i psi) is tilted so the w^(alpha+1) phase decays; the
    integral over p < 0, on the mirrored ray, is its exact conjugate, so
    the value is twice the real part of one ray.  On the ray the
    integrand's modulus is exp(c t - t^(alpha+1)), c = -y sin(psi), whose
    peak c t* alpha/(alpha+1) at t* = (c/(alpha+1))^(1/alpha) is checked
    against _RAY_EXP_CAP before any node is evaluated.  The ray is cut at
    a radius R past t*, from 4 or (3 max(0, -y))^(1/alpha) + 4 on; past t*
    the modulus is log-concave and falling, so the cut tail is at most
    exp(c R - R^(alpha+1)) / ((alpha+1) R^alpha - c).  R grows until that
    bound, times 2 n_norm, is at most 0.1 abs_tol, and err_est claims it.
    """
    y = scaled_coordinate(cfg, x)
    _check_positive(abs_tol, "abs_tol")
    ap1 = cfg.alpha + 1.0
    tilt = math.pi * (1.0 - cfg.theta) / (2.0 * ap1)
    c = -y * math.sin(tilt)
    if c > 0.0:
        peak = c * (c / ap1) ** (1.0 / cfg.alpha) * cfg.alpha / ap1
        if peak > _RAY_EXP_CAP:
            raise QuadratureFailure(
                "ray integrand reaches exp(%.4g) for x = %g, past the cap exp(%g)"
                % (peak, x, _RAY_EXP_CAP))
    radius = max(4.0, (3.0 * max(0.0, -y)) ** (1.0 / cfg.alpha) + 4.0)
    while True:
        tail = 2.0 * cfg.n_norm * math.exp(c * radius - radius ** ap1) / (
            ap1 * radius ** cfg.alpha - c)
        if tail <= 0.1 * abs_tol:
            break
        radius *= 1.25
    rot = cmath.exp(1j * cfg.theta * math.pi / 2.0)

    def f(w):
        return np.exp(1j * y * w + 1j * rot * w ** ap1)

    val, perr, work = ray_segment(f, tilt, radius, 0.5 * abs_tol / cfg.n_norm)
    value = 2.0 * cfg.n_norm * val.real
    err = 2.0 * cfg.n_norm * perr + tail
    if not err <= max(abs_tol, 1e-5 * cfg.n_norm):
        raise QuadratureFailure(
            "ray integrals stalled at error %.2e for x = %g" % (err, x))
    return EvalResult(value=complex(value), err_est=err,
                      method=_flag("ray", x), work=work)
