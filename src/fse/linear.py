"""Wavefunction for the linear-ramp potential.

Closed form is a single H-function of the shifted, rescaled coordinate;
its Mellin factor and momentum spectrum are exposed for cross-checks.
The ascending power series (entire in y) doubles as the evaluation route
where the H-representation's sector excludes the argument (y <= 0), and
the rotated-ray quadrature of the momentum integral is the independent
oracle.  Outputs at x < 0 are analytic continuation beyond the wall and
carry a flag in the method tag.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleOfGamma, QuadratureFailure, ValidationError
from .foxh import FoxHParams, eval_auto, eval_contour, eval_series
from .numerics import log_gamma, power_sum, signum
from .quadrature import ray_segment
from .result import (EvalResult, LinearConfig, _check_positive, _check_rel_tol,
                     _route)

_ROUTES = {"auto": eval_auto, "series": eval_series, "contour": eval_contour}
_RAMP_STOP = 1e-16


def _h_params(cfg: LinearConfig) -> FoxHParams:
    ap1 = cfg.alpha + 1.0
    c = (2.0 + cfg.alpha - cfg.theta) / (2.0 * ap1)
    w = (cfg.alpha + cfg.theta) / (2.0 * ap1)
    return FoxHParams(m=1, n=1,
                      upper=((cfg.alpha / ap1, 1.0 / ap1), (c, w)),
                      lower=((0.0, 1.0), (c, w)))


def scaled_coordinate(cfg: LinearConfig, x: float) -> float:
    """Dimensionless y: coordinate shifted to the turning point and rescaled."""
    if not math.isfinite(x):
        raise ValidationError("x must be finite")
    scale = (cfg.c_alpha / (cfg.hbar * cfg.slope * (cfg.alpha + 1.0))) ** (
        1.0 / (cfg.alpha + 1.0))
    return (x - cfg.energy / cfg.slope) / cfg.hbar / scale


def _flag(label: str, x: float) -> str:
    return label + "|x<0" if x < 0.0 else label


def linear_momentum_spectrum(cfg: LinearConfig, p: float) -> complex:
    """Momentum-space solution, integration constant fixed to 1."""
    if not math.isfinite(p):
        raise ValidationError("p must be finite")
    s = signum(p)
    if s == 0:
        return 1.0 + 0.0j
    rot = cmath.exp(1j * s * cfg.theta * math.pi / 2.0)
    inner = cfg.energy * p - s * (cfg.c_alpha / (cfg.alpha + 1.0)) \
        * abs(p) ** (cfg.alpha + 1.0) * rot
    return cmath.exp(-1j / (cfg.slope * cfg.hbar) * inner)


def linear_mellin_factor(cfg: LinearConfig, s: complex) -> complex:
    """Mellin transform of the wavefunction in the scaled coordinate.

    Numerator gamma poles propagate as errors; a denominator pole makes
    the factor an exact zero.
    """
    s = complex(s)
    ap1 = cfg.alpha + 1.0
    acc = log_gamma(s) + log_gamma((1.0 - s) / ap1)
    d1 = (cfg.alpha + cfg.theta) * (1.0 - s) / (2.0 * ap1)
    d2 = (2.0 + cfg.alpha - cfg.theta + (cfg.alpha + cfg.theta) * s) / (2.0 * ap1)
    try:
        acc -= log_gamma(d1) + log_gamma(d2)
    except PoleOfGamma:
        return 0.0 + 0.0j
    return 2.0 * math.pi * cfg.n_norm / ap1 * cmath.exp(acc)


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
    if not (hbar > 0.0 and mass > 0.0 and slope > 0.0):
        raise ValidationError("hbar, mass, and slope must be positive")
    u = (x - energy / slope) * (2.0 * mass * slope / hbar ** 2) ** (1.0 / 3.0)
    # the alpha = 2, theta = 0 series: c = 2/3, argument 3^(1/3) u
    tot, _, _ = _ascending_series(2.0, 0.0, 3.0 ** (1.0 / 3.0) * u)
    return complex(lam) / math.pi * tot


def linear_quadrature(cfg: LinearConfig, x: float,
                      abs_tol: float = 1e-10) -> EvalResult:
    """Oracle route: two momentum half-line integrals on rotated rays.

    Each ray is tilted so the w^(alpha+1) phase decays; the e^{iyw}
    factor can grow for y < 0, so the radius is pushed past the point
    where the power-law decay wins.
    """
    y = scaled_coordinate(cfg, x)
    _check_positive(abs_tol, "abs_tol")
    ap1 = cfg.alpha + 1.0
    radius = max(4.0, (3.0 * max(0.0, -y)) ** (1.0 / cfg.alpha) + 4.0)
    total = 0.0 + 0.0j
    err = 0.0
    work = 0
    for sgn in (1.0, -1.0):
        psi = sgn * math.pi * (1.0 - cfg.theta) / (2.0 * ap1)
        rot = cmath.exp(1j * sgn * cfg.theta * math.pi / 2.0)

        def f(w, _s=sgn, _r=rot):
            return np.exp(1j * _s * y * w + 1j * _s * _r * w ** ap1)

        val, perr, count = ray_segment(f, psi, radius, 0.5 * abs_tol / cfg.n_norm)
        total += val
        err += perr
        work += count
    value = cfg.n_norm * total
    err *= cfg.n_norm
    if err > max(abs_tol, 1e-5 * cfg.n_norm):
        raise QuadratureFailure(
            "ray integrals stalled at error %.2e for x = %g" % (err, x))
    return EvalResult(value=complex(value), err_est=err,
                      method=_flag("ray", x), work=work)
