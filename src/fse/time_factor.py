"""Separated time dependence of the fractional evolution.

The factor is f(t) = f0 * E_beta(z) with z = (t/(i hbar))^beta * energy on
the principal branch, so t/(i hbar) carries arg = -pi/2 for t > 0 and the
power contributes the phase e^(-i pi beta / 2).  At beta = 1 this collapses
to the usual phase factor f0 * e^(-i E t / hbar).
"""

from __future__ import annotations

import cmath
import math

from .errors import NonConvergence, ValidationError
from .mittag import ml_eval
from .result import EvalResult, TimeConfig, _check_rel_tol


def time_factor(cfg: TimeConfig, t: float, rel_tol: float = 1e-10) -> EvalResult:
    """f(t) through the Mittag-Leffler evaluator.  rel_tol is checked at
    every t: at t = 0 here, past it by ml_eval."""
    if t < 0.0 or not math.isfinite(t):
        raise ValidationError("time must be finite and nonnegative")
    if t == 0.0:
        _check_rel_tol(rel_tol)
        return EvalResult(value=cfg.f0, err_est=0.0, method="closed")
    scaled = (t / cfg.hbar) ** cfg.beta
    if not math.isfinite(scaled):
        # the complex product below would turn inf into a NaN argument
        raise NonConvergence("(t/hbar)^beta overflows double range at t = %g, hbar = %g"
                             % (t, cfg.hbar))
    z = scaled * cmath.exp(-0.5j * math.pi * cfg.beta) * cfg.energy
    res = ml_eval(cfg.beta, z, rel_tol)
    return EvalResult(value=cfg.f0 * res.value,
                      err_est=abs(cfg.f0) * res.err_est,
                      method=res.method, work=res.work)
