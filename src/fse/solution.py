"""Product assembly of the separated solution psi(x,t) = f(t) phi(x)."""

from __future__ import annotations

from .delta import _delta_value
from .errors import ConfigMismatch, ValidationError
from .linear import linear_closed_form
from .result import DeltaConfig, EvalResult, LinearConfig, TimeConfig
from .time_factor import time_factor


def full_solution(time_cfg: TimeConfig, space_cfg, x: float, t: float,
                  rel_tol: float = 1e-9) -> EvalResult:
    """Separated solution f(t) * phi(x); the configs must share hbar and E."""
    if time_cfg.hbar != space_cfg.hbar:
        raise ConfigMismatch("hbar differs between time and space configs")
    if complex(time_cfg.energy) != complex(space_cfg.energy):
        raise ConfigMismatch("energy differs between time and space configs")
    f = time_factor(time_cfg, t, rel_tol)
    if isinstance(space_cfg, DeltaConfig):
        phi = _delta_value(space_cfg, x, rel_tol)
    elif isinstance(space_cfg, LinearConfig):
        phi = linear_closed_form(space_cfg, x, rel_tol)
    else:
        raise ValidationError("space config must be a delta or linear config")
    err = (abs(f.value) * phi.err_est + abs(phi.value) * f.err_est
           + f.err_est * phi.err_est)
    return EvalResult(value=f.value * phi.value, err_est=err,
                      method="%s*%s" % (f.method, phi.method),
                      work=f.work + phi.work)
