"""Product assembly of the separated solution psi(x,t) = f(t) phi(x)."""

from __future__ import annotations

from .delta import _delta_value
from .errors import ValidationError
from .linear import linear_closed_form
from .result import DeltaConfig, EvalResult, LinearConfig, TimeConfig
from .time_factor import time_factor


def full_solution(space_cfg, x: float, t: float, beta: float = 1.0,
                  f0: complex = 1.0, rel_tol: float = 1e-9) -> EvalResult:
    """Separated solution f(t) * phi(x).  The time and space equations
    share hbar and the eigenvalue E, so f takes both from space_cfg."""
    if isinstance(space_cfg, DeltaConfig):
        space = _delta_value
    elif isinstance(space_cfg, LinearConfig):
        space = linear_closed_form
    else:
        raise ValidationError("space config must be a delta or linear config")
    time_cfg = TimeConfig(beta=beta, hbar=space_cfg.hbar,
                          energy=space_cfg.energy, f0=f0)
    f = time_factor(time_cfg, t, rel_tol)
    phi = space(space_cfg, x, rel_tol)
    err = (abs(f.value) * phi.err_est + abs(phi.value) * f.err_est
           + f.err_est * phi.err_est)
    return EvalResult(value=f.value * phi.value, err_est=err,
                      method="%s*%s" % (f.method, phi.method),
                      work=f.work + phi.work)
