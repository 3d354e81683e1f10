"""Product assembly of the separated solution psi(x,t) = f(t) phi(x)."""

from __future__ import annotations

from .delta import delta_closed_form, delta_quadrature
from .errors import ValidationError
from .linear import linear_closed_form, linear_quadrature
from .result import DeltaConfig, EvalResult, LinearConfig, TimeConfig
from .time_factor import time_factor


def _space_route(cfg, tol: float, method: str = "auto"):
    """phi as a function of x by the named route: "quadrature" takes the
    oracle, and every other method the closed form, at every x.  A config
    that is neither a delta nor a linear config refuses here, before
    anything is evaluated."""
    if isinstance(cfg, DeltaConfig):
        closed, oracle = delta_closed_form, delta_quadrature
    elif isinstance(cfg, LinearConfig):
        closed, oracle = linear_closed_form, linear_quadrature
    else:
        raise ValidationError("space config must be a delta or linear config")
    if method == "quadrature":
        return lambda x: oracle(cfg, x, abs_tol=tol)
    return lambda x: closed(cfg, x, tol, method)


def full_solution(space_cfg, x: float, t: float, beta: float = 1.0,
                  f0: complex = 1.0, rel_tol: float = 1e-9) -> EvalResult:
    """Separated solution f(t) * phi(x).  The time and space equations
    share hbar and the eigenvalue E, so f takes both from space_cfg."""
    phi_at = _space_route(space_cfg, rel_tol)
    time_cfg = TimeConfig(beta=beta, hbar=space_cfg.hbar,
                          energy=space_cfg.energy, f0=f0)
    f = time_factor(time_cfg, t, rel_tol)
    phi = phi_at(x)
    err = (abs(f.value) * phi.err_est + abs(phi.value) * f.err_est
           + f.err_est * phi.err_est)
    return EvalResult(value=f.value * phi.value, err_est=err,
                      method="%s*%s" % (f.method, phi.method),
                      work=f.work + phi.work)
