"""Correctness gate: each checked value against a reference off its route.

The bars are the ones ``fse verify`` uses for the same pair of routes:
closed form vs quadrature 1e-4 (criteria 6 and 7), time factor vs the
beta = 1 phase law 1e-10 (criterion 1) and vs an independent
Mittag-Leffler reference 1e-8 (criterion 2).  The x = 0 oracle point has an elementary closed form,
held to the quadrature bar.
"""

from __future__ import annotations

import cmath
import math

import fse

from .workloads import REL_TOL

QUADRATURE_BAR = 1e-4
PHASE_LAW_BAR = 1e-10
MITTAG_BAR = 1e-8


def mittag_taylor(beta: float, z: complex) -> complex:
    """E_beta(z) by its Taylor sum in mpmath, with enough digits to absorb
    the cancellation (the peak term is about exp(|z|^(1/beta)))."""
    import mpmath

    peak_digits = abs(z) ** (1.0 / beta) / math.log(10.0)
    with mpmath.workdps(int(30 + peak_digits)):
        zz = mpmath.mpc(z.real, z.imag)
        b = mpmath.mpf(beta)
        total = mpmath.mpc(0)
        power = mpmath.mpc(1)
        k = 0
        while True:
            term = power / mpmath.gamma(b * k + 1)
            total += term
            power *= zz
            k += 1
            # past the peak the terms fall monotonically
            if k > abs(z) ** (1.0 / beta) / beta + 10 and abs(term) < 1e-25:
                break
        return complex(total)


def time_reference(cfg, t: float) -> tuple[complex, float]:
    if cfg.beta == 1.0:
        return cfg.f0 * cmath.exp(-1j * cfg.energy * t / cfg.hbar), PHASE_LAW_BAR
    z = (t / cfg.hbar) ** cfg.beta * cmath.exp(-0.5j * math.pi * cfg.beta) \
        * cfg.energy
    return cfg.f0 * mittag_taylor(cfg.beta, z), MITTAG_BAR


def delta_at_origin(cfg) -> complex:
    """psi(0): int_0^inf dp / (1 + a p^alpha) = a^(-1/alpha) pi / (alpha sin(pi/alpha))."""
    total = 0.0 + 0.0j
    for phi in (0.5 * math.pi * cfg.theta, -0.5 * math.pi * cfg.theta):
        a = cfg.c_alpha * cmath.exp(1j * phi) / -cfg.energy
        total += a ** (-1.0 / cfg.alpha) / -cfg.energy
    total *= math.pi / (cfg.alpha * math.sin(math.pi / cfg.alpha))
    return cfg.gamma_strength * cfg.k_norm / (2.0 * math.pi * cfg.hbar) ** 2 * total


def reference_name(point) -> str:
    """The reference route run.py's gate names for a point."""
    if point.route == "delta_quadrature" and point.coord == 0.0:
        return "elementary psi(0)"
    if point.route == "time_factor":
        return "phase law" if point.cfg.beta == 1.0 else "mpmath taylor"
    return {"delta_closed_form": "delta_quadrature",
            "linear_closed_form": "linear_quadrature",
            "delta_quadrature": "delta_closed_form",
            "linear_quadrature": "linear_closed_form"}[point.route]


def reference(point):
    """(value, err_est or 0, bar) of the reference for one point; fse's
    typed EvaluationError if the reference route refuses."""
    cfg, x = point.cfg, point.coord
    if point.route == "delta_closed_form":
        r = fse.delta_quadrature(cfg, x)
        return r.value, r.err_est, QUADRATURE_BAR
    if point.route == "linear_closed_form":
        r = fse.linear_quadrature(cfg, x)
        return r.value, r.err_est, QUADRATURE_BAR
    if point.route == "time_factor":
        value, bar = time_reference(cfg, x)
        return value, 0.0, bar
    if point.route == "delta_quadrature":
        if x == 0.0:
            return delta_at_origin(cfg), 0.0, QUADRATURE_BAR
        r = fse.delta_closed_form(cfg, x, rel_tol=REL_TOL)
        return r.value, r.err_est, QUADRATURE_BAR
    if point.route == "linear_quadrature":
        r = fse.linear_closed_form(cfg, x, rel_tol=REL_TOL)
        return r.value, r.err_est, QUADRATURE_BAR
    raise ValueError("no reference for route %r" % point.route)


def check(point, result) -> dict:
    """Compare one returned EvalResult with its reference."""
    ref, ref_err, bar = reference(point)
    diff = abs(result.value - ref)
    rel = diff / max(abs(ref), 1e-300)
    bound = result.err_est + ref_err
    return {"ok": rel <= bar, "rel_err": rel, "bar": bar,
            "reference": reference_name(point),
            "err_ratio": diff / bound if bound > 0.0 else math.inf}
