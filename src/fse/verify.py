"""Acceptance checks, shared by the test suite and the CLI verify command.

Each criterion function is deterministic (fixed seeds, no clocks) and
returns a CheckResult; format_report turns a batch into the pass/fail
table the CLI prints.  The helpers that only these checks use, the
Lemma 3.1 identity, the H parameter transforms and the Fourier-pair
diagnostic, are private to this module.
"""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .delta import (delta_closed_form, delta_quadrature,
                    _even_part_params, _odd_part_params)
from .errors import (DegeneratePoles, DomainError, EvaluationError,
                     GridTooCoarse, NonConvergence, ValidationError)
from .foxh import (FoxHParams, eval_auto, eval_contour, eval_series, exists,
                   invert_argument)
from .linear import (linear_classical_airy, linear_closed_form,
                     linear_quadrature, _h_params)
from .mittag import ml_eval
from .quadrature import GridSpec, adaptive
from .result import DeltaConfig, LinearConfig, TimeConfig, _check_positive
from .time_factor import time_factor


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_ARG_GRID = (0.05, 0.1, 0.3, 0.7, 1.0, 1.8, 3.0, 5.0, 8.0, 10.0)


def criterion_1() -> CheckResult:
    """Classical time factor equals the plain phase at beta = 1."""
    cfg = TimeConfig(beta=1.0, hbar=1.0, energy=-0.5)
    worst = 0.0
    for t in np.linspace(0.0, 20.0, 100):
        got = time_factor(cfg, float(t), rel_tol=1e-10).value
        ref = cmath.exp(-1j * cfg.energy * t / cfg.hbar)
        worst = max(worst, abs(got - ref) / abs(ref))
    return CheckResult("classical-time-factor", worst <= 1e-10,
                       "max rel err %.2e over 100 points in [0,20], bar 1e-10"
                       % worst)


def criterion_2() -> CheckResult:
    """Half-order Mittag-Leffler against a scaled-erfc quadrature oracle."""
    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0, 3.0):
        got = ml_eval(0.5, -x).value
        # e^{x^2} erfc(x) = (2/sqrt(pi)) Int_0^inf e^{-u^2-2xu} du, no overflow
        val, _, _ = adaptive(lambda u: np.exp(-u * u - 2.0 * x * u),
                             0.0, 14.0, 1e-13)
        ref = 2.0 / math.sqrt(math.pi) * val
        worst = max(worst, abs(got - ref) / abs(ref))
    return CheckResult("mittag-leffler-erfc", worst <= 1e-8,
                       "max rel err %.2e over x in {0,..,3}, bar 1e-8" % worst)


def _lemma31_check(x: float, rho: float, alpha: float, b: complex,
                   rel_tol: float = 1e-10):
    """Both sides of the algebraic-kernel identity

        x^rho / (1 + b x^alpha) = b^{-rho/alpha}
            * H^{1,1}_{1,1}(b x^alpha | (rho/alpha, 1); (rho/alpha, 1)).

    Returns (lhs, rhs) evaluated independently; callers assert agreement.
    """
    if not (x > 0.0):
        raise ValidationError("x must be positive")
    if not (rho >= 0.0):
        raise ValidationError("rho must be nonnegative")
    if not (alpha > 0.0):
        raise ValidationError("alpha must be positive")
    b = complex(b)
    if b == 0 or abs(math.atan2(b.imag, b.real)) >= math.pi:
        raise ValidationError("b must satisfy b != 0 and |arg b| < pi")
    lhs = x ** rho / (1.0 + b * x ** alpha)
    r = rho / alpha
    params = FoxHParams(m=1, n=1, upper=((r, 1.0),), lower=((r, 1.0),))
    arg = b * x ** alpha
    res = eval_auto(params, arg, rel_tol)
    rhs = cmath.exp(-r * cmath.log(b)) * res.value
    return lhs, rhs


def criterion_3() -> CheckResult:
    """Algebraic-kernel identity on 50 random admissible tuples."""
    rng = np.random.default_rng(31)
    worst = 0.0
    done = 0
    while done < 50:
        x = float(rng.uniform(0.1, 5.0))
        rho = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.5, 2.0))
        mag = float(rng.uniform(0.2, 5.0))
        ang = float(rng.uniform(-0.9 * math.pi, 0.9 * math.pi))
        b = mag * cmath.exp(1j * ang)
        try:
            lhs, rhs = _lemma31_check(x, rho, alpha, b, rel_tol=1e-10)
        except EvaluationError:
            continue
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        done += 1
    return CheckResult("kernel-identity", worst <= 1e-8,
                       "max rel err %.2e over 50 tuples, bar 1e-8" % worst)


def _h_instances():
    for alpha in (1.25, 1.5, 1.75):
        yield _even_part_params(alpha)
        yield _odd_part_params(alpha)
        for theta in (0.0, 0.2, -0.2):
            cfg = LinearConfig(alpha=alpha, theta=theta, hbar=1.0,
                               c_alpha=1.0, energy=0.0, slope=1.0)
            yield _h_params(cfg)


def _scale_argument_power(params: FoxHParams, k: float) -> FoxHParams:
    """Params for the identity H(z) = k * H'(z^k) with weights scaled by k."""
    if not (k > 0.0):
        raise ValidationError("scale power must be positive")
    return FoxHParams(m=params.m, n=params.n,
                      upper=tuple((a, k * wt) for a, wt in params.upper),
                      lower=tuple((b, k * wt) for b, wt in params.lower))


def _shift_by_power(params: FoxHParams, shift: float) -> FoxHParams:
    """Params absorbing z^shift: z^shift H(z) = H_shifted(z), for a real
    shift (a non-real one makes the parameters non-real, which FoxHParams
    refuses)."""
    return FoxHParams(m=params.m, n=params.n,
                      upper=tuple((a + shift * wt, wt) for a, wt in params.upper),
                      lower=tuple((b + shift * wt, wt) for b, wt in params.lower))


def criterion_4() -> CheckResult:
    """Residue series vs contour on every generated H-instance.

    Arguments where float64 cancellation makes the 1e-8 target
    unreachable must be refused with a typed error whose loose value
    still matches the contour; silent wrong numbers fail the check.
    """
    worst = 0.0
    compared = 0
    refused = 0
    bad = 0
    for params in _h_instances():
        for z in _ARG_GRID:
            ref = eval_contour(params, z, 1e-8)
            try:
                got = eval_series(params, z, 1e-8)
            except (NonConvergence, DegeneratePoles):
                refused += 1
                loose = eval_series(params, z, 1e-2)
                rel = abs(loose.value - ref.value) / max(abs(ref.value), 1e-300)
                if rel > 1e-2:
                    bad += 1
                continue
            compared += 1
            rel = abs(got.value - ref.value) / max(abs(ref.value), 1e-300)
            worst = max(worst, rel)
            if rel > 1e-8:
                bad += 1
    coverage = compared / float(compared + refused)

    # transformation identities on random admissible cases, through
    # eval_auto: the Lemma 3.1 base has series index 0 and takes the contour
    rng = np.random.default_rng(47)
    tdone = 0
    tworst = 0.0
    while tdone < 50:
        r = float(rng.uniform(0.1, 1.2))
        base = FoxHParams(m=1, n=1, upper=((r, 1.0),), lower=((r, 1.0),))
        if rng.uniform() < 0.5:
            alpha = float(rng.uniform(1.1, 1.9))
            base = _even_part_params(alpha)
        z = float(rng.uniform(0.1, 2.5))
        try:
            v = eval_auto(base, z, 1e-10).value
            k = float(rng.uniform(0.5, 2.0))
            v1 = k * eval_auto(_scale_argument_power(base, k), z ** k,
                               1e-10).value
            d1 = abs(v1 - v) / max(abs(v), 1e-300)
            inv = invert_argument(base)
            if exists(inv, 1.0 / z):
                v2 = eval_auto(inv, 1.0 / z, 1e-10).value
                d2 = abs(v2 - v) / max(abs(v), 1e-300)
            else:
                d2 = 0.0
            sh = float(rng.uniform(-0.5, 0.5))
            v3 = eval_auto(_shift_by_power(base, sh), z, 1e-10).value
            d3 = abs(v3 - z ** sh * v) / max(abs(z ** sh * v), 1e-300)
        except (NonConvergence, DegeneratePoles, DomainError):
            continue
        tworst = max(tworst, d1, d2, d3)
        tdone += 1
    ok = (bad == 0 and coverage >= 0.70 and worst <= 1e-8 and tworst <= 1e-8)
    return CheckResult(
        "h-route-agreement", ok,
        "%d pairs max rel %.2e (bar 1e-8); %d refusals all loose-matched; "
        "coverage %.0f%%; transforms max rel %.2e over 50 cases"
        % (compared, worst, refused, 100.0 * coverage, tworst))


def criterion_5() -> CheckResult:
    """Point-potential wavefunction reduces to the classical exponential."""
    cfg = DeltaConfig(alpha=2.0, theta=0.0, hbar=1.0, c_alpha=0.5,
                      energy=-0.5, gamma_strength=1.0, k_norm=1.0)
    xs = (0.25, 0.5, 1.0, 2.0, 4.0)
    ratios = [delta_closed_form(cfg, x).value / math.exp(-abs(x)) for x in xs]
    base = ratios[0]
    dev = max(abs(r / base - 1.0) for r in ratios)
    return CheckResult("delta-classical-limit", dev <= 1e-6,
                       "ratio deviation %.2e over 5 points, bar 1e-6" % dev)


def criterion_6() -> CheckResult:
    """Closed form vs momentum quadrature for the point potential."""
    worst = 0.0
    count = 0
    for alpha in (1.25, 1.5, 1.75, 2.0):
        half = 0.5 * min(alpha, 2.0 - alpha)
        thetas = (0.0,) if half == 0.0 else (0.0, half, -half)
        for theta in thetas:
            for energy in (-0.5, -2.0):
                cfg = DeltaConfig(alpha=alpha, theta=theta, hbar=1.0,
                                  c_alpha=1.0, energy=energy,
                                  gamma_strength=1.0, k_norm=1.0)
                for x in (-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0):
                    a = delta_closed_form(cfg, x).value
                    b = delta_quadrature(cfg, x).value
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
                    count += 1
    return CheckResult("delta-oracle-equivalence", worst <= 1e-4,
                       "max rel err %.2e over %d grid points, bar 1e-4"
                       % (worst, count))


def criterion_7() -> CheckResult:
    """Linear-potential routes: H-form and its continuation vs ray quadrature."""
    ys = np.arange(-3.0, 3.01, 0.5)
    worst = 0.0
    count = 0
    for alpha in (1.25, 1.5, 1.75, 2.0):
        half = 0.5 * min(alpha, 2.0 - alpha)
        for theta in ((0.0,) if half == 0.0 else (0.0, half, -half)):
            cfg = LinearConfig(alpha=alpha, theta=theta, hbar=1.0,
                               c_alpha=1.0, energy=0.5, slope=1.0)
            scale = (1.0 / (alpha + 1.0)) ** (1.0 / (alpha + 1.0))
            for y in ys:
                x = 0.5 + float(y) * scale
                c = linear_closed_form(cfg, x).value
                q = linear_quadrature(cfg, x).value
                worst = max(worst, abs(c - q) / max(abs(q), 1e-300))
                count += 1
    return CheckResult("linear-route-agreement", worst <= 1e-6,
                       "closed form vs ray quadrature: max rel err %.2e over "
                       "%d points, bar 1e-6" % (worst, count))


def _ode_residual_ratio(phi_at, c2: float, slope: float, energy: float):
    h = 1e-3
    xs = np.arange(-2.0, 4.0 + 0.5 * h, h)
    vals = np.array([phi_at(float(x)) for x in xs])
    mid = vals[1:-1]
    xm = xs[1:-1]
    second = (vals[2:] - 2.0 * mid + vals[:-2]) / h ** 2
    resid = np.abs(-c2 * second + slope * xm * mid - energy * mid)
    scale = np.abs(c2 * second) + np.abs(slope * xm * mid) + np.abs(energy * mid)
    floor = 1e-3 * float(scale.max())
    return float((resid / np.maximum(scale, floor)).max())


def criterion_8() -> CheckResult:
    """Finite-difference residual of the classical ramp equation."""
    cfg = LinearConfig(alpha=2.0, theta=0.0, hbar=1.0, c_alpha=0.5,
                       energy=2.0, slope=1.0)
    r_closed = _ode_residual_ratio(
        lambda x: linear_closed_form(cfg, x).value.real, 0.5, 1.0, 2.0)
    r_airy = _ode_residual_ratio(
        lambda x: linear_classical_airy(1.0, 1.0, 2.0, 1.0, 1.0, x).real,
        0.5, 1.0, 2.0)
    ok = r_closed <= 1e-4 and r_airy <= 1e-4
    return CheckResult("ramp-ode-residual", ok,
                       "scaled residual %.2e (closed), %.2e (classical series), "
                       "bar 1e-4" % (r_closed, r_airy))


def _fourier_pair_check(samples, grid: GridSpec, hbar: float = 1.0):
    """Round-trip and Plancherel defects of a sampled wavefunction.

    Forward transform (1/2pi hbar) integral of e^(-ipx/hbar) psi dx and its
    inverse are discretized with trapezoid weights on conjugate grids, so
    insufficient edge decay shows up as a real defect instead of being
    hidden by an exactly unitary DFT pair.  Returns (roundtrip, ratio) with
    ratio = norm(psi)^2 / (2 pi hbar norm(psihat)^2).
    """
    _check_positive(hbar, "hbar")
    psi = np.asarray(list(samples), dtype=complex)
    n = grid.count
    if psi.shape != (n,):
        raise ValidationError("sample count must match the grid")
    if not np.all(np.isfinite(psi.real) & np.isfinite(psi.imag)):
        raise ValidationError("samples must be finite")
    if not np.any(psi):
        return 0.0, 1.0
    x = grid.nodes()
    dx = x[1] - x[0]
    wx = np.full(n, dx)
    wx[0] = wx[-1] = 0.5 * dx
    dp = 2.0 * math.pi * hbar / (n * dx)
    p = dp * (np.arange(n) - n // 2)
    wp = np.full(n, dp)
    wp[0] = wp[-1] = 0.5 * dp
    kernel = np.exp(-1j * np.outer(p, x) / hbar)
    psihat = kernel @ (wx * psi) / (2.0 * math.pi * hbar)
    back = kernel.conj().T @ (wp * psihat)
    roundtrip = float(np.max(np.abs(back - psi)))
    if roundtrip > 1e-3:
        raise GridTooCoarse(
            "Fourier round-trip defect %.2e; refine or widen the grid" % roundtrip)
    ratio = float(np.sum(wx * np.abs(psi) ** 2)
                  / (2.0 * math.pi * hbar * np.sum(wp * np.abs(psihat) ** 2)))
    return roundtrip, ratio


def criterion_9() -> CheckResult:
    """Discrete Fourier round-trip and norm ratio on two test functions."""
    g1 = GridSpec(-8.0, 8.0, 256)
    x1 = g1.nodes()
    rt1, ratio1 = _fourier_pair_check(np.exp(-0.5 * x1 ** 2).astype(complex), g1)
    g2 = GridSpec(-20.0, 20.0, 2048)
    x2 = g2.nodes()
    rt2, ratio2 = _fourier_pair_check(np.exp(-np.abs(x2)).astype(complex), g2)
    rt = max(rt1, rt2)
    rdev = max(abs(ratio1 - 1.0), abs(ratio2 - 1.0))
    ok = rt <= 1e-8 and rdev <= 1e-6
    return CheckResult("fourier-pair", ok,
                       "round-trip %.2e (bar 1e-8), norm-ratio dev %.2e "
                       "(bar 1e-6)" % (rt, rdev))


def cli_subprocess(*args, **kwargs):
    """subprocess.run of `python -m fse.cli *args` that imports this same
    fse package, whether it is installed or only on the caller's path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fse.cli", *args], env=env,
                          **kwargs)


def criterion_10() -> CheckResult:
    """CLI determinism and the exit-code contract for invalid skewness."""
    runs = [cli_subprocess("verify", "--only", "1,2", capture_output=True)
            for _ in range(2)]
    same = (runs[0].stdout == runs[1].stdout
            and runs[0].returncode == runs[1].returncode)
    bad = cli_subprocess("delta", "--alpha", "1.5", "--theta", "1.2",
                         "--energy", "-1", "--grid", "0.5:1:2",
                         capture_output=True)
    named = b"|theta| <= min(alpha, 2 - alpha)" in bad.stderr
    ok = same and bad.returncode == 2 and named
    return CheckResult("cli-contract", ok,
                       "repeat runs identical: %s; invalid skewness exit %d "
                       "(want 2), constraint named: %s"
                       % (same, bad.returncode, named))


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_criteria(only=None):
    picks = sorted(set(only)) if only else range(1, 11)
    out = []
    for i in picks:
        if not 1 <= i <= 10:
            raise ValidationError("criterion index %d out of range" % i)
        out.append((i, _CRITERIA[i - 1]()))
    return out


def format_report(results) -> str:
    lines = []
    for i, r in results:
        lines.append("criterion %02d %-24s %s  (%s)"
                     % (i, r.name, "PASS" if r.passed else "FAIL", r.detail))
    npass = sum(1 for _, r in results if r.passed)
    lines.append("%d/%d criteria passed" % (npass, len(results)))
    return "\n".join(lines) + "\n"
