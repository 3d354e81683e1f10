"""Bound-state wavefunction for the attractive point potential.

The closed form is k_norm times one sum over a list of H terms
coef * H(z): the even part at zeta e^(-i phi) and zeta e^(i phi), then the
odd part at half those arguments, phi = theta pi/(2 alpha).  Each second
term is the exact conjugate of the first in argument and coefficient, and
with real parameters H(conj z) = conj H(z), so eval_auto computes two H
values and replays the other two.  The two parts' H sets are kept per
alpha (_even_part_params, _odd_part_params), least recently used out
first, PLAN_CAP of each, the policy of foxh's plan table: a call on a
known well builds no set and hands foxh the very sets its plans are
keyed on.  At theta = 0 the odd part cancels and the list is one even
term at the real zeta, the Riesz-case well of de Oliveira, Costa & Vaz
(J. Math. Phys. 51, 123517, 2010).  At x = 0,
where the paper fixes the energy by self-consistency, only the even
part's first residue is left, and psi(0) is elementary.  The
quadrature route integrates the momentum-space resolvent directly and is
the independent oracle.  Its one real Fourier integral carries the sign
of x in the phase e^(i p x / hbar), so the even and odd parts of the
wavefunction need no separate rule.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, QuadratureFailure, ValidationError
# eval_auto is unused here; its binding stays for perfbench's CONSUMER_SITES
from .foxh import PLAN_CAP, FoxHParams, _ROUTES, eval_auto
from .quadrature import adaptive, osc_semi_inf, tail_algebraic
from .result import (DeltaConfig, EvalResult, _accept, _check_finite, _check_positive,
                     _check_rel_tol, _check_scales, _route)


# kept per alpha under foxh's table policy (see the module docstring)
@lru_cache(maxsize=PLAN_CAP)
def _even_part_params(alpha: float) -> FoxHParams:
    a1 = 1.0 - 1.0 / alpha
    return FoxHParams(m=2, n=1,
                      upper=((a1, 1.0 / alpha), (0.5, 0.5)),
                      lower=((0.0, 1.0), (a1, 1.0 / alpha), (0.5, 0.5)))


@lru_cache(maxsize=PLAN_CAP)
def _odd_part_params(alpha: float) -> FoxHParams:
    a1 = 1.0 - 1.0 / alpha
    return FoxHParams(m=2, n=1,
                      upper=((a1, 1.0 / alpha),),
                      lower=((0.5, 0.5), (a1, 1.0 / alpha), (0.0, 0.5)))


# the scales _scales derives, in order
_SCALES = ("zeta per unit |x| (hbar^alpha C/(-E))^(-1/alpha)", "(2 pi hbar)^2",
           "(2 pi hbar)^2 alpha E", "(C/(-E))^(-1/alpha)")


def _scales(cfg: DeltaConfig):
    """The well's _SCALES, derived once for both routes and refused by name
    (result._check_scales) when extreme but valid hbar, C and E take one
    out of double range."""
    scales = []
    try:
        scales.append((cfg.hbar ** cfg.alpha * cfg.c_alpha / -cfg.energy) ** (-1.0 / cfg.alpha))
        scales.append((2.0 * math.pi * cfg.hbar) ** 2)
        scales.append(scales[1] * cfg.alpha * cfg.energy)
        scales.append((cfg.c_alpha / (-cfg.energy)) ** (-1.0 / cfg.alpha))
    except (OverflowError, ZeroDivisionError):
        scales.append(math.inf)
    return _check_scales(scales, _SCALES, cfg)


def delta_closed_form(cfg: DeltaConfig, x: float, rel_tol: float = 1e-9,
                      method: str = "auto") -> EvalResult:
    """Wavefunction as k_norm times a sum of H terms coef * H(z).

    Off theta = 0 the terms are, in this order, the even part at
    zeta e^(-i phi) and zeta e^(i phi), then the odd part at half those
    arguments, phi = theta pi/(2 alpha).  The second term of each pair has
    the exact conjugate argument and coefficient of the first, so auto
    computes the first and replays the second, and a real well sums to an
    exactly real value.  At theta = 0 the odd part cancels and the list is
    the one even term at zeta.  err_est sums |coef| err_est over the
    terms; the method tag names the route every term took, or mixed.

    At x = 0 every method answers psi(0) = k_norm 2 c_even cos(phi) /
    sin(pi/alpha), tagged closed[series] with work 1: the even part's
    k = 0 residue, the only term of its series left at zeta = 0, while the
    odd part vanishes like |x|^(alpha - 1).  Its err_est bounds the
    rounding, (16 + |ln scal| + 2 |(pi/alpha) cot(pi/alpha)| +
    2 |phi tan phi|) eps relative, scal = (C/(-E))^(-1/alpha): the last two
    are the sine's conditioning near alpha = 1 and the cosine's near the
    skew limit.  rel_tol is checked first at every x, so one outside
    [1e-14, 1e-2] is a ValidationError; like every H route's answer psi(0)
    passes _accept, so a valid rel_tol below its rounding refuses with
    NonConvergence."""
    _check_finite(x, "x")
    _check_rel_tol(rel_tol)
    ev = _route(_ROUTES, method)
    zscale, _, denom, scal = _scales(cfg)
    zeta = abs(x) * zscale
    c_even = -math.pi * cfg.gamma_strength / denom * scal
    phi = cfg.theta * math.pi / (2.0 * cfg.alpha)
    if x == 0.0:
        q = math.pi / cfg.alpha
        value = cfg.k_norm * (2.0 * c_even * math.cos(phi) / math.sin(q))
        rel = 16.0 + abs(math.log(scal)) + 2.0 * (abs(q / math.tan(q)) + abs(phi * math.tan(phi)))
        return _accept(value, rel * math.ulp(1.0) * abs(value), rel_tol, "psi(0)", "closed[series]", 1)
    even = _even_part_params(cfg.alpha)
    if cfg.theta == 0.0:
        terms = [(even, zeta, 2.0 * c_even)]
    else:
        ph = cmath.exp(-1j * phi)
        # the odd part is odd in x
        c_odd = (-1j if x > 0.0 else 1j) * cfg.gamma_strength * math.sqrt(math.pi) \
            / (2.0 * denom) * scal
        terms = []
        for params, z, coef in ((even, zeta * ph, c_even * ph),
                                (_odd_part_params(cfg.alpha), 0.5 * zeta * ph, c_odd * ph)):
            terms += [(params, z, coef), (params, z.conjugate(), coef.conjugate())]
    value = 0.0
    err = 0.0
    work = 0
    routes = set()
    for params, z, coef in terms:
        r = ev(params, z, rel_tol)
        value += coef * r.value
        err += abs(coef) * r.err_est
        work += r.work
        routes.add(r.method)
    label = routes.pop() if len(routes) == 1 else "mixed"
    return EvalResult(value=cfg.k_norm * value, err_est=abs(cfg.k_norm) * err,
                      method="closed[%s]" % label, work=work)


def delta_classical(hbar: float, mass: float, energy: float, lam: complex,
                    x: float) -> complex:
    """Textbook bound state of the point potential: lam * e^(-|x| kappa)."""
    _check_positive(hbar, "hbar")
    _check_positive(mass, "mass")
    if not (energy < 0.0) or not math.isfinite(energy):
        raise ValidationError("the bound state needs a finite energy < 0")
    lam = complex(lam)
    _check_finite(lam.real, "lam")
    _check_finite(lam.imag, "lam")
    _check_finite(x, "x")
    kappa = math.sqrt(-2.0 * mass * energy) / hbar
    return lam * math.exp(-abs(x) * kappa)


def _head_grading(s: float) -> np.ndarray:
    """First panel edges of the x = 0 head [0, cut] in units of the cut,
    the knee at s = knee/cut <= 1/50: seven panels of ratio 2 from s/64 up
    to s, as p^alpha is not smooth at p = 0, then ceil(log2(1/s)) of one
    ratio on to the cut, but at most 16, so at most 23 in all; a knee far
    below the cut takes a larger ratio, not more panels.  s = 0, from a
    cut past double range, raises FloatingPointError under the caller's
    errstate."""
    n = math.ceil(min(16.0, -np.log2(s)))
    return np.concatenate(([0.0], s * 2.0 ** np.arange(-6.0, 1.0),
                           s ** (1.0 - np.arange(1.0, n + 1.0) / n)))


def delta_quadrature(cfg: DeltaConfig, x: float, abs_tol: float = 1e-9) -> EvalResult:
    """Oracle route: one real Fourier integral of the momentum-space resolvent.

    With real alpha, theta, C and E the resolvents G+-(p) = 1/(C p^alpha
    e^(+-i theta pi/2) - E) of the two half-lines are conjugates, so the
    inverse transform is the integral over p > 0 of 2 Re[G+(p) e^(i p x / hbar)].
    The denominator never vanishes for E < 0 (its real part stays above
    -E), so the integrand is smooth with algebraic decay.  At x = 0 it
    does not oscillate: adaptive integrates it up to a cut 50 knee + 50
    past the resolvent's knee (-E/C)^(1/alpha), from at most 23 first
    panels (_head_grading) in one call, graded toward p = 0, where p^alpha
    is not smooth, and grown past the knee to the cut, and the tail past
    the cut is mapped.  A node whose
    resolvent leaves double range, as C p^alpha or the tail's q (q - E) do
    at an extreme C or E, refuses with NonConvergence.
    """
    _check_finite(x, "x")
    _check_positive(abs_tol, "abs_tol")
    h2 = _scales(cfg)[1]
    pref = cfg.gamma_strength * cfg.k_norm / h2
    if not cmath.isfinite(pref):
        raise NonConvergence(
            "prefactor gamma * k_norm / (2 pi hbar)^2 overflows (gamma = %g)"
            % cfg.gamma_strength)
    ca = cfg.c_alpha
    en = cfg.energy
    rot = cmath.exp(1j * cfg.theta * math.pi / 2.0)
    k = x / cfg.hbar
    omega = abs(k)

    def g(p):
        return 2.0 * (np.exp(1j * k * p) / (ca * p ** cfg.alpha * rot - en)).real

    # a node or a sum past double range refuses before numpy warns: C p^alpha
    # and the tail's q (q - E) overflow first, at an extreme C or E
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if omega < 1e-12:
                # no oscillation: split at the resolvent knee.  Past the cut
                # the leading tail 2 cos(theta pi/2) / (C p^alpha) is
                # integrated in closed form, and only the remainder
                # 2 Re[E / (q (q - E))], q = C p^alpha e^(i theta pi/2),
                # which is O(p^(-2 alpha)), is mapped; the bare p^(-alpha)
                # tail defeats the map for alpha near 1
                knee = (-en / ca) ** (1.0 / cfg.alpha)
                cut = 50.0 * knee + 50.0

                def rest(p):
                    q = ca * p ** cfg.alpha * rot
                    return 2.0 * (en / (q * (q - en))).real

                lead = 2.0 * rot.real / ca * cut ** (1.0 - cfg.alpha) / (cfg.alpha - 1.0)
                v1, e1, w1 = adaptive(g, 0.0, cut, 0.5 * abs_tol,
                                      grading=_head_grading(knee / cut))
                v2, e2, w2 = tail_algebraic(rest, cut, 2.0 * cfg.alpha - 1.0, 0.5 * abs_tol)
                integral = v1 + lead + v2
                ierr = e1 + e2
                work = w1 + w2
            else:
                integral, ierr, work = osc_semi_inf(g, omega, abs_tol)
            value = pref * integral
    except FloatingPointError:
        raise NonConvergence("resolvent integral leaves double range at %r" % (cfg,)) from None
    err = abs(pref) * ierr
    if err > max(abs_tol, 1e-6 * abs(value)):
        raise QuadratureFailure(
            "resolvent integral stalled at error %.2e for x = %g" % (err, x))
    return EvalResult(value=value, err_est=err, method="quadrature", work=work)

