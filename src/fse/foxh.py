"""Fox H-function evaluator.

H^{m,n}_{p,q}(z) is defined through the Mellin-Barnes integral

    (1/2 pi i) int theta(s) z^{-s} ds,
    theta(s) = [prod_{j<=m} Gamma(b_j + B_j s) prod_{j<=n} Gamma(1 - a_j - A_j s)]
             / [prod_{j>m} Gamma(1 - b_j - B_j s) prod_{j>n} Gamma(a_j + A_j s)],

with the contour separating the left pole chains s = -(b_j + k)/B_j from
the right chains s = (1 - a_j + k)/A_j.  Two numerical routes are
provided: the ascending residue series over the left chains (descending
series obtained through argument inversion) and direct quadrature of the
contour integral.  Gamma pairs that cancel exactly inside theta are
stripped first, which is what collapses the classical-order instances to
elementary functions instead of hitting multiple poles.

Gamma pairs that multiply to a reflection Gamma(u) Gamma(1 - u) =
pi / sin(pi u) are folded next: a lower[:m] entry equal to an upper[:n]
entry in the numerator, a lower[m:] entry equal to an upper[n:] entry in
the denominator.  The H kernels of this package are Mellin transforms of
the Riesz-Feller resolvent and carry such pairs, so the even part of the
delta well, theta(s) = Gamma(s) cos(pi s/2) / sin(pi (a1 + s/alpha)),
costs one gamma function and two sines instead of five gamma functions.
The pairing is read off the reduced parameters once per evaluation, on
the contour and in the residue terms alike.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .accel import wynn_epsilon
from .errors import (
    DegeneratePoles,
    DomainError,
    NoSeparatingContour,
    NonConvergence,
    PoleOfGamma,
    ValidationError,
    ZeroBase,
)
from .numerics import digamma, leg_nodes, log_gamma, log_reflection, pi_cot_pi
from .result import EvalResult

MACH_EPS = float(np.finfo(float).eps)
TERM_CAP = 2000
BOUNDARY_SWEEPS = 48
CONTOUR_ORDER = 40
CONTOUR_T0 = 8.0
CONTOUR_T_CAP = 400.0
SEPARATION_TOL = 1e-9
LOOKAHEAD_SWEEPS = 64


def _as_pair(pair):
    a, wt = pair
    a = complex(a)
    wt = float(wt)
    if not (wt > 0.0) or not math.isfinite(wt):
        raise ValidationError("H-function weights must be positive and finite")
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValidationError("H-function parameters must be finite")
    return (a, wt)


@dataclass(frozen=True)
class FoxHParams:
    """Parameter record (m, n, upper=(a_j, A_j) x p, lower=(b_j, B_j) x q)."""

    m: int
    n: int
    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(_as_pair(t) for t in self.upper))
        object.__setattr__(self, "lower", tuple(_as_pair(t) for t in self.lower))
        if not (0 <= self.n <= len(self.upper)):
            raise ValidationError("need 0 <= n <= p")
        if not (0 <= self.m <= len(self.lower)):
            raise ValidationError("need 0 <= m <= q")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


def from_meijer_g(m: int, n: int, a_list, b_list) -> FoxHParams:
    """Meijer G parameters as an H-function: every weight is 1."""
    return FoxHParams(m=m, n=n,
                      upper=tuple((complex(a), 1.0) for a in a_list),
                      lower=tuple((complex(b), 1.0) for b in b_list))


def sigma(params: FoxHParams) -> float:
    """Existence index: signed weight sum fixing the sector |arg z| < pi*sigma/2."""
    a_w = [wt for _, wt in params.upper]
    b_w = [wt for _, wt in params.lower]
    return (sum(a_w[:params.n]) - sum(a_w[params.n:])
            + sum(b_w[:params.m]) - sum(b_w[params.m:]))


def series_index(params: FoxHParams) -> float:
    """sum(B) - sum(A); sign decides where the ascending series converges."""
    return sum(wt for _, wt in params.lower) - sum(wt for _, wt in params.upper)


def boundary_radius(params: FoxHParams) -> float:
    """Convergence radius of the ascending series when series_index == 0."""
    acc = 1.0
    for _, wt in params.upper:
        acc *= wt ** (-wt)
    for _, wt in params.lower:
        acc *= wt ** wt
    return acc


def exists(params: FoxHParams, z: complex) -> bool:
    """Strict sector test: sigma > 0, z != 0, |arg z| < pi*sigma/2."""
    z = complex(z)
    if z == 0:
        return False
    sig = sigma(params)
    if sig <= 0.0:
        return False
    return abs(cmath.phase(z)) < 0.5 * math.pi * sig


def reduce_params(params: FoxHParams) -> FoxHParams:
    """Strip gamma pairs that cancel exactly between numerator and denominator.

    Gamma(b_i + B_i s) with i <= m cancels Gamma(a_j + A_j s) with j > n when
    the pairs coincide; Gamma(1 - a_j - A_j s) with j <= n cancels
    Gamma(1 - b_i - B_i s) with i > m likewise.  Applied to exhaustion, this
    is what turns the classical-limit parameter sets into bare exponentials
    before any pole bookkeeping happens.
    """
    low_m = list(params.lower[:params.m])
    low_r = list(params.lower[params.m:])
    up_n = list(params.upper[:params.n])
    up_r = list(params.upper[params.n:])
    changed = True
    while changed:
        changed = False
        for i, bb in enumerate(low_m):
            for j, aa in enumerate(up_r):
                if bb == aa:
                    del low_m[i]
                    del up_r[j]
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        for j, aa in enumerate(up_n):
            for i, bb in enumerate(low_r):
                if aa == bb:
                    del up_n[j]
                    del low_r[i]
                    changed = True
                    break
            if changed:
                break
    return FoxHParams(m=len(low_m), n=len(up_n),
                      upper=tuple(up_n + up_r), lower=tuple(low_m + low_r))


def scale_argument_power(params: FoxHParams, k: float) -> FoxHParams:
    """Params for the identity H(z) = k * H'(z^k) with weights scaled by k."""
    if not (k > 0.0):
        raise ValidationError("scale power must be positive")
    return FoxHParams(m=params.m, n=params.n,
                      upper=tuple((a, k * wt) for a, wt in params.upper),
                      lower=tuple((b, k * wt) for b, wt in params.lower))


def invert_argument(params: FoxHParams) -> FoxHParams:
    """Params for H^{m,n}_{p,q}(z) = H^{n,m}_{q,p}(1/z) with reflected entries."""
    new_upper = tuple((1.0 - b, wt) for b, wt in params.lower)
    new_lower = tuple((1.0 - a, wt) for a, wt in params.upper)
    return FoxHParams(m=params.n, n=params.m, upper=new_upper, lower=new_lower)


def shift_by_power(params: FoxHParams, shift: complex) -> FoxHParams:
    """Params absorbing z^shift: z^shift H(z) = H_shifted(z)."""
    shift = complex(shift)
    return FoxHParams(m=params.m, n=params.n,
                      upper=tuple((a + shift * wt, wt) for a, wt in params.upper),
                      lower=tuple((b + shift * wt, wt) for b, wt in params.lower))


def _require_exists(params: FoxHParams, z: complex):
    z = complex(z)
    if z == 0:
        raise ZeroBase("H-function argument must be nonzero")
    sig = sigma(params)
    if sig <= 0.0:
        raise DomainError("existence index sigma = %g is not positive" % sig)
    if abs(cmath.phase(z)) >= 0.5 * math.pi * sig:
        raise DomainError(
            "|arg z| = %.6f outside the existence sector pi*sigma/2 = %.6f"
            % (abs(cmath.phase(z)), 0.5 * math.pi * sig))


def _left_pole(params: FoxHParams, i: int, k: int) -> complex:
    b, wt = params.lower[i]
    return -(b + k) / wt


_EXACT_COLLISION_TOL = 1e-11


def _find_left_collision(params: FoxHParams, s: complex, chain: int):
    """Locate an exact two-chain left pole collision at s; (index, order) or None.

    Exactly-coincident poles merge into one double pole whose confluent
    residue is computable; nearly-coincident ones leave a catastrophically
    cancelling residue pair, and collisions with a right chain pinch the
    contour, so both of those refuse instead.
    """
    hit = None
    for i in range(params.m):
        if i == chain:
            continue
        b, wt = params.lower[i]
        k_near = round((-b - wt * s).real)
        if k_near >= 0:
            d = abs(_left_pole(params, i, k_near) - s)
            if d < _EXACT_COLLISION_TOL * max(1.0, abs(s)):
                if hit is not None:
                    raise DegeneratePoles(
                        "three left pole chains meet at s = %s" % (s,))
                hit = (i, k_near)
            elif d < SEPARATION_TOL:
                raise DegeneratePoles(
                    "left pole chains %d and %d nearly collide at s = %s"
                    % (chain, i, s))
    for j in range(params.n):
        a, wt = params.upper[j]
        k_near = round((wt * s - 1.0 + a).real)
        if k_near >= 0 and abs((1.0 - a + k_near) / wt - s) < SEPARATION_TOL:
            raise DegeneratePoles(
                "left chain %d collides with right chain %d near s = %s" % (chain, j, s))
    return hit


def _denominator_zero_orders(params: FoxHParams, s: complex):
    """Order (0 or 1) of the reciprocal-gamma zero each denominator factor
    contributes at s, refusing near-misses that are not exact."""
    orders = []
    tol_exact = _EXACT_COLLISION_TOL * max(1.0, abs(s))
    for b, wt in params.lower[params.m:]:
        arg = 1.0 - b - wt * s
        k_near = round(-arg.real)
        d = abs(arg + k_near) / wt if k_near >= 0 else float("inf")
        orders.append((k_near, d, wt) if d < tol_exact else None)
        if d >= tol_exact and d < SEPARATION_TOL:
            raise DegeneratePoles(
                "denominator gamma nearly singular beside a double pole at s = %s" % (s,))
    for a, wt in params.upper[params.n:]:
        arg = a + wt * s
        k_near = round(-arg.real)
        d = abs(arg + k_near) / wt if k_near >= 0 else float("inf")
        orders.append((k_near, d, wt) if d < tol_exact else None)
        if d >= tol_exact and d < SEPARATION_TOL:
            raise DegeneratePoles(
                "denominator gamma nearly singular beside a double pole at s = %s" % (s,))
    return orders


def _gamma_factors(params: FoxHParams, s):
    """The gamma factors of theta at s as (sign, argument, d argument / ds,
    |constant part of the argument|), sign +1 in the numerator and -1 in
    the denominator, ordered lower[:m], upper[:n], lower[m:], upper[n:]."""
    m, n = params.m, params.n
    return ([(1, b + wt * s, wt, abs(b)) for b, wt in params.lower[:m]]
            + [(1, 1.0 - a - wt * s, -wt, abs(1.0 - a)) for a, wt in params.upper[:n]]
            + [(-1, 1.0 - b - wt * s, -wt, abs(1.0 - b)) for b, wt in params.lower[m:]]
            + [(-1, a + wt * s, wt, abs(a)) for a, wt in params.upper[n:]])


def _reflection_pairs(params: FoxHParams):
    """Positions, in _gamma_factors order, of the factor pairs that multiply
    to Gamma(u) Gamma(1 - u): a lower[:m] entry equal to an upper[:n] entry
    (numerator), a lower[m:] entry equal to an upper[n:] entry
    (denominator), matched by exact equality as in reduce_params.  Each
    pair is (grow, mate), grow being the member whose argument u rises
    with s."""
    m, n = params.m, params.n
    top = m + n
    blocks = ((params.lower[:m], 0, params.upper[:n], m, True),
              (params.lower[m:], top, params.upper[n:], top + params.q - m, False))
    pairs = []
    for lows, low0, ups, up0, numerator in blocks:
        free = list(range(len(ups)))
        for i, bb in enumerate(lows):
            j = next((j for j in free if ups[j] == bb), None)
            if j is not None:
                free.remove(j)
                pairs.append((low0 + i, up0 + j) if numerator else (up0 + j, low0 + i))
    return tuple(pairs)


def _fold_pairs(factors, pairs, skip=()):
    """The factors as (sign, u, du/ds, |constant|, paired) entries, each
    reflection pair with neither member in skip folded into the entry of
    its growing member.  A member whose mate is skipped (a residue chain's
    own gamma, a confluent partner, a demoted denominator zero) stays a
    plain gamma factor."""
    gone = set(skip)
    out = []
    for grow, mate in pairs:
        if grow not in gone and mate not in gone:
            out.append(factors[grow] + (True,))
            gone.update((grow, mate))
    return out + [f + (False,) for pos, f in enumerate(factors) if pos not in gone]


def _log_gamma_part(entries, s: complex):
    """sum sign * log Gamma(u) over the entries of _fold_pairs, a paired
    entry counting log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u),
    with the derivative of that sum in s, the sum of the derivative
    magnitudes, and the error of the sum caused by rounding each argument
    u: (|constant| + |du/ds| |s|) |d/du| eps, with d/du = psi(u) for a
    gamma and -pi cot(pi u) for a pair.

    The last term is what an eps-level log error misses beside a pole,
    where the log derivative is large and a rounded argument moves the
    value.  For a pair, |pi cot(pi u)| = |psi(u) - psi(1 - u)|.
    """
    log_acc = 0.0 + 0.0j
    dsum = 0.0 + 0.0j
    dmag = 0.0
    sens = 0.0
    for sign, u, du, c, paired in entries:
        if paired:
            log_acc += sign * log_reflection(u)
            slope = -pi_cot_pi(u)
        else:
            log_acc += sign * log_gamma(u)
            slope = digamma(u)
        dsum += sign * du * slope
        dmag += abs(du * slope)
        sens += (c + abs(du) * abs(s)) * abs(slope)
    return log_acc, dsum, dmag, sens * MACH_EPS


def _split(entries):
    """Numerator and denominator entries."""
    return [e for e in entries if e[0] > 0], [e for e in entries if e[0] < 0]


def _check_term_range(log_acc: complex):
    if log_acc.real > 700.0:
        raise NonConvergence(
            "H series term magnitude exp(%.1f) exceeds double range" % log_acc.real)


def _log_error(log_acc: complex, sens: float) -> float:
    """Relative error of exp(log_acc): an O(L) exponent turns eps-level log
    errors into L*eps, plus the argument-rounding sensitivity."""
    return (4.0 + abs(log_acc.real) + abs(log_acc.imag)) * MACH_EPS + sens


def _demoted_term(params: FoxHParams, pairs, chain: int, k: int, other: int,
                  k2: int, logz: complex, zero_orders):
    """Simple residue at a double left pole demoted by one denominator zero.

    Near s0 the two singular numerator gammas supply (s-s0)^-2 and the
    reciprocal of the singular denominator gamma supplies (s-s0)^1, so the
    residue is an ordinary limit; the reciprocal-gamma slope enters as
    (-1)^(nu_d+1) nu_d! B_d for a lower factor, (-1)^nu_d nu_d! A_d upper.
    """
    b_i, B_i = params.lower[chain]
    b_o, B_o = params.lower[other]
    s = -(b_i + k) / B_i
    idx = next(i for i, o in enumerate(zero_orders) if o is not None)
    nu_d, _, wt_d = zero_orders[idx]
    lower_side = idx < params.q - params.m
    skip = (chain, other, params.m + params.n + idx)
    log_acc, _, _, sens = _log_gamma_part(
        _fold_pairs(_gamma_factors(params, s), pairs, skip), s)
    log_acc += math.lgamma(nu_d + 1.0) + math.log(wt_d) \
        - math.lgamma(k + 1.0) - math.lgamma(k2 + 1.0)
    power = (b_i + k) / B_i
    log_acc += power * logz
    _check_term_range(log_acc)
    val = cmath.exp(log_acc) / (B_i * B_o)
    flips = k + k2 + nu_d + (1 if lower_side else 0)
    if flips % 2 == 1:
        val = -val
    return val, _log_error(log_acc, sens) * abs(val)


def _confluent_term(params: FoxHParams, pairs, chain: int, k: int, other: int,
                    k2: int, logz: complex):
    """Derivative residue at a double left pole (two chains coinciding).

    Res = -+ exp(L - s0 log z)/(B1 B2 k! k2!) * [B1 psi(k+1) + B2 psi(k2+1)
          + d log G / ds - log z], with G the non-singular gamma ratio.
    A denominator gamma singular at the same point contributes a simple zero
    that demotes the double pole: two such zeros kill the term outright, one
    leaves an ordinary residue with the reciprocal-gamma slope as a factor.
    """
    b_i, B_i = params.lower[chain]
    b_o, B_o = params.lower[other]
    s = -(b_i + k) / B_i
    zero_orders = _denominator_zero_orders(params, s)
    n_zero = sum(1 for o in zero_orders if o is not None)
    if n_zero >= 2:
        return 0.0 + 0.0j, 0.0
    if n_zero == 1:
        return _demoted_term(params, pairs, chain, k, other, k2, logz, zero_orders)
    num, den = _split(_fold_pairs(_gamma_factors(params, s), pairs, (chain, other)))
    log_acc, dsum, dmag, sens = _log_gamma_part(num, s)
    try:
        den = _log_gamma_part(den, s)
    except PoleOfGamma:
        # a denominator zero would demote the double pole; not worth the
        # extra case analysis for parameter sets nothing generates
        raise DegeneratePoles(
            "denominator pole coincides with a confluent pair at s = %s" % (s,))
    log_acc += den[0]
    head = B_i * digamma(k + 1.0) + B_o * digamma(k2 + 1.0)
    bracket = head + dsum + den[1] - logz
    dmag += abs(head) + den[2] + abs(logz)
    sens += den[3]
    power = (b_i + k) / B_i
    log_acc += power * logz - math.lgamma(k + 1.0) - math.lgamma(k2 + 1.0)
    _check_term_range(log_acc)
    val0 = cmath.exp(log_acc) / (B_i * B_o)
    term = val0 * bracket
    if (k + k2) % 2 == 1:
        term = -term
    errb = _log_error(log_acc, sens) * abs(term) + dmag * MACH_EPS * abs(val0)
    return term, errb


def _residue_term(params: FoxHParams, pairs, chain: int, k: int, logz: complex):
    """Signed residue contribution of left pole k on the given chain.

    A denominator gamma landing on its own pole kills the term
    (1/Gamma -> 0), reported as exactly 0.  When two chains share the pole,
    the chain consumed first in sweep order carries the full double residue
    and the partner's later consumption contributes exactly 0; putting the
    merged term at the earlier sweep keeps it ahead of the stop rule.
    """
    b_i, B_i = params.lower[chain]
    s = -(b_i + k) / B_i
    hit = _find_left_collision(params, s, chain)
    if hit is not None:
        other, k2 = hit
        if k > k2 or (k == k2 and chain > other):
            return 0.0 + 0.0j, 0.0
        return _confluent_term(params, pairs, chain, k, other, k2, logz)
    num, den = _split(_fold_pairs(_gamma_factors(params, s), pairs, (chain,)))
    log_acc, _, _, sens = _log_gamma_part(num, s)
    try:
        den = _log_gamma_part(den, s)
    except PoleOfGamma:
        return 0.0 + 0.0j, 0.0
    log_acc += den[0]
    sens += den[3]
    power = (b_i + k) / B_i
    log_acc += power * logz - math.lgamma(k + 1.0)
    _check_term_range(log_acc)
    val = cmath.exp(log_acc) / B_i
    # the log error, not the partial-sum roundoff, dominates when the
    # series cancels
    errb = _log_error(log_acc, sens) * abs(val)
    return (val if k % 2 == 0 else -val), errb


def _near_pole_gain(params: FoxHParams, chain: int, k: int) -> float:
    """How much the other chains' numerator gammas magnify the residue at
    left pole k of the chain: the product of 1/(2 delta) over them, delta
    the distance of the gamma argument from its nearest pole (at most 1/2,
    giving 1).  Exactly coincident poles merge into a confluent term and
    magnify nothing."""
    s = _left_pole(params, chain, k)
    gain = 1.0
    for j, (b, wt) in enumerate(params.lower[:params.m]):
        if j == chain:
            continue
        u = b + wt * s
        k_near = round(-u.real)
        delta = abs(u + k_near)
        if k_near >= 0 and delta >= _EXACT_COLLISION_TOL * max(1.0, abs(s)) * wt:
            gain *= 0.5 / delta
    return gain


def _collision_reach(params: FoxHParams, k: int, hist, err: float) -> int:
    """Last sweep after k whose term could exceed err because its pole nearly
    meets another chain's pole, or k itself when there is none.

    hist maps each live chain to its last nonzero terms as (k, |term|).
    Divided by their near-pole gains they decay smoothly; the fastest
    per-sweep ratio among them, times the gain of each later pole,
    estimates the terms the stop rule would skip.  The scan ends where even
    the largest gain a pole can have short of an exact collision leaves the
    estimate below err.  A flagged pole closer than SEPARATION_TOL is
    refused as DegeneratePoles once the sum reaches it.
    """
    reach = k
    w_min = min(wt for _, wt in params.lower[:params.m])
    gain_cap = (0.5 / (w_min * _EXACT_COLLISION_TOL)) ** (params.m - 1)
    for chain, h in hist.items():
        base = [(kh, mag / _near_pole_gain(params, chain, kh)) for kh, mag in h]
        rho = 1.0 if len(base) < 2 else min(1.0, max(
            (b2 / b1) ** (1.0 / (k2 - k1))
            for (k1, b1), (k2, b2) in zip(base, base[1:])))
        k_last, b_last = base[-1]
        for kk in range(k + 1, k + 1 + LOOKAHEAD_SWEEPS):
            env = b_last * rho ** (kk - k_last)
            if env * gain_cap < err:
                break
            if env * _near_pole_gain(params, chain, kk) >= err:
                reach = kk
    return reach


def eval_series(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Ascending residue power series over the left pole chains.

    The descending regime (series index < 0, or index 0 with |z| beyond the
    boundary radius) is reached by inverting the argument; on the boundary
    circle itself the bounded-oscillation partial sums are resummed by the
    epsilon algorithm.  Pole collisions are only fatal when a colliding
    term is actually needed before the stop rule fires.  Before it fires,
    the later poles of each chain are scanned for near-collisions with
    another chain, and summing goes on past every one whose magnified term
    could exceed the error the stop would claim.
    """
    if not (1e-14 <= rel_tol <= 1e-2):
        raise ValidationError("rel_tol must lie in [1e-14, 1e-2]")
    z = complex(z)
    params = reduce_params(params)
    _require_exists(params, z)
    mu = series_index(params)
    boundary = False
    if mu < -1e-12:
        params = invert_argument(params)
        z = 1.0 / z
        mu = -mu
    elif abs(mu) <= 1e-12:
        delta = boundary_radius(params)
        if abs(z) > delta:
            params = invert_argument(params)
            z = 1.0 / z
            delta = boundary_radius(params)
        if abs(z) >= 0.7 * delta:
            # on or near the convergence circle the raw sums stall (or just
            # oscillate); resum a fixed window by the epsilon algorithm
            boundary = True
    if params.m == 0:
        raise DomainError("no left pole chains after reduction; series route undefined")
    logz = cmath.log(z)
    pairs = _reflection_pairs(params)

    total = 0.0 + 0.0j
    peak = 0.0
    round_acc = 0.0
    nterms = 0
    partials = []
    small_run = 0
    sweeps = TERM_CAP if not boundary else BOUNDARY_SWEEPS
    converged = False
    # structural zeros (denominator gammas killing a pole, or a merged pole
    # deferred to its partner chain) say nothing about a chain's tail, so
    # convergence watches each chain's most recent nonzero magnitude
    last_nz = [float("inf")] * params.m
    zero_run = [0] * params.m
    hist = [[] for _ in range(params.m)]
    reach = 0
    for k in range(sweeps):
        sweep = 0.0 + 0.0j
        sweep_mag = 0.0
        for chain in range(params.m):
            term, errb = _residue_term(params, pairs, chain, k, logz)
            if term == 0.0:
                zero_run[chain] += 1
            else:
                zero_run[chain] = 0
                last_nz[chain] = abs(term)
                hist[chain] = hist[chain][-2:] + [(k, last_nz[chain])]
            sweep += term
            sweep_mag += abs(term)
            round_acc += errb
            nterms += 1
            if nterms >= TERM_CAP and not boundary:
                raise NonConvergence("H series hit the %d-term cap" % TERM_CAP)
        total += sweep
        peak = max(peak, abs(total))
        partials.append(total)
        if not boundary:
            floor = rel_tol * max(abs(total), 1e-300)
            settled = all(zero_run[c] >= 8 or last_nz[c] < floor
                          for c in range(params.m))
            if settled and sweep_mag < floor:
                small_run += 1
                if small_run >= 3 and k >= reach:
                    live = {c: hist[c] for c in range(params.m) if zero_run[c] < 8}
                    tail = max([sweep_mag] + [last_nz[c] for c in live])
                    err = tail + round_acc + MACH_EPS * peak
                    reach = _collision_reach(params, k, live, err)
                    if reach == k:
                        converged = True
                        break
            else:
                small_run = 0
    if boundary:
        total, spread = wynn_epsilon(partials)
        err = spread + round_acc + MACH_EPS * peak
    elif not converged:
        raise NonConvergence("H series did not meet the stop rule in %d sweeps" % sweeps)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise NonConvergence("H series overflowed double range")
    if err > rel_tol * max(abs(total), 1e-300):
        raise NonConvergence(
            "H series error estimate %.2e misses rel_tol at |value| %.2e"
            % (err, abs(total)))
    return EvalResult(total, err, "series", nterms)


def _contour_line(params: FoxHParams):
    """Abscissa of a separating vertical contour plus a safe nudge distance."""
    left = [(-b / wt).real for b, wt in params.lower[:params.m]]
    right = [((1.0 - a) / wt).real for a, wt in params.upper[:params.n]]
    if not left and not right:
        return 0.0, 1e-3
    if not left:
        return min(right) - 1.0, 1e-3
    if not right:
        return max(left) + 1.0, 1e-3
    lo, hi = max(left), min(right)
    if hi - lo <= 1e-6:
        raise NoSeparatingContour(
            "pole families separated by %.2e only" % (hi - lo))
    return 0.5 * (lo + hi), min(1e-3, 0.1 * (hi - lo))


def _log_theta(params: FoxHParams, pairs, s: np.ndarray) -> np.ndarray:
    """log theta(s) modulo 2 pi i: one array log_reflection call per
    reflection pair and one array log_gamma call per remaining factor."""
    log_acc = np.zeros_like(s)
    for sign, u, _, _, paired in _fold_pairs(_gamma_factors(params, s), pairs):
        log_acc += sign * (log_reflection(u) if paired else log_gamma(u))
    return log_acc


def eval_contour(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Direct quadrature of the Mellin-Barnes integral on a vertical line.

    Unit-length Gauss-Legendre panels; the integration half-width doubles
    until a full doubling block is negligible against the accumulated
    value.  Gamma decay along the line is super-exponential inside the
    existence sector, so doubling terminates quickly away from the sector
    boundary.  The nodes of a block on both half-lines go through one
    array call per gamma factor, a reflection pair Gamma(u) Gamma(1 - u)
    counting as one log pi - log sin(pi u).  When every a_j and b_j is
    real, theta(conj s) = conj theta(s) and the line is real, so log theta
    is evaluated on the upper half-line only and the lower half is its
    conjugate; z^-s is still taken at every node, since z may be complex.
    """
    if not (1e-14 <= rel_tol <= 1e-2):
        raise ValidationError("rel_tol must lie in [1e-14, 1e-2]")
    z = complex(z)
    params = reduce_params(params)
    _require_exists(params, z)
    logz = cmath.log(z)
    gamma_line, nudge = _contour_line(params)
    leg_x, leg_w = leg_nodes(CONTOUR_ORDER)
    real = all(c.imag == 0.0 for c, _ in params.upper + params.lower)
    pairs = _reflection_pairs(params)

    def integrate(gam):
        acc = 0.0 + 0.0j
        abs_acc = 0.0
        work = 0
        t_lo = 0.0
        t_hi = CONTOUR_T0
        while True:
            # unit panels on [t_lo, t_hi], both signs, in one theta call
            n_panels = max(1, int(round(t_hi - t_lo)))
            edges = np.linspace(t_lo, t_hi, n_panels + 1)
            half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
            t_nodes = (half * leg_x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
            wts = np.tile((half * leg_w).ravel(), 2)
            s = gam + 1j * np.concatenate((t_nodes, -t_nodes))
            if real:
                upper = _log_theta(params, pairs, s[:t_nodes.size])
                log_th = np.concatenate((upper, upper.conj()))
            else:
                log_th = _log_theta(params, pairs, s)
            vals = np.exp(log_th - s * logz) * wts
            block_val = complex(np.sum(vals))
            abs_acc += float(np.sum(np.abs(vals)))
            work += 2 * n_panels * CONTOUR_ORDER
            acc += block_val
            block = abs(block_val)
            if block <= 0.1 * rel_tol * max(abs(acc), 1e-300) and t_hi > CONTOUR_T0:
                break
            if t_hi >= CONTOUR_T_CAP:
                raise NonConvergence(
                    "contour tail still %.2e at |Im s| = %g" % (block, t_hi))
            t_lo, t_hi = t_hi, 2.0 * t_hi
        return acc / (2.0 * math.pi), abs_acc / (2.0 * math.pi), block / (2.0 * math.pi), work

    try:
        acc, abs_acc, tail, work = integrate(gamma_line)
    except PoleOfGamma:
        # a denominator zero sat exactly on a node; nudge the line inside the gap
        acc, abs_acc, tail, work = integrate(gamma_line + nudge)
    err = tail + MACH_EPS * abs_acc
    if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
        raise NonConvergence("contour accumulation overflowed double range")
    if err > rel_tol * max(abs(acc), 1e-300):
        raise NonConvergence(
            "contour error estimate %.2e misses rel_tol at |value| %.2e"
            % (err, abs(acc)))
    return EvalResult(acc, err, "contour", work)


def eval_auto(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Series first, contour as fallback on degenerate poles or slow series."""
    try:
        return eval_series(params, z, rel_tol)
    except (DegeneratePoles, NonConvergence):
        return eval_contour(params, z, rel_tol)


def lemma31_check(x: float, rho: float, alpha: float, b: complex,
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
    if b == 0 or abs(cmath.phase(b)) >= math.pi:
        raise ValidationError("b must satisfy b != 0 and |arg b| < pi")
    lhs = x ** rho / (1.0 + b * x ** alpha)
    r = rho / alpha
    params = FoxHParams(m=1, n=1, upper=((r, 1.0),), lower=((r, 1.0),))
    arg = b * x ** alpha
    res = eval_auto(params, arg, rel_tol)
    rhs = cmath.exp(-r * cmath.log(b)) * res.value
    return lhs, rhs
