"""Fox H-function evaluator.

H^{m,n}_{p,q}(z) is defined through the Mellin-Barnes integral

    (1/2 pi i) int theta(s) z^{-s} ds,
    theta(s) = [prod_{j<=m} Gamma(b_j + B_j s) prod_{j<=n} Gamma(1 - a_j - A_j s)]
             / [prod_{j>m} Gamma(1 - b_j - B_j s) prod_{j>n} Gamma(a_j + A_j s)],

with the contour separating the left pole chains s = -(b_j + k)/B_j from
the right chains s = (1 - a_j + k)/A_j.  Two numerical routes are
provided: the ascending residue series over the left chains (descending
series obtained through argument inversion) and the trapezoid rule on a
vertical line of the contour integral.  The series route takes the sets
whose series index sum(B) - sum(A) is nonzero, where one of the two
series is entire.  A series-index-0 set, such as the Lemma 3.1 kernel
x^rho/(1 + b x^alpha) = H^{1,1}_{1,1}, has series of finite radius only;
eval_series refuses it with NonConvergence and eval_auto evaluates it on
the contour.  Gamma pairs that cancel exactly inside theta are stripped
first, which is what collapses the classical-order instances to
elementary functions instead of hitting multiple poles.

The trapezoid rule converges exponentially for an integrand analytic in
a strip about the line (Trefethen and Weideman, SIAM Rev. 56 (2014)
385): the step h comes from a strip shift a = 0.8 d, d the distance from
the line to the nearest pole, and from |ln |z||, and the cut T from the
rate r = pi sigma/2 - |arg z| at which |theta(s) z^-s| decays along the
line (Braaksma, Compositio Math. 15 (1964)), both before any node is
evaluated.  Their error bound holds for any strip shift a < d (it grows
like 1/(d - a) as the shifted line nears the pole, which the step's
denominator allows for) and for any shift of the grid, so the nodes sit
at gamma +- i(k + 1/2)h, 0 <= k <= k_hi: none is real, as every pole of
theta is, and work counts the 2 (k_hi + 1) of them.  err_est adds the
discretisation bound of that h, the tail beyond T and the rounding of
each node's exponent log theta(s) - s log z.

Every a_j and b_j is real; FoxHParams refuses a complex one.  The
H-functions of the space solution (the delta well's even and odd parts,
the ramp, E_beta as H) all have real parameters, and the Riesz-Feller
skewness enters only through the phase of the argument z.  So every
residue term's gamma arguments are real and go to the real scalar
kernels, and on the contour theta(conj s) = conj theta(s) halves the work.

Gamma pairs that multiply to a reflection Gamma(u) Gamma(1 - u) =
pi / sin(pi u) are folded next: a lower[:m] entry equal to an upper[:n]
entry in the numerator, a lower[m:] entry equal to an upper[n:] entry in
the denominator.  The H kernels of this package are Mellin transforms of
the Riesz-Feller resolvent and carry such pairs, so the even part of the
delta well, theta(s) = Gamma(s) cos(pi s/2) / sin(pi (a1 + s/alpha)),
costs one gamma function and two sines instead of five gamma functions.
The pairing is read off the reduced parameters once per evaluation, on
the contour and in the residue terms alike.

Every gamma factor is a linear form u = c + du s, du = +-B
(_gamma_forms), evaluated as that one product and sum everywhere: the one
representation the contour (on arrays of s) and the residue terms (at
scalar s) share.  Each eval_series call first builds its z-free term
recipe (_Recipe): per chain, the flat tuples an ordinary residue term
reads (the poles to scan for a collision, and the folded numerator and
denominator factors, pairs and gammas apart), and the forms, pairs and
other chains that a collision term and the lookahead read.  One
function, _residue_term, gives every term.  An ordinary term, a simple
pole on one chain, costs its kernel calls and a few float operations on
its pole s, with no Python call but the kernels.  Only where the scan finds
a near miss or two chains meeting exactly does it hand the term to
_collision_term, which folds the forms again, skipping both chains'
gammas and each denominator gamma that vanishes there, and the pole's
order (two less those zeros) picks the residue.  The lookahead's
near-pole gains (_near_pole_gains) come from the same arithmetic, one
loop per chain for all the sweeps it looks at.  A sum that cancels past
its rounding floor is refused as soon as that is certain: the rounding
part of err_est only grows, so once it passes 2 rel_tol times |partial
sum| plus a bound on the rest of the sum (_rest_bound), the stop could
only refuse.  The bound and the lookahead (_collision_reach) read one
per-chain envelope (_chain_envelope).  One matcher,
_exact_matches, finds both the cancelling and the reflection pairs.
Nothing is kept between calls but eval_auto's last answer, which it
replays only as the exact conjugate H(conj z) = conj H(z).  A replay can
differ from a fresh evaluation at conj z in rounding, within both
err_est, and needs no invalidation; reuse across calls on one parameter
set is left to a plan built outside this module.
The kernels log_gamma, digamma, log_reflection and pi_cot_pi are looked
up as module globals at call time, once per folded factor per term, so that
rebinding them (to count or time them) sees every call.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePoles,
    DomainError,
    NoSeparatingContour,
    NonConvergence,
    PoleOfGamma,
    ValidationError,
    ZeroBase,
)
from .numerics import MACH_EPS, digamma, log_gamma, log_reflection, pi_cot_pi
from .result import EvalResult, _check_argument, _check_rel_tol, _meets_tol

TERM_CAP = 2000
# the contour refuses past this |log z|: there the line at the gap midpoint
# cancels far below its rounding floor (e^-z and z^0.3/(1 + z) refuse on
# their own err_est from |log z| = 50, after a full integral); it stays
# until the line is chosen by the size of the integrand
CONTOUR_LOG_Z_CAP = 112.0
CONTOUR_T_CAP = 400.0
# a contour call's node budget: 2 MB per complex array of a block
_CONTOUR_NODE_CAP = 1 << 17
_LOG_INV_EPS = -math.log(MACH_EPS)
# eval_contour's strip shift a, as a fraction of the distance d to the
# nearest pole, and the log of the allowance for theta's growth on the
# shifted line: e^3 at a = d/2, times (d/2)/(d - a) for the nearest pole
_STRIP_SHIFT = 0.8
_LOG_STRIP_GROWTH = 3.0 + math.log(0.5 / (1.0 - _STRIP_SHIFT))
SEPARATION_TOL = 1e-9
LOOKAHEAD_SWEEPS = 64


def _as_pair(pair):
    a, wt = pair
    a = complex(a)
    wt = float(wt)
    if not (wt > 0.0) or not math.isfinite(wt):
        raise ValidationError("H-function weights must be positive and finite")
    if a.imag != 0.0:
        raise ValidationError("H-function parameters must be real, got %r" % (a,))
    if not math.isfinite(a.real):
        raise ValidationError("H-function parameters must be finite")
    return (a.real, wt)


@dataclass(frozen=True)
class FoxHParams:
    """Parameter record (m, n, upper=(a_j, A_j) x p, lower=(b_j, B_j) x q),
    every a_j, b_j a real float and every weight positive."""

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
                      upper=tuple((a, 1.0) for a in a_list),
                      lower=tuple((b, 1.0) for b in b_list))


def sigma(params: FoxHParams) -> float:
    """Existence index: signed weight sum fixing the sector |arg z| < pi*sigma/2."""
    a_w = [wt for _, wt in params.upper]
    b_w = [wt for _, wt in params.lower]
    return (sum(a_w[:params.n]) - sum(a_w[params.n:])
            + sum(b_w[:params.m]) - sum(b_w[params.m:]))


def series_index(params: FoxHParams) -> float:
    """sum(B) - sum(A): the ascending series is entire when it is positive,
    the descending one when it is negative."""
    return sum(wt for _, wt in params.lower) - sum(wt for _, wt in params.upper)


def exists(params: FoxHParams, z: complex) -> bool:
    """Strict sector test: z finite and nonzero, sigma > 0,
    |arg z| < pi*sigma/2."""
    try:
        _require_exists(params, z)
    except (ValidationError, ZeroBase, NonConvergence, DomainError):
        return False
    return True


def _prepare(params: FoxHParams, z: complex, rel_tol: float):
    """The reduced params and complex z of an evaluation, once rel_tol and z
    pass and z lies in the existence sector."""
    _check_rel_tol(rel_tol)
    z = complex(z)
    params = reduce_params(params)
    _require_exists(params, z)
    return params, z


def _accept(value: complex, err: float, rel_tol: float, what: str, method: str,
            work: int) -> EvalResult:
    """The answer of a route named what, refused when its sum is not finite
    or its err_est misses rel_tol."""
    if not cmath.isfinite(value):
        raise NonConvergence("%s overflowed double range" % what)
    if not _meets_tol(err, value, rel_tol):
        raise NonConvergence(
            "%s error estimate %.2e misses rel_tol at |value| %.2e"
            % (what, err, abs(value)))
    return EvalResult(value, err, method, work)


def _exact_matches(xs, ys):
    """Index pairs (i, j) with xs[i] == ys[j]: each xs[i] in turn takes
    the first equal ys[j] not taken yet.  Equal entries are
    interchangeable, so the matched values, and the order of the
    unmatched ones, do not depend on which list comes first."""
    free = list(range(len(ys)))
    out = []
    for i, x in enumerate(xs):
        j = next((j for j in free if ys[j] == x), None)
        if j is not None:
            free.remove(j)
            out.append((i, j))
    return out


def reduce_params(params: FoxHParams) -> FoxHParams:
    """Strip gamma pairs that cancel exactly between numerator and denominator.

    Gamma(b_i + B_i s) with i <= m cancels Gamma(a_j + A_j s) with j > n when
    the pairs coincide; Gamma(1 - a_j - A_j s) with j <= n cancels
    Gamma(1 - b_i - B_i s) with i > m likewise.  Applied to exhaustion, this
    is what turns the classical-limit parameter sets into bare exponentials
    before any pole bookkeeping happens.
    """
    m, n = params.m, params.n
    num = _exact_matches(params.lower[:m], params.upper[n:])
    den = _exact_matches(params.lower[m:], params.upper[:n])
    if not num and not den:
        return params
    gone_low = {i for i, _ in num} | {m + i for i, _ in den}
    gone_up = {n + j for _, j in num} | {j for _, j in den}
    return FoxHParams(
        m=m - len(num), n=n - len(den),
        upper=tuple(a for j, a in enumerate(params.upper) if j not in gone_up),
        lower=tuple(b for i, b in enumerate(params.lower) if i not in gone_low))


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


def shift_by_power(params: FoxHParams, shift: float) -> FoxHParams:
    """Params absorbing z^shift: z^shift H(z) = H_shifted(z), for a real
    shift (a non-real one makes the parameters non-real, which FoxHParams
    refuses)."""
    return FoxHParams(m=params.m, n=params.n,
                      upper=tuple((a + shift * wt, wt) for a, wt in params.upper),
                      lower=tuple((b + shift * wt, wt) for b, wt in params.lower))


def _require_exists(params: FoxHParams, z: complex):
    """Refuse a NaN z as invalid, an infinite one as past double range (the
    class an overflowed argument gets), z = 0, and z outside the sector."""
    z = _check_argument(z, "H-function")
    if z == 0:
        raise ZeroBase("H-function argument must be nonzero")
    sig = sigma(params)
    if sig <= 0.0:
        raise DomainError("existence index sigma = %g is not positive" % sig)
    # math.atan2, not cmath.phase, which overflows at z = 1e300 + 1e-300j
    arg = abs(math.atan2(z.imag, z.real))
    if arg >= 0.5 * math.pi * sig:
        raise DomainError(
            "|arg z| = %.6f outside the existence sector pi*sigma/2 = %.6f"
            % (arg, 0.5 * math.pi * sig))


_EXACT_COLLISION_TOL = 1e-11


def _nearest_pole(c, du, s):
    """(k, |u + k|) for the pole -k of Gamma(u), u = c + du s, nearest the
    real u; k < 0 when u > 1/2.  _residue_term and _near_pole_gains make
    the same test inline."""
    u = c + du * s
    k = round(-u)
    return k, abs(u + k)


def _find_left_collision(recipe: _Recipe, s: float, chain: int):
    """Locate an exact two-chain left pole collision at s; (index, order) or None.

    Exactly-coincident poles merge into one double pole whose confluent
    residue is computable; nearly-coincident ones leave a catastrophically
    cancelling residue pair, and collisions with a right chain pinch the
    contour, so both of those refuse instead.
    """
    hit = None
    for i, b, wt in recipe.others[chain]:
        k_near, dist = _nearest_pole(b, wt, s)
        if k_near < 0:
            continue
        if dist < _EXACT_COLLISION_TOL * max(1.0, abs(s)) * wt:
            if hit is not None:
                raise DegeneratePoles(
                    "three left pole chains meet at s = %s" % (s,))
            hit = (i, k_near)
        elif dist < SEPARATION_TOL * wt:
            raise DegeneratePoles(
                "left pole chains %d and %d nearly collide at s = %s"
                % (chain, i, s))
    for j, (c, du) in enumerate(recipe.right):
        k_near, dist = _nearest_pole(c, du, s)
        if k_near >= 0 and dist < SEPARATION_TOL * abs(du):
            raise DegeneratePoles(
                "left chain %d collides with right chain %d near s = %s" % (chain, j, s))
    return hit


def _denominator_zeros(forms, s: float):
    """The denominator entries of _gamma_forms whose gamma sits on its pole
    u = -nu at s, each a simple zero of theta, as (position, nu, du/ds);
    a near-miss that is not exact refuses."""
    zeros = []
    tol_exact = _EXACT_COLLISION_TOL * max(1.0, abs(s))
    for pos, (sign, c, du, _) in enumerate(forms):
        if sign > 0:
            continue
        k_near, dist = _nearest_pole(c, du, s)
        d = dist / abs(du) if k_near >= 0 else float("inf")
        if d < tol_exact:
            zeros.append((pos, k_near, du))
        elif d < SEPARATION_TOL:
            raise DegeneratePoles(
                "denominator gamma nearly singular beside a double pole at s = %s" % (s,))
    return zeros


def _gamma_forms(params: FoxHParams):
    """The gamma factors of theta as linear forms in s, (sign, c, du/ds,
    |c|): the argument is u = c + du/ds s with du/ds = +-B, sign is +1 in
    the numerator and -1 in the denominator, and the order is lower[:m],
    upper[:n], lower[m:], upper[n:]."""
    m, n = params.m, params.n
    return ([(1, b, wt, abs(b)) for b, wt in params.lower[:m]]
            + [(1, 1.0 - a, -wt, abs(1.0 - a)) for a, wt in params.upper[:n]]
            + [(-1, 1.0 - b, -wt, abs(1.0 - b)) for b, wt in params.lower[m:]]
            + [(-1, a, wt, abs(a)) for a, wt in params.upper[n:]])


def _reflection_pairs(params: FoxHParams):
    """Positions, in _gamma_forms order, of the factor pairs that multiply
    to Gamma(u) Gamma(1 - u): a lower[:m] entry equal to an upper[:n] entry
    (numerator), a lower[m:] entry equal to an upper[n:] entry
    (denominator), matched by _exact_matches as in reduce_params.  Each
    pair is (grow, mate), grow being the member whose argument u rises
    with s."""
    m, n = params.m, params.n
    num = _exact_matches(params.lower[:m], params.upper[:n])
    den = _exact_matches(params.lower[m:], params.upper[n:])
    return tuple([(i, m + j) for i, j in num]
                 + [(n + params.q + j, m + n + i) for i, j in den])


def _fold_pairs(forms, pairs, skip=()):
    """The forms as (sign, c, du/ds, |c|, paired) entries, each
    reflection pair with neither member in skip folded into the entry of
    its growing member.  A member whose mate is skipped (a residue chain's
    own gamma, a confluent partner, a demoted denominator zero) stays a
    plain gamma factor."""
    gone = set(skip)
    out = []
    for grow, mate in pairs:
        if grow not in gone and mate not in gone:
            out.append(forms[grow] + (True,))
            gone.update((grow, mate))
    return out + [f + (False,) for pos, f in enumerate(forms) if pos not in gone]


class _Recipe(NamedTuple):
    """The z-free part of every residue term of one eval_series call.

    terms[chain] is all that an ordinary term on the chain reads, as flat
    tuples:
    - the chain's b and B;
    - its scan: the other left chains as (b, B, SEPARATION_TOL B, B), then
      the right chains, the upper[:n] forms, as (c, du/ds,
      SEPARATION_TOL |du/ds|, 0.0);
    - the factors of theta left once the chain's own gamma is skipped and
      the reflection pairs are folded (_fold_pairs), as (c, du/ds, |c|,
      |du/ds|) in four tuples: numerator pairs, numerator gammas,
      denominator pairs and denominator gammas, each in _fold_pairs order.
    The rest serves the rare terms and the lookahead: forms are the gamma
    factors of theta (_gamma_forms), pairs the reflection pairs,
    others[chain] the other chains as (index, b, B) and right the
    upper[:n] forms as (c, du/ds).  A term where two chains meet folds the
    pairs again from forms, with both chains' gammas and the vanishing
    denominator gammas skipped.
    """

    params: FoxHParams
    pairs: tuple
    forms: list
    others: tuple
    right: tuple
    terms: tuple


def _series_recipe(params: FoxHParams, pairs) -> _Recipe:
    forms = _gamma_forms(params)
    m = params.m
    others = tuple(tuple((i, b, wt) for i, (b, wt) in enumerate(params.lower[:m])
                         if i != c) for c in range(m))
    right = tuple((f[1], f[2]) for f in forms[m:m + params.n])
    right_scan = tuple((c, du, SEPARATION_TOL * abs(du), 0.0) for c, du in right)
    terms = []
    for chain, (b, wt) in enumerate(params.lower[:m]):
        scan = tuple((b2, wt2, SEPARATION_TOL * wt2, wt2) for _, b2, wt2 in others[chain])
        entries = _fold_pairs(forms, pairs, (chain,))
        # the order an ordinary term takes them in, as (sign, paired)
        groups = (tuple((c, du, abs_c, abs(du)) for sign, c, du, abs_c, paired in entries
                        if (sign, paired) == group)
                  for group in ((1, True), (1, False), (-1, True), (-1, False)))
        terms.append((b, wt, scan + right_scan, *groups))
    return _Recipe(params, pairs, forms, others, right, tuple(terms))


def _log_gamma_part(entries, s: float):
    """sum sign * log Gamma(u) over the entries of _fold_pairs, a paired
    entry counting log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u),
    with the derivative of that sum in s, the sum of the derivative
    magnitudes, and the error of the sum caused by rounding each argument
    u: (|c| + |du/ds| |s|) |d/du| eps, with d/du = psi(u) for a gamma and
    -pi cot(pi u) for a pair.  Only a term where two chains meet calls it:
    the derivative enters its confluent bracket.  An ordinary term sums
    the same logs and rounding errors inline in _residue_term.

    The last term is what an eps-level log error misses beside a pole,
    where the log derivative is large and a rounded argument moves the
    value.  For a pair, |pi cot(pi u)| = |psi(u) - psi(1 - u)|.
    """
    log_acc = 0.0 + 0.0j
    dsum = 0.0 + 0.0j
    dmag = 0.0
    sens = 0.0
    abs_s = abs(s)
    for sign, c, du, abs_c, paired in entries:
        u = c + du * s
        if paired:
            log_acc += sign * log_reflection(u)
            slope = -pi_cot_pi(u)
        else:
            log_acc += sign * log_gamma(u)
            slope = digamma(u)
        dsum += sign * du * slope
        dmag += abs(du * slope)
        sens += (abs_c + abs(du) * abs_s) * abs(slope)
    return log_acc, dsum, dmag, sens * MACH_EPS


def _signed_term(log_acc: complex, sens: float, weight: float, parity: int,
                 bracket=None, dmag: float = 0.0):
    """exp(log_acc) / weight, times the confluent bracket if there is one,
    negated for odd parity, with its error: the log error of the exponent
    (which, not the partial-sum roundoff, dominates when the series
    cancels) and, for a bracket, dmag eps times the magnitude before it.
    An O(L) exponent turns eps-level log errors into a relative L eps, to
    which the argument-rounding sensitivity sens adds.  _residue_term
    does the same inline for an ordinary term."""
    if log_acc.real > 700.0:
        raise NonConvergence(
            "H series term magnitude exp(%.1f) exceeds double range" % log_acc.real)
    val = cmath.exp(log_acc) / weight
    term = val if bracket is None else val * bracket
    if parity % 2 == 1:
        term = -term
    rel = (4.0 + abs(log_acc.real) + abs(log_acc.imag)) * MACH_EPS + sens
    return term, rel * abs(term) + dmag * MACH_EPS * abs(val)


def _residue_term(recipe: _Recipe, chain: int, k: int, logz: complex):
    """Signed residue contribution of left pole k on the given chain, with
    its error.

    An ordinary term, a simple pole, is summed flat from recipe.terms:
    the scan, then one kernel call and one slope call per factor, in the
    order numerator pairs, numerator gammas, denominator pairs,
    denominator gammas, then exp.  A denominator gamma landing on its own
    pole kills the term (1/Gamma -> 0), reported as exactly 0.  The scan
    makes the tests of _find_left_collision; a pole that meets one, a
    near miss or another chain's pole, goes to _collision_term.
    """
    b_i, B_i, scan, num_pairs, num_gammas, den_pairs, den_gammas = recipe.terms[chain]
    t = (b_i + k) / B_i
    s = -t
    abs_s = abs(s)
    log_rest = t * logz - math.lgamma(k + 1.0)
    tol = _EXACT_COLLISION_TOL * (abs_s if abs_s > 1.0 else 1.0)
    for c, du, sep, wt in scan:
        u = c + du * s
        k_near = round(-u)
        if k_near >= 0:
            dist = abs(u + k_near)
            if dist < sep or dist < tol * wt:
                return _collision_term(recipe, chain, k, s, log_rest, logz)
    log_num = 0.0 + 0.0j
    sens_num = 0.0
    for c, du, abs_c, abs_du in num_pairs:
        u = c + du * s
        log_num += log_reflection(u)
        sens_num += (abs_c + abs_du * abs_s) * abs(pi_cot_pi(u))
    for c, du, abs_c, abs_du in num_gammas:
        u = c + du * s
        log_num += log_gamma(u)
        sens_num += (abs_c + abs_du * abs_s) * abs(digamma(u))
    log_den = 0.0 + 0.0j
    sens_den = 0.0
    try:
        for c, du, abs_c, abs_du in den_pairs:
            u = c + du * s
            log_den += log_reflection(u)
            sens_den += (abs_c + abs_du * abs_s) * abs(pi_cot_pi(u))
        for c, du, abs_c, abs_du in den_gammas:
            u = c + du * s
            log_den += log_gamma(u)
            sens_den += (abs_c + abs_du * abs_s) * abs(digamma(u))
    except PoleOfGamma:
        return 0.0 + 0.0j, 0.0
    log_acc = log_num - log_den + log_rest
    if log_acc.real > 700.0:
        raise NonConvergence(
            "H series term magnitude exp(%.1f) exceeds double range" % log_acc.real)
    term = cmath.exp(log_acc) / B_i
    if k % 2 == 1:
        term = -term
    rel = ((4.0 + abs(log_acc.real) + abs(log_acc.imag)) * MACH_EPS
           + (sens_num * MACH_EPS + sens_den * MACH_EPS))
    return term, rel * abs(term)


def _collision_term(recipe: _Recipe, chain: int, k: int, s: float,
                    log_rest: complex, logz: complex):
    """The residue term at left pole k of the chain, s = -(b + k)/B, where
    _find_left_collision refuses or finds another chain's pole.

    When two chains share the pole, the chain consumed first in sweep
    order carries the whole residue and the partner's later consumption
    contributes exactly 0; putting the merged term at the earlier sweep
    keeps it ahead of the stop rule.  The merged pole's order is two less
    the denominator gammas singular there (_denominator_zeros): two of
    them leave no pole and a zero term; one leaves a simple pole whose
    residue takes that reciprocal gamma's slope (-1)^nu nu! du/ds as a
    factor; none leaves a double pole, whose residue is

        -+ exp(L - s0 log z)/(B1 B2 k! k2!) * [B1 psi(k+1) + B2 psi(k2+1)
           + d log G / ds - log z],

    G being the non-singular gamma ratio.  log_rest is the term's
    (b + k)/B log z - log k!.
    """
    other, k2 = _find_left_collision(recipe, s, chain)
    if k > k2 or (k == k2 and chain > other):
        return 0.0 + 0.0j, 0.0
    zeros = _denominator_zeros(recipe.forms, s)
    if len(zeros) >= 2:
        return 0.0 + 0.0j, 0.0
    skip = (chain, other) + tuple(pos for pos, _, _ in zeros)
    entries = _fold_pairs(recipe.forms, recipe.pairs, skip)
    num = _log_gamma_part([e for e in entries if e[0] > 0], s)
    try:
        den = _log_gamma_part([e for e in entries if e[0] < 0], s)
    except PoleOfGamma:
        # a denominator gamma on a pole the zero scan missed (its weight is
        # below about 1e-3): no parameter set of this package makes one
        raise DegeneratePoles(
            "denominator pole coincides with a confluent pair at s = %s" % (s,)) from None
    B_i = recipe.params.lower[chain][1]
    B_o = recipe.params.lower[other][1]
    log_acc = num[0] + den[0] + (log_rest - math.lgamma(k2 + 1.0))
    if zeros:
        _, nu, du = zeros[0]
        log_acc += math.lgamma(nu + 1.0) + math.log(abs(du))
        return _signed_term(log_acc, num[3] + den[3], B_i * B_o,
                            k + k2 + nu + (du < 0))
    head = B_i * digamma(k + 1.0) + B_o * digamma(k2 + 1.0)
    bracket = head + num[1] + den[1] - logz
    dmag = num[2] + (abs(head) + den[2] + abs(logz))
    return _signed_term(log_acc, num[3] + den[3], B_i * B_o, k + k2, bracket, dmag)


def _near_pole_gains(recipe: _Recipe, chain: int, ks) -> list:
    """How much the other chains' numerator gammas magnify the residue at
    each left pole k in ks of the chain: the product of 1/(2 delta) over
    them, delta the distance of the gamma argument from its nearest pole
    (at most 1/2, giving 1).  Exactly coincident poles merge into a
    confluent term and magnify nothing.  Pure arithmetic, one loop for
    all of ks."""
    b_c, wt_c = recipe.params.lower[chain]
    others = recipe.others[chain]
    gains = []
    for k in ks:
        s = -(b_c + k) / wt_c
        abs_s = abs(s)
        tol = _EXACT_COLLISION_TOL * (abs_s if abs_s > 1.0 else 1.0)
        gain = 1.0
        for _, b, wt in others:
            u = b + wt * s
            k_near = round(-u)
            delta = abs(u + k_near)
            if k_near >= 0 and delta >= tol * wt:
                gain *= 0.5 / delta
        gains.append(gain)
    return gains


def _gain_cap(recipe: _Recipe) -> float:
    """The largest gain a pole can have short of an exact collision: one
    factor 1/(2 delta) per other chain, delta at least _EXACT_COLLISION_TOL
    times the lightest weight."""
    m = recipe.params.m
    w_min = min(wt for _, wt in recipe.params.lower[:m])
    return (0.5 / (w_min * _EXACT_COLLISION_TOL)) ** (m - 1)


def _chain_envelope(recipe: _Recipe, chain: int, h):
    """(k_last, b_last, rho) from the chain's last nonzero terms h, as
    (k, |term|): divided by their near-pole gains they decay smoothly,
    b_last is the last of them so divided and rho the fastest per-sweep
    ratio among them, at most 1.  b_last rho^(kk - k_last) times the gain
    of a later pole kk estimates its term."""
    base = [(kh, mag / gain) for (kh, mag), gain
            in zip(h, _near_pole_gains(recipe, chain, [kh for kh, _ in h]))]
    rho = 1.0 if len(base) < 2 else min(1.0, max(
        (b2 / b1) ** (1.0 / (k2 - k1))
        for (k1, b1), (k2, b2) in zip(base, base[1:])))
    k_last, b_last = base[-1]
    return k_last, b_last, rho


def _collision_reach(recipe: _Recipe, k: int, hist, err: float) -> int:
    """Last sweep after k whose term could exceed err because its pole nearly
    meets another chain's pole, or k itself when there is none.

    hist maps each live chain to its last nonzero terms as (k, |term|).
    Their envelope (_chain_envelope), times the gain of each later pole,
    estimates the terms the stop rule would skip.  The scan ends where even
    the largest gain a pole can have short of an exact collision leaves the
    estimate below err.  A flagged pole closer than SEPARATION_TOL is
    refused as DegeneratePoles once the sum reaches it.  reach is the last
    flagged pole of the last live chain that has one; the stop is tried
    again from there, so the sum stops only once no chain has one ahead.
    """
    reach = k
    gain_cap = _gain_cap(recipe)
    for chain, h in hist.items():
        k_last, b_last, rho = _chain_envelope(recipe, chain, h)
        envs = []
        for kk in range(k + 1, k + 1 + LOOKAHEAD_SWEEPS):
            env = b_last * rho ** (kk - k_last)
            if env * gain_cap < err:
                break
            envs.append(env)
        gains = _near_pole_gains(recipe, chain, range(k + 1, k + 1 + len(envs)))
        for kk, env, gain in zip(itertools.count(k + 1), envs, gains):
            if env * gain >= err:
                reach = kk
    return reach


def _pair_sines(recipe: _Recipe, chain: int, ks) -> list:
    """The factor |sin pi u| <= 1 that the denominator reflection pairs,
    each 1/(Gamma(u) Gamma(1 - u)) = sin(pi u)/pi, put on the residue at
    each left pole k in ks of the chain.  A sine near 0 makes one term
    small and says nothing of the next."""
    b, wt, _, _, _, den_pairs, _ = recipe.terms[chain]
    sines = []
    for k in ks:
        s = -(b + k) / wt
        f = 1.0
        for c, du, _, _ in den_pairs:
            f *= abs(math.sin(math.pi * (c + du * s)))
        sines.append(f)
    return sines


def _rest_bound(recipe: _Recipe, k: int, hist, room: float) -> float:
    """A bound on the summed magnitudes of the terms after sweep k, or a
    number at least room once the bound reaches room (inf when a chain
    does not decay yet).

    hist maps each live chain to its last nonzero terms as (k, |term|).
    Each is divided by its denominator pairs' sines (_pair_sines), so that
    the envelope of _chain_envelope follows the terms' smooth part; a later
    term is at most that envelope times its pole's near-pole gain, which is
    at least 1.  So the envelope's geometric sum comes first, and then the
    gains' excess over 1, summed over the sweeps where even the gain cap
    could still matter: until the geometric rest at the cap is below 1/8
    of the room left, or LOOKAHEAD_SWEEPS, past which there is no bound.
    That geometric rest is added.  With one chain every gain is 1.
    """
    excess_cap = _gain_cap(recipe) - 1.0
    rest = 0.0
    for chain, h in hist.items():
        sines = _pair_sines(recipe, chain, [kh for kh, _ in h])
        if not all(sines):
            return math.inf
        k_last, b_last, rho = _chain_envelope(
            recipe, chain, [(kh, mag / sine) for (kh, mag), sine in zip(h, sines)])
        if rho >= 1.0:
            return math.inf
        env = b_last * rho ** (k + 1 - k_last)
        rest += env / (1.0 - rho)
        if rest >= room:
            break
        cap_rest = env * excess_cap / (1.0 - rho)
        n = 0
        while cap_rest >= 0.125 * (room - rest):
            if n == LOOKAHEAD_SWEEPS:
                return math.inf
            n += 1
            cap_rest *= rho
        for gain in _near_pole_gains(recipe, chain, range(k + 1, k + 1 + n)):
            rest += env * (gain - 1.0)
            env *= rho
        rest += cap_rest
        if rest >= room:
            break
    return rest


def _live_chains(hist, k: int) -> dict:
    """The last three nonzero terms of each chain with one in the last 8
    sweeps, by chain."""
    return {c: h[-3:] for c, h in enumerate(hist) if h and k - h[-1][0] < 8}


def eval_series(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Ascending residue power series over the left pole chains.

    The series is entire for series index > 0; index < 0 is reached by
    inverting the argument.  A series-index-0 set (the Lemma 3.1 kernel
    among them) converges only inside a finite radius, and near its edge
    the partial sums stall with no honest error estimate, so it refuses
    with NonConvergence and eval_auto hands it to the contour.  Pole
    collisions are only fatal when a colliding term is actually needed
    before the stop rule fires.  Before it fires, the later poles of each
    chain are scanned for near-collisions with another chain, and summing
    goes on past every one whose magnified term could exceed the error the
    stop would claim.

    The claim at the stop is err = tail + round_acc + eps peak, the summed
    error bounds of the terms and the rounding of the largest partial sum.
    round_acc and peak only grow.  So from sweep 7 on, once they pass
    2 rel_tol |total|, the rest of the sum is bounded (_rest_bound), and
    once they pass 2 rel_tol (|total| + rest) the series refuses with
    NonConvergence there: the stop could only refuse, later.  The factor 2
    covers an envelope that underestimates the rest; the cheap first test
    keeps the bound off every sweep where the sum does not cancel.
    """
    params, z = _prepare(params, z, rel_tol)
    mu = series_index(params)
    if abs(mu) <= 1e-12:
        raise NonConvergence(
            "series index 0: the residue series converges only inside a finite radius")
    if mu < 0.0:
        params = invert_argument(params)
        z = 1.0 / z
    logz = cmath.log(z)
    recipe = _series_recipe(params, _reflection_pairs(params))
    chains = range(params.m)

    total = 0.0 + 0.0j
    peak = 0.0
    round_acc = 0.0
    nterms = 0
    small_run = 0
    # structural zeros (denominator gammas killing a pole, or a merged pole
    # deferred to its partner chain) say nothing about a chain's tail, so
    # convergence watches each chain's nonzero terms, appended to hist as
    # (k, |term|); a chain whose last 8 terms were all zero is quiet
    hist = [[] for _ in chains]
    reach = 0
    # every sweep adds m >= 1 terms, so the term cap ends the loop
    for k in itertools.count():
        sweep = 0.0 + 0.0j
        sweep_mag = 0.0
        for chain in chains:
            term, errb = _residue_term(recipe, chain, k, logz)
            if term != 0.0:
                mag = abs(term)
                hist[chain].append((k, mag))
                sweep_mag += mag
            sweep += term
            round_acc += errb
            nterms += 1
            if nterms >= TERM_CAP:
                raise NonConvergence("H series hit the %d-term cap" % TERM_CAP)
        total += sweep
        size = abs(total)
        peak = max(peak, size)
        floor = rel_tol * max(size, 1e-300)
        # the part of the stop's err_est that only grows
        fixed = round_acc + MACH_EPS * peak
        # from sweep 7 on, a chain with no nonzero term is quiet, as below
        if fixed > 2.0 * floor and k >= 7:
            live = _live_chains(hist, k)
            room = 0.5 * fixed / rel_tol - size
            rest = _rest_bound(recipe, k, live, room)
            if rest < room:
                raise NonConvergence(
                    "H series rounding error %.2e misses rel_tol at |value| <= %.2e"
                    % (fixed, size + rest))
        # every chain quiet or with its last nonzero term below floor
        if sweep_mag < floor and all(
                (k - h[-1][0] >= 8 or h[-1][1] < floor) if h else k >= 7
                for h in hist):
            small_run += 1
            if small_run >= 3 and k >= reach:
                live = _live_chains(hist, k)
                tail = max([sweep_mag] + [h[-1][1] for h in live.values()])
                err = tail + round_acc + MACH_EPS * peak
                reach = _collision_reach(recipe, k, live, err)
                if reach == k:
                    break
        else:
            small_run = 0
    return _accept(total, err, rel_tol, "H series", "series", nterms)


def _contour_line(params: FoxHParams):
    """Abscissa gamma of a separating vertical contour and the nearest left
    and right poles lo and hi of theta, -inf or inf for an empty family (the
    existence gate has refused m = n = 0, where sigma < 0).  Every pole is
    real and eval_contour's nodes gamma +- i(k + 1/2)h are not, so a gamma
    factor singular or vanishing at gamma itself needs no other line."""
    lo = max([-b / wt for b, wt in params.lower[:params.m]], default=-math.inf)
    hi = min([(1.0 - a) / wt for a, wt in params.upper[:params.n]], default=math.inf)
    if not params.m:
        return hi - 1.0, lo, hi
    if not params.n:
        return lo + 1.0, lo, hi
    if hi - lo <= 1e-6:
        raise NoSeparatingContour(
            "pole families separated by %.2e only" % (hi - lo))
    return 0.5 * (lo + hi), lo, hi


def _log_theta(params: FoxHParams, pairs, s: np.ndarray) -> np.ndarray:
    """log theta(s) modulo 2 pi i: one array log_reflection call per
    reflection pair and one array log_gamma call per remaining factor."""
    log_acc = np.zeros_like(s)
    for sign, c, du, _, paired in _fold_pairs(_gamma_forms(params), pairs):
        u = c + du * s
        log_acc += sign * (log_reflection(u) if paired else log_gamma(u))
    return log_acc


def eval_contour(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Trapezoid rule on the Mellin-Barnes integral along a vertical line.

    The line Re s = gamma sits midway between the left and right pole
    families (one unit past the only family when there is one).  The
    integrand f(t) = theta(gamma + i t) z^-(gamma + i t) is analytic in the
    strip |Im t| < d, d the distance to the nearest pole, and the step
    takes the strip shift a = 0.8 d.  On the line shifted by a, f is taken
    to be at most G = |z|^a e^3 (d/2)/(d - a) times its size on this one:
    |z^-s| moves by at most |z|^a there; the nearest pole's factor
    1/|s - pole| grows by d/(d - a), 2.5 times what it grows by at a = d/2;
    and e^3 is the allowance made at a = d/2 for it and the other gamma
    factors.  That allowance is checked, not proved (a gamma factor's
    growth under the shift rises slowly with |t|): the tests hold err_est
    to 30-digit references on narrow gaps, near the sector edge and at
    large |z|.  The trapezoid error is then 2 M e^(-2 pi a/h), M = G sum |f|
    h, for any shift of the grid (Trefethen and Weideman, SIAM Rev. 56
    (2014) 385), so the step

        h = 2 pi a / (ln(1/eps) + 3 + ln 2.5 + a |ln |z||)

    puts it at 2 eps sum |f| h, fixed before any node.  The nodes are
    t = +-(k + 1/2) h, k >= 0: none is real, so no gamma factor sits on a
    pole, whatever gamma is.  Gamma decay makes |f(t)| fall like
    exp(-r |t|), r = pi sigma/2 - |arg z| (Braaksma), so the nodes up to
    k_hi = ceil(T/h), T = (ln(100/rel_tol) + 8)/r, are taken as one block
    and T is extended by half until the tail estimate 2 |f| / r at the last
    node is below 0.1 rel_tol of the sum.  The cut stops at CONTOUR_T_CAP,
    where a tail still above that refuses; a step that would need more than
    _CONTOUR_NODE_CAP nodes refuses before the block is evaluated.

    err_est sums three parts: that discretisation bound, the tail estimate,
    and the rounding eps sum |v| (1 + |log theta(s) - s log z|) of the
    node values v, whose exponent reaches hundreds where the line cancels
    heavily.  Every a_j and b_j is real (FoxHParams refuses others), so
    theta(conj s) = conj theta(s): the upper half-line nodes of a block go
    through one array call per gamma factor, a reflection pair
    Gamma(u) Gamma(1 - u) counting as one log pi - log sin(pi u), and the
    lower half is their conjugate.  z^-s is still taken at every node,
    since z may be complex.  work counts the nodes, 2 (k_hi + 1).
    """
    params, z = _prepare(params, z, rel_tol)
    logz = cmath.log(z)
    if abs(logz) > CONTOUR_LOG_Z_CAP:
        raise NonConvergence("|log z| = %.1f is past the contour's cap %g"
                             % (abs(logz), CONTOUR_LOG_Z_CAP))
    gam, lo, hi = _contour_line(params)
    pairs = _reflection_pairs(params)
    rate = 0.5 * math.pi * sigma(params) - abs(logz.imag)
    a = _STRIP_SHIFT * min(gam - lo, hi - gam)
    h = 2.0 * math.pi * a / (_LOG_INV_EPS + _LOG_STRIP_GROWTH + a * abs(logz.real))
    t_cut = min((math.log(100.0 / rel_tol) + 8.0) / rate, CONTOUR_T_CAP)
    acc = 0.0 + 0.0j
    abs_acc = 0.0
    round_acc = 0.0
    k_lo = 0
    while True:
        k_hi = math.ceil(t_cut / h)
        if 2 * (k_hi + 1) > _CONTOUR_NODE_CAP:
            raise NonConvergence(
                "contour step %.2e needs %d nodes to |Im s| = %.3g, past its cap %d"
                % (h, 2 * (k_hi + 1), t_cut, _CONTOUR_NODE_CAP))
        # nodes (k + 1/2) h for k_lo <= k <= k_hi, both signs; theta on the
        # upper half
        s_up = gam + 1j * h * (np.arange(k_lo, k_hi + 1) + 0.5)
        upper = _log_theta(params, pairs, s_up)
        s = np.concatenate((s_up, s_up.conj()))
        expo = np.concatenate((upper, upper.conj())) - s * logz
        mags = np.exp(expo.real)
        acc += h * complex(np.sum(np.exp(expo)))
        abs_acc += h * float(np.sum(mags))
        round_acc += h * float(np.sum(mags * (1.0 + np.abs(expo))))
        # |f| at the last node, on the upper and the lower half-line
        tail = 2.0 * max(mags[k_hi - k_lo], mags[-1]) / rate
        if tail <= 0.1 * rel_tol * max(abs(acc), 1e-300):
            break
        if t_cut >= CONTOUR_T_CAP:
            raise NonConvergence(
                "contour tail still %.2e at |Im s| = %g" % (tail, t_cut))
        k_lo = k_hi + 1
        t_cut = min(1.5 * t_cut, CONTOUR_T_CAP)
    # M = e^(_LOG_STRIP_GROWTH + a |ln |z||) sum |f| makes
    # 2 M e^(-2 pi a/h) = 2 eps sum |f|
    err = tail + 2.0 * MACH_EPS * abs_acc + MACH_EPS * round_acc
    return _accept(acc / (2.0 * math.pi), err / (2.0 * math.pi), rel_tol,
                   "contour", "contour", 2 * (k_hi + 1))


# (params, z, rel_tol, result) of eval_auto's last computed answer
_conj_memo = None


def eval_auto(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Series first, contour as fallback on degenerate poles or slow series.

    A series-index-0 set always takes the contour: eval_series refuses it.

    A call with the same params and rel_tol at the conjugate of the last
    computed z, off the real axis, is answered from that answer: with real
    parameters H(conj z) = conj H(z), and the conjugate is exact in floating
    point, so conj(value) is off H(conj z) by exactly what value is off H(z)
    and the stored err_est still bounds it.  The replay reports work 0.  A
    real z never replays, so the two sides of the branch cut at z = -x +- 0j
    stay apart.  A refusal leaves the stored answer as it was.
    """
    global _conj_memo
    z = complex(z)
    memo = _conj_memo
    if memo is not None and z.imag != 0.0 and z == memo[1].conjugate() \
            and rel_tol == memo[2] and params == memo[0]:
        r = memo[3]
        return EvalResult(r.value.conjugate(), r.err_est, r.method, 0)
    try:
        r = eval_series(params, z, rel_tol)
    except (DegeneratePoles, NonConvergence):
        r = eval_contour(params, z, rel_tol)
    _conj_memo = (params, z, rel_tol, r)
    return r


# the H routes by name, for every caller that takes a method option
_ROUTES = {"auto": eval_auto, "series": eval_series, "contour": eval_contour}


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
    if b == 0 or abs(math.atan2(b.imag, b.real)) >= math.pi:
        raise ValidationError("b must satisfy b != 0 and |arg b| < pi")
    lhs = x ** rho / (1.0 + b * x ** alpha)
    r = rho / alpha
    params = FoxHParams(m=1, n=1, upper=((r, 1.0),), lower=((r, 1.0),))
    arg = b * x ** alpha
    res = eval_auto(params, arg, rel_tol)
    rhs = cmath.exp(-r * cmath.log(b)) * res.value
    return lhs, rhs
