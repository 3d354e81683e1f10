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
the ramp) all have real parameters: the Riesz-Feller skewness enters the
delta well through the phase of the argument z, and the ramp through the
real parameters c and w of its H set, at a real argument.  So every
residue term's gamma arguments are real and go to the real scalar
kernels, and on the contour theta(conj s) = conj theta(s) halves the work.
Real parameters also make H real at a real z > 0, and both routes return
an imaginary part of exactly 0 there (_answer): the series carries a
negative gamma's sign as i pi and the contour sums conjugate nodes apart,
so each would leave one of rounding size.

Gamma pairs that multiply to a reflection Gamma(u) Gamma(1 - u) =
pi / sin(pi u) are folded next: a lower[:m] entry equal to an upper[:n]
entry in the numerator, a lower[m:] entry equal to an upper[n:] entry in
the denominator.  The H kernels of this package are Mellin transforms of
the Riesz-Feller resolvent and carry such pairs, so the even part of the
delta well, theta(s) = Gamma(s) cos(pi s/2) / sin(pi (a1 + s/alpha)),
costs one gamma function and two sines instead of five gamma functions.
The pairing is read off the reduced parameters once per plan (_Plan), on
the contour and in the residue terms alike.

Every gamma factor is a linear form u = c + du s, du = +-B
(_gamma_forms), evaluated as that one product and sum everywhere: the one
representation the contour (on arrays of s) and the residue terms (at
scalar s) share.  eval_series sums from a plan (_Plan) of the H set: the
z-free term recipe (_Recipe), which holds per chain the flat tuples a
residue term reads (the poles to scan for a collision, and the folded
numerator and denominator factors from _flat, pairs and gammas apart) and
the forms and pairs that a merged pole folds again; the z-free part of
every term summed so far; and the z-free scale of every pole the rest
bound has read (_pole_scale).  The collision test and the scale's
near-pole gain read the same scan.  A residue term is pole k's z-free
part (_term_part), which holds all of its kernel calls, then a finish at
ln z (_finish).  One _term_part gives every term, simple, confluent or
demoted, with one pair of factor loops.  An ordinary term, a simple pole
on one chain, costs its kernel calls and a few float operations on its
pole s, with no Python call but the kernels.  The scan is the one walk
of the pole's neighbours: it refuses a near miss or a right-chain
collision where it meets it, and records an exact hit on another left
chain (a second one refuses).  Only with a hit does the term call
_merged_pole, a z-free setup that folds the forms again with both
chains' gammas and each denominator gamma that vanishes there skipped,
and picks the residue by the pole's order (two less those zeros); the
same loops then also sum the log derivative that a double pole's
confluent bracket reads.  The finish exponentiates t ln z plus the
part's logs in one fixed order, so a term finished from a kept part has
the bits of one built afresh.

One bound on the rest of the sum (_rest_bound) makes every decision of
eval_series.  It takes each live chain's last terms, divides out their
poles' scales, the denominator pairs' sine and the near-pole gain, and
sums the geometric envelope of what is left, times the gains of the
poles ahead (_pole_scale, from the same arithmetic as the terms); a
chain whose envelope does not decay yet has no bound.  The series stops
once its claim, the rounding of the terms and of the largest partial sum
plus that bound, is within rel_tol, and refuses as soon as the rounding
part, which only grows, misses rel_tol whatever the rest adds.

Past |z| of about 8 on the delta well that rounding part, which grows
like eps e^(mu t*) with the terms' peak (Braaksma), swamps an H that
falls like its descending expansion, and the series would refuse only
after summing its whole hump.  So eval_series also refuses at the first
sweep whose rounding passes a gate set before the first term
(_miss_gate): 3 rel_tol times the size of H that the descending
expansion's first two nonzero terms (_descending_lead, kept on the plan)
and Braaksma's exponential predict.  The gate is inf, and the sum runs
as it would without one, where Braaksma's constants, which the set's
plan derived when it was built, put that rounding far below it.
eval_auto runs the series first and the contour on any refusal.

One matcher, _exact_matches, finds both the cancelling and the
reflection pairs.  Two things are kept between calls.  eval_auto keeps
its last answer, which it replays only as the exact conjugate H(conj z) =
conj H(z).  A replay can differ from a fresh evaluation at conj z in
rounding, within both err_est, and needs no invalidation.  And an
lru_cache (_kept_plan) keeps the plans (_Plan) of the last PLAN_CAP H
sets that a route ran on, least recently used out first, the one policy
of every table the package keeps across calls.  A plan is the one record
of its set, keyed on the set as given: built, it derives the reduced set,
its existence index and sector edge, its series index and Braaksma's
constants once, so a call on a known set makes one lookup of the table
and none of those derivations.  Two sets that reduce
alike have a plan each.  A plan's series part is extended as a later
call needs further poles or the rest bound reads further scales.  Its
contour part holds the set's line and reflection pairs, read once per
plan, and log theta on the nodes of each step rung a call has used:
eval_contour rounds its step down to a fixed ladder, so calls at nearby
|ln |z|| share their nodes, and a call finds theta on the nodes kept and
extends them as its cut needs; a cut that grows is summed again from its
first node, so the sums carry nothing from one length of the cut to the
next.  A plan is z-free, so any z reuses it, and a term, a scale or a
node value from it has the bits of a fresh one.  A term that refuses is
not kept, and refuses afresh on every call.
The kernels log_gamma, digamma, log_reflection and pi_cot_pi are looked
up as module globals at call time: by eval_series and eval_contour,
whose plans are keyed on the H set and the four kernels bound at the
call, by _flat, when a plan builds its recipe and when a merged pole
folds its factors, and by the contour once per folded factor on each
block of new nodes.  So rebinding any of them between calls (to
count or time them) starts a fresh plan, which sees every kernel call,
still one per folded factor per term or per block of nodes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
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
from .result import EvalResult, _accept, _check_argument, _check_rel_tol

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
# the contour's step is rounded down to a fixed ladder of this many rungs
# per halving, so that calls at nearby |ln |z|| share their nodes; a rung
# is at most 2^(1/16) - 1 = 4.4 % below the step, and so are the nodes
_RUNGS_PER_OCTAVE = 16
_NO_NODES = np.empty(0, dtype=complex)
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
    sig = sigma(params)
    try:
        _require_exists(z, sig, 0.5 * math.pi * sig)
    except (ValidationError, ZeroBase, NonConvergence, DomainError):
        return False
    return True


def _prepare(params: FoxHParams, z: complex, rel_tol: float):
    """The plan of params (_plan) and the complex z of an evaluation, once
    rel_tol and z pass and z lies in the existence sector of the reduced
    set: one lookup of the plan table, which derived the set's sector when
    it built the plan."""
    _check_rel_tol(rel_tol)
    z = complex(z)
    plan = _plan(params)
    _require_exists(z, plan.sigma, plan.edge)
    return plan, z


def _answer(z: complex, value: complex, err: float, rel_tol: float, what: str,
            method: str, work: int) -> EvalResult:
    """_accept's answer of an H route at z, with the imaginary part that
    rounding leaves at a real z > 0 dropped, as power_sum and ml_contour
    drop theirs at a real z."""
    if z.imag == 0.0 and z.real > 0.0:
        value = complex(value.real, 0.0)
    return _accept(value, err, rel_tol, what, method, work)


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


def invert_argument(params: FoxHParams) -> FoxHParams:
    """Params for H^{m,n}_{p,q}(z) = H^{n,m}_{q,p}(1/z) with reflected entries."""
    new_upper = tuple((1.0 - b, wt) for b, wt in params.lower)
    new_lower = tuple((1.0 - a, wt) for a, wt in params.upper)
    return FoxHParams(m=params.n, n=params.m, upper=new_upper, lower=new_lower)


def _require_exists(z: complex, sig: float, edge: float):
    """Refuse a NaN z as invalid, an infinite one as past double range (the
    class an overflowed argument gets), z = 0, and z outside the sector
    |arg z| < edge = pi sig/2 of existence index sig."""
    z = _check_argument(z, "H-function")
    if z == 0:
        raise ZeroBase("H-function argument must be nonzero")
    if sig <= 0.0:
        raise DomainError("existence index sigma = %g is not positive" % sig)
    # math.atan2, not cmath.phase, which overflows at z = 1e300 + 1e-300j
    arg = abs(math.atan2(z.imag, z.real))
    if arg >= edge:
        raise DomainError(
            "|arg z| = %.6f outside the existence sector pi*sigma/2 = %.6f" % (arg, edge))


_EXACT_COLLISION_TOL = 1e-11


def _denominator_zeros(forms, s: float):
    """The denominator entries of _gamma_forms whose gamma sits on its pole
    u = -nu at s, each a simple zero of theta, as (position, nu, du/ds);
    a near-miss that is not exact refuses."""
    zeros = []
    tol_exact = _EXACT_COLLISION_TOL * max(1.0, abs(s))
    for pos, (sign, c, du, _) in enumerate(forms):
        if sign > 0:
            continue
        u = c + du * s
        k_near = round(-u)
        d = abs(u + k_near) / abs(du) if k_near >= 0 else float("inf")
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
    """The z-free factors of every residue term of one H set's plan.

    terms[chain] is all that an ordinary term on the chain reads, as flat
    tuples:
    - the chain's b and B;
    - its scan, the one record of the other chains: the other left chains
      in index order as (b, B, SEPARATION_TOL B, B), then the right
      chains, the upper[:n] forms, as (c, du/ds, SEPARATION_TOL |du/ds|,
      0.0);
    - the factors of theta left once the chain's own gamma is skipped and
      the reflection pairs are folded (_fold_pairs), as _flat gives them:
      (c, du/ds, |c|, |du/ds|, kernel, slope, g) in two tuples, numerator
      and denominator, each with its pairs first and then its gammas;
    - the denominator pairs alone, as (c, du/ds), which _pole_scale reads.
    The rest serves the merged terms: forms are the gamma factors of theta
    (_gamma_forms) and pairs the reflection pairs, from which _merged_pole
    folds the factors again, with both chains' gammas and the vanishing
    denominator gammas skipped, through the same _flat.
    """

    params: FoxHParams
    pairs: tuple
    forms: list
    terms: tuple


def _flat(entries):
    """The entries of _fold_pairs as the factors a residue term reads,
    numerator and denominator apart, each in _fold_pairs order (pairs
    first): (c, du/ds, |c|, |du/ds|, kernel, slope, g).  kernel and slope
    are log_reflection and pi_cot_pi for a pair, log_gamma and digamma for
    a gamma, looked up as module globals at each call; g slope(u) is the
    factor's share of d log theta/ds, so g carries the side's sign, and a
    pair's -1 as d/du log Gamma(u) Gamma(1 - u) = -pi cot(pi u)."""
    kernels = {True: (log_reflection, pi_cot_pi, -1), False: (log_gamma, digamma, 1)}
    num, den = [], []
    for sign, c, du, abs_c, paired in entries:
        kernel, slope, g_sign = kernels[paired]
        (num if sign > 0 else den).append((c, du, abs_c, abs(du), kernel, slope, g_sign * sign * du))
    return tuple(num), tuple(den)


def _series_recipe(params: FoxHParams, pairs) -> _Recipe:
    forms = _gamma_forms(params)
    m = params.m
    right_scan = tuple((c, du, SEPARATION_TOL * abs(du), 0.0)
                       for _, c, du, _ in forms[m:m + params.n])
    terms = []
    for chain, (b, wt) in enumerate(params.lower[:m]):
        scan = tuple((b2, wt2, SEPARATION_TOL * wt2, wt2)
                     for i, (b2, wt2) in enumerate(params.lower[:m]) if i != chain)
        entries = _fold_pairs(forms, pairs, (chain,))
        den_pairs = tuple((c, du) for sign, c, du, _, paired in entries if sign < 0 and paired)
        terms.append((b, wt, scan + right_scan) + _flat(entries) + (den_pairs,))
    return _Recipe(params, pairs, forms, tuple(terms))


def _merged_pole(recipe: _Recipe, chain: int, k: int, s: float, other: int, k2: int):
    """The setup of the residue term at left pole k of the chain, s =
    -(b + k)/B, where _term_part's scan found pole k2 of left chain other
    exactly on s and no other chain near it: None for a term that is 0,
    else (num, den, weight, parity, lead, shift, head), which _term_part
    sums in place of the ordinary term's factors, weight B and parity k.

    Exactly coincident left poles merge into one pole whose confluent
    residue is computable.  When two chains share the pole, the chain
    consumed first in sweep order carries the whole residue and the
    partner's later consumption is 0; putting the merged term at the
    earlier sweep keeps it ahead of the stop rule.  The merged pole's order
    is two less the denominator gammas singular there (_denominator_zeros):
    two of them leave no pole and a zero term; one leaves a simple pole
    whose residue takes that reciprocal gamma's slope (-1)^nu nu! du/ds as
    a factor; none leaves a double pole, whose residue is

        -+ exp(L - s0 log z)/(B1 B2 k! k2!) * [B1 psi(k+1) + B2 psi(k2+1)
           + d log G / ds - log z],

    G being the non-singular gamma ratio.  num and den are G's factors
    from _flat (_fold_pairs with both chains' gammas and the vanishing
    denominator gammas skipped), weight is B1 B2, lead log k2!, shift the
    simple pole's log nu! + log |du/ds| (0 for a double pole), and head
    B1 psi(k+1) + B2 psi(k2+1) for a double pole, None for a simple one.
    """
    if k > k2 or (k == k2 and chain > other):
        return None
    zeros = _denominator_zeros(recipe.forms, s)
    if len(zeros) >= 2:
        return None
    skip = (chain, other) + tuple(pos for pos, _, _ in zeros)
    num, den = _flat(_fold_pairs(recipe.forms, recipe.pairs, skip))
    B_i = recipe.params.lower[chain][1]
    B_o = recipe.params.lower[other][1]
    lead = math.lgamma(k2 + 1.0)
    if zeros:
        _, nu, du = zeros[0]
        return (num, den, B_i * B_o, k + k2 + nu + (du < 0), lead,
                math.lgamma(nu + 1.0) + math.log(abs(du)), None)
    head = B_i * digamma(k + 1.0) + B_o * digamma(k2 + 1.0)
    return num, den, B_i * B_o, k + k2, lead, 0.0, head


def _term_part(recipe: _Recipe, chain: int, k: int):
    """The z-free part of the residue term at left pole k of the given
    chain: None for a term that is 0, else (t, log k!, log_ratio, weight,
    odd, sens, merge), which _finish turns into the term at ln z.

    Every term, simple, confluent or demoted, runs the same code: the
    scan, then one kernel call and one slope call per factor, one loop per
    side in the order numerator pairs, numerator gammas, denominator
    pairs, denominator gammas.  An ordinary term, a simple pole, reads its
    factors, weight B and parity k from recipe.terms and makes no Python
    call but the kernels.

    The scan is the one walk of the pole's neighbours, and it classifies
    each neighbour it meets.  Nearly coincident left poles leave a
    catastrophically cancelling residue pair and a collision with a right
    chain pinches the contour, so a near miss on a left chain, or a right
    chain within SEPARATION_TOL, refuses with DegeneratePoles at once; an
    exact hit on another left chain is recorded, and a second one refuses
    too (three chains on one pole are not handled).  The walk refuses at
    the first offending neighbour in scan order, the other left chains
    before the right ones.  After it, a recorded hit (other, k2) goes to
    _merged_pole, which makes the term 0 or gives the merged pole's
    factors, weight, parity and log offsets, and for a double pole the
    head of its confluent bracket; only then do the loops sum the log
    derivative and its magnitudes that the bracket reads.  A
    denominator gamma landing on its own pole kills an ordinary term
    (1/Gamma -> 0), reported as None; in a merged term, whose zeros
    _denominator_zeros took out, it refuses.

    t = -s is the power of z, log_ratio the summed kernel logs of the
    numerator less those of the denominator, odd the parity, and sens
    eps times the summed argument-rounding sensitivities (see _finish).
    merge is None for an ordinary term, else (lead, shift, bracket):
    lead and shift the merged pole's log offsets, bracket None for a
    simple pole, else the double pole's head plus the log derivative, the
    numerator's derivative magnitudes, and |head| plus the denominator's.
    """
    b_i, weight, scan, num, den, _ = recipe.terms[chain]
    t = (b_i + k) / weight
    s = -t
    abs_s = abs(s)
    merged = head = hit = None
    parity = k
    tol = _EXACT_COLLISION_TOL * (abs_s if abs_s > 1.0 else 1.0)
    for j, (c, du, sep, wt) in enumerate(scan):
        u = c + du * s
        k_near = round(-u)
        if k_near >= 0:
            dist = abs(u + k_near)
            # a right chain's wt is 0, so only a left chain hits exactly
            if dist < tol * wt:
                if hit is not None:
                    raise DegeneratePoles("three left pole chains meet at s = %s" % (s,))
                hit = (j + (j >= chain), k_near)  # the scan skips the chain itself
            elif dist < sep:
                n_left = recipe.params.m - 1
                if j >= n_left:
                    raise DegeneratePoles(
                        "left chain %d collides with right chain %d near s = %s"
                        % (chain, j - n_left, s))
                raise DegeneratePoles("left pole chains %d and %d nearly collide at s = %s"
                                      % (chain, j + (j >= chain), s))
    if hit is not None:
        merged = _merged_pole(recipe, chain, k, s, *hit)
        if merged is None:
            return None
        num, den, weight, parity, lead, shift, head = merged
    log_num = dsum_num = 0.0 + 0.0j
    sens_num = dmag_num = 0.0
    for c, du, abs_c, abs_du, kernel, slope, g in num:
        u = c + du * s
        log_num += kernel(u)
        d = slope(u)
        sens_num += (abs_c + abs_du * abs_s) * abs(d)
        if merged:
            dsum_num += g * d
            dmag_num += abs(g * d)
    log_den = dsum_den = 0.0 + 0.0j
    sens_den = dmag_den = 0.0
    try:
        for c, du, abs_c, abs_du, kernel, slope, g in den:
            u = c + du * s
            log_den += kernel(u)
            d = slope(u)
            sens_den += (abs_c + abs_du * abs_s) * abs(d)
            if merged:
                dsum_den += g * d
                dmag_den += abs(g * d)
    except PoleOfGamma:
        if merged is None:
            return None
        # a denominator gamma on a pole the zero scan missed (its weight is
        # below about 1e-3): no parameter set of this package makes one
        raise DegeneratePoles(
            "denominator pole coincides with a confluent pair at s = %s" % (s,)) from None
    merge = None
    if merged:
        bracket = None if head is None else (
            head + dsum_num + dsum_den, dmag_num, abs(head) + dmag_den)
        merge = (lead, shift, bracket)
    return (t, math.lgamma(k + 1.0), log_num - log_den, weight, parity % 2 == 1,
            sens_num * MACH_EPS + sens_den * MACH_EPS, merge)


def _finish(part, logz: complex):
    """The signed residue term of a _term_part at ln z, with its error;
    (0, 0) for a term that is 0.

    The finish takes exp of the summed logs, log_ratio + t ln z - log k!
    (less the merged pole's lead, plus its shift), over the weight, times
    the bracket less ln z if there is one, negated for odd parity.  Its
    error is the log error of the exponent (which, not the partial-sum
    roundoff, dominates when the series cancels): an O(L) exponent turns
    eps-level log errors into a relative L eps, and each factor adds the
    error of rounding its argument u, (|c| + |du/ds| |s|) |slope(u)| eps,
    which is what an eps-level log error misses beside a pole, where the
    log derivative is large and a rounded argument moves the value.  For a
    pair, |pi cot(pi u)| = |psi(u) - psi(1 - u)|.  A bracket adds eps
    times the magnitudes of its parts times the magnitude before it.
    """
    if part is None:
        return 0.0 + 0.0j, 0.0
    t, log_fact, log_ratio, weight, odd, sens, merge = part
    log_rest = t * logz - log_fact
    bracket = None
    if merge is None:
        log_acc = log_ratio + log_rest
    else:
        lead, shift, bracket = merge
        log_acc = log_ratio + (log_rest - lead)
        if shift:
            log_acc += shift
    if log_acc.real > 700.0:
        raise NonConvergence(
            "H series term magnitude exp(%.1f) exceeds double range" % log_acc.real)
    term = cmath.exp(log_acc) / weight
    err = 0.0
    if bracket is not None:
        derivs, dmag_num, dmag_rest = bracket
        err = (dmag_num + (dmag_rest + abs(logz))) * MACH_EPS * abs(term)
        term *= derivs - logz
    if odd:
        term = -term
    rel = (4.0 + abs(log_acc.real) + abs(log_acc.imag)) * MACH_EPS + sens
    return term, rel * abs(term) + err


def _pole_scale(recipe: _Recipe, chain: int, k: int):
    """(sine, gain) at left pole k of the chain, the two z-free factors
    that _rest_bound divides out of a term.  sine <= 1 is the product of
    |sin pi u| over the denominator reflection pairs, each
    1/(Gamma(u) Gamma(1 - u)) = sin(pi u)/pi: a sine near 0 makes one term
    small and says nothing of the next.  gain >= 1 is how much the other
    chains' numerator gammas magnify the residue: the product of
    1/(2 delta) over them, delta the distance of the gamma argument from
    its nearest pole (at most 1/2, giving 1).  Exactly coincident poles
    merge into a confluent term and magnify nothing.  Pure arithmetic."""
    b_c, wt_c, scan, _, _, den_pairs = recipe.terms[chain]
    s = -(b_c + k) / wt_c
    sine = 1.0
    for c, du in den_pairs:
        sine *= abs(math.sin(math.pi * (c + du * s)))
    abs_s = abs(s)
    tol = _EXACT_COLLISION_TOL * (abs_s if abs_s > 1.0 else 1.0)
    gain = 1.0
    for b, wt, _, _ in scan[:recipe.params.m - 1]:
        u = b + wt * s
        k_near = round(-u)
        delta = abs(u + k_near)
        if k_near >= 0 and delta >= tol * wt:
            gain *= 0.5 / delta
    return sine, gain


def _rest_bound(plan: _Plan, k: int, hist, room: float):
    """(rest, beyond), whose sum bounds the summed magnitudes of the terms
    after sweep k, beyond being the allowance for the poles past the sweeps
    scanned.  Once the bound reaches room the pair only says so: its sum
    is at least room, and rest is inf where there is no bound, as for a
    chain that does not decay yet.

    hist maps each live chain to its last nonzero terms as (k, |term|).
    Each is divided by its pole's scale, the denominator pairs' sine and
    the near-pole gain (_pole_scale), so that they follow the chain's
    smooth part: b_last, the last of them, times rho^(kk - k_last), rho the
    fastest per-sweep ratio among them, is its envelope at a later sweep
    kk.  A later term is at most that envelope times its pole's gain, which
    is at least 1.  So the envelope's geometric sum comes first, and then
    the gains' excess over 1, summed over the sweeps where even the gain
    cap could still matter: until the geometric rest at the cap is below
    1/8 of the room left, or LOOKAHEAD_SWEEPS, past which there is no
    bound.  That geometric rest is beyond.  The gain cap is the largest
    gain a pole can have short of an exact collision: one factor
    1/(2 delta) per other chain, delta at least _EXACT_COLLISION_TOL times
    the lightest weight.  With one chain every gain is 1 and beyond is 0.
    Every scale, of a history term or of a pole ahead, is read from
    plan.scales, and computed and kept there the first time it is read.
    """
    recipe = plan.recipe
    m = recipe.params.m
    w_min = min(wt for _, wt in recipe.params.lower[:m])
    excess_cap = (0.5 / (w_min * _EXACT_COLLISION_TOL)) ** (m - 1) - 1.0
    rest = beyond = 0.0
    for chain, h in hist.items():
        scales = plan.scales[chain]
        for kh, _ in h:
            if kh not in scales:
                scales[kh] = _pole_scale(recipe, chain, kh)
        divs = [scales[kh] for kh, _ in h]
        if len(h) < 2 or not all(sine for sine, _ in divs):
            return math.inf, 0.0
        base = [(kh, mag / sine / gain) for (kh, mag), (sine, gain) in zip(h, divs)]
        rho = max((b2 / b1) ** (1.0 / (k2 - k1))
                  for (k1, b1), (k2, b2) in zip(base, base[1:]))
        if rho >= 1.0:
            return math.inf, 0.0
        k_last, b_last = base[-1]
        env = b_last * rho ** (k + 1 - k_last)
        rest += env / (1.0 - rho)
        if rest + beyond >= room:
            break
        cap_rest = env * excess_cap / (1.0 - rho)
        n = 0
        while cap_rest >= 0.125 * (room - rest - beyond):
            if n == LOOKAHEAD_SWEEPS:
                return math.inf, 0.0
            n += 1
            cap_rest *= rho
        for kk in range(k + 1, k + 1 + n):
            if kk not in scales:
                scales[kk] = _pole_scale(recipe, chain, kk)
            rest += env * (scales[kk][1] - 1.0)
            env *= rho
        beyond += cap_rest
        if rest + beyond >= room:
            break
    return rest, beyond


class _Plan:
    """The one record kept of an H set, keyed on the set as given: what
    eval_series and eval_contour read of it, each route's part built the
    first time it is needed.

    Derived when the plan is built, once per set: params, the set reduced
    (reduce_params), on which both routes run; sigma, its existence index,
    and edge = pi sigma/2, the sector's edge, which _require_exists, the
    contour's decay rate and _miss_gate's distance to the edge read;
    mu, its series index, 0 where it is within 1e-12 of 0; and log_beta,
    Braaksma's log(prod B^B / prod A^A) of the set the series sums (the
    inverted one where mu < 0).

    The series part, left None by a series-index-0 set: the recipe of the
    set the series sums, reach[chain] (the last pole k of the chain that a
    denominator gamma can zero), parts[chain], the _term_part of each pole
    k summed so far by any call, and scales[chain], a dict from pole k to
    its _pole_scale (sine, gain), filled the first time _rest_bound reads
    that pole.  A call that needs a later pole appends its part; a part
    that refuses is not stored, so a later call recomputes it and refuses
    alike.  lead, the _descending_lead of the recipe, is kept by the first
    _miss_gate call that reads it.

    The contour part: line, the set's (gamma, a, reflection pairs), and
    rungs, a dict from a step's rung j (_contour_step) to the upper
    half-line nodes gamma + i(k + 1/2)h_j, k = 0, 1, ..., that any call
    has evaluated, as the arrays of s and of log theta(s).  A call that
    needs further nodes extends them, as long as the plan keeps at most
    _KEPT_NODE_CAP nodes over all its rungs; past that it evaluates the
    rest without keeping it.
    """

    __slots__ = ("params", "sigma", "edge", "mu", "log_beta", "recipe", "reach", "parts",
                 "scales", "lead", "line", "rungs")

    def __init__(self, params: FoxHParams):
        self.params = params = reduce_params(params)
        self.sigma = sigma(params)
        self.edge = 0.5 * math.pi * self.sigma
        mu = series_index(params)
        self.mu = mu if abs(mu) > 1e-12 else 0.0
        log_beta = (sum(wt * math.log(wt) for _, wt in params.lower)
                    - sum(wt * math.log(wt) for _, wt in params.upper))
        self.log_beta = log_beta if mu > 0.0 else -log_beta
        self.recipe = self.reach = self.parts = self.scales = self.lead = None
        self.line = None
        self.rungs = {}


# the plans by (params, log_gamma, digamma, log_reflection, pi_cot_pi),
# least recently used first.  A series part costs well under a megabyte
# at the benchmark's term counts, and a contour part at most
# _KEPT_NODE_CAP nodes of 32 bytes (s and log theta), 64 KB; so PLAN_CAP
# plans keep at most 2 MB of contour nodes
PLAN_CAP = 32
_KEPT_NODE_CAP = 1 << 11


@lru_cache(maxsize=PLAN_CAP)
def _kept_plan(params, log_gamma, digamma, log_reflection, pi_cot_pi) -> _Plan:
    """A fresh plan of params, kept by params and the four kernels it is
    keyed on."""
    return _Plan(params)


def _plan(params: FoxHParams) -> _Plan:
    """The plan of params under the kernels bound now: a rebinding of any
    of the four starts a cold plan, whose terms and nodes make every
    kernel call afresh."""
    return _kept_plan(params, log_gamma, digamma, log_reflection, pi_cot_pi)


def _series_plan(plan: _Plan) -> _Plan:
    """The plan with its series part built, on the inverted set where the
    series index is negative.  A series-index-0 set refuses, and its plan
    keeps no series part."""
    if plan.recipe is not None:
        return plan
    if not plan.mu:
        raise NonConvergence(
            "series index 0: the residue series converges only inside a finite radius")
    params = invert_argument(plan.params) if plan.mu < 0.0 else plan.params
    m = params.m
    # the last pole k of each chain (b, B) that a denominator gamma
    # 1/Gamma(1 - b' - B' s), zero only at s >= (1 - b')/B', can zero:
    # k <= -b - B (1 - b')/B'
    plan.reach = [max([-b - wt * (1.0 - b2) / wt2 for b2, wt2 in params.lower[m:]],
                      default=-1.0) for b, wt in params.lower[:m]]
    plan.parts = [[] for _ in range(m)]
    plan.scales = [{} for _ in range(m)]
    plan.recipe = _series_recipe(params, _reflection_pairs(params))
    return plan


# eval_series refuses once its rounding error passes _MISS_MARGIN rel_tol
# S, S the size of H that _miss_gate reads off the descending expansion,
# and sets no gate where Braaksma's estimate eps e^(mu t*) of that error
# stays e^_MISS_SCREEN below it.  The measurements behind both are in
# _miss_gate's docstring
_MISS_MARGIN = 3.0
_MISS_SCREEN = 8.0
# the poles of each right chain searched for the first two nonzero terms
# of the descending expansion
_LEAD_POLES = 8


def _descending_lead(recipe: _Recipe):
    """(t, log |coefficient|) of the first two nonzero terms, in rising t,
    of the descending expansion of the recipe's set, the one the series
    sums: the residues at the right poles s = t = (1 - a + k)/A, each
    |c| |w|^-t, with math.lgamma for every other gamma factor of the
    recipe's forms.  A denominator gamma on its pole makes a term 0; ()
    where a numerator gamma meets one (a double pole) or fewer than two
    nonzero terms lie within the first _LEAD_POLES poles of the chains
    (with no right chain, H is exponentially small).  A gamma argument
    on a pole is one within rounding of an integer at most 0, on either
    side of it."""
    forms, m = recipe.forms, recipe.params.m
    lead = []
    for j in range(m, m + recipe.params.n):
        _, c_j, du_j, _ = forms[j]
        others = [(sign, c, du) for pos, (sign, c, du, _) in enumerate(forms) if pos != j]
        found = 0
        for k in range(_LEAD_POLES):
            t = (c_j + k) / -du_j
            tol = _EXACT_COLLISION_TOL * max(1.0, abs(t))
            log_coef = -math.lgamma(k + 1.0) - math.log(-du_j)
            zero = False
            for sign, c, du in others:
                u = c + du * t
                nearest = round(u)
                if nearest <= 0 and abs(u - nearest) < tol:
                    if sign > 0:
                        return ()
                    zero = True
                elif not zero:
                    log_coef += sign * math.lgamma(u)
            if not zero:
                lead.append((t, log_coef))
                found += 1
                if found == 2:
                    break
    lead.sort()
    return tuple(lead[:2]) if len(lead) >= 2 else ()


def _miss_gate(plan: _Plan, logw: complex, rel_tol: float) -> float:
    """The rounding error past which eval_series refuses at ln w = logw
    on the plan's series part: _MISS_MARGIN rel_tol S, S the size of H
    that the descending expansion predicts, or inf where there is no gate.

    The series sums at w = z, or at w = 1/z on the inverted set (series
    index < 0).  Its terms peak near e^(mu t*), t* = (|w|/beta)^(1/mu)
    (Braaksma, Compositio Math. 15 (1964); Mathai, Saxena and Haubold, The
    H-Function, Springer 2010, ch. 1), so its rounding error grows like
    eps e^(mu t*), while H falls like its descending expansion.  S is the
    first two nonzero terms of that expansion (_descending_lead, kept on
    the plan the first time it is read) plus Braaksma's exponential
    e^(-mu t* sin(min(delta/mu, pi/2))), delta = pi sigma/2 - |arg w| the
    distance to the sector's edge: near alpha = 2 the delta well's and the
    ramp's algebraic terms vanish like sin(pi alpha/2), and H is that
    exponential, e^-zeta and the Airy decay.

    A series that answers ends with its rounding error at most
    rel_tol |total|, so the gate refuses one only where
    |H| > 3 (1 - rel_tol) S >= 2.97 S.  |H|/S was measured at 0.41-1.08
    over the 3,360 eval_series calls of delta-grid (seeds 1-3, rounds
    0-39) and the 1,728 of param-sweep (rounds 0-15), |H| from the
    contour at rel_tol 1e-12 (without the exponential, up to 221 near
    alpha = 2).  The series' rounding error exceeds eps e^(mu t*) by
    e^1.2-e^20 (the power of t* and the sines that Braaksma's estimate
    leaves out), so the gate is inf where eps e^(mu t*) e^_MISS_SCREEN is
    below it, and the series sums as it would without one.  It is inf
    too for a set with no descending lead, and past CONTOUR_LOG_Z_CAP,
    where the contour refuses.  The gate is a pure function of (set, w,
    rel_tol): a kept lead has the bits of a fresh one."""
    log_r = logw.real
    if abs(log_r) > CONTOUR_LOG_Z_CAP:
        return math.inf
    if plan.lead is None:
        plan.lead = _descending_lead(plan.recipe)
    if not plan.lead:
        return math.inf
    mu = abs(plan.mu)
    delta = plan.edge - abs(logw.imag)
    try:
        t_star = math.exp((log_r - plan.log_beta) / mu)
        size = math.exp(-mu * t_star * math.sin(min(delta / mu, 0.5 * math.pi)))
        for t, log_coef in plan.lead:
            size += math.exp(log_coef - t * log_r)
    except OverflowError:
        return math.inf
    gate = _MISS_MARGIN * rel_tol * size
    if not gate > 0.0 or mu * t_star + _MISS_SCREEN - _LOG_INV_EPS < math.log(gate):
        return math.inf
    return gate


def eval_series(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Ascending residue power series over the left pole chains.

    The series is entire for series index > 0; index < 0 is reached by
    inverting the argument.  A series-index-0 set (the Lemma 3.1 kernel
    among them) converges only inside a finite radius, and near its edge
    the partial sums stall with no honest error estimate, so it refuses
    with NonConvergence and eval_auto hands it to the contour.  Pole
    collisions are only fatal when a colliding term is actually needed
    before the sum stops.

    The stop and the refusal read one bound on the rest of the sum,
    rest + beyond (_rest_bound), and the part of the claim that only
    grows, fixed = round_acc + eps peak: the summed error bounds of the
    terms and the rounding of the largest partial sum.
    - Stop.  Once three sweeps in a row fall below rel_tol |total|, the
      sum stops when fixed + rest + beyond < rel_tol |total|, and claims
      err = fixed + rest.  beyond is what the poles past the sweeps the
      bound scans would add if each came as near another chain's pole as
      any can short of an exact collision: it holds the stop back, but
      the claim counts only the envelope and the gains actually scanned.
      A chain whose terms still grow has no bound, so the stop waits for
      it even when every term of the last sweeps is small, and so does a
      chain with no nonzero term yet while a denominator gamma can still
      be zeroing its poles.
    - Refuse.  From sweep 7 on, once fixed passes 2 rel_tol |total|, the
      series refuses with NonConvergence as soon as fixed passes
      2 rel_tol (|total| + rest + beyond): a later stop could only refuse.
      The factor 2 covers an envelope that underestimates the rest; the
      cheap first test keeps the bound off every sweep where the sum does
      not cancel.  At the stop's sweeps, once fixed alone misses
      rel_tol |total| and the bound is below fixed/rel_tol - |total|, the
      sum stops and _accept refuses its claim.
    - Gate.  At every sweep, once round_acc passes the gate _miss_gate
      set before the first term, 3 rel_tol S, S the size of H the
      descending expansion predicts, the series refuses with
      NonConvergence.  An answer ends with round_acc <= rel_tol |total|,
      so the gate refuses one only where |H| > 2.97 S, and |H|/S was
      measured at 0.41-1.08.  Past |z| of about 8 on the delta well this
      refuses before the terms' hump, which the other two rules would sum
      whole (a chain that still grows has no rest bound).

    The terms' z-free parts come from the set's plan (_series_plan), so a
    call on a set summed before makes kernel calls only for the poles past
    those earlier calls reached.
    """
    plan, z = _prepare(params, z, rel_tol)
    _series_plan(plan)
    if plan.mu < 0.0:
        z = 1.0 / z
    logz = cmath.log(z)
    gate = _miss_gate(plan, logz, rel_tol)
    recipe, reach, parts = plan.recipe, plan.reach, plan.parts
    chains = range(recipe.params.m)

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
    # every sweep adds m >= 1 terms, so the term cap ends the loop
    for k in itertools.count():
        sweep = 0.0 + 0.0j
        sweep_mag = 0.0
        for chain in chains:
            built = parts[chain]
            if k == len(built):
                built.append(_term_part(recipe, chain, k))
            term, errb = _finish(built[k], logz)
            if term != 0.0:
                mag = abs(term)
                hist[chain].append((k, mag))
                sweep_mag += mag
            sweep += term
            round_acc += errb
            nterms += 1
            if nterms >= TERM_CAP:
                raise NonConvergence("H series hit the %d-term cap" % TERM_CAP)
        if round_acc > gate:
            raise NonConvergence(
                "H series rounding error %.2e misses rel_tol at |value| near %.2e"
                % (round_acc, gate / (_MISS_MARGIN * rel_tol)))
        total += sweep
        size = abs(total)
        peak = max(peak, size)
        floor = rel_tol * max(size, 1e-300)
        # every chain quiet or with its last nonzero term below floor
        if sweep_mag < floor and all(
                (k - h[-1][0] >= 8 or h[-1][1] < floor) if h else k >= 7
                for h in hist):
            small_run += 1
        else:
            small_run = 0
        # the part of err_est that only grows
        fixed = round_acc + MACH_EPS * peak
        # room: a rest below it decides the sum.  It can lift |total| to
        # neither fixed / (2 rel_tol) (refuse now) nor, at the stop,
        # fixed / rel_tol (refuse), or it keeps fixed + rest within
        # rel_tol |total| (answer)
        guard = fixed > 2.0 * floor and k >= 7
        if guard:
            room = 0.5 * fixed / rel_tol - size
        elif small_run < 3:
            continue
        elif fixed <= floor:
            room = floor - fixed
        else:
            room = fixed / rel_tol - size
        # a chain with no nonzero term stays live, with no bound, while a
        # denominator gamma can still be zeroing its poles
        live = {c: h[-3:] for c, h in enumerate(hist)
                if (k - h[-1][0] < 8 if h else k <= reach[c])}
        rest, beyond = _rest_bound(plan, k, live, room)
        if rest + beyond < room:
            if guard:
                raise NonConvergence(
                    "H series rounding error %.2e misses rel_tol at |value| <= %.2e"
                    % (fixed, size + rest + beyond))
            err = fixed + rest
            break
    return _answer(z, total, err, rel_tol, "H series", "series", nterms)


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


def _contour_step(a: float, log_abs_z: float):
    """(j, h_j): the step for strip shift a at |ln |z|| = log_abs_z, rounded
    down to the ladder h_j = h0 2^(-j/_RUNGS_PER_OCTAVE), h0 the step at
    |ln |z|| = 0, j the least rung with h_j at most the step itself."""
    den = _LOG_INV_EPS + _LOG_STRIP_GROWTH
    h0 = 2.0 * math.pi * a / den
    ideal = 2.0 * math.pi * a / (den + a * log_abs_z)
    j = math.ceil(_RUNGS_PER_OCTAVE * math.log2(h0 / ideal))
    h = h0 * 2.0 ** (-j / _RUNGS_PER_OCTAVE)
    if h > ideal:
        j += 1
        h = h0 * 2.0 ** (-j / _RUNGS_PER_OCTAVE)
    return j, h


def _contour_nodes(plan: _Plan, j: int, h: float, k_hi: int):
    """s and log theta(s) of the plan's set at the upper half-line nodes
    gamma + i(k + 1/2)h of rung j, 0 <= k <= k_hi: the kept ones, and the
    rest evaluated and kept after them while the plan has room.  A cut
    extended past its first block asks again from k = 0, so its kept
    nodes are read, not evaluated again."""
    s_kept, log_kept = plan.rungs.get(j, (_NO_NODES, _NO_NODES))
    n = len(s_kept)
    if k_hi >= n:
        gam, _, pairs = plan.line
        s_new = gam + 1j * h * (np.arange(n, k_hi + 1) + 0.5)
        s_kept = np.concatenate((s_kept, s_new))
        log_kept = np.concatenate((log_kept, _log_theta(plan.params, pairs, s_new)))
        if sum(len(s) for s, _ in plan.rungs.values()) - n + k_hi + 1 <= _KEPT_NODE_CAP:
            plan.rungs[j] = (s_kept, log_kept)
    return s_kept[:k_hi + 1], log_kept[:k_hi + 1]


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

    puts it at 2 eps sum |f| h, fixed before any node.  The step taken is
    that h rounded down to a rung h_j = h0 2^(-j/16) of a fixed ladder, h0
    the step at |ln |z|| = 0 (_contour_step): a smaller step only shrinks
    e^(-2 pi a/h), so the bound holds as it stands, and the rung is at
    most 4.4 % below h.  The nodes are t = +-(k + 1/2) h_j, k >= 0: none is
    real, so no gamma factor sits on a pole, whatever gamma is.  They
    depend on neither z nor rel_tol, so the set's plan keeps log theta on
    them (_contour_nodes), and a later call on the same rung evaluates
    theta only on the nodes past those kept.  Gamma decay makes |f(t)|
    fall like exp(-r |t|), r = pi sigma/2 - |arg z| (Braaksma), so the
    nodes up to k_hi = ceil(T/h_j), T = (ln(100/rel_tol) + 8)/r, are taken
    as one block and T is extended by half until the tail estimate
    2 |f| / r at the last node is below 0.1 rel_tol of the sum.  An
    extended cut is summed again from the first node, with theta read
    from the plan on the nodes it kept: no sum is carried over from the
    shorter cut.  The cut stops at CONTOUR_T_CAP, where a tail still above
    that refuses; a step that would need more than _CONTOUR_NODE_CAP nodes
    refuses before the block is evaluated.

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
    plan, z = _prepare(params, z, rel_tol)
    logz = cmath.log(z)
    if abs(logz) > CONTOUR_LOG_Z_CAP:
        raise NonConvergence("|log z| = %.1f is past the contour's cap %g"
                             % (abs(logz), CONTOUR_LOG_Z_CAP))
    if plan.line is None:
        gam, lo, hi = _contour_line(plan.params)
        plan.line = (gam, _STRIP_SHIFT * min(gam - lo, hi - gam), _reflection_pairs(plan.params))
    a = plan.line[1]
    rate = plan.edge - abs(logz.imag)
    j, h = _contour_step(a, abs(logz.real))
    t_cut = min((math.log(100.0 / rel_tol) + 8.0) / rate, CONTOUR_T_CAP)
    while True:
        k_hi = math.ceil(t_cut / h)
        if 2 * (k_hi + 1) > _CONTOUR_NODE_CAP:
            raise NonConvergence(
                "contour step %.2e needs %d nodes to |Im s| = %.3g, past its cap %d"
                % (h, 2 * (k_hi + 1), t_cut, _CONTOUR_NODE_CAP))
        # nodes (k + 1/2) h for 0 <= k <= k_hi, both signs; theta on the
        # upper half
        s_up, upper = _contour_nodes(plan, j, h, k_hi)
        s = np.concatenate((s_up, s_up.conj()))
        expo = np.concatenate((upper, upper.conj())) - s * logz
        # a node or a sum past double range refuses before numpy warns, and
        # so does a finite sum whose modulus overflows
        try:
            with np.errstate(over="raise"):
                mags = np.exp(expo.real)
                acc = h * complex(np.sum(np.exp(expo)))
                abs_acc = h * float(np.sum(mags))
                round_acc = h * float(np.sum(mags * (1.0 + np.abs(expo))))
                size = abs(acc)
        except (FloatingPointError, OverflowError):
            raise NonConvergence("contour overflowed double range") from None
        # |f| at the last node, on the upper and the lower half-line
        tail = 2.0 * max(mags[k_hi], mags[-1]) / rate
        if tail <= 0.1 * rel_tol * max(size, 1e-300):
            break
        if t_cut >= CONTOUR_T_CAP:
            raise NonConvergence(
                "contour tail still %.2e at |Im s| = %g" % (tail, t_cut))
        t_cut = min(1.5 * t_cut, CONTOUR_T_CAP)
    # M = e^(_LOG_STRIP_GROWTH + a |ln |z||) sum |f| makes
    # 2 M e^(-2 pi a/h) = 2 eps sum |f|
    err = tail + 2.0 * MACH_EPS * abs_acc + MACH_EPS * round_acc
    return _answer(z, acc / (2.0 * math.pi), err / (2.0 * math.pi), rel_tol,
                   "contour", "contour", 2 * (k_hi + 1))


# (params, z, rel_tol, value, err_est, method) of eval_auto's last
# computed answer: its fields, not the EvalResult the caller holds
_conj_memo = None


def eval_auto(params: FoxHParams, z: complex, rel_tol: float = 1e-10) -> EvalResult:
    """Series first, contour as fallback on any refusal of the series.

    A series-index-0 set always takes the contour: eval_series refuses it.
    So does a series whose rounding passes its gate (_miss_gate), which
    past |z| of about 8 on the delta well refuses within its first sweeps.
    When both routes refuse, the contour's refusal is raised.

    A call with the same params and rel_tol at the conjugate of the last
    computed z, off the real axis, is answered from that answer: with real
    parameters H(conj z) = conj H(z), and the conjugate is exact in floating
    point, so conj(value) is off H(conj z) by exactly what value is off H(z)
    and the stored err_est still bounds it.  The replay reports work 0.  A
    real z never replays, so the two sides of the branch cut at z = -x +- 0j
    stay apart.  A refusal leaves the stored answer as it was.  The record
    holds the answer's value, err_est and method, so a caller that changes
    the EvalResult it was handed changes no later replay.
    """
    global _conj_memo
    z = complex(z)
    memo = _conj_memo
    if memo is not None and z.imag != 0.0 and z == memo[1].conjugate() \
            and rel_tol == memo[2] and params == memo[0]:
        return EvalResult(memo[3].conjugate(), memo[4], memo[5], 0)
    try:
        r = eval_series(params, z, rel_tol)
    except (DegeneratePoles, NonConvergence):
        r = eval_contour(params, z, rel_tol)
    _conj_memo = (params, z, rel_tol, r.value, r.err_est, r.method)
    return r


# the H routes by name, for every caller that takes a method option
_ROUTES = {"auto": eval_auto, "series": eval_series, "contour": eval_contour}

