import cmath
import math
import sys
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from fse import mittag
from fse.errors import DomainError, EvaluationError, NonConvergence, ValidationError
from fse.foxh import FoxHParams, eval_auto
from fse.mittag import ml_contour, ml_eval, ml_series
from fse.numerics import POWER_SUM_CAP
from fse.quadrature import adaptive
from fse.result import TimeConfig
from fse.time_factor import time_factor


def _taylor_ref(beta: float, z: complex) -> complex:
    """E_beta(z) by its Taylor sum in mpmath, at 35 digits beyond the
    cancellation of the peak term, about exp(|z|^(1/beta))."""
    root = abs(z) ** (1.0 / beta)
    with mp.workdps(int(35 + root / math.log(10))):
        w, b = mp.mpc(z.real, z.imag), mp.mpf(beta)
        total, k, tol = mp.mpc(0), 0, mp.mpf(10) ** -30
        while True:
            term = w ** k * mp.rgamma(b * k + 1)
            total += term
            # past the peak at k ~ root / beta before the size test counts
            if k > 2 * root / beta + 10 and abs(term) < tol * abs(total):
                return complex(total)
            k += 1


def _erfc_scaled(x: float) -> float:
    # e^{x^2} erfc(x) = (2/sqrt(pi)) Int_0^inf e^{-u^2 - 2xu} du
    val, _, _ = adaptive(lambda u: np.exp(-u * u - 2.0 * x * u),
                         0.0, 14.0, 1e-13)
    return 2.0 / math.sqrt(math.pi) * val


@pytest.mark.parametrize("route", [ml_contour, ml_eval])
def test_huge_argument_with_a_tiny_phase_refuses(route):
    # cmath.phase(1e300 + 1e-300j) overflows; the pole's residue does too
    with pytest.raises(NonConvergence):
        route(0.5, 1e300 + 1e-300j, 1e-9)


def test_value_at_zero_and_exponential_point():
    assert ml_eval(0.7, 0.0).value == 1.0
    r = ml_eval(1.0, 1.0)
    assert abs(r.value - math.e) < 1e-12 * math.e


def test_half_order_against_erfc_quadrature():
    for x in (0.25, 0.5, 1.0, 2.0, 3.0):
        ref = _erfc_scaled(x)
        got = ml_eval(0.5, -x).value
        assert abs(got - ref) < 1e-10 * abs(ref)


def test_series_consistency_small_ball():
    # direct Taylor sum vs the dispatcher inside |z| <= 3
    rng = np.random.default_rng(23)
    for _ in range(40):
        # below beta ~ 0.5 a direct 200-term reference at |z| = 3 is not
        # itself trustworthy, so only the upper range is drawn here
        beta = float(rng.uniform(0.5, 1.0))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) > 3.0:
            continue
        direct = sum(z ** k * math.exp(-math.lgamma(beta * k + 1.0))
                     for k in range(200))
        got = ml_eval(beta, z).value
        # the reference sum itself carries ~1e-12 of cancellation noise
        # at small beta near |z| = 3
        assert abs(got - direct) <= 5e-12 * max(abs(direct), 1.0)


def test_beta_one_exponential_law():
    rng = np.random.default_rng(29)
    for _ in range(50):
        z1 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        z2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z1) > 5 or abs(z2) > 5:
            continue
        lhs = ml_eval(1.0, z1 + z2).value
        rhs = ml_eval(1.0, z1).value * ml_eval(1.0, z2).value
        # absolute floor: at Re(z1+z2) ~ -10 the sum cancels down from
        # peak terms of order e^10, so ~5e-12 absolute noise is intrinsic
        assert abs(lhs - rhs) <= 1e-11 + 1e-10 * abs(rhs)


def test_real_argument_gives_real_value():
    for beta, z in ((0.3, -6.0), (0.5, -20.0), (0.9, 4.0)):
        assert ml_eval(beta, z).value.imag == 0.0


def test_route_agreement_series_vs_contour():
    for beta in (0.3, 0.5, 0.7, 1.0):
        for z in (-8.0, -4.0, -1.0, -0.2, 0.5, 1.5):
            vc, ec, _ = ml_contour(beta, z)
            try:
                vs, es, _ = ml_series(beta, z)
            except NonConvergence:
                # a raw series refusal comes only far outside the ball
                assert abs(z) ** (1.0 / beta) > 12.0
                continue
            # outside the ball the raw series answers noise with an err_est
            # that covers it (beta 0.5, z -8: 3.18e13 with err_est 1.29e15),
            # so there the check holds on es + ec alone; ml_eval and
            # `fse ml --method series` refuse such an answer
            assert abs(vs - vc) <= max(1e-8 * abs(vs), es + ec)


def _ml_params(beta):
    """E_beta(z) = H^{1,1}_{1,2}(-z | (0, 1); (0, 1), (0, beta))."""
    return FoxHParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0), (0.0, beta)))


def test_foxh_route_agreement_grid():
    for beta in (0.3, 0.5, 0.7, 1.0):
        for z in (-10.0, -5.0, -2.0, -0.5, -0.1):
            a = ml_eval(beta, z).value
            b = eval_auto(_ml_params(beta), -z).value
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-30)


def test_foxh_route_refuses_positive_axis():
    # the H form's argument -z is on the boundary ray of its sector there
    with pytest.raises(DomainError):
        eval_auto(_ml_params(0.5), -2.0)


def test_deep_negative_beta_one_refusal():
    # just below beta = 1, E_beta(-50) is 2.0853349e-6, not ~e^{-50}: the
    # algebraic tail -sum_k z^-k / Gamma(1 - beta k), which the beta = 1
    # exponential lacks.  The series cancels far above it in float64, and
    # the contour's own claim, 1.2e-10 relative, misses rel_tol 1e-10, so
    # ml_eval refuses.  That claim, 2.4e-16, is 400 times short of the
    # contour's true error, 9.9e-14 (ROADMAP item 20), so the refusal rests
    # on this rel_tol.
    with pytest.raises(NonConvergence):
        ml_eval(0.9999, -50.0)


@pytest.mark.parametrize("z", [-20.0, -13.3, -50.0, -700.0, 3.0 - 40.0j, 709.0])
def test_beta_one_is_the_exponential(z):
    # E_1(z) = exp(z) exactly: no cancellation floor on the negative axis
    r = ml_eval(1.0, z)
    want = cmath.exp(z)
    assert r.method == "exp"
    assert r.value == want
    assert 0.0 < r.err_est <= 4.0 * np.finfo(float).eps * abs(want) + 5e-324


def test_beta_one_overflow_refuses():
    with pytest.raises(NonConvergence, match="overflows"):
        ml_eval(1.0, 710.0)


def test_overflow_refuses():
    # E_1/2(z) = e^(z^2) erfc(-z): e^676 still fits a double, e^729 does not
    got = ml_eval(0.5, 26.0)
    assert abs(got.value - 2.0 * math.exp(676.0)) <= 1e-9 * abs(got.value)
    # the residue exp(z^2) overflows at 27, the pole z^2 itself at 1e160
    for z in (27.0, 1e160):
        with pytest.raises(NonConvergence):
            ml_eval(0.5, z)


@pytest.mark.parametrize("route", [ml_series, ml_contour, ml_eval])
def test_non_finite_argument_refuses_before_numpy_work(route):
    # pytest turns numpy's RuntimeWarning into an error, so a NaN or an
    # infinity that reached the contour's arrays would fail here
    for z in (math.nan, complex(0.5, math.nan)):
        with pytest.raises(ValidationError, match="NaN"):
            route(0.5, z)
    for z in (math.inf, -math.inf, complex(-1.0, math.inf)):
        with pytest.raises(NonConvergence, match="double range"):
            route(0.5, z)


def test_parameter_validation():
    for beta in (0.0, -0.5, 1.2):
        with pytest.raises(ValidationError):
            ml_eval(beta, -1.0)
    with pytest.raises(ValidationError):
        ml_eval(0.5, -1.0, rel_tol=1e-16)


def test_contour_at_zero_returns_one_exactly():
    for beta in (0.3, 0.7, 1.0):
        assert ml_contour(beta, 0.0) == (1.0 + 0j, 0.0, 0)


def test_oscillatory_argument_phase():
    # arg z = 3*pi/4: between the Hankel wedge and the negative axis
    z = 4.0 * cmath.exp(0.75j * math.pi)
    direct = sum(z ** k * math.exp(-math.lgamma(0.6 * k + 1.0))
                 for k in range(300))
    got = ml_eval(0.6, z).value
    assert abs(got - direct) <= 1e-9 * abs(direct)


@pytest.mark.parametrize("route", [ml_eval, ml_contour])
def test_tiny_order_outside_the_series_ball_answers(route):
    # |z|^(1/beta) = 5^1000 overflows a double: ml_eval's ball test must
    # read it as outside the ball, not raise OverflowError
    out = route(0.001, -5.0)
    value, err = (out.value, out.err_est) if route is ml_eval else out[:2]
    assert abs(value - 0.16658643709604629) <= err + 1e-12
    if route is ml_eval:
        assert out.method == "contour"


@pytest.mark.parametrize("beta,radius", [(0.2, 1.320), (0.25, 1.565), (0.3, 1.853)])
def test_slowly_falling_series_claims_its_whole_rest(beta, radius):
    # on arg z = -pi beta / 2 the term ratio |z| / (beta k)^beta falls
    # slowly: the last term alone understates the rest by up to 1.76x
    z = radius * cmath.exp(-0.5j * math.pi * beta)
    want = _taylor_ref(beta, z)
    value, err, _ = ml_series(beta, z, 1e-9)
    assert abs(value - want) <= err
    got = ml_eval(beta, z, 1e-9)
    assert abs(got.value - want) <= got.err_est


def _ray(beta, ray, root):
    """time_factor's argument at |z|^(1/beta) = root on its ray: arg z =
    pi - pi beta / 2 for E < 0 ("neg"), -pi beta / 2 for E > 0 ("pos")."""
    arg = -0.5 * math.pi * beta + (math.pi if ray == "neg" else 0.0)
    return root ** beta * cmath.exp(1j * arg)


# in-ball sums near the ball edge |z|^(1/beta) = 12 whose rounding floor
# misses rel_tol 1e-9: ml_eval runs the contour and skips the series
_SHORT_ROOTS = {"neg": (10.5, 11.9), "pos": (11.9,)}
# a rung of the pole's phi between the ball edge and twice it on the E < 0
# ray, whose pole is on the principal sheet for beta > 2/3
_EDGE_RUNGS = {0.7: -32, 0.9: 40}
_LOG_EPS_9 = math.log(0.1 * 1e-9)


def _pole_phi(beta, z):
    """phi = (Re s0 + |s0|)/2 of E_beta's Laplace pole s0 at z, as ml_contour
    forms it."""
    ang = math.atan2(z.imag, z.real)
    pole = abs(z) ** (1.0 / beta) * cmath.exp(1j * ang / beta)
    return (pole.real + abs(pole)) / 2.0


def _rung_edge_roots(beta, ray):
    """|z|^(1/beta) on the ray at which the pole's phi lies just inside
    either edge of the order's _EDGE_RUNGS rung: the rung's contour is
    tuned to one edge, so one root sits next to it and the other a whole
    rung away."""
    if ray != "neg" or beta not in _EDGE_RUNGS:
        return []
    lo, hi = mittag._rung_edges(_EDGE_RUNGS[beta], _LOG_EPS_9)
    lean = _pole_phi(beta, _ray(beta, ray, 1.0))
    return [lo * (1.0 + 1e-9) / lean, hi * (1.0 - 1e-9) / lean]


def test_the_rung_edge_roots_lie_on_their_rung_past_the_ball():
    for beta, j in _EDGE_RUNGS.items():
        roots = _rung_edge_roots(beta, "neg")
        edge = min(mittag.SERIES_RADIUS, mittag.SERIES_ROOT_CAP ** beta)
        for root in roots:
            z = _ray(beta, "neg", root)
            assert mittag._rung(_pole_phi(beta, z), _LOG_EPS_9) == j
            assert edge < abs(z) < 2.0 * edge


def test_err_est_bounds_the_error_on_the_time_factor_rays():
    # time_factor's arguments lie on arg z = pi - pi beta / 2 (E < 0) and
    # -pi beta / 2 (E > 0); both routes must bound their error there
    for beta in (0.3, 0.5, 0.7, 0.9):
        for ray in ("neg", "pos"):
            for root in (list(np.geomspace(0.3, 150.0, 12)) + list(_SHORT_ROOTS[ray])
                         + _rung_edge_roots(beta, ray)):
                z = _ray(beta, ray, float(root))
                want = _taylor_ref(beta, z)
                value, err, _ = ml_contour(beta, z, 1e-9)
                assert abs(value - want) <= err, (beta, ray, root, "contour")
                got = ml_eval(beta, z, 1e-9)
                assert abs(got.value - want) <= got.err_est, (beta, ray, root, got.method)
            for root in _SHORT_ROOTS[ray]:
                # a sum that cannot meet rel_tol claims so honestly.  On the
                # E < 0 ray its floor misses by 5x to 160x, and the
                # prediction sends it to the contour before its first term;
                # on the E > 0 ray it misses by 1.1x to 2x, inside the
                # prediction's margin, so the series runs first
                z = _ray(beta, ray, root)
                want = _taylor_ref(beta, z)
                value, err, _ = ml_series(beta, z, 1e-9)
                assert abs(value - want) <= err, (beta, ray, root, "series")
                assert err > 1e-9 * abs(value), (beta, ray, root)
                assert mittag._taylor_misses(beta, z, 1e-9) == (ray == "neg"), (beta, ray, root)
                assert ml_eval(beta, z, 1e-9).method == "contour", (beta, ray, root)


def test_series_refuses_at_its_term_cap():
    # at beta 0.001 the terms z^k / Gamma(1 + beta k) fall like 0.999^k
    with pytest.raises(NonConvergence,
                       match="^Mittag-Leffler series hit the 2000-term cap$"):
        ml_series(0.001, 0.999, 1e-9)


@pytest.mark.parametrize("route, beta, z", [
    # in the ball at beta 0.01 the terms fall too slowly for 2,000 of them
    (ml_eval, 0.01, -1.02),
    (ml_series, 0.01, 1.02j),
    # T 0.3 -5.0 2.0 of tests/outcomes.py: past the ball, the rounding
    # floor of a hump near e^426 misses rel_tol long before the cap
    (ml_series, 0.3, 2.0 ** 0.3 * cmath.exp(-0.15j * math.pi) * -5.0),
])
def test_a_sum_that_would_hit_the_cap_still_refuses(route, beta, z):
    # ml_eval skips a sum predicted to miss rel_tol only where its term at
    # k = 1000 is below e^-50, so this refusal, which ml_eval passes on
    # instead of trying the contour, keeps its class
    with pytest.raises(NonConvergence,
                       match="^Mittag-Leffler series hit the 2000-term cap$"):
        route(beta, z, 1e-9)


def test_a_predicted_miss_is_a_miss_inside_the_term_cap():
    # a dense sweep of the series ball: every sum _taylor_misses sends to
    # the contour alone misses rel_tol when summed whole, and ends inside
    # the term cap, so skipping it moves no answer and no refusal class
    rng = np.random.default_rng(27)
    predicted = 0
    for beta in np.geomspace(0.001, 0.99999, 24):
        beta = float(beta)
        args = [-0.5 * math.pi * beta, math.pi - 0.5 * math.pi * beta]
        args += list(rng.uniform(-math.pi, math.pi, 3))
        for root in np.linspace(0.5, 12.0, 24):
            for arg in args:
                z = min(float(root) ** beta, mittag.SERIES_RADIUS) * cmath.exp(1j * arg)
                for rel_tol in (1e-2, 1e-6, 1e-9, 1e-12, 1e-14):
                    if mittag._taylor_misses(beta, z, rel_tol):
                        predicted += 1
                        value, err, nterms = ml_series(beta, z, rel_tol)
                        assert err > rel_tol * abs(value), (beta, z, rel_tol)
                        assert nterms <= POWER_SUM_CAP
    assert predicted > 1000


def test_a_predicted_miss_runs_the_contour_alone(monkeypatch):
    # a sum _taylor_misses predicts to miss rel_tol is never run: when the
    # contour misses as well, the refusal names the contour alone.  A sum
    # not predicted to miss runs first, and the refusal names both routes
    # in the order they ran
    beta, rel_tol = 0.5, 1e-9
    series, calls = mittag.ml_series, []

    def spy(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(mittag, "ml_series", spy)
    monkeypatch.setattr(mittag, "ml_contour", lambda *args: (1.0 + 0.0j, 1.0, 7))
    z = -3.4 + 0.0j
    assert mittag._taylor_misses(beta, z, rel_tol)
    with pytest.raises(NonConvergence) as err:
        ml_eval(beta, z, rel_tol)
    assert calls == []
    assert str(err.value) == ("E_beta(z) error estimate misses rel_tol 1.0e-09 "
                              "(contour err_est 1.00e+00 at |value| 1.00e+00)")
    z = -2.0 + 0.0j
    assert not mittag._taylor_misses(beta, z, rel_tol)
    monkeypatch.setattr(mittag, "_meets_tol", lambda *args: False)
    with pytest.raises(NonConvergence, match=r"\(series err_est .*; contour err_est "):
        ml_eval(beta, z, rel_tol)
    assert calls == [(beta, z, rel_tol)]


def _fuzz_inputs(n, seed):
    """n seeded (beta, z, rel_tol): beta log-uniform in [1e-300, 1),
    uniform in (0, 1) or within 1e-16 of 1; z at a uniform phase, |z|
    log-uniform in [1e-320, 1e308] for half of them and in the series
    ball for the other half, uniform in it or log-uniform down to 1e-20
    of its radius; rel_tol log-uniform in [1e-14, 1e-2]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            beta = 10.0 ** rng.uniform(-300.0, 0.0)
        elif kind < 0.8:
            beta = rng.uniform(0.0, 1.0)
        else:
            beta = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0)
        beta = min(max(beta, 1e-300), 1.0 - 1e-16)
        if rng.random() < 0.5:
            radius = 10.0 ** rng.uniform(-320.0, 308.0)
        else:
            ball = min(mittag.SERIES_RADIUS, mittag.SERIES_ROOT_CAP ** beta)
            radius = ball * (rng.random() if rng.random() < 0.5
                             else 10.0 ** rng.uniform(-20.0, 0.0))
        z = radius * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield beta, z, 10.0 ** rng.uniform(-14.0, -2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", [ml_eval, ml_series, ml_contour])
def test_fuzzed_inputs_raise_only_evaluation_errors(route):
    # a refusal is an EvaluationError subclass; an OverflowError, a
    # ValueError from math or a numpy warning is a defect.  Half the
    # arguments lie in the series ball, where ml_eval first asks
    # _taylor_misses, whose pow, exp and gamma this guards
    for beta, z, rel_tol in _fuzz_inputs(5000, 39):
        try:
            route(beta, z, rel_tol)
        except EvaluationError:
            pass


def test_contour_refuses_a_value_past_double_range():
    # E_1/2(z) ~ 2 exp(z^2): the residue exp(709.5) / beta overflows
    with pytest.raises(NonConvergence,
                       match="^contour value for E_beta overflowed double range$"):
        ml_contour(0.5, 26.636, 1e-9)


@pytest.mark.parametrize("z", [-1.7e308, -1e308, complex(-1e308, 1e307)])
@pytest.mark.parametrize("beta", [0.3, 0.9])
@pytest.mark.parametrize("route", [ml_contour, ml_eval])
def test_contour_refuses_where_its_nodes_overflow(route, beta, z):
    # from |z| ~ 5e307 on the pole-free side (s^beta - z) w overflows at
    # most nodes, which then added 0 to the sum: E_0.9(-1.7e308) read
    # 3.83e-308 +- 1.1e-317 where its leading term -1/(z Gamma(0.1)) is
    # 6.2e-310
    with pytest.raises(NonConvergence,
                       match="^inversion contour of E_beta overflows double range"):
        route(beta, z, 1e-9)


def _bits(route, *args):
    out = route(*args)
    value, err, work = (out.value, out.err_est, out.work) if hasattr(out, "value") else out
    return value.real.hex(), value.imag.hex(), err.hex(), work


# E < 0 puts time_factor's argument on arg z = pi - pi beta / 2, where
# E_beta has no pole for beta <= 2/3
_TABLE_CASES = [
    ("series", ml_series, 0.307, 1.9 * cmath.exp(0.8j * math.pi)),
    ("series-real", ml_series, 0.6, -3.5),
    ("contour-pole-free", ml_contour, 0.45, 14.0 * cmath.exp(0.9j * math.pi)),
    ("contour-negative-axis", ml_contour, 0.8, -40.0),
    ("contour-pole", ml_contour, 0.45, 14.0 * cmath.exp(0.2j * math.pi)),
    ("eval-series", ml_eval, 0.5, 2.0 - 1.0j),
    ("eval-contour", ml_eval, 0.3, 30.0 * cmath.exp(-0.95j * math.pi)),
    ("time-factor", time_factor, TimeConfig(beta=0.4, energy=-2.0), 9.0),
    ("time-factor-pole", time_factor, TimeConfig(beta=0.8, energy=-2.0), 9.0),
]


def _fresh(monkeypatch, name):
    """An empty lru_cache of the same size in place of mittag's table name
    (_log_coefs or _contour)."""
    kept = getattr(mittag, name)
    fresh = lru_cache(maxsize=kept.cache_info().maxsize)(kept.__wrapped__)
    monkeypatch.setattr(mittag, name, fresh)
    return fresh


def _info(table):
    """(hits, misses, entries) of an lru_cache."""
    info = table.cache_info()
    return info.hits, info.misses, info.currsize


def _holds(table, *key):
    """Whether the lru_cache table holds key; a lookup that misses enters
    it, so test the evicted keys last."""
    misses = table.cache_info().misses
    table(*key)
    return table.cache_info().misses == misses


@pytest.mark.parametrize("route, first, arg", [c[1:] for c in _TABLE_CASES],
                         ids=[c[0] for c in _TABLE_CASES])
def test_table_bits_hold_on_cold_warm_extended_and_evicted_orders(
        monkeypatch, route, first, arg):
    # the tables keep an order's log-coefficients and its contours: a warm
    # call, one after a longer series has extended the coefficients, and
    # one after the coefficients were evicted and the contours cleared
    # must all give the cold bits
    coefs, contours = _fresh(monkeypatch, "_log_coefs"), _fresh(monkeypatch, "_contour")
    beta = getattr(first, "beta", first)
    cold = _bits(route, first, arg, 1e-9)
    read = len(coefs(beta))
    assert _bits(route, first, arg, 1e-9) == cold
    ml_series(beta, 9.5 ** beta, 1e-12)
    assert len(coefs(beta)) > read
    assert _bits(route, first, arg, 1e-9) == cold
    for i in range(mittag._TABLE_CAP):
        ml_series(0.05 + 0.029 * i, -0.5, 1e-9)
    assert coefs.cache_info().currsize == mittag._TABLE_CAP and not _holds(coefs, beta)
    contours.cache_clear()
    assert _bits(route, first, arg, 1e-9) == cold


def test_a_pole_call_keeps_one_entry_per_rung(monkeypatch):
    _fresh(monkeypatch, "_contour")
    # the pole of E_0.45 at 14 e^(0.2 i pi) has phi > 0, and a contour's
    # (mu, h, N) follow the rung of its phi
    beta, z = 0.45, 14.0 * cmath.exp(0.2j * math.pi)
    near = z * 1.003
    j = mittag._rung(_pole_phi(beta, z), _LOG_EPS_9)
    assert mittag._rung(_pole_phi(beta, near), _LOG_EPS_9) == j and _pole_phi(beta, near) != _pole_phi(beta, z)
    cold = [_bits(ml_contour, beta, x, 1e-9) for x in (z, near)]
    contours = _fresh(monkeypatch, "_contour")
    assert _bits(ml_contour, beta, z, 1e-9) == cold[0]
    assert _info(contours) == (0, 1, 1) and _holds(contours, beta, _LOG_EPS_9, j)
    # a second z on the same rung adds none, and gives its cold bits
    assert _bits(ml_contour, beta, near, 1e-9) == cold[1]
    assert _info(contours) == (2, 1, 1)
    ml_contour(beta, 14.0 * cmath.exp(0.9j * math.pi), 1e-9)
    ml_contour(beta, -14.0, 1e-6)
    assert _info(contours) == (2, 3, 3)
    assert _holds(contours, beta, _LOG_EPS_9, None)
    assert _holds(contours, beta, math.log(0.1 * 1e-6), None)
    # a build that raises keeps nothing; since no contour refuses while it
    # is built, a failing _nodes stands in for one
    monkeypatch.setattr(mittag, "_nodes", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        ml_contour(beta, z, 1e-12)
    assert _info(contours)[1:] == (4, 3)


def test_a_pole_call_that_misses_on_its_rung_runs_on_its_own_phi(monkeypatch):
    contours = _fresh(monkeypatch, "_contour")
    # at E_0.88 on the E < 0 ray, |z|^(1/beta) = 13.1, the rung's contour
    # runs right of the pole, tuned to the rung's upper edge, and its
    # rounding floor misses rel_tol 1e-9; tuned to phi it runs left of it
    beta, z = 0.88, _ray(0.88, "neg", 13.1)
    phi = _pole_phi(beta, z)
    pole = abs(z) ** (1.0 / beta) * cmath.exp(1j * math.atan2(z.imag, z.real) / beta)
    runs = []
    for lo, hi in (mittag._rung_edges(mittag._rung(phi, _LOG_EPS_9), _LOG_EPS_9), (phi, phi)):
        contour = mittag._build(beta, _LOG_EPS_9, lo, hi)
        runs.append(mittag._invert(beta, z, _LOG_EPS_9, contour, pole) + (contour[5],))
    assert runs[0][1] > 1e-9 * abs(runs[0][0]) and not runs[0][3]
    assert runs[1][1] <= 1e-9 * abs(runs[1][0]) and runs[1][3]
    got = ml_contour(beta, z, 1e-9)
    assert got == (runs[1][0], runs[1][1], runs[0][2] + runs[1][2])
    assert abs(got[0] - _taylor_ref(beta, z)) <= got[1]
    assert ml_eval(beta, z, 1e-9).method == "contour"
    # the contour tuned to phi is not kept
    assert contours.cache_info().currsize == 1


def test_kept_rungs_go_oldest_first(monkeypatch):
    contours = _fresh(monkeypatch, "_contour")
    # on the positive axis the pole is z^(1/beta) itself: one z per rung,
    # just above its lower edge
    beta, rungs = 0.9, range(35)
    zs = [(mittag._rung_edges(j, _LOG_EPS_9)[0] * 1.01) ** beta for j in rungs]
    assert [mittag._rung(_pole_phi(beta, complex(z)), _LOG_EPS_9) for z in zs] == list(rungs)
    fresh = [_bits(ml_contour, beta, z, 1e-9) for z in zs]
    assert _info(contours) == (0, 35, 35)
    # least recently used out first: rung 0, used again after each
    # pole-free contour of a new order, stays beside the _CONTOUR_CAP - 1
    # newest of them, and the other rungs go
    orders = [0.01 + 0.0009 * i for i in range(mittag._CONTOUR_CAP)]
    for i, order in enumerate(orders):
        ml_contour(order, -6.0, 1e-9)
        ml_contour(beta, zs[0], 1e-9)
        assert contours.cache_info().currsize == min(i + 36, mittag._CONTOUR_CAP)
    assert all(_holds(contours, order, _LOG_EPS_9, None) for order in orders[1:])
    assert _holds(contours, beta, _LOG_EPS_9, 0)
    assert not _holds(contours, orders[0], _LOG_EPS_9, None)
    assert not any(_holds(contours, beta, _LOG_EPS_9, j) for j in rungs[1:])
    assert [_bits(ml_contour, beta, z, 1e-9) for z in zs] == fresh


@pytest.mark.parametrize("rel_tol", [1e-14, 1e-9, 1e-2])
def test_the_rung_brackets_phi(rel_tol):
    # every rung's lower edge, with its neighbours to the ulp, the top
    # rung's edge 4 (log epsilon - log eps) and its neighbours, past it to
    # double range, and a sweep of phi between
    log_epsilon = math.log(max(0.1 * rel_tol, 1e-15))
    top = mittag._rung_edges(mittag._TOP_RUNG, log_epsilon)[0]
    edges = [mittag._rung_edges(j, log_epsilon)[0] for j in range(-800, mittag._TOP_RUNG)] + [top]
    phis = (list(np.geomspace(1e-15, 1e300, 4001)) + edges
            + [math.nextafter(e, side) for e in edges for side in (0.0, math.inf)]
            + [sys.float_info.max, math.inf])
    for phi in phis:
        j = mittag._rung(phi, log_epsilon)
        lo, hi = mittag._rung_edges(j, log_epsilon)
        assert lo <= phi < hi or phi == hi == math.inf, phi
        assert (j == mittag._TOP_RUNG) == (phi >= top), phi
        if j != mittag._TOP_RUNG:
            assert mittag._rung_edges(j - 1, log_epsilon)[1] == lo, phi


@pytest.mark.parametrize("rel_tol", [1e-14, 1e-9, 1e-2])
def test_the_chosen_region_is_admissible_at_the_true_phi(rel_tol):
    log_epsilon = math.log(max(0.1 * rel_tol, 1e-15))
    top = mittag._rung(math.inf, log_epsilon)
    for j in list(range(-800, mittag._rung(math.nextafter(
            mittag._rung_edges(top, log_epsilon)[0], 0.0), log_epsilon) + 1)) + [top]:
        lo, hi = mittag._rung_edges(j, log_epsilon)
        mu, _, _, left = mittag._contour_params(lo, hi, log_epsilon)
        for phi in (lo, math.nextafter(min(hi, 1e300), 0.0)):
            assert (mu < phi) if left else (mu > phi), (j, phi)
    # on the top rung the contour is the one tuned to phi itself
    lo = mittag._rung_edges(top, log_epsilon)[0]
    for phi in (lo, math.nextafter(lo, math.inf), 1e5, 1e300):
        assert (mittag._contour_params(*mittag._rung_edges(mittag._rung(phi, log_epsilon),
                                                            log_epsilon), log_epsilon)
                == mittag._contour_params(phi, phi, log_epsilon))


def test_no_contour_exceeds_365_nodes_and_a_full_contour_table_stays_under_25_mb():
    # ml_contour has no node cap: over rel_tol in [1e-14, 1e-2] (below
    # 1e-14 log epsilon stays at log 1e-15) the largest contour is a
    # rung's, 2 N + 1 = 365 nodes on rung -35 at rel_tol 1e-14, and
    # neither the pole-free contour nor one tuned to phi itself is larger
    largest = (0, None)
    for rel_tol in np.geomspace(1e-14, 1e-2, 25):
        log_epsilon = math.log(max(0.1 * rel_tol, 1e-15))
        top = mittag._rung(math.inf, log_epsilon)
        last = mittag._rung(math.nextafter(mittag._rung_edges(top, log_epsilon)[0], 0.0),
                            log_epsilon)
        for j in list(range(-800, last + 1)) + [top]:
            N = mittag._contour_params(*mittag._rung_edges(j, log_epsilon), log_epsilon)[2]
            largest = max(largest, (2 * N + 1, (j, log_epsilon)))
        for phi in [0.0] + list(np.geomspace(1e-15, 1e300, 1001)):
            N = mittag._contour_params(float(phi), float(phi), log_epsilon)[2]
            assert 2 * N + 1 <= 365, (rel_tol, phi)
    assert largest == (365, (-35, math.log(1e-15)))
    # three complex arrays of 365 nodes each, 5.8 KB, and the tuple
    contour = mittag._contour.__wrapped__(0.5, *largest[1][::-1])
    size = sys.getsizeof(contour) + sum(sys.getsizeof(a) for a in contour[2:5])
    assert 3 * 365 * 16 < size < 18_000
    assert mittag._CONTOUR_CAP * size < 25e6


def test_kept_contours_and_orders_go_oldest_first(monkeypatch):
    # one pole-free contour per log epsilon, each read warm with its bits
    contours = _fresh(monkeypatch, "_contour")
    tols = [float(tol) for tol in np.geomspace(1e-12, 1e-3, 11)]
    fresh = [_bits(ml_contour, 0.5, -6.0, tol) for tol in tols]
    assert _info(contours) == (0, 11, 11)
    assert [_bits(ml_contour, 0.5, -6.0, tol) for tol in tols] == fresh
    assert _info(contours) == (11, 11, 11)
    # least recently used out first: 0.5, used again after each new
    # order, stays beside the _TABLE_CAP - 1 newest others
    coefs = _fresh(monkeypatch, "_log_coefs")
    orders = [0.51 + 0.011 * i for i in range(mittag._TABLE_CAP + 8)]
    for i, order in enumerate(orders):
        ml_series(order, -0.5, 1e-9)
        ml_series(0.5, -0.5, 1e-9)
        assert coefs.cache_info().currsize == min(i + 2, mittag._TABLE_CAP)
    assert all(_holds(coefs, order) for order in [0.5] + orders[-mittag._TABLE_CAP + 1:])
    assert not any(_holds(coefs, order) for order in orders[:9])


def test_log_coefficients_stop_at_the_term_cap(monkeypatch):
    table = _fresh(monkeypatch, "_log_coefs")
    for _ in range(2):
        with pytest.raises(NonConvergence,
                           match="^Mittag-Leffler series hit the 2000-term cap$"):
            ml_series(0.001, 0.999, 1e-9)
        coefs = table(0.001)
        assert len(coefs) <= POWER_SUM_CAP + 1 and max(coefs) == POWER_SUM_CAP
        assert all(coefs[k] == -math.lgamma(0.001 * k + 1.0) for k in coefs)


def test_a_refusal_from_a_warm_order_keeps_its_class_and_message(monkeypatch):
    contours = _fresh(monkeypatch, "_contour")
    ml_contour(0.5, -6.0, 1e-9)
    ml_series(0.5, -1.0, 1e-9)
    # a refusal on a kept contour, pole-free (its nodes overflow) or on a
    # rung (its residue does), comes after the contour is built, so the
    # contour stays kept and the repeat refuses alike on it
    for z, match in ((-1e308, "^inversion contour of E_beta overflows double range"),
                     (26.636, "^contour value for E_beta overflowed double range$")):
        refusals = []
        for _ in range(2):
            with pytest.raises(NonConvergence, match=match) as err:
                ml_contour(0.5, z, 1e-9)
            refusals.append(str(err.value))
        assert refusals[0] == refusals[1]
    assert _info(contours) == (3, 2, 2)
    for _ in range(2):
        with pytest.raises(NonConvergence,
                           match="^Mittag-Leffler series hit the 2000-term cap$"):
            ml_series(0.001, 0.999, 1e-9)


# (value.real, value.imag, err_est) hex, method and work, recorded before
# the Taylor sum stopped early and kept since ml_eval skips the sums
# predicted to miss: ml_eval and time_factor at in-ball points
# whose sum misses rel_tol 1e-9 and so takes the contour, and ml_contour
# with a pole and without one, inside its overflow bound and (at a tiny z
# inside the sector, whose pole counts as none) outside it.  The entries
# whose contour has a pole on the E > 0 ray, or on the E < 0 ray at beta
# > 2/3, were recorded again when the contour of a pole came to be tuned to
# the rung of its phi; "contour-pole" (phi past where the left region's
# mu follows it) and "contour-pole-on-the-axis" (a right region rebalanced
# to mu at the roundoff budget, with the same N at hi as at phi) kept
# their bits
ML_BITS = [
    ("eval-0.3-neg-10.5", ml_eval, 0.3, _ray(0.3, "neg", 10.5),
     ("0x1.1b514253854e8p-2", "0x1.9e2161c872cd8p-4", "0x1.84aa7f6c10e1ap-34", "contour", 25)),
    ("eval-0.3-neg-11.9", ml_eval, 0.3, _ray(0.3, "neg", 11.9),
     ("0x1.13001ef261cc7p-2", "0x1.96b23a693c786p-4", "0x1.79c8092218abfp-34", "contour", 25)),
    ("eval-0.3-pos-11.9", ml_eval, 0.3, _ray(0.3, "pos", 11.9),
     ("0x1.1cb294e37dfcbp+1", "0x1.d0a58dd8427bfp+0", "0x1.d978190546277p-31", "contour", 43)),
    ("eval-0.5-neg-10.5", ml_eval, 0.5, _ray(0.5, "neg", 10.5),
     ("0x1.062f4e4a934ffp-3", "0x1.ddcb24e3bd864p-4", "0x1.c908f014b0cefp-35", "contour", 25)),
    ("eval-0.5-neg-11.9", ml_eval, 0.5, _ray(0.5, "neg", 11.9),
     ("0x1.eabdebd319600p-4", "0x1.c3e4da211326ep-4", "0x1.adc9e95df79efp-35", "contour", 25)),
    ("eval-0.5-pos-11.9", ml_eval, 0.5, _ray(0.5, "pos", 11.9),
     ("0x1.73cbef8f605dfp+0", "0x1.203e2a10f0225p+0", "0x1.2f14b7687681fp-31", "contour", 43)),
    ("eval-0.7-neg-10.5", ml_eval, 0.7, _ray(0.7, "neg", 10.5),
     ("0x1.6f951d9292fcdp-6", "0x1.0e7f63dae305bp-4", "0x1.702e8aea1e194p-36", "contour", 27)),
    ("eval-0.7-neg-11.9", ml_eval, 0.7, _ray(0.7, "neg", 11.9),
     ("0x1.5b73a2ee3db16p-6", "0x1.e950894668f6dp-5", "0x1.4e9a5f79341fap-36", "contour", 27)),
    ("eval-0.7-pos-11.9", ml_eval, 0.7, _ray(0.7, "pos", 11.9),
     ("0x1.178a7adb3f391p+0", "0x1.acc764c9b6747p-1", "0x1.c5eb1ff89ea36p-32", "contour", 43)),
    ("eval-0.9-neg-10.5", ml_eval, 0.9, _ray(0.9, "neg", 10.5),
     ("-0x1.ce0eaa16d57a0p-6", "-0x1.fc865f0fe089dp-12", "0x1.6098e6c5f3609p-36", "contour", 47)),
    ("eval-0.9-neg-11.9", ml_eval, 0.9, _ray(0.9, "neg", 11.9),
     ("0x1.af36107d20a43p-9", "-0x1.e02db2717e19cp-8", "0x1.ddeea39a3d364p-39", "contour", 51)),
    ("eval-0.9-pos-11.9", ml_eval, 0.9, _ray(0.9, "pos", 11.9),
     ("0x1.bd7403ecb845cp-1", "0x1.5a6b57917dd00p-1", "0x1.6b8c4c04ef45ep-32", "contour", 43)),
    ("time-0.3--1.0", time_factor, TimeConfig(beta=0.3, energy=-1.0), 11.9,
     ("0x1.13001ef261ccap-2", "0x1.96b23a693c772p-4", "0x1.79c8092218ac0p-34", "contour", 25)),
    ("time-0.3-1.0", time_factor, TimeConfig(beta=0.3, energy=1.0), 11.9,
     ("0x1.1cb294e37dfcbp+1", "0x1.d0a58dd8427bfp+0", "0x1.d978190546277p-31", "contour", 43)),
    ("time-0.5--1.0", time_factor, TimeConfig(beta=0.5, energy=-1.0), 11.9,
     ("0x1.eabdebd3195f6p-4", "0x1.c3e4da2113278p-4", "0x1.adc9e95df79efp-35", "contour", 25)),
    ("time-0.5-1.0", time_factor, TimeConfig(beta=0.5, energy=1.0), 11.9,
     ("0x1.73cbef8f605dfp+0", "0x1.203e2a10f0225p+0", "0x1.2f14b7687681fp-31", "contour", 43)),
    ("time-0.7--1.0", time_factor, TimeConfig(beta=0.7, energy=-1.0), 11.9,
     ("0x1.5b73a2ee3da2ep-6", "0x1.e950894668fa7p-5", "0x1.4e9a5f7934204p-36", "contour", 27)),
    ("time-0.7-1.0", time_factor, TimeConfig(beta=0.7, energy=1.0), 11.9,
     ("0x1.178a7adb3f391p+0", "0x1.acc764c9b6747p-1", "0x1.c5eb1ff89ea36p-32", "contour", 43)),
    ("time-0.9--1.0", time_factor, TimeConfig(beta=0.9, energy=-1.0), 11.9,
     ("0x1.af36107d20a2ap-9", "-0x1.e02db2717e15cp-8", "0x1.ddeea39a3d367p-39", "contour", 51)),
    ("time-0.9-1.0", time_factor, TimeConfig(beta=0.9, energy=1.0), 11.9,
     ("0x1.bd7403ecb845cp-1", "0x1.5a6b57917dd00p-1", "0x1.6b8c4c04ef45ep-32", "contour", 43)),
    ("contour-pole", ml_contour, 0.45, 14.0 * cmath.exp(0.2j * math.pi),
     ("0x1.c822d14cd1170p+86", "0x1.515f6b2aafabap+89", "0x1.b8ddb526c5c4ap+57", None, 25)),
    ("contour-pole-free", ml_contour, 0.45, 14.0 * cmath.exp(0.9j * math.pi),
     ("0x1.545bcd590218bp-5", "0x1.b2ebf27bb1182p-7", "0x1.cc63f4c909eb5p-37", None, 25)),
    ("contour-negative-axis", ml_contour, 0.8, -40.0,
     ("0x1.705c40b0f874bp-8", "0x0.0p+0", "0x1.daaa055133a65p-40", None, 25)),
    ("contour-pole-free-huge", ml_contour, 0.3, -1e300,
     ("0x1.0826af02c13acp-997", "0x0.0p+0", "0x0.02a8b8651c1acp-1022", None, 25)),
    ("contour-pole-free-inside-the-sector", ml_contour, 0.7, -1e-200j,
     ("0x1.000000000c070p+0", "0x1.aa332e7007518p-55", "0x1.49db02cf7e188p-32", None, 25)),
    ("contour-pole-on-the-axis", ml_contour, 0.6, 2.0,
     ("0x1.3d8add537a6e8p+5", "0x0.0p+0", "0x1.9a09a09408a41p-27", None, 43)),
]


@pytest.mark.parametrize("route, first, arg, want", [c[1:] for c in ML_BITS],
                         ids=[c[0] for c in ML_BITS])
def test_answers_keep_their_recorded_bits(route, first, arg, want):
    out = route(first, arg, 1e-9)
    if hasattr(out, "value"):
        got = (out.value.real.hex(), out.value.imag.hex(), out.err_est.hex(), out.method, out.work)
    else:
        got = (out[0].real.hex(), out[0].imag.hex(), out[1].hex(), None, out[2])
    assert got == want


def _errstate_calls(monkeypatch):
    """A list that grows by one per np.errstate the contour enters."""
    calls, errstate = [], np.errstate

    def spy(**kw):
        calls.append(kw)
        return errstate(**kw)
    monkeypatch.setattr(np, "errstate", spy)
    return calls


def _forced_errstate_bits(monkeypatch, beta, z):
    """ml_contour's bits on a fresh contour whose bound frees nothing, so
    the quotients are formed under np.errstate."""
    with monkeypatch.context() as patch:
        patch.setattr(mittag, "_overflow_free", lambda w, s_beta, num: (0.0, math.inf))
        _fresh(patch, "_contour")
        return _bits(ml_contour, beta, z, 1e-9)


@pytest.mark.parametrize("beta", [0.3, 0.9])
def test_contour_skips_the_overflow_check_only_inside_its_bound(monkeypatch, beta):
    contours = _fresh(monkeypatch, "_contour")
    log_epsilon = math.log(0.1 * 1e-9)
    ml_contour(beta, -1.0, 1e-9)
    z_cap, arg_floor = contours(beta, log_epsilon, None)[6:]
    assert 1e306 < z_cap < 5e307 and 0.0 < arg_floor < beta * math.pi
    calls = _errstate_calls(monkeypatch)
    # |z| on each side of z_cap, on the negative axis; |arg z| on each side
    # of arg_floor at a |z| whose pole, near 0, counts as none
    for z, inside in ((-z_cap * (1.0 - 1e-12), True), (-z_cap * (1.0 + 1e-12), False),
                      (1e-200 * cmath.exp(1j * (arg_floor + 1e-6)), True),
                      (1e-200 * cmath.exp(1j * (arg_floor - 1e-6)), False)):
        del calls[:]
        got = _bits(ml_contour, beta, z, 1e-9)
        assert calls == ([] if inside else [{"over": "raise"}]), z
        assert got == _forced_errstate_bits(monkeypatch, beta, z), z
    # a pole call inside its rung contour's bound skips it too: on the
    # E < 0 ray at beta 0.7 the nodes' |arg s^beta| stay below |arg z|
    z = _ray(0.7, "neg", 2.0)
    rung = mittag._rung(_pole_phi(0.7, z), log_epsilon)
    z_cap, arg_floor = contours(0.7, log_epsilon, rung)[6:]
    assert abs(z) < z_cap and abs(math.atan2(z.imag, z.real)) > arg_floor
    del calls[:]
    got = _bits(ml_contour, 0.7, z, 1e-9)
    assert calls == []
    assert got == _forced_errstate_bits(monkeypatch, 0.7, z)
    # far past the bound the check's refusal keeps its class and message
    del calls[:]
    with pytest.raises(NonConvergence,
                       match="^inversion contour of E_beta overflows double range"):
        ml_contour(beta, -1e308, 1e-9)
    assert calls == [{"over": "raise"}]

