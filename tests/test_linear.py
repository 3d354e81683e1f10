import cmath
import math
import re
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy.special import airy

from fse import foxh
from fse.errors import NonConvergence, PoleOfGamma, QuadratureFailure, ValidationError
from fse.linear import (_ascending_series, linear_classical_airy,
                        linear_closed_form, linear_quadrature,
                        scaled_coordinate)
from fse.numerics import log_gamma
from fse.quadrature import adaptive
from fse.result import LinearConfig, _check_finite
from perfbench.workloads import ROUNDS


def _cfg(alpha=1.5, theta=0.3, energy=0.5):
    return LinearConfig(alpha=alpha, theta=theta, hbar=1.0, c_alpha=1.0,
                        energy=energy, slope=1.0)


def test_a_known_ramp_builds_no_h_set(monkeypatch):
    # the ramp's set is kept per ramp: a second call on one ramp, at
    # another x, builds and validates no FoxHParams, and a call on a new
    # ramp builds its one
    cfg = _cfg(alpha=1.43, theta=0.2)
    linear_closed_form(cfg, 1.2)
    built = []
    post_init = foxh.FoxHParams.__post_init__
    monkeypatch.setattr(foxh.FoxHParams, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    linear_closed_form(cfg, 2.3)
    assert built == []
    linear_closed_form(_cfg(alpha=1.4301, theta=0.2), 2.3)
    assert len(built) == 1


def linear_mellin_factor(cfg: LinearConfig, s: complex) -> complex:
    """Mellin transform of the wavefunction in the scaled coordinate: the
    ramp's Mellin reference, which no route of the package calls.

    Numerator gamma poles propagate as errors; a denominator pole makes
    the factor an exact zero.  The two numerator and the two denominator
    gammas are each one array log_gamma call, since s may be complex.  A
    non-finite s refuses as invalid, a factor past double range (from
    s of about 240 at alpha = 1.5, theta = 0.2) as NonConvergence.
    """
    s = complex(s)
    _check_finite(s.real, "s")
    _check_finite(s.imag, "s")
    ap1 = cfg.alpha + 1.0
    num = log_gamma(np.array([s, (1.0 - s) / ap1]))
    d1 = (cfg.alpha + cfg.theta) * (1.0 - s) / (2.0 * ap1)
    d2 = (2.0 + cfg.alpha - cfg.theta + (cfg.alpha + cfg.theta) * s) / (2.0 * ap1)
    try:
        den = log_gamma(np.array([d1, d2]))
    except PoleOfGamma:
        return 0.0 + 0.0j
    acc = complex(np.sum(num) - np.sum(den))
    try:
        val = 2.0 * math.pi * cfg.n_norm / ap1 * cmath.exp(acc)
    except OverflowError:
        val = complex(math.inf)
    if not cmath.isfinite(val):
        raise NonConvergence("Mellin factor at s = %s is past double range" % (s,))
    return val


@pytest.mark.parametrize("s", [float("nan"), float("inf"), complex(1.0, -math.inf)])
def test_mellin_factor_refuses_a_non_finite_s(s):
    with pytest.raises(ValidationError):
        linear_mellin_factor(LinearConfig(alpha=1.5, theta=0.2), s)


def test_mellin_factor_refuses_past_double_range():
    cfg = LinearConfig(alpha=1.5, theta=0.2)
    assert abs(linear_mellin_factor(cfg, 100.0)) > 1e100
    with pytest.raises(NonConvergence):
        linear_mellin_factor(cfg, 1000.0)
    # finite parts whose modulus overflows are past range, not invalid
    with np.errstate(all="ignore"), pytest.raises(NonConvergence):
        linear_mellin_factor(cfg, 1.5e308 + 1.5e308j)


@pytest.mark.parametrize("f", [scaled_coordinate, linear_closed_form,
                               linear_quadrature])
def test_real_coordinate_entry_points_refuse_a_complex_argument(f):
    with pytest.raises(TypeError):
        f(_cfg(), 1.0 + 0.5j)


def test_mellin_factor_pole_and_zero():
    cfg = _cfg()
    with pytest.raises(PoleOfGamma):
        linear_mellin_factor(cfg, 1.0)
    # alpha=1.5, theta=0: first denominator weight hits Gamma(-1) at
    # s = 13/3 while both numerator factors stay regular
    cfg0 = _cfg(theta=0.0)
    assert linear_mellin_factor(cfg0, 13.0 / 3.0) == 0.0


def test_mellin_factor_against_direct_gammas():
    cfg = LinearConfig(alpha=2.0, theta=0.0, hbar=1.0, c_alpha=1.0,
                       energy=0.0, slope=1.0)
    s = 0.5
    ap1 = 3.0
    want = (2.0 * math.pi * cfg.n_norm / ap1 * math.gamma(s)
            * math.gamma((1.0 - s) / ap1)
            / (math.gamma(2.0 * (1.0 - s) / (2.0 * ap1))
               * math.gamma((4.0 + 2.0 * s) / (2.0 * ap1))))
    got = linear_mellin_factor(cfg, s)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_mellin_transform_consistency():
    # numerically transform the wavefunction on y in (0, 14] and compare
    # with the closed factor; the neglected tail keeps this near 2e-4
    cfg = _cfg(energy=0.0)
    hscale = cfg.hbar * (cfg.c_alpha / (cfg.hbar * cfg.slope
                                        * (cfg.alpha + 1.0))) ** (
        1.0 / (cfg.alpha + 1.0))

    @lru_cache(maxsize=None)
    def phi(y):
        return linear_closed_form(cfg, y * hscale, 1e-9).value

    def phis(ys):
        return np.array([phi(float(y)) for y in ys])

    for s in (0.3, 0.5, 0.7):
        head, _, _ = adaptive(
            lambda u: phis(u ** (1.0 / s)) / s, 0.0, 1.0, 1e-8)
        tail, _, _ = adaptive(
            lambda y: y ** (s - 1.0) * phis(y), 1.0, 14.0, 1e-8)
        want = linear_mellin_factor(cfg, s)
        assert abs((head + tail) - want) <= 1e-3 * abs(want)


def test_translation_covariance_is_exact():
    # shifting x and energy together leaves the profile bit-identical
    a = linear_closed_form(_cfg(energy=0.5), 0.75)
    b = linear_closed_form(_cfg(energy=2.5), 2.75)
    assert a.value == b.value


def test_order_two_matches_airy_oracle():
    cfg = LinearConfig(alpha=2.0, theta=0.0, hbar=1.0, c_alpha=0.5,
                       energy=2.0, slope=1.0)
    mass = cfg.hbar ** 2 / (2.0 * cfg.c_alpha)
    cube = (2.0 * mass * cfg.slope / cfg.hbar ** 2) ** (1.0 / 3.0)
    ratios = []
    for x in (-1.0, 0.0, 0.8, 1.7, 3.0):
        u = (x - cfg.energy / cfg.slope) * cube
        ai = airy(u)[0]
        ratios.append(linear_closed_form(cfg, x).value / ai)
    ratios = np.asarray(ratios)
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-8 * abs(ratios[0])


def test_classical_airy_series_tracks_scipy():
    vals = []
    for x in (-2.0, -0.5, 0.3, 1.2, 2.5):
        u = (x - 2.0) * (2.0) ** (1.0 / 3.0)
        vals.append(linear_classical_airy(1.0, 1.0, 2.0, 1.0, 1.0, x)
                    / airy(u)[0])
    vals = np.asarray(vals)
    assert np.max(np.abs(vals - vals[0])) <= 1e-8 * abs(vals[0])


@pytest.mark.parametrize("args, name", [
    ((1.0, 1.0, 0.5, 1.0, 1.0, math.nan), "x"),
    ((1.0, 1.0, 0.5, 1.0, 1.0, -math.inf), "x"),
    ((math.inf, 1.0, 0.5, 1.0, 1.0, 1.0), "hbar"),
    ((1.0, math.inf, 0.5, 1.0, 1.0, 1.0), "mass"),
    ((1.0, 1.0, 0.5, math.inf, 1.0, 1.0), "slope"),
    ((1.0, 1.0, math.nan, 1.0, 1.0, 1.0), "energy"),
    ((1.0, 1.0, 0.5, 1.0, math.nan, 1.0), "lam"),
    ((1.0, 1.0, 0.5, 1.0, math.inf, 1.0), "lam"),
    ((1.0, 1.0, 0.5, 1.0, complex(1.0, -math.inf), 1.0), "lam"),
])
def test_classical_airy_refuses_bad_inputs(args, name):
    # the reference the closed form is compared against checks its inputs
    with pytest.raises(ValidationError, match=name):
        linear_classical_airy(*args)


def test_turning_point_series_value():
    # at y = 0 only the leading series term survives
    cfg = _cfg()
    ap1 = cfg.alpha + 1.0
    c = (2.0 + cfg.alpha - cfg.theta) / (2.0 * ap1)
    want = (2.0 * cfg.n_norm / ap1 * math.gamma(1.0 / ap1)
            * math.sin(math.pi * c))
    x = cfg.energy / cfg.slope
    r = linear_closed_form(cfg, x)
    assert abs(r.value - want) <= 1e-12 * abs(want)
    assert r.method == "series-continuation"


def test_descending_side_matches_quadrature():
    cfg = _cfg()
    hscale = cfg.hbar * (1.0 / (cfg.alpha + 1.0)) ** (1.0 / (cfg.alpha + 1.0))
    for yt in (-0.5, -2.0):
        x = cfg.energy / cfg.slope + yt * hscale
        assert abs(scaled_coordinate(cfg, x) - yt) < 1e-12
        a = linear_closed_form(cfg, x)
        q = linear_quadrature(cfg, x)
        sc = max(abs(q.value), 1e-3 * cfg.n_norm)
        assert abs(a.value - q.value) <= 1e-6 * sc


def _mp_ramp_series(alpha, theta, y):
    """The ramp's ascending series at 60 digits.  It stops only after
    three consecutive small terms: at alpha = 2 every third sine is an
    exact zero."""
    with mp.workdps(60):
        ap1 = mp.mpf(alpha) + 1
        c = (2 + mp.mpf(alpha) - mp.mpf(theta)) / (2 * ap1)
        tot, small, k, yk = mp.mpf(0), 0, 0, mp.mpf(1)
        while small < 3:
            term = (mp.gamma((k + 1) / ap1) / mp.factorial(k)
                    * mp.sin(mp.pi * c * (k + 1)) * yk)
            tot += term
            small = small + 1 if abs(term) < mp.mpf(10) ** -50 * abs(tot) else 0
            k += 1
            yk *= y
        return tot


@pytest.mark.parametrize("alpha,theta,y", [
    (1.5, 0.2, -14.4), (1.05, 0.0, -10.0), (2.0, 0.0, -28.8),
    # param-sweep continuation points whose former error model understated
    (1.147551790880007, -0.7203482588481206, -4.308333333333334),
    (1.1598532697278676, -0.7398288314742155, -3.8854166666666665),
    (1.0081818284673787, 0.5938640663953418, -5.728125),
    (1.180467786770138, -0.7177212118926937, -4.036458333333333),
    (1.6094654616549908, 0.14652319969654456, -5.123958333333333)])
def test_ascending_series_error_bound_is_honest(alpha, theta, y):
    value, err, _ = _ascending_series(alpha, theta, y)
    assert math.isfinite(value) and math.isfinite(err)
    assert abs(mp.mpf(value) - _mp_ramp_series(alpha, theta, y)) <= err


def test_closed_form_checks_method_and_rel_tol_on_both_sides():
    cfg = _cfg()
    for x in (-1.0, 0.5, 2.0):  # y < 0, y = 0, y > 0
        with pytest.raises(ValidationError, match="rel_tol"):
            linear_closed_form(cfg, x, rel_tol=5.0)
        with pytest.raises(ValidationError,
                           match=re.escape("auto|series|contour")):
            linear_closed_form(cfg, x, method="bogus")


@pytest.mark.parametrize("abs_tol", [math.nan, 0.0, -1e-9, math.inf])
def test_quadrature_refuses_a_meaningless_tolerance(abs_tol):
    # with a NaN tolerance the stall check could never fire
    with pytest.raises(ValidationError, match="abs_tol"):
        linear_quadrature(_cfg(alpha=1.5, theta=0.1), 1.0, abs_tol=abs_tol)


@pytest.mark.parametrize("alpha, theta, x", [
    (1.5, 0.0, -150.0), (1.1, 0.0, -80.0),
    # here the ray sums overflowed to a value near 1e302 with a NaN err_est
    (1.5, 0.4, -190.0), (1.2, 0.15, -88.0)])
def test_quadrature_refuses_an_overflowing_ray(alpha, theta, x):
    # refused from the exponent's peak on the ray, before any node: pytest
    # turns numpy's overflow warning into an error
    cfg = LinearConfig(alpha=alpha, theta=theta)
    with pytest.raises(QuadratureFailure, match="ray integrand reaches exp"):
        linear_quadrature(cfg, x)


def _mp_ray(cfg, x):
    """linear_quadrature's ray integral to infinity, by 30-digit
    mpmath.quad: 2 n_norm Re of the integral along t e^(i psi)."""
    y = scaled_coordinate(cfg, x)
    with mp.workdps(30):
        ap1 = mp.mpf(cfg.alpha) + 1
        e = mp.expj(mp.pi * (1 - mp.mpf(cfg.theta)) / (2 * ap1))
        rot = mp.expj(mp.mpf(cfg.theta) * mp.pi / 2)
        val = mp.quad(lambda t: mp.exp(1j * mp.mpf(y) * t * e + 1j * rot * (t * e) ** ap1) * e,
                      [0, 1, 2, 4, 8, mp.inf])
        return float(2 * cfg.n_norm * val.real)


@pytest.mark.parametrize("seed, r, j", [
    (1, 28, 10), (1, 0, 11), (1, 12, 10), (2, 28, 10), (3, 12, 10), (3, 1, 10)])
def test_quadrature_claims_the_cut_tail_of_its_ray(seed, r, j):
    # oracle ramps that missed their claim while the ray's cut tail went
    # unclaimed: at s1 r28 #10 the tail past radius 4 is 6.1e-11 against a
    # claim of 3.9e-15; at s1 r0 #11 the error 8.1e-15 topped 5.4e-15
    point = ROUNDS["oracle"](seed, r)[j]
    assert point.route == "linear_quadrature"
    got = linear_quadrature(point.cfg, point.coord, **point.tol_kwargs)
    want = _mp_ray(point.cfg, point.coord)
    assert abs(got.value.real - want) <= got.err_est <= point.tol_kwargs["abs_tol"]
    # a tighter abs_tol pushes the radius out until the tail is below it
    tight = linear_quadrature(point.cfg, point.coord, abs_tol=1e-12)
    assert abs(tight.value.real - want) <= tight.err_est <= 1e-12


def test_negative_x_flag():
    cfg = _cfg()
    assert linear_closed_form(cfg, -0.3).method.endswith("|x<0")
    assert "|x<0" not in linear_closed_form(cfg, 0.2).method
    assert linear_quadrature(cfg, -0.3).method.endswith("|x<0")


def test_config_validation():
    with pytest.raises(ValidationError):
        LinearConfig(alpha=1.0, theta=0.0, hbar=1.0, c_alpha=1.0,
                     energy=0.0, slope=1.0)
    with pytest.raises(ValidationError):
        LinearConfig(alpha=1.5, theta=0.6, hbar=1.0, c_alpha=1.0,
                     energy=0.0, slope=1.0)
    # abs(nan) > lim is False: the skew check must see a NaN theta too
    with pytest.raises(ValidationError, match=re.escape("|theta| <= min(alpha, 2 - alpha)")):
        LinearConfig(alpha=1.5, theta=math.nan)
    with pytest.raises(ValidationError):
        LinearConfig(alpha=1.5, theta=0.0, hbar=1.0, c_alpha=1.0,
                     energy=0.0, slope=0.0)


def test_normalization_scale():
    cfg = _cfg()
    ap1 = cfg.alpha + 1.0
    scale = (cfg.c_alpha / (cfg.hbar * cfg.slope * ap1)) ** (1.0 / ap1)
    assert abs(cfg.n_norm - 1.0 / (2.0 * math.pi * cfg.hbar) / scale) < 1e-15


def test_quadrature_refuses_a_stalled_ray():
    # left of the turning point the ray's e^(iyw) factor grows; at x = -15
    # the ray sums stop short of the 1e-5 n_norm floor
    cfg = LinearConfig(alpha=1.5, c_alpha=1.0, energy=0.5)
    with pytest.raises(QuadratureFailure,
                       match=r"^ray integrals stalled at error 1\.14e-04 for x = -15$"):
        linear_quadrature(cfg, -15.0)
