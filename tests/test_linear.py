import cmath
import math
import re
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy.special import airy

from fse.errors import PoleOfGamma, ValidationError
from fse.linear import (_ascending_series, linear_classical_airy,
                        linear_closed_form, linear_mellin_factor,
                        linear_momentum_spectrum, linear_quadrature,
                        scaled_coordinate)
from fse.quadrature import adaptive
from fse.result import LinearConfig


def _cfg(alpha=1.5, theta=0.3, energy=0.5):
    return LinearConfig(alpha=alpha, theta=theta, hbar=1.0, c_alpha=1.0,
                        energy=energy, slope=1.0)


def test_momentum_spectrum_examples():
    cfg = _cfg(energy=0.0)
    assert linear_momentum_spectrum(cfg, 0.0) == 1.0
    want = cmath.exp(-1j * (-(1.0 / 2.5) * cmath.exp(1j * 0.15 * math.pi)))
    got = linear_momentum_spectrum(cfg, 1.0)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_momentum_spectrum_unskewed_is_unimodular():
    cfg = LinearConfig(alpha=1.7, theta=0.0, hbar=1.0, c_alpha=1.0,
                       energy=0.4, slope=1.3)
    for p in (-3.0, -0.7, 0.2, 5.0):
        assert abs(abs(linear_momentum_spectrum(cfg, p)) - 1.0) < 1e-14


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
    with pytest.raises(ValidationError):
        LinearConfig(alpha=1.5, theta=0.0, hbar=1.0, c_alpha=1.0,
                     energy=0.0, slope=0.0)


def test_normalization_scale():
    cfg = _cfg()
    ap1 = cfg.alpha + 1.0
    scale = (cfg.c_alpha / (cfg.hbar * cfg.slope * ap1)) ** (1.0 / ap1)
    assert abs(cfg.n_norm - 1.0 / (2.0 * math.pi * cfg.hbar) / scale) < 1e-15
