import cmath
import math
import re

import numpy as np
import pytest

from fse.delta import (_even_part_params, delta_classical, delta_closed_form,
                       delta_quadrature)
from fse.errors import DomainError, NonConvergence, ValidationError
from fse.foxh import eval_auto
from fse.result import DeltaConfig


def test_even_in_x_when_unskewed():
    cfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    for x in (0.3, 0.7, 1.4, 2.6):
        a = delta_closed_form(cfg, x)
        b = delta_closed_form(cfg, -x)
        assert a.value == b.value


def test_linear_in_normalization():
    base = DeltaConfig(alpha=1.7, theta=0.1, c_alpha=0.8, energy=-0.4)
    scaled = DeltaConfig(alpha=1.7, theta=0.1, c_alpha=0.8, energy=-0.4,
                         k_norm=2.0 - 1.0j)
    for x in (0.5, -1.2):
        a = delta_closed_form(base, x).value
        b = delta_closed_form(scaled, x).value
        assert abs(b - (2.0 - 1.0j) * a) <= 1e-14 * abs(b)


def test_order_two_reduces_to_exponential_bound_state():
    # at alpha = 2 the profile must be exp(-|x| sqrt(-2 m E) / hbar)
    # times a constant; m follows from c_alpha = hbar^2 / (2 m)
    cfg = DeltaConfig(alpha=2.0, theta=0.0, c_alpha=0.5, energy=-0.5)
    mass = cfg.hbar ** 2 / (2.0 * cfg.c_alpha)
    xs = np.linspace(0.25, 4.0, 16)
    ratios = []
    for x in xs:
        cl = delta_classical(cfg.hbar, mass, cfg.energy, 1.0, float(x))
        ratios.append(delta_closed_form(cfg, float(x)).value / cl)
    ratios = np.asarray(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])


def test_closed_form_matches_quadrature():
    cases = [
        (DeltaConfig(alpha=1.5, theta=0.3, c_alpha=1.0, energy=-0.5), 0.7),
        (DeltaConfig(alpha=1.5, theta=0.3, c_alpha=1.0, energy=-0.5), -1.3),
        (DeltaConfig(alpha=1.8, theta=0.0, c_alpha=0.7, energy=-1.2), 2.0),
        (DeltaConfig(alpha=1.2, theta=-0.4, c_alpha=1.3, energy=-0.8), 0.4),
    ]
    for cfg, x in cases:
        a = delta_closed_form(cfg, x, 1e-9)
        q = delta_quadrature(cfg, x, 1e-10)
        assert abs(a.value - q.value) <= 1e-7 * abs(q.value)


def test_riesz_route_equals_general_form_unskewed():
    # the symmetric (theta = 0) well is a single H function,
    # xi0 * H_even(zeta), as in de Oliveira, Costa & Vaz (2010)
    for cfg in (DeltaConfig(alpha=1.6, theta=0.0, c_alpha=1.0, energy=-0.7),
                DeltaConfig(alpha=1.3, theta=0.0, hbar=0.8, c_alpha=1.4,
                            energy=-0.6, gamma_strength=2.5, k_norm=1.0 - 0.5j)):
        a, e, hb = cfg.alpha, cfg.energy, cfg.hbar
        scal = (cfg.c_alpha / -e) ** (-1.0 / a)
        xi0 = -cfg.gamma_strength * cfg.k_norm / (
            2.0 * math.pi * hb ** 2 * e * a) * scal
        for x in (0.4, 1.1, -2.2):
            zeta = abs(x) * (hb ** a * cfg.c_alpha / -e) ** (-1.0 / a)
            want = xi0 * eval_auto(_even_part_params(a), zeta, 1e-9).value
            got = delta_closed_form(cfg, x).value
            assert abs(got - want) <= 1e-14 * abs(got)


def test_closed_form_undefined_at_origin():
    cfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    with pytest.raises(DomainError):
        delta_closed_form(cfg, 0.0)
    with pytest.raises(ValidationError):
        delta_closed_form(cfg, math.nan)


def test_unknown_method_is_refused():
    cfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0)
    with pytest.raises(ValidationError, match=re.escape("auto|series|contour")):
        delta_closed_form(cfg, 1.0, method="bogus")


@pytest.mark.parametrize("abs_tol", [math.nan, 0.0, -1e-9, math.inf])
def test_quadrature_refuses_a_meaningless_tolerance(abs_tol):
    # with a NaN tolerance the stall check could never fire
    cfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0)
    for x in (0.0, 0.7):
        with pytest.raises(ValidationError, match="abs_tol"):
            delta_quadrature(cfg, x, abs_tol=abs_tol)


def test_overflowing_value_is_a_numerical_refusal():
    cfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0,
                      gamma_strength=1e308, k_norm=10.0)
    with pytest.raises(NonConvergence, match="not finite"):
        delta_closed_form(cfg, 0.5)


@pytest.mark.parametrize("x", [0.5, 0.0])
def test_quadrature_refuses_an_overflowing_prefactor(x):
    # gamma * k_norm = 1e309 is infinite before any integral runs
    cfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0,
                      gamma_strength=1e308, k_norm=10.0)
    with pytest.raises(NonConvergence, match="prefactor"):
        delta_quadrature(cfg, x)


def test_quadrature_frozen_residue_value():
    # alpha = 2, c = 1/2, E = -1/2: the momentum integral closes over the
    # pole at p = 1 and gives exactly exp(-|x|) / (2 pi)
    cfg = DeltaConfig(alpha=2.0, theta=0.0, c_alpha=0.5, energy=-0.5)
    q = delta_quadrature(cfg, 1.0, 1e-10)
    want = math.exp(-1.0) / (2.0 * math.pi)
    assert abs(q.value - want) <= 1e-8 * want
    assert q.method == "quadrature"


def test_quadrature_at_origin_beta_integral():
    # x = 0 collapses to int 2 dp / (p^a + |E|), a Beta-function value
    cfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    a = cfg.alpha
    want = (2.0 / (2.0 * math.pi) ** 2 / abs(cfg.energy)
            * abs(cfg.energy) ** (1.0 / a)
            * (math.pi / a) / math.sin(math.pi / a))
    q = delta_quadrature(cfg, 0.0, 1e-10)
    assert abs(q.value - want) <= 1e-8 * abs(want)
    assert abs(q.value.imag) <= 1e-12 * abs(q.value)


@pytest.mark.parametrize("alpha", [1.01, 1.03, 1.2, 1.5, 1.9])
def test_quadrature_at_origin_slow_tail(alpha):
    # the integrand decays like p^(-alpha), barely integrable near alpha = 1;
    # against psi(0) = pref pi / (alpha sin(pi/alpha)) sum a^(-1/alpha) / (-E)
    # with a = C e^(+-i theta pi/2) / (-E), from int dp / (1 + a p^alpha)
    cfg = DeltaConfig(alpha=alpha, theta=0.5 * min(alpha, 2.0 - alpha),
                      c_alpha=0.8, energy=-1.3)
    pref = cfg.gamma_strength * cfg.k_norm / (2.0 * math.pi * cfg.hbar) ** 2
    want = pref * math.pi / (alpha * math.sin(math.pi / alpha)) * sum(
        (cfg.c_alpha * cmath.exp(sg * 0.5j * math.pi * cfg.theta) / -cfg.energy)
        ** (-1.0 / alpha) / -cfg.energy for sg in (1.0, -1.0))
    q = delta_quadrature(cfg, 0.0, 1e-10)
    assert abs(q.value - want) <= q.err_est
    assert abs(q.value - want) <= 1e-12 * abs(want)


def test_quadrature_is_even_unskewed():
    cfg = DeltaConfig(alpha=1.4, theta=0.0, c_alpha=1.0, energy=-0.6)
    a = delta_quadrature(cfg, 0.9, 1e-10)
    b = delta_quadrature(cfg, -0.9, 1e-10)
    assert abs(a.value - b.value) <= 1e-9 * abs(a.value)


def test_config_validation():
    with pytest.raises(ValidationError):
        DeltaConfig(alpha=1.5, energy=0.0)
    with pytest.raises(ValidationError):
        DeltaConfig(alpha=1.5, energy=1.0)
    with pytest.raises(ValidationError):
        DeltaConfig(alpha=2.3)
    with pytest.raises(ValidationError):
        DeltaConfig(alpha=1.5, theta=0.6)
    with pytest.raises(ValidationError):
        DeltaConfig(alpha=1.5, c_alpha=-1.0)
    with pytest.raises(ValidationError):
        delta_classical(1.0, 1.0, 0.5, 1.0, 1.0)


def test_classical_profile():
    # lam * exp(-|x| sqrt(-2 m E) / hbar) directly
    v = delta_classical(1.0, 1.0, -0.5, 2.0, 1.5)
    assert abs(v - 2.0 * math.exp(-1.5)) < 1e-14
    assert delta_classical(1.0, 1.0, -0.5, 2.0, -1.5) == v


@pytest.mark.parametrize("hbar", [1e-200, 1e-162, 1e200])
def test_extreme_hbar_refuses(hbar):
    # hbar^alpha or (2 pi hbar)^2 leaves double range: refused, not a crash
    for theta in (0.0, 0.25):
        cfg = DeltaConfig(alpha=1.5, theta=theta, c_alpha=1.0, hbar=hbar)
        for x in (0.5, -1.0):
            with pytest.raises(NonConvergence):
                delta_closed_form(cfg, x)
        for x in (0.0, 0.5):
            with pytest.raises(NonConvergence):
                delta_quadrature(cfg, x)
