import cmath
import math

import numpy as np
import pytest

from fse.errors import DomainError, NonConvergence, ValidationError
from fse.mittag import ml_as_foxh, ml_contour, ml_eval, ml_series
from fse.quadrature import adaptive


def _erfc_scaled(x: float) -> float:
    # e^{x^2} erfc(x) = (2/sqrt(pi)) Int_0^inf e^{-u^2 - 2xu} du
    val, _, _ = adaptive(lambda u: np.exp(-u * u - 2.0 * x * u),
                         0.0, 14.0, 1e-13)
    return 2.0 / math.sqrt(math.pi) * val


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
                # the raw series route is only certified in a small ball;
                # far outside it must refuse, not return noise
                assert abs(z) ** (1.0 / beta) > 12.0
                continue
            assert abs(vs - vc) <= max(1e-8 * abs(vs), es + ec)


def test_foxh_route_agreement_grid():
    for beta in (0.3, 0.5, 0.7, 1.0):
        for z in (-10.0, -5.0, -2.0, -0.5, -0.1):
            a = ml_eval(beta, z).value
            b = ml_as_foxh(beta, z).value
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-30)


def test_foxh_route_refuses_positive_axis():
    with pytest.raises(DomainError):
        ml_as_foxh(0.5, 2.0)
    assert ml_as_foxh(1.0, 0.0).value == 1.0


def test_deep_negative_beta_one_refusal():
    # E_1(-50) = e^{-50} sits far below the float64 cancellation floor of
    # both schemes; an honest evaluator refuses rather than guessing
    with pytest.raises(NonConvergence):
        ml_eval(1.0, -50.0)


def test_overflow_refuses():
    # E_1/2(z) = e^(z^2) erfc(-z): e^676 still fits a double, e^729 does not
    got = ml_eval(0.5, 26.0)
    assert abs(got.value - 2.0 * math.exp(676.0)) <= 1e-9 * abs(got.value)
    # the residue exp(z^2) overflows at 27, the pole z^2 itself at 1e160
    for z in (27.0, 1e160):
        with pytest.raises(NonConvergence):
            ml_eval(0.5, z)


def test_parameter_validation():
    for beta in (0.0, -0.5, 1.2):
        with pytest.raises(ValidationError):
            ml_eval(beta, -1.0)
    with pytest.raises(ValidationError):
        ml_eval(0.5, -1.0, rel_tol=1e-16)


def test_oscillatory_argument_phase():
    # arg z = 3*pi/4: between the Hankel wedge and the negative axis
    z = 4.0 * cmath.exp(0.75j * math.pi)
    direct = sum(z ** k * math.exp(-math.lgamma(0.6 * k + 1.0))
                 for k in range(300))
    got = ml_eval(0.6, z).value
    assert abs(got - direct) <= 1e-9 * abs(direct)
