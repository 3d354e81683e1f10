import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fse.errors import PoleOfGamma
from fse.numerics import (_short_rest, digamma, log_gamma, log_reflection, pi_cot_pi,
                          power_sum)
from fse.quadrature import _panel_est


def test_log_gamma_at_one_and_half():
    assert abs(log_gamma(1.0)) < 1e-14
    # reflection at z=1/2 pins Gamma(1/2)^2 = pi
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_recurrence_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z - round(z.real)) < 0.1 and abs(z.imag) < 0.1:
            continue
        lhs = log_gamma(z + 1.0)
        rhs = math.log(abs(z)) + 1j * cmath.phase(z) + log_gamma(z)
        # compare through exp to dodge 2*pi*i branch offsets
        assert abs(cmath.exp(lhs - rhs) - 1.0) < 1e-12


def test_log_gamma_reflection_random():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if min(abs(z.real - round(z.real)), 1.0) < 0.1 and abs(z.imag) < 0.1:
            continue
        val = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1.0 - z))
        ref = math.pi / cmath.sin(math.pi * z)
        assert abs(val - ref) / abs(ref) < 1e-10
        checked += 1


def test_log_gamma_conjugation():
    z = 2.3 + 1.7j
    assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()


def test_log_gamma_pole_refusal():
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-13j):
        with pytest.raises(PoleOfGamma):
            log_gamma(z)
        with pytest.raises(PoleOfGamma):
            log_gamma(np.array([1.5 + 2j, z]))


def _distance_mod_2pi_i(a: complex, b: complex) -> float:
    d = a - b
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


def _log_gamma_grid():
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.uniform(-1000, 30, 120), rng.uniform(-60, 30, 120)])
    y = np.concatenate([rng.uniform(-400, 400, 80), rng.uniform(-30, 30, 80),
                        rng.uniform(-1, 1, 80)])
    zs = list(x + 1j * y)
    # corners of the range, and |Im z| past where sin(pi z) overflows
    zs += [-1000.0 + 400j, -999.5 - 400j, 30.0 - 400j, -7.5 + 300j, 0.25 - 390j]
    for n in (1, 40, 999):
        for d in (1e-9, -1e-9):
            zs += [complex(-n + d, 0.0), complex(-n, d), complex(-n + d, d)]
    return zs


def test_log_gamma_matches_mpmath_modulo_2pi_i():
    mpmath = pytest.importorskip("mpmath")
    zs = _log_gamma_grid()
    batch = log_gamma(np.array(zs))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for z, from_array in zip(zs, batch):
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            bar = 64.0 * eps * max(1.0, abs(ref))
            assert _distance_mod_2pi_i(log_gamma(z), ref) <= bar, z
            assert _distance_mod_2pi_i(complex(from_array), ref) <= bar, z


def _real_axis_grid():
    rng = np.random.default_rng(29)
    xs = list(rng.uniform(-1000, 30, 300)) + list(rng.uniform(-5, 5, 100))
    for n in (1, 40, 999):
        xs += [-n + 1e-9, -n - 1e-9]
    return [float(x) for x in xs]


def test_real_log_gamma_matches_mpmath():
    # a real argument, as a float or as a complex with Im 0, takes the
    # math.lgamma path, which is tighter than the complex one
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for x in _real_axis_grid():
            ref = complex(mpmath.loggamma(mpmath.mpf(x)))
            bar = 16.0 * eps * max(1.0, abs(ref))
            assert _distance_mod_2pi_i(log_gamma(x), ref) <= bar, x
            assert _distance_mod_2pi_i(log_gamma(complex(x, 0.0)), ref) <= bar, x


def test_real_digamma_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for x in _real_axis_grid():
            ref = float(mpmath.digamma(mpmath.mpf(x)))
            bar = 16.0 * eps * max(1.0, abs(ref))
            assert abs(digamma(x) - ref) <= bar, x
            assert abs(digamma(complex(x, 0.0)) - ref) <= bar, x


def test_real_log_gamma_sign_on_each_unit_interval():
    # Gamma < 0 exactly on (-1, 0), (-3, -2), ...; exp(log_gamma) carries it
    for n in range(-40, 5):
        for frac in (1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6):
            x = n + frac
            want = -1.0 if x < 0.0 and n % 2 else 1.0
            g = cmath.exp(log_gamma(x) - log_gamma(x).real)
            assert abs(g - want) < 1e-15, x


def test_real_path_refuses_poles_and_huge_arguments():
    for x in (0.0, -1.0, -999.0, -1e300, -3.0 + 1e-13):
        with pytest.raises(PoleOfGamma):
            log_gamma(x)
        with pytest.raises(PoleOfGamma):
            digamma(x)
    # up to 2.5e305 log Gamma(x) ~ x (log x - 1) fits a double; past it the
    # value is inf, without a numpy warning (pytest turns one into an error)
    for x in (1e305, 2.5e305):
        assert abs(log_gamma(x) / (x * (math.log(x) - 1.0)) - 1.0) < 1e-15
    for x in (2.6e305, 1e306, np.float64(1e306), complex(1e306, 0.0), math.inf):
        assert log_gamma(x) == complex(math.inf, 0.0)


def _off_poles(x):
    return abs(x - round(x)) > 1e-6


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(min_value=-1000.0, max_value=30.0).filter(_off_poles))
def test_real_log_gamma_agrees_with_the_complex_array_path(x):
    # the array path never takes math.lgamma, so it is an independent check
    ref = complex(log_gamma(np.array([x]))[0])
    assert _distance_mod_2pi_i(log_gamma(x), ref) <= 64.0 * np.finfo(float).eps * max(
        1.0, abs(ref))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(min_value=-60.0, max_value=60.0).filter(_off_poles))
def test_real_reflection_identities(x):
    # Gamma(x) Gamma(1 - x) = pi / sin(pi x), psi(1 - x) - psi(x) = pi cot(pi x)
    sin_px = math.sin(math.pi * (x - round(x))) * (-1.0 if round(x) % 2 else 1.0)
    log_ref = math.log(math.pi / abs(sin_px))
    prod = cmath.exp(log_gamma(x) + log_gamma(1.0 - x) - log_ref)
    assert abs(prod - math.copysign(1.0, sin_px)) <= 1e-13 * max(1.0, abs(log_ref))
    cot = 1.0 / math.tan(math.pi * (x - round(x)))
    lhs = digamma(1.0 - x) - digamma(x)
    assert abs(lhs - math.pi * cot) <= 1e-12 * max(1.0, abs(math.pi * cot),
                                                   abs(digamma(x)))


def _reflection_grid():
    rng = np.random.default_rng(31)
    us = [complex(x) for x in rng.uniform(-60, 60, 60)]
    us += list(rng.uniform(-60, 60, 60) + 1j * rng.uniform(-300, 300, 60))
    us += list(rng.uniform(-5, 5, 40) + 1j * rng.uniform(-1, 1, 40))
    for n in (-40, -1, 0, 1, 3, 40):
        for d in (1e-9, -1e-9):
            us += [complex(n + d, 0.0), complex(n, d), complex(n + d, d)]
    return us


def test_log_reflection_matches_mpmath_modulo_2pi_i():
    # log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u), and its slope
    mpmath = pytest.importorskip("mpmath")
    us = _reflection_grid()
    batch = log_reflection(np.array(us))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for u, from_array in zip(us, batch):
            mu = mpmath.mpc(u.real, u.imag)
            ref = complex(mpmath.log(mpmath.pi) - mpmath.log(mpmath.sinpi(mu)))
            bar = 64.0 * eps * max(1.0, abs(ref))
            assert _distance_mod_2pi_i(log_reflection(u), ref) <= bar, u
            assert _distance_mod_2pi_i(complex(from_array), ref) <= bar, u
            if u.imag == 0.0:
                mx = mpmath.mpf(u.real)
                cot = float(mpmath.pi * mpmath.cospi(mx) / mpmath.sinpi(mx))
                assert abs(pi_cot_pi(u) - cot) <= 64.0 * eps * max(1.0, abs(cot)), u


def test_log_reflection_real_path():
    # a real u takes math, returns the same value as the complex-array path,
    # and pi_cot_pi gives a float there
    for x in (0.3, -2.7, 41.5 - 1e-9, -0.5, 1e20 + 0.5e4):
        if abs(x - round(x)) < 1e-12:
            continue
        got = log_reflection(x)
        assert got == log_reflection(complex(x, 0.0))
        ref = complex(log_reflection(np.array([x]))[0])
        assert _distance_mod_2pi_i(got, ref) <= 64.0 * np.finfo(float).eps * max(
            1.0, abs(ref))
        assert isinstance(pi_cot_pi(x), float)


def test_log_reflection_pole_refusal():
    # Gamma(u) has poles at u = 0, -1, ..., Gamma(1 - u) at u = 1, 2, ...
    for u in (0.0, -3.0, 1.0, 4.0, 4.0 + 1e-13, 2.0 + 1e-13j, -7.0 + 0j):
        with pytest.raises(PoleOfGamma):
            log_reflection(u)
        with pytest.raises(PoleOfGamma):
            log_reflection(np.array([0.5 + 2j, u]))
    assert math.isfinite(log_reflection(4.0 + 1e-9).real)


_KERNELS = (log_gamma, digamma, log_reflection, pi_cot_pi)


def _outcome(fn, x):
    try:
        out = fn(x)
    except PoleOfGamma:
        return "pole"
    return type(out), repr(out)


def test_real_kernel_paths_agree_across_input_types():
    # a float, a numpy float64 and a complex with imaginary part 0.0 take
    # the same real path: same type, same bits
    xs = _real_axis_grid() + [0.5, 7.999999999, 8.0, -40.5, 1e20 + 0.5e4, 3.0]
    for fn in _KERNELS:
        for x in xs:
            want = _outcome(fn, x)
            assert _outcome(fn, np.float64(x)) == want, (fn.__name__, x)
            assert _outcome(fn, complex(x, 0.0)) == want, (fn.__name__, x)


def test_zero_dimensional_arrays_take_the_scalar_path():
    # a 0-d array is a scalar: the real path's type and bits
    for fn in (log_gamma, log_reflection):
        for x in (2.5, 0.3, -1.5):
            got = fn(np.array(x))
            assert type(got) is type(fn(x)) and got == fn(x), (fn.__name__, x)


def test_real_kernel_paths_refuse_poles():
    for n in (0.0, -1.0, -40.0):
        for x in (n, n + 1e-13, n - 1e-13):
            for arg in (x, np.float64(x), complex(x, 0.0)):
                for fn in _KERNELS:
                    with pytest.raises(PoleOfGamma):
                        fn(arg)


def test_digamma_spot_values():
    # psi(1) = -euler_gamma, psi(1/2) = -euler_gamma - 2 ln 2
    eg = 0.5772156649015329
    assert abs(digamma(1.0) + eg) < 1e-13
    assert abs(digamma(0.5) + eg + 2.0 * math.log(2.0)) < 1e-13


@pytest.mark.parametrize("x, want", [
    # x < 0.5: reflection, then the upward recurrence
    (-3.3, "0x1.cf67be009a0fbp+1"),
    (0.25, "-0x1.0e8e9943cd7c2p+2"),
    # 0.5 <= x < 8: the upward recurrence to x >= 8
    (0.5, "-0x1.f6a897d3214fcp+0"),
    (2.5, "0x1.680425af12b59p-1"),
    (7.999, "0x1.01fc2d51925fep+1"),
    # x >= 8: the asymptotic tail alone
    (8.0, "0x1.02008a3a23e59p+1"),
    (11.0, "0x1.2d063a9529963p+1"),
    (1234.5, "0x1.c78d93f4064c5p+2"),
])
def test_digamma_keeps_its_recorded_bits(x, want):
    # the residue series' recorded bits rest on these: any change to the
    # order of the asymptotic tail's operations shows here
    assert digamma(x).hex() == want


def test_complex_scalars_take_the_array_path():
    # log_gamma and log_reflection answer a complex scalar as a one-element
    # array; digamma and pi_cot_pi are real-only
    for z in (2.3 + 1.7j, -7.5 + 0.25j, 0.5 - 300j):
        assert log_gamma(z) == complex(log_gamma(np.array([z]))[0])
        assert log_reflection(z) == complex(log_reflection(np.array([z]))[0])
        for fn in (digamma, pi_cot_pi):
            with pytest.raises(TypeError, match="real"):
                fn(z)


def test_panel_nodes_integrate_polynomial():
    # the panel's order-15 rule is exact for degree 29, so both of its
    # rules agree with the exact integral and the error estimate vanishes
    rng = np.random.default_rng(5)
    for _ in range(5):
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 30))
        anti = poly.integ()
        want = anti(2.0) - anti(-1.0)
        (val,), (err,) = _panel_est(poly, np.array([-1.0]), np.array([2.0]))
        scale = np.abs(poly.coef).sum() * 2.0 ** 30
        assert abs(val - want) < 1e-14 * scale
        assert err < 1e-14 * scale


@pytest.mark.parametrize("q", [0.5, 0.9, 0.98, -0.98])
def test_power_sum_claims_the_geometric_rest(q):
    # sum q^k = 1 / (1 - q): at |q| = 0.98 the unsummed rest is 49 times
    # the last term, which a last-term claim would understate
    value, err, _ = power_sum(q, lambda k: 0j, 1e-9, "geometric series")
    assert abs(value - 1.0 / (1.0 - q)) <= err
    assert err <= 1e-8 * abs(value)


def test_power_sum_at_zero_returns_its_head_exactly():
    assert power_sum(0.0, lambda k: 0.0, 1e-9, "sum", head=2.5) == (2.5 + 0j, 0.0, 1)


def test_short_rest_declines_unless_its_proof_closes():
    # a ratio not below 1 - 1e-6, or a claim that meets rel_tol once the
    # rest is widened, gives no early stop; between them the proof closes
    logz = cmath.log(0.5)
    assert _short_rest(5, 0j, -1.0, -1.0, 0.3, 1.0, 1.0, 1e-9) is None
    assert _short_rest(20, logz, -10.0, -9.0, 4.5e-5, 1.0, 0.0, 1e-9) is None
    rest = _short_rest(20, logz, -10.0, -9.0, 4.5e-5, 1.0, 1e-6, 1e-9)
    assert rest is not None and rest >= 4.5e-5 / (math.e - 1.0)


def test_a_falling_sum_stops_once_its_rounding_floor_misses_rel_tol():
    # e^-30 = sum (-30)^k / k!: the terms peak near 30^30 / 30! ~ 8e11, so
    # the rounding floor, about 1e-4, misses rel_tol against e^-30 ~ 1e-13
    # long before the terms fall below it
    def log_coef(k):
        return -math.lgamma(k + 1.0)

    want = math.exp(-30.0)
    whole = power_sum(-30.0, log_coef, 1e-9, "exp series", head=1.0)
    short = power_sum(-30.0, log_coef, 1e-9, "exp series", head=1.0, falling=True)
    for value, err, _ in (whole, short):
        assert abs(value - want) <= err
        assert err > 1e-9 * abs(value)
    assert short[2] < whole[2]
    # an ordinary sum that meets rel_tol keeps its bits
    assert (power_sum(-3.0, log_coef, 1e-9, "exp series", head=1.0, falling=True)
            == power_sum(-3.0, log_coef, 1e-9, "exp series", head=1.0))
