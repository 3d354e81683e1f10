import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest

import fse.delta
from fse import foxh
from fse.delta import (_even_part_params, delta_classical, delta_closed_form,
                       delta_quadrature)
from fse.errors import NonConvergence, QuadratureFailure, ValidationError
from fse.foxh import eval_auto
from fse.linear import linear_closed_form
from fse.result import DeltaConfig, LinearConfig


def test_even_in_x_when_unskewed():
    cfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    for x in (0.3, 0.7, 1.4, 2.6):
        a = delta_closed_form(cfg, x)
        b = delta_closed_form(cfg, -x)
        assert a.value == b.value


def test_a_known_well_builds_no_h_set(monkeypatch):
    # the even and odd parts' sets are kept per alpha: a second call on
    # one well, at another x, builds and validates no FoxHParams, and a
    # call on a new alpha builds its two
    cfg = DeltaConfig(alpha=1.43, theta=0.2, c_alpha=1.0, energy=-0.5)
    delta_closed_form(cfg, 0.7)
    built = []
    post_init = foxh.FoxHParams.__post_init__
    monkeypatch.setattr(foxh.FoxHParams, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    delta_closed_form(cfg, 1.9)
    assert built == []
    delta_closed_form(DeltaConfig(alpha=1.4301, theta=0.2, c_alpha=1.0, energy=-0.5), 1.9)
    assert len(built) == 2


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


@pytest.mark.parametrize("theta, x, evaluations", [
    (0.25, 0.7, 2), (-0.2, -2.4, 2),
    (0.25, 11.0, 2),                    # contour points, after failed series
    (0.0, 0.7, 1),
])
def test_closed_form_computes_one_h_per_conjugate_pair(monkeypatch, theta, x,
                                                       evaluations):
    # H(conj z) = conj H(z) with real parameters: the second H value of each
    # pair is the conjugate of the first, not a second evaluation
    computed = []

    def counting(fn):
        def wrapper(*args):
            r = fn(*args)
            computed.append(r.work)
            return r
        return wrapper

    for name in ("eval_series", "eval_contour"):
        monkeypatch.setattr(foxh, name, counting(getattr(foxh, name)))
    cfg = DeltaConfig(alpha=1.5, theta=theta, c_alpha=1.0, energy=-1.0)
    r = delta_closed_form(cfg, x)
    assert len(computed) == evaluations
    assert r.work == sum(computed)


def test_wavefunction_is_real_for_real_strength_and_norm():
    # psi = c_even 2 Re(phi H_e) + c_odd 2i Im(phi H_o) is real when gamma and
    # k_norm are; the conjugate pairs make its imaginary part exactly zero.
    # At theta = 0 psi is one H at a real zeta, which is real there, as is
    # the ramp's one H at a real y (the contour points of 0:30:31 among them)
    cases = [(DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0, energy=-1.0),
              np.linspace(-3.0, 3.0, 121)),
             (DeltaConfig(alpha=1.2, theta=-0.15, c_alpha=0.8, energy=-0.6),
              np.array([-12.0, -0.3, 0.9, 10.0])),
             (DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-1.0),
              np.linspace(-30.0, 30.0, 121))]
    for cfg, xs in cases:
        for x in xs:
            assert delta_closed_form(cfg, float(x)).value.imag == 0.0
    ramp = LinearConfig(alpha=1.5, c_alpha=1.0, energy=0.5)
    methods = set()
    for x in np.linspace(0.0, 30.0, 31):
        r = linear_closed_form(ramp, float(x))
        assert r.value.imag == 0.0, x
        methods.add(r.method)
    assert "h[contour]" in methods


def test_closed_form_answers_at_origin_for_every_method():
    # at x = 0 every method answers the even part's k = 0 residue, tagged as
    # the series term it is; bad input still refuses first
    cfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    q = delta_quadrature(cfg, 0.0)
    for method in ("auto", "series", "contour"):
        r = delta_closed_form(cfg, 0.0, method=method)
        assert (r.method, r.work) == ("closed[series]", 1)
        assert abs(r.value - q.value) <= r.err_est + q.err_est
    with pytest.raises(ValidationError):
        delta_closed_form(cfg, math.nan)
    with pytest.raises(ValidationError, match="method"):
        delta_closed_form(cfg, 0.0, method="quadrature")
    with pytest.raises(ValidationError, match="rel_tol"):
        delta_closed_form(cfg, 0.0, rel_tol=1e-16)
    # a valid rel_tol below psi(0)'s rounding (2.27e-11 relative beside
    # alpha = 1) is refused by the acceptance rule
    with pytest.raises(NonConvergence, match="psi"):
        delta_closed_form(DeltaConfig(alpha=1.001, c_alpha=1.0, energy=-0.5), 0.0,
                          rel_tol=1e-14)
    with pytest.raises(NonConvergence, match="hbar"):
        delta_closed_form(DeltaConfig(alpha=1.5, hbar=1e-200), 0.0)


@pytest.mark.parametrize("rel_tol", [0.5, math.nan])
@pytest.mark.parametrize("x", [0.0, 0.5])
def test_closed_form_checks_rel_tol_at_every_x(x, rel_tol):
    cfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    with pytest.raises(ValidationError, match="rel_tol"):
        delta_closed_form(cfg, x, rel_tol=rel_tol)


def _psi0_reference(cfg):
    """psi(0) at 30 digits: gamma k_norm / (2 pi hbar)^2 times the sum over
    +-theta of int_0^inf dp / (C p^alpha e^(+-i theta pi/2) - E)."""
    with mp.workdps(30):
        a, e = mp.mpf(cfg.alpha), mp.mpf(cfg.energy)
        total = sum((mp.mpf(cfg.c_alpha) * mp.expjpi(sg * mp.mpf(cfg.theta) / 2) / -e)
                    ** (-1 / a) / -e for sg in (1, -1))
        total *= mp.pi / (a * mp.sin(mp.pi / a))
        return complex(mp.mpf(cfg.gamma_strength) * mp.mpc(cfg.k_norm)
                       / (2 * mp.pi * mp.mpf(cfg.hbar)) ** 2 * total)


@pytest.mark.parametrize("alpha", [1.001, 1.05, 1.5, 1.999, 2.0])
def test_origin_value_against_mpmath(alpha):
    # the err_est of psi(0) bounds its rounding, the sine's conditioning
    # near alpha = 1 and the cosine's near the skew limit among it
    lim = min(alpha, 2.0 - alpha)
    for theta in sorted({0.0, 0.99 * lim, -0.99 * lim, lim, -lim}):
        for hbar, c_alpha, energy, gamma, k_norm in (
                (1.0, 1.0, -1.0, 1.0, 1.0), (0.7, 2.5, -0.03, 1.7, 2.0 - 1.0j),
                (1.3, 0.04, -40.0, 0.2, 1.0), (3.0, 1e3, -1e-3, 5.0, 0.5j)):
            cfg = DeltaConfig(alpha=alpha, theta=theta, hbar=hbar, c_alpha=c_alpha,
                              energy=energy, gamma_strength=gamma, k_norm=k_norm)
            r = delta_closed_form(cfg, 0.0)
            ref = _psi0_reference(cfg)
            assert abs(r.value - ref) <= r.err_est <= 1e-12 * abs(r.value), (theta, cfg)


def test_origin_meets_the_bound_state_condition():
    # the bound state psi = gamma psi(0) G_E fixes E by gamma G_E(0) = 1:
    # (-E)^(1 - 1/alpha) = gamma cos(theta pi/(2 alpha)) / (hbar alpha
    # sin(pi/alpha) C^(1/alpha)).  The routes carry gamma k_norm/(2 pi hbar)^2,
    # so there psi(0) = k_norm/(2 pi hbar).  At alpha = 2 with C = 1/(2 m)
    # (p is the momentum) that E is the textbook -m gamma^2/(2 hbar^2).
    # The ratio's slack of 1e-14 is the rounding of the formula's E
    for hbar, want in ((1.0, 0.159155), (0.7, 0.227364)):
        mass, gamma = 0.5, 1.0
        cfg = DeltaConfig(alpha=2.0, hbar=hbar, c_alpha=1.0 / (2.0 * mass),
                          energy=-mass * gamma ** 2 / (2.0 * hbar ** 2),
                          gamma_strength=gamma)
        assert delta_closed_form(cfg, 0.0).value == pytest.approx(want, abs=5e-7)
    for alpha, theta, hbar, c_alpha, gamma in (
            (2.0, 0.0, 1.0, 0.5, 1.0), (1.5, 0.25, 1.0, 1.0, 1.0),
            (1.3, -0.5, 0.7, 2.0, 1.7), (1.9, 0.08, 1.3, 0.8, 0.6)):
        energy = -(gamma * math.cos(theta * math.pi / (2.0 * alpha))
                   / (hbar * alpha * math.sin(math.pi / alpha) * c_alpha ** (1.0 / alpha))
                   ) ** (alpha / (alpha - 1.0))
        cfg = DeltaConfig(alpha=alpha, theta=theta, hbar=hbar, c_alpha=c_alpha,
                          energy=energy, gamma_strength=gamma, k_norm=1.0 - 2.0j)
        for route in (delta_closed_form, delta_quadrature):
            r = route(cfg, 0.0)
            ratio = 2.0 * math.pi * hbar * r.value / cfg.k_norm
            assert abs(ratio - 1.0) <= 2.0 * math.pi * hbar * r.err_est / abs(cfg.k_norm) + 1e-14


def test_quadrature_refuses_a_non_finite_or_complex_x():
    # a complex x would give the oracle a damped kernel and a number
    cfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0)
    for x in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="x must be finite"):
            delta_quadrature(cfg, x)
    with pytest.raises(TypeError):
        delta_quadrature(cfg, 1.0 + 0.5j)


def test_closed_form_refuses_a_complex_x_before_any_h_value(monkeypatch):
    def never(*args):
        raise AssertionError("H evaluated for a complex x")

    monkeypatch.setitem(fse.delta._ROUTES, "auto", never)
    cfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0)
    with pytest.raises(TypeError):
        delta_closed_form(cfg, 1.0 + 0.5j)


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


@pytest.mark.parametrize("alpha", [1.3, 1.5, 1.7])
def test_quadrature_error_claim_bounds_its_error(alpha):
    # the oracle's claim must bound its error at every point, including the
    # skew bounds |theta| = 2 - alpha; the closed form at 1e-12 is the
    # reference
    lim = 2.0 - alpha
    for theta in (lim, -lim, 0.9 * lim, 0.0):
        cfg = DeltaConfig(alpha=alpha, theta=theta, c_alpha=1.0, energy=-1.0)
        for x in np.linspace(-4.0, 4.0, 33):
            q = delta_quadrature(cfg, float(x), abs_tol=1e-9)
            c = delta_closed_form(cfg, float(x), rel_tol=1e-12)
            assert abs(q.value - c.value) <= q.err_est + c.err_est, (theta, x)


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
    # abs(nan) > lim is False: the skew check must see a NaN theta too
    with pytest.raises(ValidationError, match=re.escape("|theta| <= min(alpha, 2 - alpha)")):
        DeltaConfig(alpha=1.5, theta=math.nan)
    with pytest.raises(ValidationError):
        DeltaConfig(alpha=1.5, c_alpha=-1.0)
    with pytest.raises(ValidationError):
        delta_classical(1.0, 1.0, 0.5, 1.0, 1.0)


def test_classical_profile():
    # lam * exp(-|x| sqrt(-2 m E) / hbar) directly
    v = delta_classical(1.0, 1.0, -0.5, 2.0, 1.5)
    assert abs(v - 2.0 * math.exp(-1.5)) < 1e-14
    assert delta_classical(1.0, 1.0, -0.5, 2.0, -1.5) == v


@pytest.mark.parametrize("args, name", [
    ((1.0, 1.0, -0.5, 1.0, math.nan), "x"),
    ((1.0, 1.0, -0.5, 1.0, math.inf), "x"),
    ((math.inf, 1.0, -0.5, 1.0, 1.0), "hbar"),
    ((1.0, math.inf, -0.5, 1.0, 1.0), "mass"),
    ((1.0, 1.0, -math.inf, 1.0, 0.0), "energy"),
    ((1.0, 1.0, -1.0, math.nan, 0.5), "lam"),
    ((1.0, 1.0, -1.0, math.inf, 0.5), "lam"),
    ((1.0, 1.0, -1.0, complex(math.nan, 1.0), 0.5), "lam"),
])
def test_classical_profile_refuses_bad_inputs(args, name):
    # the reference the closed form is compared against checks its inputs
    with pytest.raises(ValidationError, match=name):
        delta_classical(*args)


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


def test_quadrature_refuses_a_stalled_integral():
    # at x = 1e5 the oscillatory tail stops near 1e-5 relative, short of
    # both abs_tol = 1e-30 and the 1e-6 relative floor
    cfg = DeltaConfig(alpha=1.5, theta=0.25)
    with pytest.raises(QuadratureFailure, match="^resolvent integral stalled at "
                       r"error 1\.11e-18 for x = 100000$"):
        delta_quadrature(cfg, 1e5, abs_tol=1e-30)


def test_an_oracle_node_past_double_range_refuses():
    # C = 1e161 and E = -1e155: the tail's q (q - E) overflows at the first
    # node, and the oracle refuses before numpy warns
    cfg = DeltaConfig(alpha=1.6, hbar=2e-5, c_alpha=1e161, energy=-1e155,
                      gamma_strength=1e112)
    with pytest.raises(NonConvergence, match="^resolvent integral leaves double range"):
        delta_quadrature(cfg, 0.0)
