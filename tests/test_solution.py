import random

import pytest

from fse.delta import delta_closed_form, delta_quadrature
from fse import solution
from fse.errors import EvaluationError, ValidationError
from fse.linear import linear_closed_form, linear_quadrature
from fse.result import DeltaConfig, LinearConfig, TimeConfig
from fse.solution import full_solution
from fse.time_factor import time_factor


def test_point_potential_product():
    tcfg = TimeConfig(beta=0.7, hbar=1.0, energy=-0.5)
    dcfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    r = full_solution(dcfg, 0.8, 1.3, beta=0.7)
    want = time_factor(tcfg, 1.3).value * delta_closed_form(dcfg, 0.8).value
    assert abs(r.value - want) <= 1e-11 * abs(want)
    assert "*" in r.method
    assert r.err_est > 0.0


def test_origin_takes_the_closed_form():
    # phi(0) is the closed form's k = 0 residue; the oracle checks it
    tcfg = TimeConfig(beta=1.0, hbar=1.0, energy=-0.5)
    dcfg = DeltaConfig(alpha=1.5, theta=0.0, c_alpha=1.0, energy=-0.5)
    r = full_solution(dcfg, 0.0, 0.4)
    f = time_factor(tcfg, 0.4)
    q = delta_quadrature(dcfg, 0.0)
    assert r.method == f.method + "*closed[series]"
    want = f.value * q.value
    assert abs(r.value - want) <= r.err_est + abs(f.value) * q.err_est + abs(q.value) * f.err_est


def test_ramp_potential_product():
    tcfg = TimeConfig(beta=0.9, hbar=1.0, energy=0.5)
    lcfg = LinearConfig(alpha=1.5, theta=0.3, hbar=1.0, c_alpha=1.0,
                        energy=0.5, slope=1.0)
    r = full_solution(lcfg, 1.1, 0.6, beta=0.9)
    want = time_factor(tcfg, 0.6).value * linear_closed_form(lcfg, 1.1).value
    assert abs(r.value - want) <= 1e-13 * abs(want)


def test_time_factor_shares_hbar_and_energy_with_the_space_config():
    # one source for hbar and E: f(t) is built from the space config's
    dcfg = DeltaConfig(alpha=1.7, theta=0.2, hbar=0.8, c_alpha=1.2,
                       energy=-0.9)
    lcfg = LinearConfig(alpha=1.4, theta=-0.3, hbar=1.3, c_alpha=0.9,
                        energy=-0.4, slope=0.7)
    for cfg, space, x in ((dcfg, delta_closed_form, -0.6),
                          (lcfg, linear_closed_form, 0.3),
                          (lcfg, linear_closed_form, -0.5)):
        tcfg = TimeConfig(beta=0.6, hbar=cfg.hbar, energy=cfg.energy,
                          f0=2.0 - 1.0j)
        r = full_solution(cfg, x, 0.9, beta=0.6, f0=2.0 - 1.0j)
        f = time_factor(tcfg, 0.9, 1e-9)
        phi = space(cfg, x, 1e-9)
        assert r.value == f.value * phi.value
        assert r.method == "%s*%s" % (f.method, phi.method)


def test_unknown_space_config_refused(monkeypatch):
    # the config's type is checked before anything is read or evaluated
    def no_time_factor(*args):
        raise AssertionError("time factor evaluated for an unknown config")

    monkeypatch.setattr(solution, "time_factor", no_time_factor)
    for cfg in (TimeConfig(beta=0.5), None):
        with pytest.raises(ValidationError, match="space config"):
            full_solution(cfg, 1.0, 1.0)
    with pytest.raises(ValidationError):
        full_solution(DeltaConfig(alpha=1.5, c_alpha=1.0), 1.0, 1.0, beta=0.0)


def test_space_route_quadrature_takes_the_oracle():
    # the route `fse delta|linear --method quadrature` evaluates, in process
    dcfg = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0, energy=-1.0)
    lcfg = LinearConfig(alpha=1.5, theta=0.3, c_alpha=1.0, energy=0.5)
    for cfg, oracle in ((dcfg, delta_quadrature), (lcfg, linear_quadrature)):
        got = solution._space_route(cfg, 1e-8, "quadrature")(0.7)
        want = oracle(cfg, 0.7, abs_tol=1e-8)
        assert (got.value, got.err_est, got.method) == (want.value, want.err_est, want.method)


def _extreme_scale(rng):
    return 10.0 ** rng.uniform(-200.0, 200.0)


def test_extreme_but_valid_scales_refuse_with_a_typed_error():
    # hbar, C, |E|, gamma, k_norm and the slope log-uniform in
    # [1e-200, 1e200]: every route answers or refuses with a typed error,
    # never a bare ZeroDivisionError, OverflowError or ValueError, nor a
    # numpy RuntimeWarning (an error under this suite's warning filter)
    rng = random.Random(20261020)
    for _ in range(300):
        alpha = rng.uniform(1.05, 2.0)
        theta = rng.uniform(-1.0, 1.0) * min(alpha, 2.0 - alpha)
        well = DeltaConfig(alpha=alpha, theta=theta, hbar=_extreme_scale(rng),
                           c_alpha=_extreme_scale(rng), energy=-_extreme_scale(rng),
                           gamma_strength=_extreme_scale(rng), k_norm=_extreme_scale(rng))
        ramp = LinearConfig(alpha=alpha, theta=theta, hbar=_extreme_scale(rng),
                            c_alpha=_extreme_scale(rng),
                            energy=rng.choice((-1.0, 1.0)) * _extreme_scale(rng),
                            slope=_extreme_scale(rng))
        clock = TimeConfig(beta=rng.uniform(0.05, 1.0), hbar=_extreme_scale(rng),
                           energy=rng.choice((-1.0, 1.0)) * _extreme_scale(rng))
        x = rng.choice((0.0, 1.0, -2.5, _extreme_scale(rng), -_extreme_scale(rng)))
        t = rng.choice((0.5, _extreme_scale(rng)))
        for call in (lambda: delta_closed_form(well, x, 1e-6),
                     lambda: delta_quadrature(well, x, 1e-6),
                     lambda: linear_closed_form(ramp, x, 1e-6),
                     lambda: linear_quadrature(ramp, x, 1e-6),
                     lambda: full_solution(rng.choice((well, ramp)), x, t,
                                           rng.uniform(0.1, 1.0), 1.0, 1e-6),
                     lambda: time_factor(clock, t, 1e-6)):
            try:
                call()
            except (ValidationError, EvaluationError):
                pass
