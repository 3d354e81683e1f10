import cmath
import math

import numpy as np
import pytest
from scipy.special import wofz

from fse.errors import DomainError, NonConvergence, ValidationError
from fse.foxh import eval_auto
from fse.result import TimeConfig
from fse.time_factor import time_factor
from tests.test_mittag import _ml_params


def _argument(cfg, t):
    """time_factor's Mittag-Leffler argument (t / (i hbar))^beta * E."""
    phase = cmath.exp(-0.5j * math.pi * cfg.beta)
    return (t / cfg.hbar) ** cfg.beta * phase * cfg.energy


def test_initial_value_is_exact():
    cfg = TimeConfig(beta=0.7, hbar=1.0, energy=-0.5, f0=2.0 - 1.0j)
    r = time_factor(cfg, 0.0)
    assert r.value == cfg.f0
    assert r.err_est == 0.0
    assert r.method == "closed"


@pytest.mark.parametrize("rel_tol", [5.0, 1e-16, math.nan])
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_an_invalid_rel_tol_is_refused_at_every_time(t, rel_tol):
    # t = 0 answered f0 whatever rel_tol was, while every t > 0 refused it
    with pytest.raises(ValidationError, match="rel_tol"):
        time_factor(TimeConfig(beta=0.7, energy=-0.5), t, rel_tol=rel_tol)


def test_first_order_is_plain_phase():
    rng = np.random.default_rng(53)
    for _ in range(40):
        e = float(rng.uniform(-3.0, -0.1))
        hbar = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.0, 6.0))
        cfg = TimeConfig(beta=1.0, hbar=hbar, energy=e, f0=1.0)
        want = cmath.exp(-1j * e * t / hbar)
        got = time_factor(cfg, t).value
        assert abs(got - want) < 1e-10
        assert abs(abs(got) - 1.0) < 1e-10


def test_first_order_group_law():
    cfg = TimeConfig(beta=1.0, hbar=1.0, energy=-0.8, f0=0.5 + 0.5j)
    rng = np.random.default_rng(59)
    for _ in range(20):
        t1 = float(rng.uniform(0.0, 3.0))
        t2 = float(rng.uniform(0.0, 3.0))
        lhs = time_factor(cfg, t1 + t2).value * cfg.f0
        rhs = time_factor(cfg, t1).value * time_factor(cfg, t2).value
        assert abs(lhs - rhs) < 1e-9


def test_half_order_matches_faddeeva():
    # E_{1/2}(z) = w(-i z) with w the scaled complementary error function
    cfg = TimeConfig(beta=0.5, hbar=1.0, energy=-0.5, f0=1.5)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        z = (t / cfg.hbar) ** 0.5 * cmath.exp(-0.25j * math.pi) * cfg.energy
        want = cfg.f0 * wofz(-1j * z)
        got = time_factor(cfg, t).value
        assert abs(got - want) <= 1e-10 * abs(want)


def test_routes_agree():
    for beta in (0.4, 0.7, 0.95):
        cfg = TimeConfig(beta=beta, hbar=1.0, energy=-1.2, f0=1.0)
        for t in (0.3, 1.0, 2.7):
            a = time_factor(cfg, t, 1e-9)
            b = eval_auto(_ml_params(beta), -_argument(cfg, t), 1e-8)
            assert abs(a.value - b.value) <= 1e-7 * abs(a.value)


def test_h_route_refuses_existence_boundary():
    # beta = 1 parks arg z right on the sector edge; strict gate
    cfg = TimeConfig(beta=1.0, hbar=1.0, energy=-1.2, f0=1.0)
    with pytest.raises(DomainError):
        eval_auto(_ml_params(cfg.beta), -_argument(cfg, 1.0))


def test_time_validation():
    cfg = TimeConfig(beta=0.7)
    with pytest.raises(ValidationError):
        time_factor(cfg, -0.1)
    with pytest.raises(ValidationError):
        time_factor(cfg, math.nan)


def test_overflowing_scale_refuses():
    # (t / hbar)^beta = inf would reach E_beta as a NaN argument
    with pytest.raises(NonConvergence, match="double range"):
        time_factor(TimeConfig(beta=0.5, hbar=1e-300), 1e300)


def test_config_validation():
    with pytest.raises(ValidationError):
        TimeConfig(beta=0.0)
    with pytest.raises(ValidationError):
        TimeConfig(beta=1.2)
    with pytest.raises(ValidationError):
        TimeConfig(beta=0.5, hbar=0.0)
    with pytest.raises(ValidationError):
        TimeConfig(beta=0.5, f0=complex(math.inf, 0.0))
