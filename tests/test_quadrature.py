import cmath
import math

import numpy as np
import pytest

import fse
from fse import quadrature
from fse.errors import (GridTooCoarse, QuadratureFailure, ValidationError)
from fse.quadrature import (GridSpec, adaptive, fourier_pair_check,
                            osc_semi_inf, ray_segment, tail_algebraic)
from perfbench.workloads import ROUNDS


def _scalar_panel_est(f, a, b):
    # reference panel rule: one call of f per Gauss node, summed in order
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    sums = []
    for order in (15, 30):
        x, w = np.polynomial.legendre.leggauss(order)
        sums.append(sum(half * wi * f(half * xi + mid) for xi, wi in zip(x, w)))
    return sums[1], abs(sums[1] - sums[0])


def test_adaptive_sine_lobe():
    val, err, work = adaptive(np.sin, 0.0, math.pi, 1e-12)
    assert abs(val - 2.0) < 1e-12
    assert abs(val - 2.0) <= max(err, 1e-12)
    assert work >= 1


def test_adaptive_peaked_integrand():
    # narrow Lorentzian, exact arctan value
    g = 1e-3
    f = lambda x: g / (x * x + g * g)
    want = math.atan(1.0 / g) - math.atan(-1.0 / g)
    val, err, _ = adaptive(f, -1.0, 1.0, 1e-10)
    assert abs(val - want) < 1e-8


def test_oscillatory_semi_infinite():
    want = 0.5 * math.pi * math.exp(-1.0)
    val, err, _ = osc_semi_inf(lambda p: np.cos(p) / (1.0 + p * p),
                               1.0, 1e-12)
    assert abs(val - want) < 1e-10
    val2, _, _ = osc_semi_inf(lambda p: p * np.sin(p) / (1.0 + p * p),
                              1.0, 1e-12)
    assert abs(val2 - want) < 1e-10


def test_algebraic_tail():
    # g ~ p^(-decay-1) beyond the cut
    val, err, _ = tail_algebraic(lambda p: p ** -2.5, 2.0, 1.5, 1e-12)
    want = 2.0 ** -1.5 / 1.5
    assert abs(val - want) < 1e-12


def test_algebraic_tail_refuses_underflowing_map():
    # decay 0.01 needs the map v^300, which underflows to u = 0 near v = 0
    with pytest.raises(QuadratureFailure):
        tail_algebraic(lambda p: p ** -1.01, 2.0, 0.01, 1e-10)


def test_rotated_ray_fresnel():
    # int_0^inf exp(i w^2) dw along the pi/4 ray
    val, err, _ = ray_segment(lambda w: np.exp(1j * w * w),
                              0.25 * math.pi, 10.0, 1e-12)
    want = 0.5 * math.sqrt(math.pi) * cmath.exp(0.25j * math.pi)
    assert abs(val - want) < 1e-11


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_panels_match_the_per_node_rule(seed, monkeypatch):
    # the oracle benchmark's first round through both panel rules: the
    # same bisection (work) and values well inside the error claims
    points = ROUNDS["oracle"](seed, 0)

    def run():
        return [getattr(fse, p.route)(p.cfg, p.coord, **p.tol_kwargs)
                for p in points]

    got = run()
    monkeypatch.setattr(quadrature, "_panel_est", _scalar_panel_est)
    for a, b in zip(got, run()):
        assert a.work == b.work
        assert abs(a.value - b.value) <= 0.1 * (a.err_est + b.err_est)


def test_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(1.0, -1.0, 32)
    with pytest.raises(ValidationError):
        GridSpec(-1.0, 1.0, 1)
    g = GridSpec(-1.0, 1.0, 5)
    assert np.allclose(g.nodes(), np.linspace(-1.0, 1.0, 5))


def test_fourier_pair_gaussian():
    grid = GridSpec(-8.0, 8.0, 256)
    x = grid.nodes()
    roundtrip, ratio = fourier_pair_check(np.exp(-0.5 * x * x), grid)
    assert roundtrip < 1e-6
    assert abs(ratio - 1.0) < 1e-10


def test_fourier_pair_modulated_gaussian():
    grid = GridSpec(-10.0, 10.0, 512)
    x = grid.nodes()
    psi = np.exp(-0.5 * x * x) * np.exp(3j * x)
    roundtrip, ratio = fourier_pair_check(psi, grid, hbar=0.7)
    assert roundtrip < 1e-6
    assert abs(ratio - 1.0) < 1e-8


def test_fourier_pair_refuses_coarse_grid():
    grid = GridSpec(-2.0, 2.0, 128)
    x = grid.nodes()
    with pytest.raises(GridTooCoarse):
        fourier_pair_check(np.exp(-0.5 * x * x), grid)


def test_fourier_pair_input_validation():
    grid = GridSpec(-4.0, 4.0, 64)
    with pytest.raises(ValidationError):
        fourier_pair_check(np.zeros(32), grid)
    bad = np.zeros(64)
    bad[3] = math.inf
    with pytest.raises(ValidationError):
        fourier_pair_check(bad, grid)
    roundtrip, ratio = fourier_pair_check(np.zeros(64), grid)
    assert roundtrip == 0.0 and ratio == 1.0
