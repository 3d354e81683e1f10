import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import fse
from fse import delta, linear, quadrature
from fse.accel import euler_alternating
from fse.errors import (EvaluationError, GridTooCoarse, QuadratureFailure,
                        ValidationError)
from fse.linear import scaled_coordinate
from fse.quadrature import (GridSpec, adaptive, osc_semi_inf, ray_segment,
                            tail_algebraic)
from fse.result import DeltaConfig
from fse.verify import _fourier_pair_check
from perfbench.workloads import ROUNDS


def _scalar_panel_est(f, a, b):
    # reference panel rule: one call of f per Gauss node, summed in order,
    # panel by panel over the interval arrays a, b
    vals, errs = [], []
    for lo, hi in zip(a, b):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        sums = []
        for order in (15, 30):
            x, w = np.polynomial.legendre.leggauss(order)
            sums.append(sum(half * wi * f(half * xi + mid)
                            for xi, wi in zip(x, w)))
        vals.append(sums[1])
        errs.append(abs(sums[1] - sums[0]))
    return np.array(vals), np.array(errs)


def _sequential_osc_semi_inf(g, omega, tol):
    # reference: one adaptive call per half-period piece, in order
    half = math.pi / omega
    head, head_err, _ = adaptive(g, 0.0, half, 0.1 * tol)
    pieces = []
    perr = 0.0
    last = None
    for j in range(quadrature.OSC_HALF_PERIODS):
        lo = half + j * half
        v, e, _ = adaptive(g, lo, lo + half, 0.05 * tol / (j + 1.0) ** 2,
                           max_panels=60)
        pieces.append(v)
        perr += e
        if j >= 7 and j % 2 == 1:
            est, spread = (v[-1] for v in euler_alternating(pieces))
            if last is not None:
                change = abs(est - last[0])
                if max(spread, last[1], change) < 0.1 * tol:
                    break
            last = est, spread
    return head + est, head_err + perr + 2.0 * (spread + change), len(pieces)


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


@pytest.mark.parametrize("g", [lambda p: np.cos(p) / (1.0 + p * p),
                               lambda p: p * np.sin(p) / (1.0 + p * p)])
def test_batched_pieces_match_the_sequential_loop(g):
    val, err, work = osc_semi_inf(g, 1.0, 1e-12)
    ref, ref_err, ref_work = _sequential_osc_semi_inf(g, 1.0, 1e-12)
    assert work == ref_work
    assert abs(val - ref) <= 0.1 * (err + ref_err)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_pieces_match_the_sequential_loop_on_the_oracle(
        seed, monkeypatch):
    # the oracle benchmark's first round of oscillatory delta points
    points = [p for p in ROUNDS["oracle"](seed, 0)
              if p.route == "delta_quadrature" and p.coord != 0.0]
    assert points

    def run():
        out = []
        for p in points:
            try:
                out.append(fse.delta_quadrature(p.cfg, p.coord, **p.tol_kwargs))
            except EvaluationError as exc:
                out.append(type(exc))
        return out

    got = run()
    monkeypatch.setattr(delta, "osc_semi_inf", _sequential_osc_semi_inf)
    for a, b in zip(got, run()):
        if isinstance(b, type):
            assert a is b
            continue
        assert a.work == b.work
        assert abs(a.value - b.value) <= 0.1 * (a.err_est + b.err_est)


def test_batched_pieces_cut_integrand_calls(monkeypatch):
    calls = []

    def counting(engine):
        def run(g, omega, tol):
            def counted(p):
                calls[-1] += 1
                return g(p)
            calls.append(0)
            return engine(counted, omega, tol)
        return run

    cfg = DeltaConfig(alpha=1.5, theta=0.25)
    results = []
    for engine in (osc_semi_inf, _sequential_osc_semi_inf):
        monkeypatch.setattr(delta, "osc_semi_inf", counting(engine))
        results.append(fse.delta_quadrature(cfg, 1.0))
    assert results[0].work == results[1].work
    assert 3 * calls[0] <= calls[1]


def _resolvent(cfg, x):
    # delta_quadrature's integrand 2 Re[e^(ikp) / (C p^alpha e^(i theta pi/2)
    # - E)], k = x / hbar, as an array function and as an mpmath function
    k = x / cfg.hbar
    rot = cmath.exp(1j * cfg.theta * math.pi / 2.0)
    mrot = mp.expjpi(mp.mpf(cfg.theta) / 2)

    def g(p):
        return 2.0 * (np.exp(1j * k * p) / (cfg.c_alpha * p ** cfg.alpha * rot
                                            - cfg.energy)).real

    def gm(p):
        return 2 * mp.re(mp.expj(k * p) / (cfg.c_alpha * p ** mp.mpf(cfg.alpha) * mrot
                                           - cfg.energy))
    return g, gm, abs(k)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_panel_call_holds_the_head_and_the_first_pieces(seed, monkeypatch):
    # the oracle benchmark's first round of oscillatory delta points: the
    # first call evaluates the head's six graded panels and the first
    # panels of OSC_BATCH pieces; on this round no piece misses its
    # tolerance, so every later call bisects the head's first panel
    # [0, pi/(32 omega)] toward p = 0
    points = [p for p in ROUNDS["oracle"](seed, 0)
              if p.route == "delta_quadrature" and p.coord != 0.0]
    panel_est = quadrature._panel_est
    calls = []

    def counted(f, a, b):
        calls.append((a.size, a[0], b[-1]))
        return panel_est(f, a, b)

    monkeypatch.setattr(quadrature, "_panel_est", counted)
    for p in points:
        calls.clear()
        fse.delta_quadrature(p.cfg, p.coord, **p.tol_kwargs)
        half = math.pi / abs(p.coord / p.cfg.hbar)
        assert calls[0][0] == 6 + quadrature.OSC_BATCH
        assert all(n == 2 and a == 0.0 and b <= half / 32 for n, a, b in calls[1:])


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
@pytest.mark.parametrize("side", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("x", [0.2, 3.0])
def test_graded_head_claim_covers_a_30_digit_head(alpha, side, x):
    # g zero past the head [0, pi/omega] leaves the head alone; its
    # p^alpha term is not smooth at p = 0
    cfg = DeltaConfig(alpha=alpha, theta=side * min(alpha, 2.0 - alpha))
    g, gm, omega = _resolvent(cfg, x)
    half = math.pi / omega
    val, err, _ = osc_semi_inf(lambda p: np.where(p < half, g(p), 0.0), omega, 1e-9)
    with mp.workdps(30):
        want = mp.quad(gm, [0, 1, half] if half > 1 else [0, half])
    assert abs(val - complex(want)) <= err


@pytest.mark.parametrize("seed, r, i", [(2, 32, 7), (3, 32, 6)])
def test_oscillatory_tail_claim_covers_a_30_digit_tail(seed, r, i):
    # the half-period pieces and their Euler sum alone (g zero on the
    # head); at these oracle points Euler's estimate stalls near the sign
    # change of its error, so its last spread and change under-count it
    p = ROUNDS["oracle"](seed, r)[i]
    g, gm, omega = _resolvent(p.cfg, p.coord)
    half = math.pi / omega
    val, err, _ = osc_semi_inf(lambda q: np.where(q > half, g(q), 0.0), omega,
                               p.tol_kwargs["abs_tol"])
    with mp.workdps(30):
        want = mp.quadosc(gm, [half, mp.inf], omega=omega)
    assert abs(val - complex(want)) <= err


@pytest.mark.parametrize("seed, r, i", [(2, 32, 7), (3, 32, 6)])
def test_a_panel_claim_covers_its_rounding(seed, r, i):
    # the first panel of every half-period piece these oracle points sum:
    # |G30 - G15| alone sits up to 381x below a piece's true error there
    # (s2 r32 #7, piece 12), where both rules agree to the rounding of
    # the nodes and of g; the claim's floor covers it
    p = ROUNDS["oracle"](seed, r)[i]
    g, gm, omega = _resolvent(p.cfg, p.coord)
    half = math.pi / omega
    lo = half + np.arange(fse.delta_quadrature(p.cfg, p.coord, **p.tol_kwargs).work) * half
    hi = lo + half
    val, err = quadrature._panel_est(g, lo, hi)
    with mp.workdps(30):
        want = [complex(mp.quad(gm, [a, b])) for a, b in zip(lo, hi)]
    assert [abs(v - w) <= e for v, w, e in zip(val, want, err)] == [True] * lo.size


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_euler_call_per_batch_of_pieces(seed, monkeypatch):
    # the oracle benchmark's first round of oscillatory delta points: one
    # euler_alternating call gives every stop attempt of a batch (no piece
    # misses its tolerance on this round), over all the pieces in so far
    points = [p for p in ROUNDS["oracle"](seed, 0)
              if p.route == "delta_quadrature" and p.coord != 0.0]
    panel_est, euler = quadrature._panel_est, quadrature.euler_alternating
    batches, sums = [], []

    def counted_panels(f, a, b):
        batches.append(a.size > 2)  # a bisection step holds two panels
        return panel_est(f, a, b)

    def counted_euler(terms):
        sums.append(len(terms))
        return euler(terms)

    monkeypatch.setattr(quadrature, "_panel_est", counted_panels)
    monkeypatch.setattr(quadrature, "euler_alternating", counted_euler)
    for p in points:
        batches.clear()
        sums.clear()
        fse.delta_quadrature(p.cfg, p.coord, **p.tol_kwargs)
        n = sum(batches)
        assert n >= 1 and sums == [min((k + 1) * quadrature.OSC_BATCH,
                                       quadrature.OSC_HALF_PERIODS) for k in range(n)]


def _ray_reference(cfg, x, angle, radius):
    # linear_quadrature's value, 2 n_norm Re of the integral of
    # e^(iyw + i rot w^(alpha+1)) along the ray w = t e^(i angle), t in
    # [0, radius], at 30 digits; the tail past radius is not in its claim
    y = scaled_coordinate(cfg, x)
    with mp.workdps(30):
        ap1 = mp.mpf(cfg.alpha) + 1
        rot = mp.expjpi(mp.mpf(cfg.theta) / 2)
        e = mp.expj(mp.mpf(angle))
        integral = mp.quad(lambda t: mp.exp(1j * y * t * e + 1j * rot * (t * e) ** ap1) * e,
                           mp.linspace(0, mp.mpf(radius), 9))
        return 2 * cfg.n_norm * float(mp.re(integral))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adaptive_claims_cover_the_oracle_ramps_and_x0(seed, monkeypatch):
    # adaptive starts from ADAPTIVE_START panels: on the oracle's first
    # round its ramps, both sides of the turning point, against their ray
    # at 30 digits, and its x = 0 point against the closed form
    points = [p for p in ROUNDS["oracle"](seed, 0)
              if p.route == "linear_quadrature" or p.coord == 0.0]
    assert {p.route for p in points} == {"linear_quadrature", "delta_quadrature"}
    assert min(p.scaled for p in points) < 0.0 < max(p.scaled for p in points)
    rays = []

    def recorded(f, angle, radius, tol):
        rays.append((angle, radius))
        return ray_segment(f, angle, radius, tol)

    monkeypatch.setattr(linear, "ray_segment", recorded)
    for p in points:
        got = getattr(fse, p.route)(p.cfg, p.coord, **p.tol_kwargs)
        if p.route == "linear_quadrature":
            want = _ray_reference(p.cfg, p.coord, *rays[-1])
        else:
            want = fse.delta_closed_form(p.cfg, 0.0, rel_tol=1e-13).value
        assert abs(got.value - want) <= got.err_est


def test_algebraic_tail():
    # g ~ p^(-decay-1) beyond the cut
    val, err, _ = tail_algebraic(lambda p: p ** -2.5, 2.0, 1.5, 1e-12)
    want = 2.0 ** -1.5 / 1.5
    assert abs(val - want) < 1e-12


def test_algebraic_tail_refuses_underflowing_map():
    # decay 0.01 needs the map v^300, which underflows to u = 0 near v = 0
    with pytest.raises(QuadratureFailure):
        tail_algebraic(lambda p: p ** -1.01, 2.0, 0.01, 1e-10)


def test_algebraic_tail_refuses_invalid_decay_and_a_non_finite_integral():
    with pytest.raises(ValidationError, match="decay exponent must be positive"):
        tail_algebraic(lambda p: p ** -2.0, 1.0, 0.0, 1e-10)
    with pytest.raises(QuadratureFailure, match="not finite"):
        tail_algebraic(lambda p: np.full_like(p, math.nan), 1.0, 1.0, 1e-10)


def test_oscillatory_refuses_a_nonpositive_frequency():
    for omega in (0.0, -1.0):
        with pytest.raises(ValidationError, match="frequency hint must be positive"):
            osc_semi_inf(lambda p: np.cos(p) / (1.0 + p * p), omega, 1e-10)


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
    for start, stop in ((math.inf, 1.0), (0.0, math.nan), (-math.inf, math.inf)):
        with pytest.raises(ValidationError, match="endpoints must be finite"):
            GridSpec(start, stop, 32)
    for start, stop in ((-1e308, 1e308), (-1e308, 8e307)):
        with pytest.raises(ValidationError, match="grid span"):
            GridSpec(start, stop, 3)
    for count in (2.5, 3.0, math.nan, "5"):
        with pytest.raises(ValidationError, match="grid count must be an integer"):
            GridSpec(0.0, 1.0, count)
    g = GridSpec(-1.0, 1.0, 5)
    assert np.allclose(g.nodes(), np.linspace(-1.0, 1.0, 5))
    g = GridSpec(0.0, 1.0, np.int64(3))
    assert type(g.count) is int and list(g.nodes()) == [0.0, 0.5, 1.0]


def test_fourier_pair_gaussian():
    grid = GridSpec(-8.0, 8.0, 256)
    x = grid.nodes()
    roundtrip, ratio = _fourier_pair_check(np.exp(-0.5 * x * x), grid)
    assert roundtrip < 1e-6
    assert abs(ratio - 1.0) < 1e-10


def test_fourier_pair_modulated_gaussian():
    grid = GridSpec(-10.0, 10.0, 512)
    x = grid.nodes()
    psi = np.exp(-0.5 * x * x) * np.exp(3j * x)
    roundtrip, ratio = _fourier_pair_check(psi, grid, hbar=0.7)
    assert roundtrip < 1e-6
    assert abs(ratio - 1.0) < 1e-8


def test_fourier_pair_refuses_coarse_grid():
    grid = GridSpec(-2.0, 2.0, 128)
    x = grid.nodes()
    with pytest.raises(GridTooCoarse):
        _fourier_pair_check(np.exp(-0.5 * x * x), grid)


def test_fourier_pair_input_validation():
    grid = GridSpec(-4.0, 4.0, 64)
    with pytest.raises(ValidationError):
        _fourier_pair_check(np.zeros(32), grid)
    bad = np.zeros(64)
    bad[3] = math.inf
    with pytest.raises(ValidationError):
        _fourier_pair_check(bad, grid)
    for hbar in (math.nan, math.inf, 0.0):
        with pytest.raises(ValidationError, match="hbar must be positive and finite"):
            _fourier_pair_check(np.ones(64), grid, hbar=hbar)
    roundtrip, ratio = _fourier_pair_check(np.zeros(64), grid)
    assert roundtrip == 0.0 and ratio == 1.0
