import cmath
import math

import numpy as np
import pytest

from fse.delta import _even_part_params, _odd_part_params
from fse.errors import (DegeneratePoles, DomainError, NonConvergence,
                        ValidationError, ZeroBase)
from fse.foxh import (FoxHParams, eval_auto, eval_contour, eval_series,
                      exists, from_meijer_g, invert_argument, lemma31_check,
                      reduce_params, scale_argument_power, shift_by_power,
                      sigma)
from fse.linear import _h_params
from fse.result import LinearConfig

EXP = FoxHParams(m=1, n=0, upper=(), lower=((0.0, 1.0),))
DIAG = FoxHParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),))


def test_sigma_examples():
    assert sigma(DIAG) == 2.0
    assert sigma(EXP) == 1.0
    # order-2 point-potential instance: 1/2 - 1/2 + 1 + 1/2 - 1/2 = 1
    assert abs(sigma(_even_part_params(2.0)) - 1.0) < 1e-15


def test_exists_gate():
    assert exists(DIAG, 1.0)
    assert not exists(DIAG, 0.0)
    assert not exists(DIAG, -1.0)  # arg z = pi sits on the open boundary


def test_series_closed_form_examples():
    assert abs(eval_series(EXP, 1.0).value - math.exp(-1.0)) < 1e-12
    assert abs(eval_series(DIAG, 1.0).value - 0.5) < 1e-10
    ml1 = FoxHParams(m=1, n=1, upper=((0.0, 1.0),),
                     lower=((0.0, 1.0), (0.0, 1.0)))
    assert abs(eval_series(ml1, 0.5).value - math.exp(-0.5)) < 1e-10


def test_contour_closed_form_examples():
    assert abs(eval_contour(EXP, 1.0).value - math.exp(-1.0)) < 1e-10
    assert abs(eval_contour(DIAG, 2.0).value - 1.0 / 3.0) < 1e-10


def test_exponential_identity_random_arguments():
    rng = np.random.default_rng(37)
    for _ in range(25):
        z = complex(rng.uniform(0.05, 4.0), rng.uniform(-1.0, 1.0))
        if abs(cmath.phase(z)) >= 0.49 * math.pi:
            continue
        r = eval_series(EXP, z)
        assert abs(r.value - cmath.exp(-z)) <= 5e-12 * abs(cmath.exp(-z))


def test_err_estimate_is_honest_for_exponential():
    for z in (0.3, 1.0, 2.5, 6.0):
        r = eval_series(EXP, z, 1e-8)
        assert abs(r.value - math.exp(-z)) <= max(r.err_est, 1e-16)


def test_scale_argument_power_examples():
    assert scale_argument_power(DIAG, 1.0) == DIAG
    lhs = eval_series(DIAG, 1.0).value
    rhs = 2.0 * eval_series(scale_argument_power(DIAG, 2.0), 1.0).value
    assert abs(lhs - rhs) < 1e-9
    lhs2 = eval_series(EXP, 4.0).value
    rhs2 = 0.5 * eval_series(scale_argument_power(EXP, 0.5), 2.0).value
    assert abs(lhs2 - rhs2) < 1e-12


def test_invert_argument_examples():
    assert invert_argument(invert_argument(DIAG)) == DIAG
    inv = invert_argument(DIAG)
    assert abs(eval_series(inv, 0.5).value - 1.0 / 3.0) < 1e-10
    flipped = invert_argument(EXP)
    assert flipped.m == 0 and flipped.n == 1
    assert abs(eval_series(flipped, 1.0).value - math.exp(-1.0)) < 1e-12


def test_shift_by_power_examples():
    assert shift_by_power(DIAG, 0.0) == FoxHParams(
        m=1, n=1, upper=(((0.0 + 0.0j), 1.0),), lower=(((0.0 + 0.0j), 1.0),))
    assert abs(eval_series(shift_by_power(DIAG, 1.0), 1.0).value - 0.5) < 1e-10
    got = eval_series(shift_by_power(EXP, 2.0), 1.5).value
    assert abs(got - 1.5 ** 2 * math.exp(-1.5)) < 1e-11


def test_reduce_params_cancels_pairs():
    padded = FoxHParams(m=2, n=0, upper=((0.3, 0.7),),
                        lower=((0.0, 1.0), (0.3, 0.7)))
    assert reduce_params(padded) == reduce_params(EXP)
    assert abs(eval_series(reduce_params(padded), 1.2).value
               - math.exp(-1.2)) < 1e-12


def test_from_meijer_g_unit_weights():
    params = from_meijer_g(1, 0, [], [0.0])
    assert params.lower == (((0.0 + 0.0j), 1.0),)
    assert abs(eval_series(params, 0.8).value - math.exp(-0.8)) < 1e-12


def test_lemma31_fixed_examples():
    lhs, rhs = lemma31_check(1.0, 0.0, 1.0, 1.0)
    assert abs(lhs - 0.5) < 1e-15 and abs(rhs - 0.5) < 1e-9
    lhs, rhs = lemma31_check(2.0, 1.0, 2.0, 0.25)
    assert abs(lhs - 1.0) < 1e-15 and abs(lhs - rhs) < 1e-9
    b = cmath.exp(0.25j * math.pi)
    lhs, rhs = lemma31_check(1.0, 0.5, 1.5, b)
    assert abs(lhs - 1.0 / (1.0 + b)) < 1e-15
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_lemma31_random_battery():
    rng = np.random.default_rng(41)
    done = 0
    while done < 50:
        x = float(rng.uniform(0.1, 5.0))
        rho = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.2, 5.0)) * cmath.exp(
            1j * float(rng.uniform(-0.9 * math.pi, 0.9 * math.pi)))
        try:
            lhs, rhs = lemma31_check(x, rho, alpha, b)
        except (NonConvergence, DegeneratePoles):
            continue
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)
        done += 1


def _solution_instances():
    # every parameter set the two potentials feed the evaluator
    for alpha in (1.2, 1.5, 1.8, 2.0):
        yield _even_part_params(alpha)
        yield _odd_part_params(alpha)
        for theta in (0.0, 0.2, -0.2):
            if abs(theta) > min(alpha, 2.0 - alpha):
                continue
            cfg = LinearConfig(alpha=alpha, theta=theta, hbar=1.0,
                               c_alpha=1.0, energy=0.0, slope=1.0)
            yield _h_params(cfg)


def test_route_agreement_on_solution_instances():
    # refusals must be typed and still match the contour loosely; a wrong
    # number returned with a confident estimate is the real failure mode
    compared = 0
    refused = 0
    for params in _solution_instances():
        for z in (0.05, 0.1, 0.3, 0.7, 1.0, 1.8, 3.0, 5.0, 8.0, 10.0):
            ref = eval_contour(params, z, 1e-8)
            try:
                got = eval_series(params, z, 1e-8)
            except (NonConvergence, DegeneratePoles):
                refused += 1
                loose = eval_series(params, z, 1e-2)
                rel = abs(loose.value - ref.value) / max(abs(ref.value), 1e-300)
                assert rel <= 1e-2
                continue
            compared += 1
            rel = abs(got.value - ref.value) / max(abs(ref.value), 1e-300)
            assert rel <= 1e-8
    assert compared / float(compared + refused) >= 0.70


def test_series_refuses_near_collision():
    # two pole chains 3e-10 apart: inside the refusal band, outside the
    # exact-collision band, so this must not be silently summed
    params = FoxHParams(m=2, n=0, upper=(),
                        lower=((0.0, 1.0), (0.5 + 1.5e-10, 0.5)))
    with pytest.raises(DegeneratePoles):
        eval_series(params, 0.5)


def test_series_handles_exact_double_poles():
    # the same chains at exact collision have well-defined residues
    params = FoxHParams(m=2, n=0, upper=(),
                        lower=((0.0, 1.0), (0.5, 0.5)))
    a = eval_series(params, 0.8, 1e-9)
    b = eval_contour(params, 0.8, 1e-9)
    assert abs(a.value - b.value) <= 1e-8 * abs(b.value)


def test_existence_refusals():
    with pytest.raises(ZeroBase):
        eval_series(EXP, 0.0)
    with pytest.raises(DomainError):
        eval_series(EXP, -1.0)  # arg z = pi outside sector pi/2
    shrunk = FoxHParams(m=1, n=0, upper=((0.5, 3.0),), lower=((0.0, 1.0),))
    assert sigma(shrunk) < 0.0
    with pytest.raises(DomainError):
        eval_contour(shrunk, 1.0)


def test_series_refuses_catastrophic_cancellation():
    # far outside the useful float64 range the error gate must trip
    with pytest.raises(NonConvergence):
        eval_series(_even_part_params(1.5), 30.0, 1e-10)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        FoxHParams(m=2, n=0, upper=(), lower=((0.0, 1.0),))
    with pytest.raises(ValidationError):
        FoxHParams(m=1, n=0, upper=(), lower=((0.0, -1.0),))


def test_auto_falls_back_to_contour():
    # series refuses the near-collision; auto must hand it to the contour
    params = FoxHParams(m=2, n=0, upper=(),
                        lower=((0.0, 1.0), (0.5 + 1.5e-10, 0.5)))
    r = eval_auto(params, 0.5, 1e-8)
    assert r.method == "contour"
    merged = FoxHParams(m=2, n=0, upper=(), lower=((0.0, 1.0), (0.5, 0.5)))
    ref = eval_series(merged, 0.5, 1e-9)
    assert abs(r.value - ref.value) <= 1e-6 * abs(ref.value)


@pytest.mark.parametrize("part, alpha, zeta", [
    (_even_part_params, 1.0717734742863902, 6.3625),
    (_odd_part_params, 1.0668074022980814, 7.575),
])
def test_auto_is_honest_beside_pole_near_collisions(part, alpha, zeta):
    # pole chains that nearly meet make some residues large and sensitive
    # to the rounded pole position; the series must either absorb that into
    # err_est or refuse, never return a value that misses rel_tol
    theta = 0.7 * min(alpha, 2.0 - alpha)
    z = zeta * cmath.exp(-1j * theta * math.pi / (2.0 * alpha))
    params = part(alpha)
    ref = eval_contour(params, z, 1e-9)
    try:
        got = eval_auto(params, z, 1e-9)
    except (NonConvergence, DegeneratePoles):
        return
    diff = abs(got.value - ref.value)
    assert diff <= 1e-9 * abs(ref.value)
    assert diff <= got.err_est + ref.err_est
