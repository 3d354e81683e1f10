import cmath
import math
import random
import re
import sys
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fse import foxh
from fse.delta import _even_part_params, _odd_part_params, delta_closed_form
from fse.errors import (DegeneratePoles, DomainError, EvaluationError,
                        NoSeparatingContour, NonConvergence, PoleOfGamma,
                        ValidationError, ZeroBase)
from fse.foxh import (FoxHParams, _finish, _gamma_forms, _log_theta, _reflection_pairs,
                      _series_recipe, _term_part, eval_auto, eval_contour,
                      eval_series, exists, invert_argument, reduce_params,
                      series_index, sigma)
from fse.linear import _h_params
from fse.result import LinearConfig
from fse.verify import _lemma31_check, _scale_argument_power, _shift_by_power
from tests.collision_refs import CONTOUR_SETS, DELTA0_SETS
from tests.collision_refs import SETS as COLLISION_SETS
from tests.collision_refs import line_integral

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


TINY_PHASE_ARG = 1e300 + 1e-300j  # cmath.phase of it overflows


def test_exists_answers_where_the_phase_underflows():
    assert exists(_even_part_params(1.5), TINY_PHASE_ARG) is True
    assert exists(DIAG, -1e300 + 1e-300j) is False


@pytest.mark.parametrize("route", [eval_series, eval_contour, eval_auto])
def test_routes_refuse_a_huge_argument_with_a_tiny_phase(route):
    with pytest.raises(NonConvergence):
        route(_even_part_params(1.5), TINY_PHASE_ARG, 1e-9)


def test_series_closed_form_examples():
    assert abs(eval_series(EXP, 1.0).value - math.exp(-1.0)) < 1e-12
    # DIAG has series index 0: the series refuses it, the contour answers
    with pytest.raises(NonConvergence):
        eval_series(DIAG, 1.0)
    assert abs(eval_contour(DIAG, 1.0).value - 0.5) < 1e-10
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
    assert _scale_argument_power(DIAG, 1.0) == DIAG
    lhs = eval_contour(DIAG, 1.0).value
    rhs = 2.0 * eval_contour(_scale_argument_power(DIAG, 2.0), 1.0).value
    assert abs(lhs - rhs) < 1e-9
    with pytest.raises(NonConvergence):
        eval_series(_scale_argument_power(DIAG, 2.0), 1.0)
    lhs2 = eval_series(EXP, 4.0).value
    rhs2 = 0.5 * eval_series(_scale_argument_power(EXP, 0.5), 2.0).value
    assert abs(lhs2 - rhs2) < 1e-12


def test_invert_argument_examples():
    assert invert_argument(invert_argument(DIAG)) == DIAG
    inv = invert_argument(DIAG)
    assert abs(eval_contour(inv, 0.5).value - 1.0 / 3.0) < 1e-10
    with pytest.raises(NonConvergence):
        eval_series(inv, 0.5)
    flipped = invert_argument(EXP)
    assert flipped.m == 0 and flipped.n == 1
    assert abs(eval_series(flipped, 1.0).value - math.exp(-1.0)) < 1e-12


def test_shift_by_power_examples():
    assert _shift_by_power(DIAG, 0.0) == FoxHParams(
        m=1, n=1, upper=(((0.0 + 0.0j), 1.0),), lower=(((0.0 + 0.0j), 1.0),))
    assert abs(eval_contour(_shift_by_power(DIAG, 1.0), 1.0).value - 0.5) < 1e-10
    with pytest.raises(NonConvergence):
        eval_series(_shift_by_power(DIAG, 1.0), 1.0)
    got = eval_series(_shift_by_power(EXP, 2.0), 1.5).value
    assert abs(got - 1.5 ** 2 * math.exp(-1.5)) < 1e-11


def test_reduce_params_cancels_pairs():
    padded = FoxHParams(m=2, n=0, upper=((0.3, 0.7),),
                        lower=((0.0, 1.0), (0.3, 0.7)))
    assert reduce_params(padded) == reduce_params(EXP)
    assert abs(eval_series(reduce_params(padded), 1.2).value
               - math.exp(-1.2)) < 1e-12
    # a set with nothing to cancel comes back as it is, not rebuilt
    for params in (EXP, _even_part_params(1.37), _odd_part_params(1.37),
                   _h_params(LinearConfig(alpha=1.6, theta=0.3))):
        assert reduce_params(params) is params


def test_a_padded_set_answers_through_its_own_plan_with_its_reduced_bits(monkeypatch):
    # plans are keyed on the set as given: a set that reduces to EXP has a
    # plan of its own, which holds the reduced set, and both routes answer
    # from it with the bits of EXP
    plans = _fresh_plans(monkeypatch)
    padded = FoxHParams(m=2, n=0, upper=((0.3, 0.7),), lower=((0.0, 1.0), (0.3, 0.7)))
    for route in (eval_series, eval_contour):
        assert route(padded, 1.2, 1e-10) == route(EXP, 1.2, 1e-10)
    assert foxh._plan(padded) is not foxh._plan(EXP)
    assert foxh._plan(padded).params == EXP and plans.cache_info().currsize == 2


@pytest.mark.parametrize("route", [eval_series, eval_contour, eval_auto])
def test_a_warm_route_call_derives_nothing_of_its_set(monkeypatch, route):
    # the plan derives the reduced set and its sector when it is built: a
    # later call on the set at a new z reduces nothing and takes no sigma,
    # and a call on a new set takes one of each
    _fresh_plans(monkeypatch)
    params = _even_part_params(1.37)
    route(params, 0.8 * cmath.exp(0.3j), 1e-9)
    calls = []
    for name in ("reduce_params", "sigma"):
        fn = getattr(foxh, name)
        monkeypatch.setattr(foxh, name,
                            lambda p, fn=fn, name=name: calls.append(name) or fn(p))
    route(params, 1.1 * cmath.exp(-0.2j), 1e-9)
    assert calls == []
    route(_odd_part_params(1.37), 1.1 * cmath.exp(-0.2j), 1e-9)
    assert calls == ["reduce_params", "sigma"]


def test_lemma31_fixed_examples():
    lhs, rhs = _lemma31_check(1.0, 0.0, 1.0, 1.0)
    assert abs(lhs - 0.5) < 1e-15 and abs(rhs - 0.5) < 1e-9
    lhs, rhs = _lemma31_check(2.0, 1.0, 2.0, 0.25)
    assert abs(lhs - 1.0) < 1e-15 and abs(lhs - rhs) < 1e-9
    b = cmath.exp(0.25j * math.pi)
    lhs, rhs = _lemma31_check(1.0, 0.5, 1.5, b)
    assert abs(lhs - 1.0 / (1.0 + b)) < 1e-15
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_verify_helpers_refuse_invalid_inputs():
    for x, rho, alpha, b, what in [
            (0.0, 0.0, 1.0, 1.0, "x must be positive"),
            (1.0, -0.5, 1.0, 1.0, "rho must be nonnegative"),
            (1.0, 0.0, 0.0, 1.0, "alpha must be positive"),
            (1.0, 0.0, 1.0, 0.0, "b must satisfy"),
            (1.0, 0.0, 1.0, -2.0, "b must satisfy")]:
        with pytest.raises(ValidationError, match=what):
            _lemma31_check(x, rho, alpha, b)
    for k in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="scale power must be positive"):
            _scale_argument_power(DIAG, k)


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
            lhs, rhs = _lemma31_check(x, rho, alpha, b)
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


def test_series_refuses_three_chains_meeting():
    # the chains s = -k, -2k and -4k all pass through s = 0: a triple pole
    # has no confluent residue here
    params = FoxHParams(m=3, n=0, upper=(),
                        lower=((0.0, 1.0), (0.0, 0.5), (0.0, 0.25)))
    with pytest.raises(DegeneratePoles) as err:
        eval_series(params, 0.5, 1e-9)
    assert str(err.value) == "three left pole chains meet at s = -0.0"


def test_series_refuses_left_chain_on_a_right_chain():
    # Gamma(s) has its pole s = -1 where Gamma(1 - 1.5 - 0.5 s) = Gamma(0)
    # has one: the chains pinch the contour
    params = FoxHParams(m=1, n=1, upper=((1.5, 0.5),), lower=((0.0, 1.0),))
    with pytest.raises(DegeneratePoles) as err:
        eval_series(params, 0.5)
    assert str(err.value) == "left chain 0 collides with right chain 0 near s = -1.0"


def _recipe(params):
    params = reduce_params(params)
    return _series_recipe(params, _reflection_pairs(params))


@pytest.mark.parametrize("lower, upper, n, message", [
    # chain 0's pole s = -1 is chain 1's exactly and lies 3e-10 from chain
    # 2's: the near miss refuses, before or after the exact hit in the scan
    (((0.0, 1.0), (0.0, 1.0), (0.5 + 1.5e-10, 0.5)), (), 0,
     "left pole chains 0 and 2 nearly collide at s = -1.0"),
    (((0.0, 1.0), (0.5 + 1.5e-10, 0.5), (0.0, 1.0)), (), 0,
     "left pole chains 0 and 1 nearly collide at s = -1.0"),
    # an exact hit on chain 1, then right chain 0's pole Gamma(0) on it
    (((0.0, 1.0), (0.0, 1.0)), ((1.5, 0.5),), 1,
     "left chain 0 collides with right chain 0 near s = -1.0"),
], ids=["near-after-hit", "near-before-hit", "right-after-hit"])
def test_one_walk_refuses_a_hit_pole_with_an_offending_neighbour(lower, upper, n, message):
    recipe = _recipe(FoxHParams(m=len(lower), n=n, upper=upper, lower=lower))
    with pytest.raises(DegeneratePoles) as err:
        _term_part(recipe, 0, 1)
    assert str(err.value) == message


def test_one_walk_hands_its_exact_hit_to_the_merged_pole(monkeypatch):
    # alpha = 1.5: chain 0's poles s = -k meet chain 1's s = -(1/3 + k2) 3/2
    # at odd k2, k = (3 k2 + 1)/2; each walk hands _merged_pole the pole it
    # hit, and the partner's walk hands back this one
    params = reduce_params(_even_part_params(1.5))
    recipe = _recipe(params)
    merged_pole = foxh._merged_pole
    hits = []

    def spy(recipe, chain, k, s, other, k2):
        hits.append((chain, k, other, k2))
        return merged_pole(recipe, chain, k, s, other, k2)

    monkeypatch.setattr(foxh, "_merged_pole", spy)
    for chain in range(params.m):
        for k in range(12):
            _term_part(recipe, chain, k)
    assert sorted(hits) == ([(0, (3 * k2 + 1) // 2, 1, k2) for k2 in (1, 3, 5, 7)]
                            + [(1, k2, 0, (3 * k2 + 1) // 2) for k2 in (1, 3, 5, 7, 9, 11)])
    for chain, k, other, k2 in hits:
        (b, wt), (b2, wt2) = params.lower[chain], params.lower[other]
        assert abs((b + k) / wt - (b2 + k2) / wt2) <= 1e-11 * (b + k) / wt


def test_merged_pole_with_a_vanishing_denominator_gamma_beside_it():
    # the double pole s = 0 of Gamma(s)^2: 1/Gamma(-1 - 2e-10 - s) is 2e-10
    # from its zero there, inside the refusal band; with weight 1e-4 the
    # gamma 1/Gamma(5e-13 - 1e-4 s) is 5e-9 from its zero in s, which the
    # zero scan takes for a miss, but its argument is within POLE_TOL of 0
    for lower, message in [
            ((2.0 + 2e-10, 1.0), "denominator gamma nearly singular beside a double pole"),
            ((1.0 - 5e-13, 1e-4), "denominator pole coincides with a confluent pair")]:
        params = FoxHParams(m=2, n=0, upper=(), lower=((0.0, 1.0), (0.0, 1.0), lower))
        with pytest.raises(DegeneratePoles, match=message):
            eval_series(params, 0.5)


def test_merged_pole_zeroed_by_two_denominator_gammas():
    # Gamma(s)^2 / Gamma(-s/2)^2 is finite at s = 0: both reciprocal gammas
    # vanish on the double pole, so neither chain's term there is summed
    params = FoxHParams(m=2, n=0, upper=(),
                        lower=((0.0, 1.0), (0.0, 1.0), (1.0, 0.5), (1.0, 0.5)))
    recipe = _recipe(params)
    assert _term_part(recipe, 0, 0) is None and _term_part(recipe, 1, 0) is None
    a = eval_series(params, 0.5, 1e-10)
    b = eval_contour(params, 0.5, 1e-10)
    assert abs(a.value - b.value) <= a.err_est + b.err_est


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
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="parameters must be finite"):
            FoxHParams(m=1, n=0, upper=(), lower=((a, 1.0),))
    with pytest.raises(ValidationError, match="n <= p"):
        FoxHParams(m=1, n=2, upper=((0.5, 1.0),), lower=((0.0, 1.0),))


def test_parameters_are_real():
    # every H-function of the space solution has real a_j, b_j; the skew
    # enters through the phase of z (delta well) or the real parameters
    # (ramp), so a complex parameter is refused
    with pytest.raises(ValidationError, match="real"):
        FoxHParams(m=1, n=1, upper=((0.2j, 1.0),), lower=((0.0, 1.0),))
    with pytest.raises(ValidationError, match="real"):
        _shift_by_power(_even_part_params(1.5), 0.25 + 0.4j)
    # a complex with imaginary part 0.0 is real, and is stored as a float
    params = FoxHParams(m=1, n=1, upper=((complex(0.5, 0.0), 1.0),),
                        lower=((np.float64(0.25), 1.0),))
    assert params == FoxHParams(m=1, n=1, upper=((0.5, 1.0),), lower=((0.25, 1.0),))
    assert all(type(a) is float for a, _ in params.upper + params.lower)


@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0), complex(1.0, math.nan)])
def test_nan_argument_is_invalid(z):
    assert not exists(DIAG, z)
    for route in (eval_series, eval_contour, eval_auto):
        with pytest.raises(ValidationError, match="NaN"):
            route(DIAG, z)


@pytest.mark.parametrize("z", [math.inf, -math.inf, complex(1.0, math.inf),
                               complex(math.inf, -math.inf)])
def test_infinite_argument_is_past_double_range(z):
    # the class an overflowed zeta of the delta or linear solution gets
    assert not exists(DIAG, z)
    for route in (eval_series, eval_contour, eval_auto):
        with pytest.raises(NonConvergence, match="double range"):
            route(DIAG, z)


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


@pytest.mark.parametrize("alpha, zeta", [
    # chain 1's pole k = 18 lies 2.8e-8 from chain 0's pole at s = -27,
    # one sweep past where a stop on the last terms alone would fire
    (1.473684212, 1.5),
    # chain 1's pole k = 16 lies 6.3e-3 from chain 0's: its term is below
    # rel_tol but above the error a stop on the last terms alone claims
    (1.4121342772031986, 1.1083333333333332),
])
def test_series_sums_past_near_collisions_ahead_of_the_stop(alpha, zeta):
    theta = 0.7 * min(alpha, 2.0 - alpha)
    z = zeta * cmath.exp(-1j * theta * math.pi / (2.0 * alpha))
    params = _odd_part_params(alpha)
    ref = eval_contour(params, z, 1e-12)
    for route in (eval_series, eval_auto):
        try:
            got = route(params, z, 1e-9)
        except (NonConvergence, DegeneratePoles):
            assert route is eval_series
            continue
        assert abs(got.value - ref.value) <= got.err_est + ref.err_est


@pytest.mark.parametrize("alpha, z", [
    (1.05, 225.0), (1.02, 228.07), (1.02, 285.54), (1.06, 228.07), (1.06, 285.54)])
def test_series_waits_for_a_chain_that_still_grows(alpha, z):
    # chain 0 (B = 1/2) has passed its peak while chain 1 (B = 1/alpha)
    # peaks some 200 sweeps later, so for a few sweeps every term is below
    # rel_tol |total|; a stop on those terms alone answered 2e194 to 2e248
    # for values near 2e-3
    params = _odd_part_params(alpha)
    ref = eval_contour(params, z, 1e-12)
    for route in (eval_series, eval_auto):
        try:
            got = route(params, z, 1e-9)
        except (NonConvergence, DegeneratePoles):
            assert route is eval_series
            continue
        assert abs(got.value - ref.value) <= got.err_est + ref.err_est


@pytest.mark.parametrize("alpha, z", [
    (1.05, 225.0), (1.02, 228.07), (1.02, 285.54), (1.06, 228.07), (1.06, 285.54),
    (1.4954, 3.4 - 1.17j)])
def test_auto_answers_the_far_odd_part_from_the_contour_alone(alpha, z, monkeypatch):
    # the series' rounding refuses at each of these: at the far ones it
    # passes the gate in the first sweep, where without the gate it would
    # sum 1,100-1,400 terms (25-40 ms) to its peak near e^(2 |z|), and at
    # alpha 1.4954, on a floor 11 times rel_tol |H|, in the third (at
    # alpha 1.5 the same z answers); eval_auto then answers with the
    # contour's own result
    params = _odd_part_params(alpha)
    chains = foxh._series_plan(foxh._plan(params)).recipe.params.m
    finish, finished = foxh._finish, []

    def counting(part, logz):
        finished.append(part)
        return finish(part, logz)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foxh, "_finish", counting)
        with pytest.raises(NonConvergence, match="rounding error .* near"):
            eval_series(params, z, 1e-9)
    assert 0 < len(finished) <= chains * (1 if abs(z) > 100.0 else 3)
    contour = eval_contour(params, z, 1e-9)
    got = eval_auto(params, z, 1e-9)
    assert got.method == "contour" and got.work == contour.work
    assert got.value == contour.value and got.err_est == contour.err_est


def test_auto_refuses_an_argument_whose_modulus_overflows():
    # both parts finite, |z| past double range: a typed refusal, not the
    # OverflowError of abs(z)
    with pytest.raises(NonConvergence, match="past double range"):
        eval_auto(_even_part_params(1.5), complex(1.5e308, 1.5e308), 1e-9)


def _fuzzed_calls(n, seed):
    """n seeded (params, z, rel_tol): p <= 3 upper and 1 <= q <= 3 lower
    entries, n <= p and m <= q; each a_j or b_j uniform in [-3, 3], or 30 %
    of the time a half-integer in [-1.5, 1.5], and each weight log-uniform
    in [1e-3, 10], or 20 % of the time 0.5, 1 or 2; |z| log-uniform in
    [1e-320, 1e308] for 30 % of the sets and in [1e-3, 1e3] otherwise, at
    a uniform phase; rel_tol log-uniform in [1e-14, 1e-2]."""
    rng = np.random.default_rng(seed)

    def entry():
        if rng.random() < 0.3:
            c = 0.5 * float(rng.integers(-3, 4))
        else:
            c = float(rng.uniform(-3.0, 3.0))
        if rng.random() < 0.2:
            return c, float(rng.choice((0.5, 1.0, 2.0)))
        return c, float(10.0 ** rng.uniform(-3.0, 1.0))

    for _ in range(n):
        p, q = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        upper = tuple(entry() for _ in range(p))
        lower = tuple(entry() for _ in range(q))
        params = FoxHParams(m=int(rng.integers(0, q + 1)), n=int(rng.integers(0, p + 1)),
                            upper=upper, lower=lower)
        lo, hi = (-320.0, 308.0) if rng.random() < 0.3 else (-3.0, 3.0)
        z = 10.0 ** rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield params, z, float(10.0 ** rng.uniform(-14.0, -2.0))


def test_fuzzed_sets_raise_only_evaluation_errors(monkeypatch):
    # a refusal is an EvaluationError subclass; an OverflowError, a
    # ValueError from math or a numpy warning (an error under this
    # package's pytest settings) is a defect.  A series the gate refuses
    # (_miss_gate) refuses as well when summed with no gate: the gate
    # saves the sum, it moves no answer
    answered, gated = 0, []
    for params, z, rel_tol in _fuzzed_calls(1000, 48):
        for route in (eval_series, eval_contour, eval_auto):
            try:
                route(params, z, rel_tol)
                answered += 1
            except EvaluationError as err:
                if route is eval_series and "near" in str(err):
                    gated.append((params, z, rel_tol))
    assert answered > 300 and len(gated) > 5
    monkeypatch.setattr(foxh, "_miss_gate", lambda *args: math.inf)
    for call in gated:
        with pytest.raises(EvaluationError):
            eval_series(*call)


def test_auto_answers_where_the_lead_is_far_below_h():
    # at |z| <= 1e-10 this set's H is its first ascending term,
    # Gamma(-1.8) / Gamma(-1.3) z^-2.3, while its descending lead, of size
    # |z|^-1.5, is far below it.  Braaksma's estimate of the rounding,
    # eps e^(mu t*), stays far below the gate, so the gate is inf
    # (_MISS_SCREEN) and the series answers, past the contour's cap too
    params = FoxHParams(1, 1, ((0.5, 1.0),), ((-2.3, 1.0), (0.0, 1.0)))
    for z in (1e-10, 1e-40, 1e-60):
        res = eval_auto(params, z, 1e-10)
        assert res.method == "series"
        lead = math.gamma(-1.8) / math.gamma(-1.3) * z ** -2.3
        assert abs(res.value - lead) <= 1e-9 * lead
    # |ln z| = 450, past the contour's cap, on a set whose series sums at
    # w = 1/z.  The screen would set a gate there that the series passes,
    # but H is its first residue, at s = (1 - a) / A, and the series sums
    # it to 5e-15; the gate is inf past the cap, where the contour refuses
    params = FoxHParams(1, 1, ((1.95, 3.75),), ((-1.55, 1.0), (1.47, 0.0168), (-0.43, 2.0)))
    z, rel_tol = -1.94e195 + 2.62e195j, 5e-14
    with pytest.raises(NonConvergence, match="past the contour's cap"):
        eval_contour(params, z, rel_tol)
    res = eval_auto(params, z, rel_tol)
    assert res.method == "series"
    s0 = (1.0 - 1.95) / 3.75
    coef = mp.gamma(-1.55 + s0) / (3.75 * mp.gamma(1.0 - 1.47 - 0.0168 * s0)
                                   * mp.gamma(1.0 + 0.43 - 2.0 * s0))
    lead = complex(coef * mp.power(mp.mpc(z), -s0))
    assert abs(res.value - lead) <= 2.0 * res.err_est <= 2.0 * rel_tol * abs(lead)

def test_auto_raises_the_contours_refusal_when_both_routes_refuse(monkeypatch):
    # the series runs first and the contour on its refusal; when both
    # refuse, the contour's refusal is raised
    params, z = _even_part_params(1.5), 2.0
    contour = eval_contour(params, z, 1e-9)

    def series_refusing(*args):
        raise DegeneratePoles("series refused")

    monkeypatch.setattr(foxh, "eval_series", series_refusing)
    got = eval_auto(params, z, 1e-9)
    assert (got.value, got.method, got.work) == (contour.value, "contour", contour.work)

    def refusing(*args):
        raise NonConvergence("contour refused")

    monkeypatch.setattr(foxh, "eval_contour", refusing)
    with pytest.raises(NonConvergence, match="contour refused"):
        eval_auto(params, 3.0, 1e-9)


def _miss_sweep_calls(seed):
    """Seeded (params, z, rel_tol) over random delta-well parts, at phases
    up to 0.98 of the sector's edge, and ramps, at moduli from 0.05 to 60
    and at e^20, e^60 and e^110 below the contour's cap, plus the sets of
    tests/collision_refs.py on a grid of moduli and phases."""
    rng = np.random.default_rng(seed)
    tols = (1e-3, 1e-6, 1e-9, 1e-12, 1e-14)
    sets = []
    for _ in range(150):
        alpha = float(rng.uniform(1.0, 2.0))
        kind = int(rng.integers(3))
        if kind == 2:
            theta = float(rng.uniform(-1.0, 1.0) * min(alpha, 2.0 - alpha))
            sets.append((_h_params(LinearConfig(alpha=alpha, theta=theta)), [0.0]))
        else:
            params = (_even_part_params, _odd_part_params)[kind](alpha)
            edge = 0.5 * math.pi * sigma(params)
            sets.append((params, list(rng.uniform(-0.98, 0.98, 2) * edge)))
    for params, phases in sets:
        moduli = list(np.exp(rng.uniform(math.log(0.05), math.log(60.0), 3)))
        for r in moduli + [math.exp(20.0), math.exp(60.0), math.exp(110.0)]:
            for phase in phases:
                for rel_tol in tols:
                    yield params, float(r) * cmath.exp(1j * float(phase)), rel_tol
    for params in (list(COLLISION_SETS.values()) + list(CONTOUR_SETS.values())
                   + list(DELTA0_SETS.values())):
        edge = 0.5 * math.pi * sigma(params)
        for r in (0.5, 2.0, 4.0, 8.0, 16.0, 40.0):
            for frac in (0.0, 0.5, 0.95):
                for rel_tol in tols:
                    yield params, r * cmath.exp(1j * frac * edge), rel_tol


def test_a_predicted_series_miss_is_a_refusal(monkeypatch):
    # every series the gate refuses also refuses without it, and every
    # answer keeps its bits, so the gate moves no answer; the sweep
    # reaches near the sector's edge, rel_tol 1e-14 and the collision
    # sets, where the size of H is hardest to predict
    calls = gated = 0
    for params, z, rel_tol in _miss_sweep_calls(41):
        calls += 1
        got = _series_bits(params, z, rel_tol)
        gated += "misses rel_tol at |value| near" in str(got[1])
        with monkeypatch.context() as patch:
            patch.setattr(foxh, "_miss_gate", lambda *args: math.inf)
            ungated = _series_bits(params, z, rel_tol)
        if isinstance(got[0], str):
            assert ungated == got, (params, z, rel_tol)
        else:
            assert isinstance(ungated[0], type), (params, z, rel_tol)
    assert calls > 8000 and gated > 5000


def _leads_from_residues(recipe):
    """The first two nonzero terms, in rising t, of the residue series of
    the recipe's set inverted, over the first _LEAD_POLES poles of each
    chain, as (t, log |c|) with log |c| = log_ratio - log k! - log B; ()
    for fewer than two.  The descending expansion of a set is the
    ascending series of its inversion at 1/w."""
    inverted = invert_argument(recipe.params)
    inv_recipe = _series_recipe(inverted, _reflection_pairs(inverted))
    terms = []
    for chain in range(inverted.m):
        for k in range(foxh._LEAD_POLES):
            part = _term_part(inv_recipe, chain, k)
            if part is not None:
                t, log_fact, log_ratio, weight, _, _, merge = part
                assert merge is None
                terms.append((t, log_ratio.real - log_fact - math.log(weight)))
    terms.sort()
    return tuple(terms[:2]) if len(terms) >= 2 else ()


def test_the_descending_lead_is_the_inverted_sets_first_residues():
    # a gamma argument rounded just above a pole (c + w = 1 on the ramp
    # gives 1 - c - w = +1e-16) is on it: that coefficient is 0, not a
    # term of size e^-36
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        alpha = rng.uniform(1.0, 2.0)
        kind = rng.randrange(3)
        if kind == 2:
            theta = rng.uniform(-1.0, 1.0) * min(alpha, 2.0 - alpha)
            params = _h_params(LinearConfig(alpha=alpha, theta=theta))
        else:
            params = (_even_part_params, _odd_part_params)[kind](alpha)
        recipe = foxh._series_plan(foxh._plan(params)).recipe
        try:
            want = _leads_from_residues(recipe)
        except DegeneratePoles:
            continue
        checked += 1
        got = foxh._descending_lead(recipe)
        assert len(got) == len(want), (alpha, kind)
        for (t, log_c), (t_want, log_c_want) in zip(got, want):
            assert abs(t - t_want) <= 1e-12 and abs(log_c - log_c_want) <= 1e-12, (alpha, kind)
    assert checked > 250


def test_series_miss_decisions_do_not_depend_on_kept_plans():
    # the gates set during a delta-grid round, on plans the round itself
    # warms, are those of a warm pass after it and of cold plans, inf and
    # finite alike.  e^-z has no descending lead, and its gate is inf on a
    # warm and a cold plan
    from perfbench.workloads import delta_grid

    seen = []
    gate = foxh._miss_gate

    def recording(plan, logw, rel_tol):
        seen.append(((plan, logw, rel_tol), gate(plan, logw, rel_tol)))
        return seen[-1][1]

    foxh._kept_plan.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foxh, "_miss_gate", recording)
        for r in range(3):
            for p in delta_grid(1, r):
                delta_closed_form(p.cfg, p.coord, **p.tol_kwargs)
    gates = [g for _, g in seen]
    assert any(math.isfinite(g) for g in gates) and not all(map(math.isfinite, gates))
    warm = [gate(*call) for call, _ in seen]
    cold = []
    for (plan, logw, rel_tol), _ in seen:
        foxh._kept_plan.cache_clear()
        cold.append(gate(foxh._series_plan(foxh._plan(plan.params)), logw, rel_tol))
    assert warm == cold == gates
    no_lead = FoxHParams(1, 0, (), ((0.0, 1.0),))
    plans = [foxh._series_plan(foxh._plan(no_lead)) for _ in range(2)]
    foxh._kept_plan.cache_clear()
    plans.append(foxh._series_plan(foxh._plan(no_lead)))
    assert plans[0] is plans[1] is not plans[2]
    assert all(p.lead == () and gate(p, cmath.log(2.0), 1e-9) == math.inf for p in plans)


def test_ramp_series_err_est_bounds_its_error():
    # a folded denominator pair's sin(pi (c - w k)) near 0 makes one sweep
    # small; a stop on that sweep understated its error by up to 42.7x at
    # 4 of these ramps, among them alpha 1.6707, theta 0.2520, y 2.1957
    rng = random.Random(7)
    answered = 0
    for _ in range(300):
        alpha = rng.uniform(1.01, 2.0)
        theta = rng.uniform(-1.0, 1.0) * 0.9 * min(alpha, 2.0 - alpha)
        y = rng.uniform(0.2, 9.0)
        params = _h_params(LinearConfig(alpha=alpha, theta=theta))
        try:
            got = eval_series(params, y, 1e-9)
        except (NonConvergence, DegeneratePoles):
            continue
        answered += 1
        ref = eval_contour(params, y, 1e-12)
        assert abs(got.value - ref.value) <= got.err_est + ref.err_est, (alpha, theta, y)
    assert answered > 150


def test_contour_is_conjugate_symmetric_for_real_parameters():
    # the lower half-line is taken as the conjugate of the upper one; the
    # value at conj z must still be the conjugate of the value at z
    sets = [part(a) for part in (_even_part_params, _odd_part_params)
            for a in (1.2, 1.5, 1.9)]
    sets += [_h_params(LinearConfig(alpha=1.5, theta=0.3, c_alpha=1.0)), DIAG]
    for params in sets:
        for z in (0.7 * cmath.exp(0.3j), 4.0 * cmath.exp(-0.1j)):
            a = eval_contour(params, z, 1e-10)
            b = eval_contour(params, z.conjugate(), 1e-10)
            assert abs(a.value - b.value.conjugate()) <= a.err_est + b.err_est


@pytest.mark.parametrize("route", [eval_series, eval_contour, eval_auto])
def test_routes_are_real_at_a_real_positive_argument(route):
    # real parameters make H real at a real z > 0: neither a negative
    # gamma's sign, carried as i pi in the series' logs, nor the contour's
    # sum over conjugate nodes may leave an imaginary part
    sets = [_even_part_params(1.5), _odd_part_params(1.37),
            _h_params(LinearConfig(alpha=1.5, theta=0.3, c_alpha=1.0)), DIAG]
    for params in sets:
        for z in (0.05, 0.8, 2.5):
            try:
                r = route(params, z, 1e-9)
            except NonConvergence:
                assert route is eval_series and params is DIAG
                continue
            assert r.value.imag == 0.0, (params, z)


# sigma = 3: the existence sector admits arg z = pi, on both sides of the cut
WIDE = FoxHParams(m=1, n=0, upper=(), lower=((0.0, 3.0),))


def test_auto_replays_the_conjugate_of_its_last_answer():
    params = _even_part_params(1.5)
    z = 2.0 * cmath.exp(-0.3j)
    a = eval_auto(params, z, 1e-9)
    b = eval_auto(params, z.conjugate(), 1e-9)
    assert a.work > 0 and b.work == 0
    assert b.value == a.value.conjugate()
    assert (b.err_est, b.method) == (a.err_est, a.method)


def test_a_changed_answer_leaves_the_replay_as_computed():
    # the record holds the answer's fields, not the EvalResult handed out
    params = _even_part_params(1.5)
    z = 2.0 * cmath.exp(-0.3j)
    a = eval_auto(params, z, 1e-9)
    want = (a.value.conjugate(), a.err_est, a.method)
    a.value, a.err_est, a.method = 0j, 1.0, "changed"
    b = eval_auto(params, z.conjugate(), 1e-9)
    assert b.work == 0
    assert (b.value, b.err_est, b.method) == want


@pytest.mark.parametrize("first, second", [
    ((DIAG, 0.7, 1e-9), (DIAG, 0.7, 1e-9)),                 # a real z
    # the two sides of the branch cut
    ((WIDE, complex(-2.0, 0.0), 1e-9), (WIDE, complex(-2.0, -0.0), 1e-9)),
    ((DIAG, 0.7 + 0.4j, 1e-9), (DIAG, 0.7 - 0.4j, 1e-10)),  # another rel_tol
    ((DIAG, 0.7 + 0.4j, 1e-9), (WIDE, 0.7 - 0.4j, 1e-9)),   # other params
])
def test_auto_computes_when_the_last_answer_does_not_match(first, second):
    eval_auto(*first)
    got = eval_auto(*second)
    if second[0] == DIAG:
        # DIAG has series index 0, which only the contour evaluates
        with pytest.raises(NonConvergence):
            eval_series(*second)
        ref = eval_contour(*second)
    else:
        ref = eval_series(*second)
    assert got.work > 0
    assert abs(got.value - ref.value) <= got.err_est + ref.err_est


def test_auto_replays_only_the_last_answer():
    z = 0.7 + 0.4j
    eval_auto(DIAG, z, 1e-9)
    eval_auto(WIDE, 1.3 + 0.2j, 1e-9)
    assert eval_auto(DIAG, z.conjugate(), 1e-9).work > 0


@pytest.mark.parametrize("params, z, err", [
    (EXP, -1.0 + 1.0j, DomainError),                        # outside the sector
    (EXP, 1e60 * cmath.exp(0.2j), NonConvergence),          # past the contour cap
])
def test_a_refused_call_leaves_no_answer_to_replay(params, z, err):
    with pytest.raises(err):
        eval_auto(params, z)
    with pytest.raises(err):
        eval_auto(params, z.conjugate())


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_replayed_conjugate_agrees_with_a_fresh_evaluation(alpha):
    # H(conj z) = conj H(z) for the delta well's real parameters, on the
    # series points and on the contour points (zeta > 8) alike
    routes = {"series": eval_series, "contour": eval_contour}
    seen = set()
    for frac in (-0.9, 0.4, 1.0):
        theta = frac * min(alpha, 2.0 - alpha)
        ph = cmath.exp(-1j * theta * math.pi / (2.0 * alpha))
        for zeta in (0.4, 3.0, 9.0, 14.0):
            for params, z in ((_even_part_params(alpha), zeta * ph),
                              (_odd_part_params(alpha), 0.5 * zeta * ph)):
                eval_auto(params, z, 1e-9)
                replay = eval_auto(params, z.conjugate(), 1e-9)
                assert replay.work == 0
                fresh = routes[replay.method](params, z.conjugate(), 1e-9)
                assert abs(fresh.value - replay.value) <= fresh.err_est + replay.err_est
                seen.add(replay.method)
    assert seen == {"series", "contour"}


EPS = float(np.finfo(float).eps)


def _distance_mod_2pi_i(a: complex, b: complex) -> float:
    d = a - b
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


def _paired_sets():
    """Reduced shipped parameter sets with their expected pair counts."""
    return [
        (reduce_params(_even_part_params(1.37)), 2),
        (reduce_params(_odd_part_params(1.37)), 1),
        (reduce_params(_h_params(LinearConfig(alpha=1.6, theta=0.3))), 1),
        (reduce_params(_shift_by_power(_even_part_params(1.37), 0.25)), 2),
    ]


def _pairing_points(params):
    """Random s, and s putting each pair's argument u at n +- 1e-9."""
    rng = np.random.default_rng(37)
    s = list(rng.uniform(-12, 6, 20) + 1j * rng.uniform(-40, 40, 20))
    s += list(rng.uniform(-12, 6, 10) + 1j * rng.uniform(-1, 1, 10))
    forms = _gamma_forms(params)
    for grow, _ in _reflection_pairs(params):
        _, u0, du, _ = forms[grow]
        for n in (-3, 2):
            for d in (1e-9, -1e-9):
                s.append((n + d - u0) / du)
    return np.array(s)


def _sensitivity(params, s):
    """Bound on the log-theta change from rounding each gamma argument."""
    near = 0.0
    for b, wt in params.upper + params.lower:
        for u in (b + wt * s, 1.0 - b - wt * s):
            dist = abs(u - round(u.real))
            near += (abs(b) + 1.0 + wt * abs(s)) * EPS / max(dist, 1e-300) * 4.0
    return near


def test_reflection_pairs_of_the_shipped_kernels():
    for params, count in _paired_sets():
        pairs = _reflection_pairs(params)
        assert len(pairs) == count
        # the growing member is a lower[:m] (numerator) or upper[n:] entry
        for grow, mate in pairs:
            assert grow < params.m or grow >= params.q + params.n


def test_paired_log_theta_matches_plain_gamma_product():
    for params, _ in _paired_sets():
        s = _pairing_points(params)
        paired = _log_theta(params, _reflection_pairs(params), s)
        plain = _log_theta(params, (), s)
        for sk, a, b in zip(s, paired, plain):
            bar = 64.0 * EPS * max(1.0, abs(b)) + _sensitivity(params, sk)
            assert _distance_mod_2pi_i(complex(a), complex(b)) <= bar, sk


def test_paired_log_theta_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for params, _ in _paired_sets():
        s = _pairing_points(params)
        got = _log_theta(params, _reflection_pairs(params), s)
        m, n = params.m, params.n
        with mpmath.workdps(30):
            for sk, g in zip(s, got):
                ms = mpmath.mpc(sk.real, sk.imag)

                def lg(c, wt, sign):
                    c = mpmath.mpc(c.real, c.imag)
                    return mpmath.loggamma(c + sign * wt * ms)
                ref = sum(lg(b, wt, 1) for b, wt in params.lower[:m])
                ref += sum(lg(1.0 - a, wt, -1) for a, wt in params.upper[:n])
                ref -= sum(lg(1.0 - b, wt, -1) for b, wt in params.lower[m:])
                ref -= sum(lg(a, wt, 1) for a, wt in params.upper[n:])
                ref = complex(ref)
                bar = 64.0 * EPS * max(1.0, abs(ref)) + _sensitivity(params, sk)
                assert _distance_mod_2pi_i(complex(g), ref) <= bar, sk


def test_paired_log_theta_refuses_integer_pair_argument():
    params = reduce_params(_even_part_params(1.37))
    pairs = _reflection_pairs(params)
    a1, wt = params.lower[1]
    # the numerator pair's u = a1 + s / alpha lands on the integer 2
    s = np.array([0.3 + 1j, (2.0 - a1) / wt])
    with pytest.raises(PoleOfGamma):
        _log_theta(params, pairs, s)


def _residue_term(recipe, chain, k, logz):
    # the term as a cold plan gives it: its z-free part built afresh
    return _finish(_term_part(recipe, chain, k), logz)


def test_denominator_pair_zeroes_residue_terms():
    # even part: the denominator pair 1 / Gamma(1/2 - s/2) Gamma(1/2 + s/2)
    # is cos(pi s / 2) / pi, zero at the odd poles s = -k of Gamma(s)
    params = reduce_params(_even_part_params(1.37))
    pairs = _reflection_pairs(params)
    assert any(g >= params.m + params.n for g, _ in pairs)
    recipe = _series_recipe(params, pairs)
    logz = cmath.log(0.9)
    for k in range(12):
        term, errb = _residue_term(recipe, 0, k, logz)
        if k % 2:
            assert term == 0.0 and errb == 0.0
        else:
            assert term != 0.0


def test_ordinary_terms_call_no_python_function_but_the_kernels():
    # every term's z-free part runs one pair of factor loops; only where
    # two chains meet (alpha = 1.5: the chains s = -k and s = -(a1 + k)
    # alpha) does it call its setup, _merged_pole, too
    params = reduce_params(_even_part_params(1.5))
    recipe = _series_recipe(params, _reflection_pairs(params))
    code = _term_part.__code__
    kernels = {"log_gamma", "digamma", "log_reflection", "pi_cot_pi"}
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is code:
            seen[-1].add(frame.f_code.co_name)

    merged = 0
    for chain in range(recipe.params.m):
        for k in range(12):
            seen.append(set())
            sys.setprofile(profile)
            try:
                _term_part(recipe, chain, k)
            finally:
                sys.setprofile(None)
            merged += "_merged_pole" in seen[-1]
            assert seen[-1] - {"_merged_pole"} <= kernels, (chain, k, seen[-1])
    assert 0 < merged < 2 * 12


def _term_or_refusal(recipe, chain, k, logz):
    try:
        return _residue_term(recipe, chain, k, logz)
    except EvaluationError as exc:
        return type(exc)


def test_paired_residue_terms_match_unpaired():
    # every residue term, including the confluent double poles of
    # alpha = 1.5 and terms whose pair member is the chain's own gamma
    sets = [reduce_params(part(1.5)) for part in (_even_part_params, _odd_part_params)]
    sets.append(reduce_params(_h_params(LinearConfig(alpha=1.5, theta=0.3))))
    # chains 0 and 1 meet at s = -1, -3, ...: a numerator pair with
    # pi cot(pi u) != 0 enters the confluent bracket there
    sets.append(FoxHParams(m=3, n=1, upper=((0.25, 0.5),),
                           lower=((0.0, 1.0), (0.5, 0.5), (0.25, 0.5))))
    # the same double poles, demoted by a zero of the denominator pair's
    # lower member (u = 3, 2, 1) or of its upper member (u = 0, -1, ...)
    sets.append(FoxHParams(m=2, n=0, upper=((3.5, 0.5),),
                           lower=((0.0, 1.0), (0.5, 0.5), (3.5, 0.5))))
    logz = cmath.log(1.3 * cmath.exp(-0.2j))
    for params in sets:
        paired = _series_recipe(params, _reflection_pairs(params))
        unpaired = _series_recipe(params, ())
        assert paired.pairs
        for chain in range(params.m):
            for k in range(40):
                got = _term_or_refusal(paired, chain, k, logz)
                ref = _term_or_refusal(unpaired, chain, k, logz)
                if isinstance(ref, type):
                    assert got is ref, (chain, k)
                    continue
                (t1, e1), (t2, e2) = got, ref
                assert abs(t1 - t2) <= e1 + e2 + 1e-300, (chain, k)


# H(z) where left pole chains meet, from tests/collision_refs.py: the
# Mellin-Barnes line integral by mpmath at 30 digits, rounded to double
COLLISION_REFS = [
    ('even', (0.48296291314453416-0.12940952255126037j), (0.4104443303022337+0.07181218919654674j)),
    ('even', (0.48296291314453416+0.12940952255126037j), (0.4104443303022337-0.07181218919654674j)),
    ('even', (1.9318516525781366-0.5176380902050415j), (0.08151592640906648+0.03902976943102249j)),
    ('even', (1.9318516525781366+0.5176380902050415j), (0.08151592640906648-0.03902976943102249j)),
    ('even', (3.8637033051562732-1.035276180410083j), (0.017021093029446797+0.0127370689581688j)),
    ('even', (3.8637033051562732+1.035276180410083j), (0.017021093029446797-0.0127370689581688j)),
    ('odd', (0.48296291314453416-0.12940952255126037j), (1.1084211358137772+0.09047754961313344j)),
    ('odd', (0.48296291314453416+0.12940952255126037j), (1.1084211358137772-0.09047754961313344j)),
    ('odd', (1.9318516525781366-0.5176380902050415j), (0.4324432754427353+0.11095702434386873j)),
    ('odd', (1.9318516525781366+0.5176380902050415j), (0.4324432754427353-0.11095702434386873j)),
    ('odd', (3.8637033051562732-1.035276180410083j), (0.21117754526431493+0.05895659538825184j)),
    ('odd', (3.8637033051562732+1.035276180410083j), (0.21117754526431493-0.05895659538825184j)),
    ('confluent', (1.2740865511936141-0.25827013003357957j), (0.6163879286250029+0.12393718120716482j)),
    ('confluent', 2.0, (0.3968921208457275+0j)),
    ('confluent', 4.0, (0.17194071664336155+0j)),
    ('demoted', (1.2740865511936141-0.25827013003357957j), (0.07918707102531772-0.040828149643719974j)),
    ('demoted', 2.0, (0.12121088071755846+0j)),
    ('demoted', 4.0, (0.03369539259680491+0j)),
]


def test_collision_residues_match_the_line_integral():
    # the delta well's parts at alpha = 1.5, theta = 0.25 take confluent
    # and demoted terms, the m = 3 set confluent terms with a numerator
    # pair in their brackets, and the m = 2, n = 0 set only demoted ones
    for name, z, ref in COLLISION_REFS:
        res = eval_series(COLLISION_SETS[name], z, 1e-9)
        assert abs(res.value - ref) <= res.err_est, (name, z)
    # the stored table is what the script computes
    name, z, ref = COLLISION_REFS[0]
    assert abs(line_integral(COLLISION_SETS[name], z, dps=20) - ref) <= 1e-15 * abs(ref)


def _binomial(gap):
    """H^{1,1}_{1,1}(z | (a, 1); (-a, 1)) = Gamma(1 - 2a) z^-a (1 + z)^(2a - 1),
    a = (1 - gap)/2: the line sits gap/2 from a pole on each side."""
    a = 0.5 * (1.0 - gap)
    params = FoxHParams(m=1, n=1, upper=((a, 1.0),), lower=((-a, 1.0),))
    return params, lambda z: mp.gamma(1 - 2 * mp.mpf(a)) * z ** -a * (1 + z) ** (2 * a - 1)


@pytest.mark.parametrize("params, exact, zs", [
    # narrow gaps shrink the step, and at large |z| the rounding of the
    # exponent log theta(s) - s log z dominates the error
    _binomial(0.1) + ([math.exp(v) for v in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0)],),
    _binomial(0.04) + ([math.exp(v) for v in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0)],),
    (EXP, lambda z: mp.exp(-z), [0.5, 3.0, 10.0, 10.0 * cmath.exp(0.7j)]),
], ids=["gap-0.1", "gap-0.04", "exp"])
def test_contour_err_est_bounds_exact_instances(params, exact, zs):
    for z in zs:
        with mp.workdps(30):
            ref = complex(exact(mp.mpmathify(z)))
        got = eval_contour(params, z, 1e-9)
        assert abs(got.value - ref) <= got.err_est, z


@pytest.mark.parametrize("gap", [0.5, 0.2, 0.01])
def test_contour_err_est_bounds_the_narrow_gap_family_off_the_axis(gap):
    # the step's strip shift comes within 0.2 d of the nearest pole, and
    # these binomials put a pole d from the line on both sides, at |z|
    # below and above 1 and off the real axis
    params, exact = _binomial(gap)
    for v in (-20.0, -5.0, -0.5, 0.5, 5.0, 20.0):
        for phase in (0.0, 0.5, 1.2):
            z = math.exp(v) * cmath.exp(1j * phase)
            with mp.workdps(30):
                ref = complex(exact(mp.mpmathify(z)))
            got = eval_contour(params, z, 1e-9)
            assert abs(got.value - ref) <= got.err_est, (v, phase)


# 1/Gamma(s - 1/2) vanishes at the gap midpoint s = 1/2, where the contour
# line crosses the real axis
ZERO_ON_THE_LINE = FoxHParams(m=1, n=1, upper=((0.0, 1.0), (-0.5, 1.0)),
                              lower=((0.0, 1.0),))


def test_contour_line_through_a_zero_on_the_real_axis():
    # the nodes sit half a step off the real axis, so the line stays at the
    # zero and the value still matches the series
    for z in (0.5, 2.0):
        got = eval_contour(ZERO_ON_THE_LINE, z, 1e-9)
        ref = eval_series(ZERO_ON_THE_LINE, z, 1e-9)
        assert abs(got.value - ref.value) <= got.err_est + ref.err_est


@pytest.mark.parametrize("params, z", [
    (_even_part_params(1.5), 9.0 * cmath.exp(-0.25j * math.pi / 3.0)),
    (ZERO_ON_THE_LINE, 0.5),
    (ZERO_ON_THE_LINE, 2.0),
], ids=["readme-well", "zero-0.5", "zero-2"])
def test_contour_evaluates_theta_once_per_node_off_the_real_axis(monkeypatch, params, z):
    # each _log_theta call takes a block of upper half-line nodes: none is
    # real, and no node is evaluated twice, so on a cold plan the calls
    # hold work/2 nodes, and a repeated call, on the kept nodes, makes none
    _fresh_plans(monkeypatch)
    blocks = []

    def spy(params, pairs, s):
        blocks.append(np.array(s))
        return _log_theta(params, pairs, s)

    monkeypatch.setattr(foxh, "_log_theta", spy)
    got = eval_contour(params, z, 1e-9)
    nodes = np.concatenate(blocks)
    assert np.all(nodes.imag > 0.0)
    assert nodes.size == len(np.unique(nodes.imag)) == got.work // 2
    blocks.clear()
    assert eval_contour(params, z, 1e-9) == got and blocks == []


@pytest.mark.parametrize("w", [0.5, 1.0, 3.0, 2.0 + 1.0j])
def test_contour_line_with_an_empty_left_family(w):
    # invert_argument(EXP) = e^(-1/w) has m = 0: no left poles, so the line
    # sits one unit left of the first right pole and the strip is bounded
    # on the right only
    got = eval_contour(invert_argument(EXP), w, 1e-10)
    assert abs(got.value - cmath.exp(-1.0 / w)) <= got.err_est


@pytest.mark.parametrize("params, z, match", [
    # a gap of 1e-5 needs a step near 4e-7, some 5e7 nodes: refused before
    # any node is evaluated
    (_binomial(1e-5)[0], 2.0, "nodes"),
    # at 0.97 of the sector edge the alpha 1.9 even part decays at rate
    # 0.05, and its tail estimate at |Im s| = CONTOUR_T_CAP is still 1e-7
    (_even_part_params(1.9), 5.0 * cmath.exp(-0.485j * math.pi * sigma(_even_part_params(1.9))),
     "tail"),
], ids=["narrow-gap", "sector-edge"])
def test_contour_refuses_past_its_node_and_cut_budgets(params, z, match):
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match=match):
        eval_contour(params, z, 1e-9)
    assert time.perf_counter() - start < 1.0


def test_contour_step_is_never_above_the_ideal_step():
    # at a = 0.8, |ln |z|| = 58.99164000079244 the ideal step lies on rung
    # 18 to within rounding, and rung 18 rounds above it: the step takes 19
    den = foxh._LOG_INV_EPS + foxh._LOG_STRIP_GROWTH
    a, log_abs_z = 0.8, 58.99164000079244
    ideal = 2.0 * math.pi * a / (den + a * log_abs_z)
    h0 = 2.0 * math.pi * a / den
    assert h0 * 2.0 ** (-18 / foxh._RUNGS_PER_OCTAVE) > ideal
    j, h = foxh._contour_step(a, log_abs_z)
    assert j == 19 and h <= ideal


def test_contour_past_the_kept_node_cap_keeps_the_bits(monkeypatch):
    # e^-20 extends its cut once; with room for none, the plan keeps
    # nothing and the longer cut is evaluated and summed from k = 0
    z = 20.0
    want = eval_contour(EXP, z, 1e-6)
    _fresh_plans(monkeypatch)
    monkeypatch.setattr(foxh, "_KEPT_NODE_CAP", 8)
    blocks = []
    contour_nodes = foxh._contour_nodes

    def spy(plan, j, h, k_hi):
        blocks.append(k_hi)
        return contour_nodes(plan, j, h, k_hi)

    monkeypatch.setattr(foxh, "_contour_nodes", spy)
    got = eval_contour(EXP, z, 1e-6)
    assert len(blocks) == 2 and blocks[1] > blocks[0]
    assert not foxh._plan(EXP).rungs
    assert (got.value, got.err_est, got.work) == (want.value, want.err_est, want.work)
    assert abs(got.value - math.exp(-z)) <= got.err_est


def test_contour_work_on_the_readme_well_and_the_ramp():
    # the step follows the strip width and the cut the decay rate, so a
    # contour point past the series limit takes about a thousand nodes
    z = 9.0 * cmath.exp(-0.25j * math.pi / 3.0)
    assert eval_contour(_even_part_params(1.5), z, 1e-9).work <= 1200
    ramp = _h_params(LinearConfig(alpha=1.5, theta=0.3))
    assert eval_contour(ramp, 8.0, 1e-9).work <= 2000


# H(z) at contour points, from tests/collision_refs.py: the Mellin-Barnes
# line integral by mpmath at 25 digits, rounded to double
CONTOUR_REFS = [
    ('even 1.9', 10.0, (0.00034073706980113213+0j)),
    ('even 1.9', 30.0, (9.2838621234917e-06+0j)),
    ('even 1.9', 100.0, (2.7484734577255933e-07+0j)),
    ('even 1.2', (9.914448613738104-1.305261922200516j), (0.002572360936241544+0.0007679258785150146j)),
    ('even 1.2', (29.74334584121431-3.915785766601548j), (0.00022126195322018152+6.63848624999489e-05j)),
    ('even 1.2', (99.14448613738104-13.052619222005161j), (1.5372548197390058e-05+4.5702160140033345e-06j)),
    ('ramp', 8.0, (0.0007255786578104337+0j)),
    ('even 1.5', (-1.5450849718747348-4.755282581475769j), (0.2288932760115828-0.2752069243239828j)),
    ('even 1.5', (-2.2231758959246357-4.478558801197065j), (0.5267614520667291-0.5130457526167952j)),
    ('odd 1.5', (-1.5450849718747348-4.755282581475769j), (-0.39396658926452277+0.43836737383920626j)),
    ('odd 1.5', (-2.2231758959246357-4.478558801197065j), (-1.741284520445682+1.0402730854367122j)),
]


def test_contour_err_est_bounds_the_line_integral():
    # large zeta at alpha 1.9 and at alpha 1.2, theta 0.1, the ramp past
    # the series limit, and 0.9 and 0.97 of the sector edge
    for name, z, ref in CONTOUR_REFS:
        got = eval_contour(CONTOUR_SETS[name], z, 1e-9)
        assert abs(got.value - ref) <= got.err_est, (name, z)
    # the stored table is what the script computes
    name, z, ref = CONTOUR_REFS[0]
    assert abs(line_integral(CONTOUR_SETS[name], z, dps=20) - ref) <= 1e-15 * abs(ref)


# H(z) for series-index-0 sets, from tests/collision_refs.py: the
# Mellin-Barnes line integral by mpmath at 30 digits, rounded to double
DELTA0_REFS = [
    ('a', 1.1, (0.02856857745330497+0j)),
    ('b', 1.9, (0.7194193253928947+0j)),
    ('c', 0.85, (0.2752671032026384+0j)),
    ('d', 1.05, (13.283094190423729+0j)),
    ('lemma', (0.7428020534187105+0.5081782260555319j), (0.5308416291519414-0.055257498172338215j)),
    ('inner', (-0.6595556384680606+0.23449170510913356j), (0.1803009172840254-0.09693215865409628j)),
]


def test_series_index_0_takes_the_contour():
    # the ascending series of these sets has a finite radius, and near it
    # no stop rule on its partial sums is honest (at "a" they settle on
    # 2.66, not 0.0286), so it refuses and auto answers from the contour
    for name, z, ref in DELTA0_REFS:
        with pytest.raises(NonConvergence):
            eval_series(DELTA0_SETS[name], z, 1e-9)
        got = eval_auto(DELTA0_SETS[name], z, 1e-9)
        assert got.method == "contour"
        assert abs(got.value - ref) <= got.err_est, (name, z)
    # the Lemma 3.1 kernel is z^0.3 / (1 + z)
    _, z, ref = DELTA0_REFS[4]
    assert abs(z ** 0.3 / (1.0 + z) - ref) <= 1e-15 * abs(ref)
    # the stored table is what the script computes
    name, z, ref = DELTA0_REFS[0]
    assert abs(line_integral(DELTA0_SETS[name], z, dps=20) - ref) <= 1e-15 * abs(ref)


def test_series_calls_the_module_kernels_once_per_unpaired_factor(monkeypatch):
    # the benchmark's tracer counts kernel calls by rebinding these module
    # globals, so eval_series must look them up at call time, once per
    # factor that no reflection pair absorbs, in every residue term
    import fse.foxh as foxh
    counts = {"log_gamma": 0, "digamma": 0}

    def counting(name):
        kernel = getattr(foxh, name)

        def wrapped(u):
            counts[name] += 1
            return kernel(u)
        return wrapped

    for name in counts:
        monkeypatch.setattr(foxh, name, counting(name))
    params = reduce_params(_even_part_params(1.37))
    pairs = _reflection_pairs(params)
    res = eval_series(params, 0.8, 1e-10)
    sweeps, rem = divmod(res.work, params.m)
    assert rem == 0 and sweeps > 10
    # a chain's own gamma is skipped; a pair without it folds two factors
    # into one log_reflection, a pair with it leaves the mate unpaired
    unpaired = [params.p + params.q - 1 - 2 * sum(c not in pair for pair in pairs)
                for c in range(params.m)]
    assert unpaired == [0, 2]
    assert counts == {"log_gamma": sweeps * sum(unpaired),
                      "digamma": sweeps * sum(unpaired)}


# eval_series at fixed points, recorded to the last bit: float.hex of the
# value's real and imaginary parts and of err_est, and work, or the class
# and message of the refusal; then the calls of log_gamma and digamma the
# call made.  Any change to the term arithmetic, the kernel calls or the
# stop rule shows here.
_M3 = FoxHParams(m=3, n=1, upper=((0.25, 0.5),),
                 lower=((0.0, 1.0), (0.5, 0.5), (0.25, 0.5)))
_DEMOTED = FoxHParams(m=2, n=0, upper=((3.5, 0.5),),
                      lower=((0.0, 1.0), (0.5, 0.5), (3.5, 0.5)))
_NEAR = FoxHParams(m=3, n=1, upper=((1.293, 2.0), (1.921, 2.0)),
                   lower=((2 / 3, 1.5), (0.281, 2 / 3), (-0.677, 1.5), (1.5, 0.5),
                          (1.288, 1.5)))
SERIES_BITS = [
    # ordinary terms; the even part's denominator pair zeroes every odd one
    ("even-1.37-z0.8", lambda: _even_part_params(1.37), 0.8, 1e-10,
     ("0x1.f0c3a4150549bp-3", "0x0.0p+0", "0x1.6902b817247e9p-47", 34),
     (34, 34)),
    ("even-1.37-z3", lambda: _even_part_params(1.37), 3.0 * cmath.exp(0.3j), 1e-9,
     ("0x1.01559d8f47f89p-5", "-0x1.5ba0c54333c0dp-6", "0x1.08f845aa15d11p-42", 54),
     (54, 54)),
    ("odd-1.37-z0.8", lambda: _odd_part_params(1.37), 0.8, 1e-10,
     ("0x1.968cdcaeb451cp-1", "0x0.0p+0", "0x1.d74091d387193p-43", 32),
     (64, 64)),
    ("odd-1.37-z3", lambda: _odd_part_params(1.37), 3.0 * cmath.exp(0.3j), 1e-9,
     ("0x1.04cb266113a03p-2", "-0x1.436a12d4dbda7p-4", "0x1.07291574be4e1p-35", 52),
     (104, 104)),
    # the README well's alpha: chains meet, confluent terms
    ("even-1.5", lambda: _even_part_params(1.5), 1.2 * cmath.exp(0.4j), 1e-9,
     ("0x1.63850b4acbadfp-3", "-0x1.768b584e6c919p-4", "0x1.e77ae783c204fp-48", 38),
     (33, 43)),
    ("odd-1.5", lambda: _odd_part_params(1.5), 2.5, 1e-9,
     ("0x1.6bd1ec716a807p-2", "0x0.0p+0", "0x1.44a4ffe12d529p-39", 46),
     (84, 98)),
    # double poles demoted by a denominator zero
    ("demoted", lambda: _DEMOTED, 1.3 * cmath.exp(-0.2j), 1e-9,
     ("0x1.4459a9851dc54p-4", "-0x1.4e76d5ef3b27ep-5", "0x1.bcfa6dd8230dbp-48", 34),
     (26, 26)),
    # a numerator pair inside the confluent bracket
    ("pair-m3", lambda: _M3, 1.3 * cmath.exp(-0.2j), 1e-9,
     ("0x1.3b9732d62fe19p-1", "0x1.fba58dc0b10b1p-4", "0x1.63a3e135495e2p-42", 51),
     (60, 94)),
    # three chains whose near misses put off the stop: their gains enter
    # the rest bound
    ("lookahead", lambda: _NEAR, 0.20908046076902703 + 1.4853569809727936j, 1e-9,
     ("-0x1.e25c77d971fecp-1", "-0x1.2bbe9f60e70c8p-2", "0x1.014a9ae5fc6b8p-40", 84),
     (504, 504)),
    # the ramp point where a near-zero sine makes one sweep small
    ("ramp", lambda: _h_params(LinearConfig(alpha=1.227, theta=-0.064)), 1.51, 1e-9,
     ("0x1.130e8d0b03bcep-3", "0x0.0p+0", "0x1.ff8238c82798bp-42", 23),
     (23, 23)),
    ("inverted", lambda: invert_argument(_even_part_params(1.37)), 2.5, 1e-9,
     ("0x1.a948658233b9fp-2", "0x0.0p+0", "0x1.4c45d92b0e894p-47", 26),
     (26, 26)),
    # a rounding floor 3.7 times rel_tol |H| that stays below the gate
    # (_miss_gate, 3.30e-11 here): the sum runs to its stop, which reads
    # the rest bound and hands the claim to _accept.  At |z| = 8 the gate
    # refuses in the first sweeps and reads no rest bound
    ("refuses", lambda: _even_part_params(1.37), 6.0 * cmath.exp(0.2j), 1e-9,
     (NonConvergence,
      "H series error estimate 2.89e-11 misses rel_tol at |value| 7.84e-03"),
     (74, 74)),
    # fixed alone misses rel_tol |total| by 5 %, far below the gate
    # (4.49e-10): the stop refuses once the rest is bounded
    ("misses", lambda: _odd_part_params(1.05), 4.0, 1e-9,
     (NonConvergence,
      "H series error estimate 1.53e-10 misses rel_tol at |value| 1.46e-01"),
     (157, 159)),
]


def _series_bits(params, z, rel_tol):
    try:
        r = eval_series(params, z, rel_tol)
    except EvaluationError as exc:
        return type(exc), str(exc)
    return r.value.real.hex(), r.value.imag.hex(), r.err_est.hex(), r.work


@pytest.mark.parametrize("name, build, z, rel_tol, want, calls", SERIES_BITS,
                         ids=[p[0] for p in SERIES_BITS])
def test_series_values_keep_their_recorded_bits(name, build, z, rel_tol, want, calls):
    assert _series_bits(build(), z, rel_tol) == want


def test_series_kernel_calls_keep_their_recorded_counts(monkeypatch):
    # the benchmark's tracer counts and times the kernels by rebinding
    # these module globals between calls, after import: each call must
    # look them up afresh, and make the recorded number of calls
    kernels = {"log_gamma": foxh.log_gamma, "digamma": foxh.digamma}

    def counting(counts, name):
        def wrapped(u):
            counts[name] += 1
            return kernels[name](u)
        return wrapped

    def install():
        counts = dict.fromkeys(kernels, 0)
        for name in kernels:
            monkeypatch.setattr(foxh, name, counting(counts, name))
        return counts

    for name, build, z, rel_tol, want, calls in SERIES_BITS:
        params = build()
        _series_bits(params, z, rel_tol)
        counts = install()
        assert _series_bits(params, z, rel_tol) == want
        assert (counts["log_gamma"], counts["digamma"]) == calls, name
        later = install()
        _series_bits(params, z, rel_tol)
        assert (counts["log_gamma"], counts["digamma"]) == calls, name
        assert (later["log_gamma"], later["digamma"]) == calls, name
        monkeypatch.undo()


def _fresh_plans(monkeypatch):
    """An empty plan table of foxh's size in place of foxh's own."""
    plans = lru_cache(maxsize=foxh.PLAN_CAP)(foxh._kept_plan.__wrapped__)
    monkeypatch.setattr(foxh, "_kept_plan", plans)
    return plans


def _warm(params):
    """Whether the plan table holds params' plan with a route's part built;
    a cold lookup enters an empty plan, so test the evicted sets last."""
    plan = foxh._plan(params)
    return plan.recipe is not None or plan.line is not None


def _plan_terms(params):
    return sum(map(len, foxh._plan(params).parts))


@pytest.mark.parametrize("name, build, z, rel_tol, want, calls", SERIES_BITS,
                         ids=[p[0] for p in SERIES_BITS])
def test_series_bits_hold_on_cold_warm_extended_and_rebound_plans(
        monkeypatch, name, build, z, rel_tol, want, calls):
    # the plan keeps each term's z-free part across calls: a warm term, one
    # built by a call that went further, and one of a fresh plan after the
    # kernels are rebound must all finish to the bits of a cold one
    _fresh_plans(monkeypatch)
    params = build()
    assert _series_bits(params, z, rel_tol) == want
    built = _plan_terms(params)
    assert _series_bits(params, z, rel_tol) == want
    # a larger argument of the series actually summed needs more sweeps,
    # which the rounding gate would cut short at some of these points
    far = z * 8.0 if series_index(reduce_params(params)) > 0.0 else z / 8.0
    with monkeypatch.context() as patch:
        patch.setattr(foxh, "_miss_gate", lambda *args: math.inf)
        _series_bits(params, far, rel_tol)
    assert _plan_terms(params) > built
    assert _series_bits(params, z, rel_tol) == want
    log_gamma = foxh.log_gamma
    monkeypatch.setattr(foxh, "log_gamma", lambda u: log_gamma(u))
    assert _series_bits(params, z, rel_tol) == want
    assert foxh._kept_plan.cache_info().currsize == 2 and _plan_terms(params) == built


@pytest.mark.parametrize("name, build, z, rel_tol, want, calls", SERIES_BITS,
                         ids=[p[0] for p in SERIES_BITS])
def test_rest_bounds_hold_on_cold_warm_extended_and_rebound_scales(
        monkeypatch, name, build, z, rel_tol, want, calls):
    # the plan keeps each pole's (sine, gain) once _rest_bound has read it:
    # a warm plan, one whose scales a call at a larger argument extended,
    # and a fresh plan after the kernels are rebound must all give every
    # (rest, beyond) of the cold plan, bit for bit
    _fresh_plans(monkeypatch)
    bounds = []
    rest_bound = foxh._rest_bound

    def recording(plan, k, hist, room):
        rest, beyond = rest_bound(plan, k, hist, room)
        bounds.append((k, rest.hex(), beyond.hex()))
        return rest, beyond

    def run(at):
        bounds.clear()
        return _series_bits(params, at, rel_tol), list(bounds)

    monkeypatch.setattr(foxh, "_rest_bound", recording)
    params = reduce_params(build())
    cold = run(z)
    assert cold[0] == want and cold[1]
    plan = foxh._series_plan(foxh._plan(params))
    filled = sum(map(len, plan.scales))
    assert filled and run(z) == cold
    far = z * 8.0 if series_index(params) > 0.0 else z / 8.0
    with monkeypatch.context() as patch:
        patch.setattr(foxh, "_miss_gate", lambda *args: math.inf)
        run(far)
    assert sum(map(len, plan.scales)) > filled
    assert run(z) == cold
    log_gamma = foxh.log_gamma
    monkeypatch.setattr(foxh, "log_gamma", lambda u: log_gamma(u))
    rebound = foxh._series_plan(foxh._plan(params))
    assert rebound is not plan and not any(rebound.scales)
    assert run(z) == cold


def test_a_refusal_from_a_warm_plan_keeps_its_class_and_message(monkeypatch):
    # chain 0's pole s = 0 is summed and kept; chain 1's first pole lies
    # 3e-10 from chain 0's s = -1 and refuses, unstored, on every call
    _fresh_plans(monkeypatch)
    params = FoxHParams(m=2, n=0, upper=(), lower=((0.0, 1.0), (0.5 + 1.5e-10, 0.5)))
    refusals = []
    for _ in range(2):
        with pytest.raises(DegeneratePoles) as err:
            eval_series(params, 0.5)
        refusals.append((type(err.value), str(err.value)))
        assert [len(p) for p in foxh._series_plan(foxh._plan(params)).parts] == [1, 0]
    assert refusals[0] == refusals[1]
    assert refusals[0][1].startswith("left pole chains 1 and 0 nearly collide")


def test_zero_terms_stay_zero_on_a_warm_plan(monkeypatch):
    # the even part's denominator pair zeroes every odd pole of chain 0 at
    # alpha = 1.37; at alpha = 1.5 a merged pole is deferred to its partner
    # chain: both are kept as None and finish to exactly 0
    _fresh_plans(monkeypatch)
    for alpha, z in ((1.37, 0.8), (1.5, 1.2 * cmath.exp(0.4j))):
        params = reduce_params(_even_part_params(alpha))
        first = eval_series(params, z, 1e-9)
        assert eval_series(params, z, 1e-9) == first
        plan = foxh._series_plan(foxh._plan(params))
        zeros = {(c, k) for c, built in enumerate(plan.parts)
                 for k, p in enumerate(built) if p is None}
        for c, k in zeros:
            assert _finish(plan.parts[c][k], cmath.log(z)) == (0.0 + 0.0j, 0.0)
            assert _residue_term(plan.recipe, c, k, cmath.log(z)) == (0.0 + 0.0j, 0.0)
        odd = {(0, k) for k in range(1, len(plan.parts[0]), 2)}
        # at 1.5 chain 1's poles k = 1, 3, 5, ... meet chain 0's k2 = 2, 5,
        # 8, ..., whose even ones the pair leaves alive
        deferred = {(0, k) for k in range(2, len(plan.parts[0]), 6)}
        assert deferred and zeros == (odd if alpha == 1.37 else odd | deferred)


def test_the_plan_table_never_holds_more_than_its_cap(monkeypatch):
    # least recently used out first: sets[0], used again after each new
    # set, stays, beside the PLAN_CAP - 1 newest others
    plans = _fresh_plans(monkeypatch)
    sets = [_even(0.3 + 0.004 * i, 0.6) for i in range(foxh.PLAN_CAP + 8)]
    for i, params in enumerate(sets):
        eval_series(params, 0.7, 1e-9)
        eval_series(sets[0], 0.7, 1e-9)
        assert plans.cache_info().currsize == min(i + 1, foxh.PLAN_CAP)
    assert all(_warm(p) for p in [sets[0]] + sets[-foxh.PLAN_CAP + 1:])
    assert not any(_warm(p) for p in sets[1:9])


def _even(a1, w):
    return FoxHParams(m=2, n=1, upper=((a1, w), (0.5, 0.5)),
                      lower=((0.0, 1.0), (a1, w), (0.5, 0.5)))


def _ramp(a, wa, c, wc):
    return FoxHParams(m=1, n=1, upper=((a, wa), (c, wc)), lower=((0.0, 1.0), (c, wc)))


# series answers of the benchmark's param-sweep (seeds 1-4, rounds 0-39)
# that a careless early refusal turns into refusals, with their recorded
# float.hex of value (real, imaginary), err_est and work.  At the delta
# well's even parts the denominator pair zeroes every odd sweep, so a
# guard that takes the last sweep's size as the rest of the sum refuses
# them; at the ramps a folded denominator pair's sin(pi (c - w k)) makes
# single terms small, so a guard whose envelope keeps that sine refuses.
GUARD_TRAPS = [
    (_even(0.4968300248635019, 0.5031699751364981),
     4.948390106251789 + 0.021657510375150752j,
     ("0x1.dd4c9be266b20p-8", "-0x1.42c235c46461bp-13", "0x1.4672e153e836fp-38", 66)),
    (_even(0.48954192087961135, 0.5104580791203887),
     5.533552402128051 + 0.05779057740582637j,
     ("0x1.26ffb86749771p-8", "-0x1.ed78efe499262p-13", "0x1.83ed8bd9726e3p-39", 74)),
    (_even(0.42703947753050275, 0.5729605224694972),
     3.8031695174669378 + 0.6920681050556398j,
     ("0x1.471c83d19355dp-6", "-0x1.857c67a11e3ebp-7", "0x1.802073f1816d9p-36", 58)),
    (_even(0.4407066564746268, 0.5592933435253732),
     4.974763124687331 + 0.7161191858347306j,
     ("0x1.0e591f5019ba3p-7", "-0x1.3054416f07a5dp-8", "0x1.4520a0239b50bp-37", 68)),
    (_even(0.3661194638466231, 0.6338805361533769),
     5.1780731846903 + 0.7656629379931219j,
     ("0x1.2a4b335679069p-7", "-0x1.0b3fd03e18c54p-8", "0x1.1fb9a04ceb8fap-37", 70)),
    (_even(0.4996659545229548, 0.5003340454770452),
     3.839842871304652 + 0.002597711475236078j,
     ("0x1.606aef1820585p-6", "-0x1.d40622676574ap-15", "0x1.f1873e8b9a14ep-37", 58)),
    (_even(0.24771745759170105, 0.752282542408299),
     5.0221257129679575 - 2.475194485600853j,
     ("0x1.2fb13fce8c97ap-8", "0x1.1845184536641p-7", "0x1.33e7cc4f8e0ffp-37", 70)),
    (_even(0.4978514477575412, 0.5021485522424588),
     4.909698930070007 + 0.025591180142076075j,
     ("0x1.eba482f30008cp-8", "-0x1.8c15ccb86e634p-13", "0x1.c94e2cabe590fp-38", 66)),
    (_ramp(0.5996143479370244, 0.4003856520629757, 0.7885336764097516, 0.21146632359024845),
     6.272916666666667,
     ("0x1.100d7f7b40999p-8", "0x0.0p+0", "0x1.0adea233f2208p-38", 63)),
    (_ramp(0.6036221345292274, 0.39637786547077264, 0.6896266937489621, 0.31037330625103793),
     5.7458333333333345,
     ("0x1.51dd5b19982b2p-8", "0x0.0p+0", "0x1.ae61956bae6ecp-40", 57)),
]


@pytest.mark.parametrize("params, z, want", GUARD_TRAPS,
                         ids=["even-%d" % i for i in range(8)] + ["ramp-0", "ramp-1"])
def test_early_refusal_leaves_these_series_answers_alone(params, z, want):
    assert _series_bits(params, z, 1e-9) == want


@pytest.mark.parametrize("z", [math.exp(150.0), math.exp(-150.0), 1e100, 1e300])
def test_contour_refuses_past_its_log_z_cap(z):
    # past |log z| = 112 the line at the gap midpoint cancels far below
    # its rounding floor, and e^-z and z^0.3 / (1 + z) would only refuse
    # on their err_est after a full integral
    ratio = FoxHParams(m=1, n=1, upper=((0.3, 1.0),), lower=((0.3, 1.0),))
    for params in (EXP, ratio):
        with pytest.raises(NonConvergence):
            eval_contour(params, z)
    if z > 1.0:
        # nor can the series reach e^-z there, so auto refuses as well
        with pytest.raises(NonConvergence):
            eval_auto(EXP, z)


_ENTRY = st.tuples(st.sampled_from((0.0, 0.25, 0.5, 1.5)),
                   st.sampled_from((0.5, 1.0, 2.0)))
# cancelling pads take values no other entry has
_FRESH = st.tuples(st.sampled_from((0.1, 0.6, 0.85)), st.sampled_from((0.5, 1.0)))


@st.composite
def _original_and_padded(draw):
    """A parameter set with reflection pairs in it, and the same set padded
    with cancelling pairs, every pad at a random position."""
    rnd = draw(st.randoms(use_true_random=False))
    low_m, up_n, low_r, up_r = (draw(st.lists(_ENTRY, max_size=2)) for _ in range(4))
    low_m.append(draw(_ENTRY))

    def pad(pool, pairs, lists):
        for _ in range(pairs):
            entry = draw(pool)
            for lst in lists:
                lst.insert(rnd.randrange(len(lst) + 1), entry)

    def params():
        return FoxHParams(m=len(low_m), n=len(up_n),
                          upper=tuple(up_n + up_r), lower=tuple(low_m + low_r))
    pad(_ENTRY, draw(st.integers(0, 2)), (low_m, up_n))   # numerator reflection
    pad(_ENTRY, draw(st.integers(0, 2)), (low_r, up_r))   # denominator reflection
    original = params()
    pad(_FRESH, draw(st.integers(0, 2)), (low_m, up_r))   # Gamma(b + B s) / itself
    pad(_FRESH, draw(st.integers(0, 2)), (up_n, low_r))   # Gamma(1 - a - A s) / itself
    return original, params()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_original_and_padded(),
       st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 3.0)),
                min_size=1, max_size=4))
def test_matcher_strips_cancelling_pads_and_folds_reflection_pairs(sets, points):
    original, padded = sets
    reduced = reduce_params(padded)
    assert reduced == reduce_params(original)
    # off the real axis no gamma argument is near a pole
    s = np.array([complex(x, y) for x, y in points])
    folded = _log_theta(reduced, _reflection_pairs(reduced), s)
    plain = _log_theta(padded, (), s)
    for a, b in zip(folded, plain):
        assert _distance_mod_2pi_i(complex(a), complex(b)) <= 1e-12 * (1.0 + abs(b))


def test_series_refuses_at_its_term_cap():
    # series index 1e-3: at z = 1 the terms fall like k^(-0.001 k), far too
    # slowly to stop within TERM_CAP terms
    params = FoxHParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.001),))
    with pytest.raises(NonConvergence, match="^H series hit the 2000-term cap$"):
        eval_series(params, 1.0, 1e-9)


def test_rest_bound_waits_for_a_chain_with_one_nonzero_term(monkeypatch):
    # 1/Gamma(-8 + k) zeroes the first chain's poles k <= 8, so at sweep 9 it
    # has one nonzero term and no envelope: the bound is inf and the series
    # sums one more sweep, which stays within err_est of the Meijer G value
    params = FoxHParams(m=2, n=0, upper=(), lower=((0.0, 1.0), (0.5, 1.0), (9.0, 1.0)))
    bounds = []

    def recording(recipe, k, hist, room):
        out = rest_bound(recipe, k, hist, room)
        bounds.append((k, {c: len(h) for c, h in hist.items()}, out))
        return out

    rest_bound = foxh._rest_bound
    monkeypatch.setattr(foxh, "_rest_bound", recording)
    r = eval_series(params, 1.0, 1e-9)
    assert bounds[0] == (9, {0: 1, 1: 3}, (math.inf, 0.0))
    assert r.work == 22
    with mp.workdps(30):
        ref = complex(mp.meijerg([[], []], [[0, 0.5], [9]], 1))
    assert abs(r.value - ref) <= r.err_est


def test_series_waits_for_a_chain_whose_first_poles_are_zeroed():
    # 1/Gamma(1 - 10 - s) zeroes the chain's poles k <= 9 (k <= -b - B (1 - b')/B'
    # = 9): the chain stays live with no bound until then, where three
    # all-zero sweeps used to stop the sum at 0 with err_est 0
    params = FoxHParams(m=1, n=1, upper=((0.5, 0.5),), lower=((0.0, 1.0), (10.0, 1.0)))
    for z, want in ((0.5, 1.2689e-8), (2.0, 9.7003e-3)):
        r = eval_series(params, z, 1e-9)
        with mp.workdps(30):
            ref = complex(mp.fsum((-1) ** k / mp.factorial(k) * mp.gamma(0.5 + 0.5 * k)
                                  / mp.gamma(k - 9) * mp.mpf(z) ** k for k in range(10, 200)))
        assert ref.real == pytest.approx(want, rel=1e-4)
        assert abs(r.value - ref) <= r.err_est <= 1e-9 * abs(r.value)


def test_contour_refuses_pole_families_that_nearly_touch():
    params = FoxHParams(m=1, n=1, upper=((1.0 - 1e-7, 1.0),), lower=((0.0, 1.0),))
    with pytest.raises(NoSeparatingContour,
                       match=r"^pole families separated by 1\.00e-07 only$"):
        eval_contour(params, 0.5, 1e-9)


def test_contour_refuses_a_sum_that_overflows():
    # Gamma(566 + 4 s) peaks past exp(709) beside the real axis at the line
    # Re s = -140.5, and at z = exp(4 psi(4)) z^-s cancels its phase there,
    # so the node sum reaches inf with one sign; the value, about 1e306,
    # is refused rather than returned as inf
    params = FoxHParams(m=1, n=0, upper=(), lower=((566.0, 4.0),))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonConvergence, match="^contour overflowed double range$"):
        eval_contour(params, 152.08972971241963, 1e-9)


def _contour_bits(params, z, rel_tol=1e-9):
    try:
        r = eval_contour(params, z, rel_tol)
    except EvaluationError as exc:
        return type(exc), str(exc)
    return r.value.real.hex(), r.value.imag.hex(), r.err_est.hex(), r.work


def _kept_nodes(params):
    return sum(len(s) for s, _ in foxh._plan(params).rungs.values())


def _wider(params, z):
    """z turned halfway from its phase to the sector edge: the same |z|,
    so the same step, and half the decay rate, so a longer cut."""
    edge = 0.5 * math.pi * sigma(reduce_params(params))
    phase = abs(cmath.phase(z))
    return abs(z) * cmath.exp(1j * (phase + 0.5 * (edge - phase)))


@pytest.mark.parametrize("params, z", [
    (_even_part_params(1.5), 9.0 * cmath.exp(-0.25j * math.pi / 3.0)),
    (_odd_part_params(1.2), 30.0 * cmath.exp(-0.1j * math.pi / 2.4)),
    (_h_params(LinearConfig(alpha=1.5, theta=0.3)), 8.0),
    (DELTA0_SETS["a"], 1.1),
    (ZERO_ON_THE_LINE, 0.5),
    (EXP, 10.0 * cmath.exp(0.7j)),
], ids=["readme-well", "odd-1.2", "ramp", "delta0-a", "zero-0.5", "exp"])
def test_contour_bits_hold_on_cold_warm_extended_and_rebound_nodes(monkeypatch, params, z):
    # the plan keeps log theta on its step's rung: a warm call, one after a
    # call at a smaller decay rate has extended the kept nodes, and one on a
    # fresh plan after the kernels are rebound must all give the cold bits
    _fresh_plans(monkeypatch)
    cold = _contour_bits(params, z)
    assert isinstance(cold[3], int)
    kept = _kept_nodes(params)
    assert kept == cold[3] // 2
    assert _contour_bits(params, z) == cold
    wide = _contour_bits(params, _wider(params, z))
    assert wide[3] > cold[3] and _kept_nodes(params) == wide[3] // 2
    assert _contour_bits(params, z) == cold
    log_gamma = foxh.log_gamma
    monkeypatch.setattr(foxh, "log_gamma", lambda u: log_gamma(u))
    assert _contour_bits(params, z) == cold
    assert foxh._kept_plan.cache_info().currsize == 2 and _kept_nodes(params) == kept


@pytest.mark.parametrize("a", [1e-4, 0.02, 0.2, 0.4, 0.8, 1.6])
def test_contour_step_is_a_ladder_rung_at_most_one_rung_below_the_step(a):
    # err_est's discretisation bound needs h_j <= the step; the node count
    # grows by at most 2^(1/16) - 1 = 4.4 % when h_j is above step / 2^(1/16)
    den = foxh._LOG_INV_EPS + foxh._LOG_STRIP_GROWTH
    h0 = 2.0 * math.pi * a / den
    rungs = set()
    for log_abs_z in np.linspace(0.0, foxh.CONTOUR_LOG_Z_CAP, 2001):
        ideal = 2.0 * math.pi * a / (den + a * log_abs_z)
        j, h = foxh._contour_step(a, log_abs_z)
        assert ideal / 2.0 ** (1.0 / 16.0) <= h <= ideal, (a, log_abs_z)
        assert h == h0 * 2.0 ** (-j / 16.0)
        rungs.add(j)
    assert foxh._contour_step(a, 0.0) == (0, h0)
    assert rungs == set(range(max(rungs) + 1))


def test_contour_plans_keep_at_most_their_node_cap_and_go_least_recently_used_first(
        monkeypatch):
    _fresh_plans(monkeypatch)
    well = _even_part_params(1.5)
    z = 9.0 * cmath.exp(-0.25j * math.pi / 3.0)
    fresh = _contour_bits(well, z), _contour_bits(well, _wider(well, z))
    # with a cap below the wider call's nodes, its extension is evaluated
    # and not kept, and every answer keeps its bits
    _fresh_plans(monkeypatch)
    cap = fresh[0][3] // 2 + 10
    monkeypatch.setattr(foxh, "_KEPT_NODE_CAP", cap)
    assert _contour_bits(well, z) == fresh[0]
    for _ in range(2):
        assert _contour_bits(well, _wider(well, z)) == fresh[1]
        assert _kept_nodes(well) == fresh[0][3] // 2
    # a second rung counts against the same cap: a call at another |z|
    # needing more than the room left keeps nothing
    assert foxh._contour_step(foxh._plan(well).line[1], math.log(90.0))[0] == 2
    assert _contour_bits(well, 10.0 * z)[3] // 2 > 10
    assert list(foxh._plan(well).rungs) == [1]
    # a series-index-0 set gets a plan with no series part
    plans = _fresh_plans(monkeypatch)
    monkeypatch.setattr(foxh, "_KEPT_NODE_CAP", 1 << 11)
    with pytest.raises(NonConvergence, match="series index 0"):
        eval_series(DELTA0_SETS["a"], 1.1, 1e-9)
    eval_contour(DELTA0_SETS["a"], 1.1, 1e-9)
    assert plans.cache_info().currsize == 1
    plan = foxh._plan(DELTA0_SETS["a"])
    assert plan.recipe is None and plan.line is not None and plan.rungs
    # least recently used out first: sets[0], used again after each new
    # set, stays beside the PLAN_CAP - 1 newest others
    sets = [_even(0.3 + 0.004 * i, 0.6) for i in range(foxh.PLAN_CAP + 8)]
    for i, params in enumerate(sets):
        eval_contour(params, 0.7, 1e-9)
        eval_contour(sets[0], 0.7, 1e-9)
        assert plans.cache_info().currsize == min(i + 2, foxh.PLAN_CAP)
        assert all(_kept_nodes(p) <= foxh._KEPT_NODE_CAP for p in sets[max(0, i - 3):i + 1])
    assert all(_warm(p) for p in [sets[0]] + sets[-foxh.PLAN_CAP + 1:])
    assert not any(_warm(p) for p in sets[1:9])


@pytest.mark.parametrize("params, z, match", [
    (_binomial(1e-5)[0], 2.0, "nodes"),
    (_even_part_params(1.9), 5.0 * cmath.exp(-0.485j * math.pi * sigma(_even_part_params(1.9))),
     "tail"),
    (FoxHParams(m=1, n=0, upper=(), lower=((566.0, 4.0),)), 152.08972971241963,
     "^contour overflowed double range$"),
], ids=["node-cap", "tail-cap", "overflow"])
def test_a_contour_refusal_from_a_warm_plan_keeps_its_class_and_message(
        monkeypatch, params, z, match):
    # every node a call sums is kept, so the repeat sums only kept nodes
    _fresh_plans(monkeypatch)
    monkeypatch.setattr(foxh, "_KEPT_NODE_CAP", 1 << 17)
    with np.errstate(over="ignore", invalid="ignore"):
        cold = _contour_bits(params, z)
        kept = _kept_nodes(params)
        assert _contour_bits(params, z) == cold
    assert cold[0] is NonConvergence and re.search(match, cold[1])
    # the node cap refuses before any node is evaluated
    assert (kept == 0) == (match == "nodes")
