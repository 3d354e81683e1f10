import cmath
import math

import numpy as np
import pytest

from fse.delta import _even_part_params, _odd_part_params
from fse.errors import (DegeneratePoles, DomainError, EvaluationError,
                        NonConvergence, PoleOfGamma, ValidationError, ZeroBase)
from fse.foxh import (FoxHParams, _gamma_factors, _log_theta, _reflection_pairs,
                      _residue_term, eval_auto, eval_contour, eval_series, exists,
                      from_meijer_g, invert_argument, lemma31_check,
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


@pytest.mark.parametrize("alpha, zeta", [
    # chain 1's pole k = 18 lies 2.8e-8 from chain 0's pole at s = -27,
    # one sweep past where the plain stop rule fires
    (1.473684212, 1.5),
    # chain 1's pole k = 16 lies 6.3e-3 from chain 0's: its term is below
    # rel_tol but above the error the stop rule used to claim
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


def test_contour_with_complex_parameters():
    # a complex shift makes theta(conj s) != conj theta(s), so the contour
    # must evaluate both half-lines
    shift = 0.25 + 0.4j
    base = _even_part_params(1.5)
    params = shift_by_power(base, shift)
    assert any(b.imag != 0.0 for b, _ in params.lower)
    for z in (0.8, 1.2 * cmath.exp(-0.2j), 2.5 * cmath.exp(0.3j)):
        c = eval_contour(params, z, 1e-10)
        s = eval_series(params, z, 1e-10)
        assert abs(c.value - s.value) <= c.err_est + s.err_est
        want = cmath.exp(shift * cmath.log(z)) * eval_series(base, z, 1e-10).value
        assert abs(c.value - want) <= 1e-9 * abs(want)


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
        (reduce_params(shift_by_power(_even_part_params(1.37), 0.25 + 0.4j)), 2),
    ]


def _pairing_points(params):
    """Random s, and s putting each pair's argument u at n +- 1e-9."""
    rng = np.random.default_rng(37)
    s = list(rng.uniform(-12, 6, 20) + 1j * rng.uniform(-40, 40, 20))
    s += list(rng.uniform(-12, 6, 10) + 1j * rng.uniform(-1, 1, 10))
    at_zero = _gamma_factors(params, 0.0)
    for grow, _ in _reflection_pairs(params):
        _, u0, du, _ = at_zero[grow]
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


def test_denominator_pair_zeroes_residue_terms():
    # even part: the denominator pair 1 / Gamma(1/2 - s/2) Gamma(1/2 + s/2)
    # is cos(pi s / 2) / pi, zero at the odd poles s = -k of Gamma(s)
    params = reduce_params(_even_part_params(1.37))
    pairs = _reflection_pairs(params)
    assert any(g >= params.m + params.n for g, _ in pairs)
    logz = cmath.log(0.9)
    for k in range(12):
        term, errb = _residue_term(params, pairs, 0, k, logz)
        if k % 2:
            assert term == 0.0 and errb == 0.0
        else:
            assert term != 0.0


def _term_or_refusal(params, pairs, chain, k, logz):
    try:
        return _residue_term(params, pairs, chain, k, logz)
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
        pairs = _reflection_pairs(params)
        assert pairs
        for chain in range(params.m):
            for k in range(40):
                got = _term_or_refusal(params, pairs, chain, k, logz)
                ref = _term_or_refusal(params, (), chain, k, logz)
                if isinstance(ref, type):
                    assert got is ref, (chain, k)
                    continue
                (t1, e1), (t2, e2) = got, ref
                assert abs(t1 - t2) <= e1 + e2 + 1e-300, (chain, k)
