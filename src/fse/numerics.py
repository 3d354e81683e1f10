"""Low-level numerical kernels: log-gamma, digamma, the reflection pair
Gamma(u) Gamma(1 - u), the log-space power sum and quadrature nodes.

The log-gamma here is the one routine everything upstream leans on, so it
costs O(1) per argument.  A real argument (a float, or a complex with a
zero imaginary part, which is what every residue term of a real-parameter
H-function passes) goes to math.lgamma, with i pi added where Gamma < 0.
Other scalars take a pure-cmath path, a 14-term Lanczos sum on
Re z >= 0.5 and the reflection formula on the rest of the plane, and
arrays a vectorized numpy form of the same.  The result is defined modulo
2 pi i, since every caller only exponentiates it; it stays within 64 eps
(relative, or absolute below 1) of mpmath's loggamma for Re z in
[-1000, 30] and |Im z| <= 400, including arguments 1e-9 from a pole.
digamma has the same split between a real and a complex path.

log_reflection gives log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u)
directly, so a product of two gammas costs one sine; pi_cot_pi is its
u-derivative up to sign.

The residue series of a real-parameter H-function calls these four
kernels at real arguments once or twice per gamma factor per term, so
their real paths are written out in math inside the function itself:
no conversion to complex, no inner call.  A float, a numpy float64 and a
complex with imaginary part 0.0 take the same path and give the same
bits.  Nothing is cached: a kernel is a pure function of one argument,
and residue-term arguments seldom repeat, so a memo would cost lookups
and memory for few hits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergence, PoleOfGamma

MACH_EPS = float(np.finfo(float).eps)

# Lanczos g = 607/128 with the matching 14-term coefficient set; relative
# error of the rational part is below 1e-15 for Re z >= 0.5.
_LANCZOS_G = 4.7421875
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_C = np.array([
    57.1562356658629235, -59.5979603554754912, 14.1360979747417471,
    -0.491913816097620199, 0.339946499848118887e-4, 0.465236289270485756e-4,
    -0.983744753048795646e-4, 0.158088703224912494e-3, -0.210264441724104883e-3,
    0.217439618115212643e-3, -0.164318106536763890e-3, 0.844182239838527433e-4,
    -0.261908384015814087e-4, 0.368991826595316234e-5,
])
_SQRT_2PI = 2.5066282746310005

POLE_TOL = 1e-12
# math.lgamma overflows just above 2.5e305; larger reals take the complex path
_LGAMMA_MAX = 1e305
# beyond this |Im z|, sin(pi z) is one exponential to within e^(-2 pi 20)
_SIN_SPLIT = 20.0
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
_LANCZOS_TERMS = tuple(zip(_LANCZOS_C.tolist(), range(1, 15)))


def _lanczos_scalar(z: complex) -> complex:
    # valid for Re z >= 0.5
    tmp = z + (_LANCZOS_G + 0.5)
    ser = _LANCZOS_C0
    for c, j in _LANCZOS_TERMS:
        ser += c / (z + j)
    return (z + 0.5) * cmath.log(tmp) - tmp + cmath.log(_SQRT_2PI * ser / z)


def _log_sin_pi_scalar(z: complex) -> complex:
    """log sin(pi z) modulo 2 pi i, accurate beside the integers."""
    n = round(z.real)
    w = complex(z.real - n, z.imag)  # exact: |Re w| <= 1/2
    if abs(w.imag) > _SIN_SPLIT:
        side = 1.0 if w.imag > 0.0 else -1.0
        out = -_LOG_2 + side * (0.5j * math.pi - 1j * math.pi * w)
    else:
        out = cmath.log(cmath.sin(math.pi * w))
    return out + 1j * math.pi if n % 2 else out


def _log_gamma_complex(z: complex) -> complex:
    # z off the real axis (or past math.lgamma's range): Lanczos on the
    # right half-plane, reflection on the left
    if z.real >= 0.5:
        return _lanczos_scalar(z)
    if abs(z.imag) < POLE_TOL and abs(z.real - round(z.real)) < POLE_TOL:
        raise PoleOfGamma("log_gamma at nonpositive integer")
    return _LOG_PI - _log_sin_pi_scalar(z) - _lanczos_scalar(1.0 - z)


def _lanczos_half_plane(z):
    # valid for Re z >= 0.5
    tmp = z + (_LANCZOS_G + 0.5)
    ser = np.full_like(z, _LANCZOS_C0)
    for j in range(14):
        ser = ser + _LANCZOS_C[j] / (z + (1.0 + j))
    return (z + 0.5) * np.log(tmp) - tmp + np.log(_SQRT_2PI * ser / z)


def _log_sin_pi(z):
    """Array form of _log_sin_pi_scalar."""
    n = np.round(z.real)
    w = (z.real - n) + 1j * z.imag
    side = np.sign(w.imag)
    far = np.abs(w.imag) > _SIN_SPLIT
    out = np.where(far, -_LOG_2 + side * (0.5j * math.pi - 1j * math.pi * w), 0.0j)
    near = ~far
    out[near] = np.log(np.sin(math.pi * w[near]))
    return out + 1j * math.pi * np.mod(n, 2.0)


def log_gamma(z):
    """log Gamma(z) modulo 2 pi i, in O(1) per argument.

    Every caller only takes exp of the result, so no branch of the
    logarithm is tracked: the imaginary part is fixed only up to a
    multiple of 2 pi.

    A Python (or numpy) int, float or complex is a scalar.  A real scalar
    (imaginary part 0.0) returns math.lgamma(x), plus i pi where
    Gamma(x) < 0.  A complex scalar takes the Lanczos sum for Re z >= 0.5
    and the reflection Gamma(z) Gamma(1 - z) = pi / sin(pi z) below, with
    log sin(pi z) taken after subtracting the nearest integer exactly and
    with the dominant exponential factored out at large |Im z|; that path
    is pure cmath.  Anything else is treated as an array and evaluated the
    same way in numpy, real or not.  Arguments within POLE_TOL of a
    nonpositive integer raise PoleOfGamma: the caller is expected to treat
    those as exact pole hits (residue bookkeeping) rather than round
    through them.
    """
    if not isinstance(z, (int, float, complex)):
        z = np.asarray(z, dtype=complex)
        if z.ndim:
            return _log_gamma_array(z)
        z = complex(z)
    x = z.real
    if z.imag != 0.0 or not x < _LGAMMA_MAX:
        return _log_gamma_complex(complex(z))
    if x < 0.5 and abs(x - round(x)) < POLE_TOL:
        raise PoleOfGamma("log_gamma at nonpositive integer")
    # Gamma(x) < 0 on (-1, 0), (-3, -2), ...
    if x < 0.0 and math.floor(x) % 2:
        return complex(math.lgamma(x), math.pi)
    return complex(math.lgamma(x), 0.0)


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    x, y = z.real, z.imag
    n = np.round(x)
    if np.any((n <= 0) & (np.abs(x - n) < POLE_TOL) & (np.abs(y) < POLE_TOL)):
        raise PoleOfGamma("log_gamma at nonpositive integer")
    left = x < 0.5
    if not np.any(left):
        return _lanczos_half_plane(z)
    out = _lanczos_half_plane(np.where(left, 1.0 - z, z))
    out[left] = _LOG_PI - _log_sin_pi(z[left]) - out[left]
    return out


def log_reflection(u):
    """log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u), modulo 2 pi i.

    Scalars and arrays as in log_gamma: a real scalar is evaluated in math
    (sin(pi u) = (-1)^n sin(pi (u - n)) with n the nearest integer), a
    complex one by _log_sin_pi_scalar, an array by _log_sin_pi.  Arguments
    within POLE_TOL of any integer raise PoleOfGamma, since one of the two
    gammas has a pole there.
    """
    if not isinstance(u, (int, float, complex)):
        if np.ndim(u):
            u = np.asarray(u, dtype=complex)
            x, y = u.real, u.imag
            if np.any((np.abs(x - np.round(x)) < POLE_TOL) & (np.abs(y) < POLE_TOL)):
                raise PoleOfGamma("reflection pair at an integer")
            return _LOG_PI - _log_sin_pi(u)
        u = complex(u)
    n = round(u.real)
    w = u.real - n
    if abs(w) < POLE_TOL and abs(u.imag) < POLE_TOL:
        raise PoleOfGamma("reflection pair at integer u = %s" % (complex(u),))
    if u.imag == 0.0:
        sin_w = math.sin(math.pi * w)
        odd = (sin_w < 0.0) != (n % 2 == 1)
        return complex(_LOG_PI - math.log(abs(sin_w)), math.pi if odd else 0.0)
    return _LOG_PI - _log_sin_pi_scalar(complex(u))


def pi_cot_pi(z):
    """pi cot(pi z) for a scalar, taken after subtracting the nearest
    integer exactly; a real z (imaginary part 0.0) gives a float by math.
    Within POLE_TOL of an integer it raises PoleOfGamma, as log_reflection
    does, whose u-derivative it is up to sign."""
    n = round(z.real)
    w = z.real - n
    if abs(w) < POLE_TOL and abs(z.imag) < POLE_TOL:
        raise PoleOfGamma("pi cot(pi z) at integer z = %s" % (complex(z),))
    if z.imag == 0.0:
        return math.pi / math.tan(math.pi * w)
    return math.pi / cmath.tan(math.pi * (complex(z) - n))


POWER_SUM_CAP = 2000


def power_sum(z: complex, log_coef, rel_tol: float, what: str, head=None):
    """sum_k c_k z^k for real c_k, term k taken as exp(k log z + log c_k).

    log_coef(k) gives log c_k, plus i pi where c_k < 0.  head, when given,
    is the exact k = 0 term; else log_coef(0) gives it too.  At z = 0 only
    that term is left.  The sum stops after three consecutive terms below
    rel_tol times the partial sum: beside a sign flip one small term proves
    nothing.  Returns (value, err_est, nterms), the value real for a real
    z; err_est is the last term, plus (4 + |Re L| + |Im L|) eps |term| per
    term of exponent L, plus eps times the largest partial sum.  A term
    past exp(700) or the POWER_SUM_CAP-term cap raises NonConvergence,
    named by what.
    """
    z = complex(z)
    if z == 0:
        if head is not None:
            return complex(head), 0.0, 1
        expo = log_coef(0)
        term = cmath.exp(expo)
        return term, (5.0 + abs(expo.real) + abs(expo.imag)) * MACH_EPS * abs(term), 1
    logz = cmath.log(z)
    exp = cmath.exp
    total = 0.0j if head is None else complex(head)
    peak = abs(total)
    round_acc = 0.0
    small_run = 0
    for k in range(0 if head is None else 1, POWER_SUM_CAP + 1):
        expo = k * logz + log_coef(k)
        if expo.real > 700.0:
            raise NonConvergence("%s term overflows double range at k=%d" % (what, k))
        term = exp(expo)
        total += term
        size = abs(total)
        if size > peak:
            peak = size
        last_mag = abs(term)
        round_acc += (4.0 + abs(expo.real) + abs(expo.imag)) * MACH_EPS * last_mag
        if last_mag < rel_tol * (size if size > 1e-300 else 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    else:
        raise NonConvergence("%s hit the %d-term cap" % (what, POWER_SUM_CAP))
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise NonConvergence("%s overflowed double range" % what)
    if z.imag == 0.0:
        total = complex(total.real, 0.0)
    return total, last_mag + round_acc + MACH_EPS * peak, k + 1


def signum(p: float) -> int:
    if p > 0.0:
        return 1
    if p < 0.0:
        return -1
    return 0


# B_{2k}/(2k) for the digamma asymptotic tail
_PSI_TAIL = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
             1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0)


def digamma(z):
    """Logarithmic derivative of Gamma off the pole set.

    A real argument (a float, or a complex with imaginary part 0.0) is
    evaluated in math and returns a float; anything else in cmath.
    """
    if z.imag != 0.0:
        return _digamma_complex(complex(z))
    x = float(z.real)
    n = round(x)
    if x <= 0.5 and abs(x - n) < POLE_TOL and n <= 0:
        raise PoleOfGamma("digamma pole at z = %s" % (x,))
    acc = 0.0
    # reflection psi(x) = psi(1 - x) - pi cot(pi x) keeps the upward
    # recurrence short for far-left arguments
    if x < 0.5:
        acc -= math.pi / math.tan(math.pi * (x - n))
        x = 1.0 - x
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _PSI_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def _digamma_complex(z: complex) -> complex:
    n = round(z.real)
    if z.real <= 0.5 and abs(z - n) < POLE_TOL and n <= 0:
        raise PoleOfGamma("digamma pole at z = %s" % (z,))
    acc = 0.0
    if z.real < 0.5:
        acc -= pi_cot_pi(z)
        z = 1.0 - z
    while z.real < 8.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0
    p = inv2
    for c in _PSI_TAIL:
        tail += c * p
        p *= inv2
    return acc + cmath.log(z) - 0.5 / z - tail


_leg_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def leg_nodes(order: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    got = _leg_cache.get(order)
    if got is None:
        got = np.polynomial.legendre.leggauss(order)
        _leg_cache[order] = got
    return got
