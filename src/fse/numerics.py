"""Low-level numerical kernels: log-gamma, digamma, the reflection pair
Gamma(u) Gamma(1 - u) and quadrature nodes.

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
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleOfGamma, ZeroBase

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


def _log_gamma_real(x: float) -> complex:
    if x < 0.5 and abs(x - round(x)) < POLE_TOL:
        raise PoleOfGamma("log_gamma at nonpositive integer")
    # Gamma(x) < 0 on (-1, 0), (-3, -2), ...
    if x < 0.0 and math.floor(x) % 2:
        return complex(math.lgamma(x), math.pi)
    return complex(math.lgamma(x), 0.0)


def _log_gamma_scalar(z: complex) -> complex:
    if z.imag == 0.0 and z.real < _LGAMMA_MAX:
        return _log_gamma_real(z.real)
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
    if isinstance(z, (int, float, complex)):
        return _log_gamma_scalar(complex(z))
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return _log_gamma_scalar(complex(z))
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
    if isinstance(u, (int, float, complex)) or np.ndim(u) == 0:
        u = complex(u)
        n = round(u.real)
        w = u.real - n
        if abs(w) < POLE_TOL and abs(u.imag) < POLE_TOL:
            raise PoleOfGamma("reflection pair at integer u = %s" % (u,))
        if u.imag == 0.0:
            sin_w = math.sin(math.pi * w)
            odd = (sin_w < 0.0) != (n % 2 == 1)
            return complex(_LOG_PI - math.log(abs(sin_w)), math.pi if odd else 0.0)
        return _LOG_PI - _log_sin_pi_scalar(u)
    u = np.asarray(u, dtype=complex)
    x, y = u.real, u.imag
    if np.any((np.abs(x - np.round(x)) < POLE_TOL) & (np.abs(y) < POLE_TOL)):
        raise PoleOfGamma("reflection pair at an integer")
    return _LOG_PI - _log_sin_pi(u)


def pi_cot_pi(z):
    """pi cot(pi z) for a scalar, taken after subtracting the nearest
    integer exactly; a real z (imaginary part 0.0) gives a float by math."""
    z = complex(z)
    if z.imag == 0.0:
        return math.pi / math.tan(math.pi * (z.real - round(z.real)))
    return math.pi / cmath.tan(math.pi * (z - round(z.real)))


def signum(p: float) -> int:
    if p > 0.0:
        return 1
    if p < 0.0:
        return -1
    return 0


def principal_power(z, w) -> complex:
    """z**w on the principal branch, arg z in (-pi, pi]."""
    z = complex(z)
    w = complex(w)
    if z == 0.0:
        if w.real > 0.0 and w.imag == 0.0:
            return 0.0 + 0.0j
        raise ZeroBase("0 cannot be raised to a power with Re <= 0")
    return cmath.exp(w * cmath.log(z))


# B_{2k}/(2k) for the digamma asymptotic tail
_PSI_TAIL = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
             1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0)


def digamma(z):
    """Logarithmic derivative of Gamma off the pole set.

    A real argument (a float, or a complex with imaginary part 0.0) is
    evaluated in math and returns a float; anything else in cmath.
    """
    z = complex(z)
    lib = cmath
    if z.imag == 0.0:
        z, lib = z.real, math
    if z.real <= 0.5 and abs(z - round(z.real)) < POLE_TOL and round(z.real) <= 0:
        raise PoleOfGamma("digamma pole at z = %s" % (z,))
    acc = 0.0
    # reflection psi(z) = psi(1 - z) - pi cot(pi z) keeps the upward
    # recurrence short for far-left arguments
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
    return acc + lib.log(z) - 0.5 / z - tail


_leg_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def leg_nodes(order: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    got = _leg_cache.get(order)
    if got is None:
        got = np.polynomial.legendre.leggauss(order)
        _leg_cache[order] = got
    return got


def panel_nodes(a: float, b: float, order: int):
    """Nodes and weights for one Gauss-Legendre panel on [a, b]."""
    x, w = leg_nodes(order)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w
