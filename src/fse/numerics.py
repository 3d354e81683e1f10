"""Low-level numerical kernels: log-gamma, digamma, the reflection pair
Gamma(u) Gamma(1 - u) and the log-space power sum.

The log-gamma here is the one routine everything upstream leans on, so it
costs O(1) per argument.  A real scalar (a float, or a complex with a zero
imaginary part) goes to math.lgamma, with i pi added where Gamma < 0.
Arrays take a vectorized numpy form of the 14-term Lanczos sum on
Re z >= 0.5 and of the reflection formula on the rest of the plane, and a
complex scalar takes the same path as a one-element array.  The result is
defined modulo 2 pi i, since every caller only exponentiates it; it stays
within 64 eps (relative, or absolute below 1) of mpmath's loggamma for
Re z in [-1000, 30] and |Im z| <= 400, including arguments 1e-9 from a
pole.

log_reflection gives log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u)
directly, so a product of two gammas costs one sine; pi_cot_pi is its
u-derivative up to sign.  log_gamma and log_reflection take real and
complex scalars and arrays; digamma and pi_cot_pi take real scalars only
and raise TypeError on a non-real one.

The H-functions of this package have real parameters, so every residue
term calls these four kernels at real scalar arguments, once or twice per
gamma factor per term; their real paths are written out in math inside
the function itself: no conversion to complex, no inner call.  A float,
the type the residue terms pass, goes to that path before any other type
test; a numpy float64 and a complex with imaginary part 0.0 reach it
after them and give the same bits.  Complex arguments arise only on the
Mellin-Barnes contour, which evaluates whole arrays of s at once.
Nothing is cached: a kernel is a pure function of one argument, and
residue-term arguments seldom repeat, so a memo would cost lookups and
memory for few hits.
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
# beyond this |Im z|, sin(pi z) is one exponential to within e^(-2 pi 20)
_SIN_SPLIT = 20.0
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)


def _lanczos_half_plane(z):
    # valid for Re z >= 0.5
    tmp = z + (_LANCZOS_G + 0.5)
    ser = np.full_like(z, _LANCZOS_C0)
    for j in range(14):
        ser = ser + _LANCZOS_C[j] / (z + (1.0 + j))
    return (z + 0.5) * np.log(tmp) - tmp + np.log(_SQRT_2PI * ser / z)


def _log_sin_pi(z):
    """log sin(pi z) modulo 2 pi i on an array, accurate beside the
    integers: the nearest integer n is subtracted exactly, and past
    |Im z| = _SIN_SPLIT the dominant exponential is factored out."""
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
    Gamma(x) < 0, and complex(inf, 0) past 2.5e305, where the value is past
    double range.  Anything else goes through the array path, a
    complex scalar as a one-element array: the Lanczos sum for
    Re z >= 0.5 and the reflection Gamma(z) Gamma(1 - z) = pi / sin(pi z)
    below.  Arguments within POLE_TOL of a nonpositive integer raise
    PoleOfGamma: the caller is expected to treat those as exact pole hits
    (residue bookkeeping) rather than round through them.
    """
    if type(z) is not float:
        if not isinstance(z, (int, float, complex)):
            z = np.asarray(z, dtype=complex)
            if z.ndim:
                return _log_gamma_array(z)
            z = complex(z)
        if z.imag != 0.0:
            return complex(_log_gamma_array(np.array([z]))[0])
    x = z.real
    if x < 0.5 and abs(x - round(x)) < POLE_TOL:
        raise PoleOfGamma("log_gamma at nonpositive integer")
    try:
        lg = math.lgamma(x)
    except OverflowError:
        # math.lgamma overflows just above 2.5e305, where log Gamma(x) does
        return complex(math.inf, 0.0)
    # Gamma(x) < 0 on (-1, 0), (-3, -2), ...
    if x < 0.0 and math.floor(x) % 2:
        return complex(lg, math.pi)
    return complex(lg, 0.0)


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


def _log_reflection_array(u: np.ndarray) -> np.ndarray:
    x, y = u.real, u.imag
    if np.any((np.abs(x - np.round(x)) < POLE_TOL) & (np.abs(y) < POLE_TOL)):
        raise PoleOfGamma("reflection pair at an integer")
    return _LOG_PI - _log_sin_pi(u)


def log_reflection(u):
    """log Gamma(u) Gamma(1 - u) = log pi - log sin(pi u), modulo 2 pi i.

    Scalars and arrays as in log_gamma: a real scalar is evaluated in math
    (sin(pi u) = (-1)^n sin(pi (u - n)) with n the nearest integer), a
    complex one as a one-element array, an array by _log_sin_pi.
    Arguments within POLE_TOL of any integer raise PoleOfGamma, since one
    of the two gammas has a pole there.
    """
    if type(u) is not float:
        if not isinstance(u, (int, float, complex)):
            if np.ndim(u):
                return _log_reflection_array(np.asarray(u, dtype=complex))
            u = complex(u)
        if u.imag != 0.0:
            return complex(_log_reflection_array(np.array([u]))[0])
    n = round(u.real)
    w = u.real - n
    if abs(w) < POLE_TOL:
        raise PoleOfGamma("reflection pair at integer u = %s" % (complex(u),))
    sin_w = math.sin(math.pi * w)
    odd = (sin_w < 0.0) != (n % 2 == 1)
    return complex(_LOG_PI - math.log(abs(sin_w)), math.pi if odd else 0.0)


def pi_cot_pi(x) -> float:
    """pi cot(pi x) for a real scalar x, taken after subtracting the
    nearest integer exactly.  Within POLE_TOL of an integer it raises
    PoleOfGamma, as log_reflection does, whose u-derivative it is up to
    sign."""
    if type(x) is not float:
        if x.imag != 0.0:
            raise TypeError("pi_cot_pi takes a real argument, got %r" % (x,))
        x = float(x.real)
    n = round(x)
    w = x - n
    if abs(w) < POLE_TOL:
        raise PoleOfGamma("pi cot(pi x) at integer x = %s" % (x,))
    return math.pi / math.tan(math.pi * w)


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


def digamma(x) -> float:
    """Logarithmic derivative of Gamma at a real scalar x off the pole set,
    in math."""
    if type(x) is not float:
        if x.imag != 0.0:
            raise TypeError("digamma takes a real argument, got %r" % (x,))
        x = float(x.real)
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
    # the asymptotic tail sum B_2j/(2j) x^-2j, j = 1..7, smallest power
    # first; the compiler folds each coefficient to one constant
    p1 = 1.0 / (x * x)
    p2 = p1 * p1
    p3 = p2 * p1
    p4 = p3 * p1
    p5 = p4 * p1
    p6 = p5 * p1
    p7 = p6 * p1
    tail = ((1.0 / 12.0) * p1 + (-1.0 / 120.0) * p2 + (1.0 / 252.0) * p3
            + (-1.0 / 240.0) * p4 + (1.0 / 132.0) * p5 + (-691.0 / 32760.0) * p6
            + (1.0 / 12.0) * p7)
    return acc + math.log(x) - 0.5 / x - tail

