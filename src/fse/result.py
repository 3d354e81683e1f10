"""Configuration and result containers shared across the solver modules,
with the input checks and the one acceptance rule (_accept) they share."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NonConvergence, ValidationError

_DBL_MIN = 2.0 ** -1022  # the least normal float


def _check_positive(value, name):
    if not (value > 0.0) or not math.isfinite(value):
        raise ValidationError("%s must be positive and finite" % name)


def _check_rel_tol(rel_tol):
    if not (1e-14 <= rel_tol <= 1e-2):
        raise ValidationError("rel_tol must lie in [1e-14, 1e-2]")


def _check_finite(value, name):
    if not math.isfinite(value):
        raise ValidationError("%s must be finite" % name)


def _check_argument(z, name) -> complex:
    """complex(z) for the argument of the function called name: a NaN z
    refuses as invalid, an infinite one, or a finite one whose modulus
    overflows, as past double range (the class an overflowed argument
    gets)."""
    z = complex(z)
    if cmath.isnan(z):
        raise ValidationError("%s argument is NaN" % name)
    if math.hypot(z.real, z.imag) == math.inf:
        raise NonConvergence("%s argument %r is past double range" % (name, z))
    return z


def _check_scales(scales, names, cfg):
    """scales, the scales derived from cfg in the order of names, once
    each is a normal float in double range: past it, or below the normal
    floats, a product or quotient with it raises or loses its digits.  The
    first that is not refuses with NonConvergence by its name; a caller
    whose arithmetic raised gives inf for the scale it was deriving."""
    for value, name in zip(scales, names):
        if not _DBL_MIN <= abs(value) < math.inf:
            raise NonConvergence("%s is out of double range at %r" % (name, cfg))
    return scales


def _meets_tol(err, value, rel_tol) -> bool:
    """Whether err_est meets rel_tol relative to |value| (floored at 1e-300)."""
    return err <= rel_tol * max(abs(value), 1e-300)


def _route(routes, method):
    """routes[method], refused as bad input when method is not a key."""
    if method not in routes:
        raise ValidationError("method must be one of %s, not %r"
                              % ("|".join(routes), method))
    return routes[method]


def _check_order_pair(alpha, theta):
    if not (1.0 < alpha <= 2.0):
        raise ValidationError("alpha must satisfy 1 < alpha <= 2")
    lim = min(alpha, 2.0 - alpha)
    # skew bound is closed: theta = +-lim is admissible; a NaN theta fails
    if not abs(theta) <= lim + 1e-15:
        raise ValidationError(
            "theta violates |theta| <= min(alpha, 2 - alpha): "
            "got theta=%g with alpha=%g" % (theta, alpha))


@dataclass(frozen=True)
class TimeConfig:
    """Parameters of the separated time factor f(t) = f0 * E_beta(...)."""

    beta: float
    hbar: float = 1.0
    energy: complex = -1.0 + 0.0j
    f0: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValidationError("beta must satisfy 0 < beta <= 1")
        _check_positive(self.hbar, "hbar")
        e = complex(self.energy)
        f = complex(self.f0)
        if not all(math.isfinite(v) for v in (e.real, e.imag, f.real, f.imag)):
            raise ValidationError("energy and f0 must be finite")
        object.__setattr__(self, "energy", e)
        object.__setattr__(self, "f0", f)


@dataclass(frozen=True)
class DeltaConfig:
    """Attractive point potential, bound state at energy < 0.

    c_alpha scales |p|^alpha in the kinetic symbol; gamma_strength is the
    potential weight; k_norm is the free overall normalization scalar.
    """

    alpha: float
    theta: float = 0.0
    hbar: float = 1.0
    c_alpha: float = 1.0
    energy: float = -1.0
    gamma_strength: float = 1.0
    k_norm: complex = 1.0 + 0.0j

    def __post_init__(self):
        _check_order_pair(self.alpha, self.theta)
        _check_positive(self.hbar, "hbar")
        _check_positive(self.c_alpha, "c_alpha")
        if not (self.energy < 0.0) or not math.isfinite(self.energy):
            raise ValidationError("energy must be negative for the point-potential bound state")
        _check_positive(self.gamma_strength, "gamma_strength")
        k = complex(self.k_norm)
        if not (math.isfinite(k.real) and math.isfinite(k.imag)):
            raise ValidationError("k_norm must be finite")
        object.__setattr__(self, "k_norm", k)


@dataclass(frozen=True)
class LinearConfig:
    """Uniform-force potential slope * x for x > 0 at any real energy."""

    alpha: float
    theta: float = 0.0
    hbar: float = 1.0
    c_alpha: float = 1.0
    energy: float = 0.0
    slope: float = 1.0

    def __post_init__(self):
        _check_order_pair(self.alpha, self.theta)
        _check_positive(self.hbar, "hbar")
        _check_positive(self.c_alpha, "c_alpha")
        if not math.isfinite(self.energy):
            raise ValidationError("energy must be finite")
        _check_positive(self.slope, "slope")

    @property
    def n_norm(self) -> float:
        """Overall amplitude, recomputed from the current fields every time."""
        a1 = self.alpha + 1.0
        return (1.0 / (2.0 * math.pi * self.hbar)) * (
            self.c_alpha / (self.slope * self.hbar * a1)) ** (-1.0 / a1)


@dataclass
class EvalResult:
    """A single evaluated value with an error estimate and the route used.

    value is stored as a Python complex and err_est as a Python float; a
    non-finite value or a NaN err_est refuses as NonConvergence.
    """

    value: complex
    err_est: float
    method: str
    work: int = 0

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonConvergence("result value is not finite")
        e = float(self.err_est)
        if math.isnan(e):
            raise NonConvergence("result err_est is NaN")
        self.value = v
        self.err_est = e


def _accept(value: complex, err: float, rel_tol: float, what: str, method: str,
            work: int) -> EvalResult:
    """The answer of a route named what, refused when its value is not
    finite or its err_est misses rel_tol (_meets_tol)."""
    if not cmath.isfinite(value):
        raise NonConvergence("%s overflowed double range" % what)
    if not _meets_tol(err, value, rel_tol):
        raise NonConvergence(
            "%s error estimate %.2e misses rel_tol at |value| %.2e"
            % (what, err, abs(value)))
    return EvalResult(value, err, method, work)
