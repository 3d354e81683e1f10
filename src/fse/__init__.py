"""Closed-form solutions of the space-time fractional Schrodinger equation.

Separated solutions psi(x,t) = f(t) phi(x) with a Caputo fractional
time derivative (order beta in (0,1]) and a skewed fractional space
derivative (order alpha in (1,2], skewness |theta| <= min(alpha,
2-alpha)).  The time factor is a Mittag-Leffler function; the spatial
wavefunctions for the attractive point potential and the linear ramp
are H-functions, each cross-checked against an independent quadrature
route.
"""

__version__ = "0.1.0"

from .errors import (ConfigMismatch, DegeneratePoles, DomainError,
                     EvaluationError, GridTooCoarse, NoSeparatingContour,
                     NonConvergence, PoleOfGamma, QuadratureFailure,
                     ValidationError, ZeroBase)
from .result import DeltaConfig, EvalResult, LinearConfig, TimeConfig
from .numerics import log_gamma, principal_power, signum
from .mittag import ml_contour, ml_eval, ml_series, ml_as_foxh
from .foxh import (FoxHParams, boundary_radius, eval_auto, eval_contour,
                   eval_series, exists, from_meijer_g, invert_argument,
                   lemma31_check, reduce_params, scale_argument_power,
                   shift_by_power, sigma)
from .time_factor import time_factor, time_factor_via_h
from .delta import (delta_classical, delta_closed_form, delta_quadrature,
                    delta_riesz_form)
from .linear import (linear_classical_airy, linear_closed_form,
                     linear_mellin_factor, linear_momentum_spectrum,
                     linear_quadrature, linear_series)
from .quadrature import GridSpec, fourier_pair_check
from .solution import full_solution

__all__ = [
    "ConfigMismatch", "DegeneratePoles", "DomainError", "EvaluationError",
    "GridTooCoarse", "NoSeparatingContour", "NonConvergence", "PoleOfGamma",
    "QuadratureFailure", "ValidationError", "ZeroBase",
    "DeltaConfig", "EvalResult", "LinearConfig", "TimeConfig",
    "log_gamma", "principal_power", "signum",
    "ml_contour", "ml_eval", "ml_series", "ml_as_foxh",
    "FoxHParams", "boundary_radius", "eval_auto", "eval_contour",
    "eval_series", "exists", "from_meijer_g", "invert_argument",
    "lemma31_check", "reduce_params", "scale_argument_power",
    "shift_by_power", "sigma",
    "time_factor", "time_factor_via_h",
    "delta_classical", "delta_closed_form", "delta_quadrature",
    "delta_riesz_form",
    "linear_classical_airy", "linear_closed_form", "linear_mellin_factor",
    "linear_momentum_spectrum", "linear_quadrature", "linear_series",
    "GridSpec", "fourier_pair_check",
    "full_solution",
    "__version__",
]
