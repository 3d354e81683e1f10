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

from .errors import (DegeneratePoles, DomainError, EvaluationError,
                     GridTooCoarse, NoSeparatingContour, NonConvergence,
                     PoleOfGamma, QuadratureFailure, ValidationError, ZeroBase)
from .result import DeltaConfig, EvalResult, LinearConfig, TimeConfig
from .numerics import log_gamma
from .mittag import ml_contour, ml_eval, ml_series
from .foxh import FoxHParams, eval_auto, eval_contour, eval_series
from .time_factor import time_factor
from .delta import delta_classical, delta_closed_form, delta_quadrature
from .linear import linear_classical_airy, linear_closed_form, linear_quadrature
from .solution import full_solution

__all__ = [
    "DegeneratePoles", "DomainError", "EvaluationError", "GridTooCoarse",
    "NoSeparatingContour", "NonConvergence", "PoleOfGamma",
    "QuadratureFailure", "ValidationError", "ZeroBase",
    "DeltaConfig", "EvalResult", "LinearConfig", "TimeConfig",
    "log_gamma",
    "ml_contour", "ml_eval", "ml_series",
    "FoxHParams", "eval_auto", "eval_contour", "eval_series",
    "time_factor",
    "delta_classical", "delta_closed_form", "delta_quadrature",
    "linear_classical_airy", "linear_closed_form", "linear_quadrature",
    "full_solution",
    "__version__",
]
