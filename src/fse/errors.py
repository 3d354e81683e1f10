"""Exception taxonomy for the solver stack.

Every failure mode that callers are expected to branch on gets its own
class.  All of them derive from EvaluationError so blanket handling
stays possible; ValidationError is separate because it signals bad
configuration rather than a numerical breakdown.
"""


class ValidationError(ValueError):
    """A configuration value is outside its admissible range."""


class EvaluationError(RuntimeError):
    """Base class for numerical failures during evaluation."""


class PoleOfGamma(EvaluationError):
    """Log-gamma requested at (or within tolerance of) a nonpositive integer."""


class ZeroBase(EvaluationError):
    """A power or H-function was requested at argument exactly zero."""


class NonConvergence(EvaluationError):
    """An iterative scheme ran out of terms or panels before meeting tolerance."""


class DegeneratePoles(EvaluationError):
    """Residue series hit a multiple pole before the partial sum converged."""


class NoSeparatingContour(EvaluationError):
    """No vertical line separates the two families of gamma poles."""


class QuadratureFailure(EvaluationError):
    """An oracle integral could not be driven to the requested accuracy."""


class GridTooCoarse(EvaluationError):
    """A sampling grid is too short or too irregular for the requested check."""


class DomainError(EvaluationError):
    """The evaluation point lies outside the region where the formula holds."""
