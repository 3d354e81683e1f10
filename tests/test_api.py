"""The public API: the separated solutions, their oracles and classical
limits, the H and Mittag-Leffler routes, log_gamma, the configs and the
errors."""

import fse

PUBLIC = {
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
}


def test_all_is_exactly_the_public_names():
    assert len(fse.__all__) == len(PUBLIC) == 31
    assert set(fse.__all__) == PUBLIC
    for name in fse.__all__:
        assert getattr(fse, name) is not None
