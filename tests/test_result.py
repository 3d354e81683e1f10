import math

import numpy as np
import pytest

from fse import (DeltaConfig, EvalResult, LinearConfig, NonConvergence, ValidationError,
                 delta_quadrature)
from fse.result import _accept


def test_err_est_is_stored_as_a_python_float():
    r = EvalResult(np.complex128(1.0 + 2.0j), np.float64(3e-12), "quadrature", 4)
    assert type(r.value) is complex and type(r.err_est) is float
    assert repr(r.err_est) == "3e-12"
    q = delta_quadrature(DeltaConfig(alpha=1.5, theta=0.25), 1.0)
    assert type(q.err_est) is float


@pytest.mark.parametrize("err", [math.nan, np.float64(math.nan)])
def test_nan_err_est_refuses(err):
    with pytest.raises(NonConvergence, match="err_est"):
        EvalResult(1.0, err, "series")


def test_configs_refuse_a_non_finite_k_norm_or_energy():
    for k_norm in (complex(math.inf, 0.0), complex(1.0, math.nan)):
        with pytest.raises(ValidationError, match="k_norm must be finite"):
            DeltaConfig(alpha=1.5, k_norm=k_norm)
    for energy in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="energy must be finite"):
            LinearConfig(alpha=1.5, energy=energy)


def test_accept_refuses_a_non_finite_value():
    for value in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(NonConvergence, match="overflowed double range"):
            _accept(value, 0.0, 1e-9, "route", "series", 1)
