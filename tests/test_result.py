import math

import numpy as np
import pytest

from fse import DeltaConfig, EvalResult, NonConvergence, delta_quadrature


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

