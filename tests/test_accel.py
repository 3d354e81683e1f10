import math

import numpy as np
import pytest

from fse.accel import euler_alternating


def _euler_triangle(terms):
    # the averaging triangle itself: each row the pairwise means of the
    # row above, from the partial sums up to a single entry
    row = list(np.cumsum([complex(v) for v in terms]))
    last = [row[-1]]
    while len(row) >= 2:
        row = [0.5 * (row[j] + row[j + 1]) for j in range(len(row) - 1)]
        last.append(row[-1])
    return last[-1], abs(last[-1] - last[-2]) if len(last) >= 2 else abs(last[-1])


def _check_every_prefix(terms):
    # one call gives the estimate and spread of every prefix of terms;
    # each must be its own triangle's
    est, spread = euler_alternating(terms)
    assert est.shape == spread.shape == (len(terms),)
    for n in range(1, len(terms) + 1):
        scale = np.max(np.abs(np.cumsum(terms[:n])))
        want, want_spread = _euler_triangle(terms[:n])
        assert abs(est[n - 1] - want) <= 1e-14 * scale
        assert abs(spread[n - 1] - want_spread) <= 1e-14 * scale
    return est, spread


def test_euler_alternating_log2():
    # sum (-1)^k/(k+1) = ln 2; raw tail after 25 terms is only ~0.02
    terms = np.array([(-1.0) ** k / (k + 1.0) for k in range(25)])
    est, spread = _check_every_prefix(terms)
    assert abs(est[-1] - math.log(2.0)) < 1e-10
    assert spread[-1] < 1e-8


def test_euler_alternating_pi():
    # Leibniz series, 4 * sum (-1)^k/(2k+1) = pi
    terms = np.array([4.0 * (-1.0) ** k / (2.0 * k + 1.0) for k in range(30)])
    est, _ = _check_every_prefix(terms)
    assert abs(est[-1] - math.pi) < 1e-10


def test_euler_alternating_matches_its_triangle():
    rng = np.random.default_rng(11)
    k = np.arange(96)
    terms = ((-1.0) ** k * rng.uniform(0.5, 2.0, k.size) / (1.0 + k)
             * np.exp(1j * rng.uniform(-0.5, 0.5, k.size)))
    _check_every_prefix(terms)


def test_an_empty_sequence_refuses():
    with pytest.raises(ValueError, match="empty sequence"):
        euler_alternating([])
