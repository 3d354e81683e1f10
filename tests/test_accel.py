import math

import numpy as np

from fse.accel import euler_alternating


def test_euler_alternating_log2():
    # sum (-1)^k/(k+1) = ln 2; raw tail after 25 terms is only ~0.02
    terms = [(-1.0) ** k / (k + 1.0) for k in range(25)]
    est, spread = euler_alternating(terms)
    assert abs(est - math.log(2.0)) < 1e-10
    assert spread < 1e-8


def test_euler_alternating_pi():
    # Leibniz series, 4 * sum (-1)^k/(2k+1) = pi
    terms = [4.0 * (-1.0) ** k / (2.0 * k + 1.0) for k in range(30)]
    est, _ = euler_alternating(terms)
    assert abs(est - math.pi) < 1e-10


def _euler_triangle(terms):
    # the averaging triangle itself: each row the pairwise means of the
    # row above, from the partial sums up to a single entry
    row = list(np.cumsum([complex(v) for v in terms]))
    last = [row[-1]]
    while len(row) >= 2:
        row = [0.5 * (row[j] + row[j + 1]) for j in range(len(row) - 1)]
        last.append(row[-1])
    return last[-1], abs(last[-1] - last[-2]) if len(last) >= 2 else abs(last[-1])


def test_euler_alternating_matches_its_triangle():
    rng = np.random.default_rng(11)
    for n in range(1, 97):
        k = np.arange(n)
        terms = ((-1.0) ** k * rng.uniform(0.5, 2.0, n) / (1.0 + k)
                 * np.exp(1j * rng.uniform(-0.5, 0.5, n)))
        scale = np.max(np.abs(np.cumsum(terms)))
        est, spread = euler_alternating(terms)
        want, want_spread = _euler_triangle(terms)
        assert abs(est - want) <= 1e-14 * scale
        assert abs(spread - want_spread) <= 1e-14 * scale

