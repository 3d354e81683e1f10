"""Mellin-Barnes references for H-functions whose left pole chains meet,
and for the points where the contour route has to carry the value.

Run from the repository root as `PYTHONPATH=src:. python tests/collision_refs.py`
(a few minutes); it prints the COLLISION_REFS, CONTOUR_REFS and DELTA0_REFS
tables that tests/test_foxh.py stores.  Each value is

    H(z) = (1/2 pi) int theta(gamma + i t) z^-(gamma + i t) dt,

theta built from mpmath gamma functions of the parameters alone, on a
vertical line Re s = gamma midway between the left and the right pole
chains, by mpmath.quad at 30 digits (25 for CONTOUR_REFS, whose points
near the sector edge need |t| out to about 900) on 4-unit pieces of
|t| <= 60 (one piece over the whole line is off by about 1e-9 at
complex z).  Pieces are added past 60 until one adds less than 1e-25 of
the value.
"""

import cmath
import math

import mpmath as mp

from fse.delta import _even_part_params, _odd_part_params
from fse.foxh import FoxHParams, sigma
from fse.linear import _h_params
from fse.result import LinearConfig

_PIECE = 4
_T_MIN = 60


def theta(params, s):
    """The Mellin-Barnes integrand's gamma ratio at s, in mpmath."""
    m, n = params.m, params.n
    val = mp.mpc(1)
    for b, wt in params.lower[:m]:
        val *= mp.gamma(b + wt * s)
    for a, wt in params.upper[:n]:
        val *= mp.gamma(1 - a - wt * s)
    for b, wt in params.lower[m:]:
        val *= mp.rgamma(1 - b - wt * s)
    for a, wt in params.upper[n:]:
        val *= mp.rgamma(a + wt * s)
    return val


def line_integral(params, z, dps=30):
    """H(z) by quadrature of the Mellin-Barnes integral, as a Python complex."""
    with mp.workdps(dps):
        left = [mp.mpf(-b) / wt for b, wt in params.lower[:params.m]]
        right = [(1 - mp.mpf(a)) / wt for a, wt in params.upper[:params.n]]
        gamma = (max(left) + min(right)) / 2 if right else max(left) + 1
        logz = mp.log(mp.mpc(z))

        def f(t):
            s = gamma + 1j * t
            return theta(params, s) * mp.exp(-s * logz)

        acc = mp.mpc(0)
        t = 0
        while True:
            piece = (mp.quad(f, [t, t + _PIECE])
                     + mp.quad(f, [-t - _PIECE, -t]))
            acc += piece
            t += _PIECE
            if t >= _T_MIN and abs(piece) < mp.mpf(10) ** -25 * abs(acc):
                break
        return complex(acc / (2 * mp.pi))


ALPHA = 1.5
TURN = cmath.exp(-0.25j * math.pi / (2.0 * ALPHA))  # theta = 0.25
# the delta well's even and odd parts meet double poles at s = -2, -5, ...
# (demoted where cos(pi s/2) = 0); the m = 3 set has a numerator pair in
# its confluent brackets, and every double pole of the m = 2, n = 0 set is
# demoted by a zero of one member of its denominator pair
SETS = {
    "even": _even_part_params(ALPHA),
    "odd": _odd_part_params(ALPHA),
    "confluent": FoxHParams(m=3, n=1, upper=((0.25, 0.5),),
                            lower=((0.0, 1.0), (0.5, 0.5), (0.25, 0.5))),
    "demoted": FoxHParams(m=2, n=0, upper=((3.5, 0.5),),
                          lower=((0.0, 1.0), (0.5, 0.5), (3.5, 0.5))),
}
POINTS = ([(part, zeta * w) for part in ("even", "odd") for zeta in (0.5, 2.0, 4.0)
           for w in (TURN, TURN.conjugate())]
          + [(name, z) for name in ("confluent", "demoted")
             for z in (1.3 * cmath.exp(-0.2j), 2.0, 4.0)])


def _phase(alpha, theta):
    """The delta well's argument phase e^(-i pi theta/(2 alpha))."""
    return cmath.exp(-0.5j * math.pi * theta / alpha)


def _edge(params, frac):
    """The phase at frac of the existence sector's edge pi sigma/2."""
    return cmath.exp(-0.5j * math.pi * frac * sigma(params))


# contour points: the delta well's even part at large zeta, where the line
# at the gap midpoint cancels heavily (alpha 1.9 unskewed, alpha 1.2 at
# theta 0.1), the ramp past the series limit, and the even and odd parts of
# the README well near the sector edge, where |theta z^-s| decays slowly
CONTOUR_SETS = {
    "even 1.9": _even_part_params(1.9),
    "even 1.2": _even_part_params(1.2),
    "ramp": _h_params(LinearConfig(alpha=1.5, theta=0.3)),
    "even 1.5": _even_part_params(ALPHA),
    "odd 1.5": _odd_part_params(ALPHA),
}
CONTOUR_POINTS = ([("even 1.9", zeta) for zeta in (10.0, 30.0, 100.0)]
                  + [("even 1.2", zeta * _phase(1.2, 0.1)) for zeta in (10.0, 30.0, 100.0)]
                  + [("ramp", 8.0)]
                  + [(part, 5.0 * _edge(CONTOUR_SETS[part], frac))
                     for part in ("even 1.5", "odd 1.5") for frac in (0.9, 0.97)])


# series index 0 (sum B = sum A): the ascending series has a finite radius,
# 1.54 for "b", 1.19 for "inner" and 1 for the others, and only the contour
# evaluates them.  The real points sit at 0.85-1.23 of the radius; "lemma"
# is H^{1,1}_{1,1}(z | (0.3, 1); (0.3, 1)) = z^0.3 / (1 + z) at complex z,
# and "inner" a point at 0.59 of the radius
DELTA0_SETS = {
    "a": FoxHParams(m=1, n=1, upper=((-0.6, 2.0), (0.7, 1.0)), lower=((0.9, 2.0), (0.7, 1.0))),
    "b": FoxHParams(m=1, n=2, upper=((0.3, 1.5), (-0.8, 1.0)), lower=((0.4, 0.5), (-0.6, 2.0))),
    "c": FoxHParams(m=2, n=1, upper=((-0.3, 2.0), (-0.2, 1.5)), lower=((0.2, 1.5), (-0.6, 2.0))),
    "d": FoxHParams(m=1, n=2, upper=((1.0, 2.0), (0.7, 1.0)), lower=((0.1, 2.0), (-0.4, 1.0))),
    "lemma": FoxHParams(m=1, n=1, upper=((0.3, 1.0),), lower=((0.3, 1.0),)),
    "inner": FoxHParams(m=2, n=2, upper=((-0.4, 1.5), (0.0, 1.5)), lower=((0.3, 2.0), (0.9, 1.0))),
}
DELTA0_POINTS = [("a", 1.1), ("b", 1.9), ("c", 0.85), ("d", 1.05),
                 ("lemma", 0.9 * cmath.exp(0.6j)), ("inner", 0.7 * cmath.exp(2.8j))]


def _table(name, sets, points, dps):
    print("%s = [" % name)
    for key, z in points:
        print("    (%r, %r, %r)," % (key, z, line_integral(sets[key], z, dps)))
    print("]")


if __name__ == "__main__":
    _table("COLLISION_REFS", SETS, POINTS, 30)
    _table("CONTOUR_REFS", CONTOUR_SETS, CONTOUR_POINTS, 25)
    _table("DELTA0_REFS", DELTA0_SETS, DELTA0_POINTS, 30)
