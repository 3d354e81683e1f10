"""Print one line per outcome of a fixed probe of the evaluators.

Run from the repository root as `PYTHONPATH=src:. python tests/outcomes.py`.
Each line is the repr of value, err_est, method and work, or the class and
message of the exception raised.  Diffing the output of two commits shows
whether a change kept the same numbers and the same refusals.  The probe:
135 H parameter sets at 10 arguments through three routes (and one set
with a complex parameter, which refuses to build), rounds 0-2 of every
benchmark workload on seeds 1-3, 245 E_beta arguments through ml_contour
and ml_eval, the ramp's ascending series left of the turning point,
linear_closed_form's series route right of it, and the series-index-0
points of tests/collision_refs.py through the three H routes.

tests/outcomes.txt holds the probe's output at the current commit, and
tests/test_outcomes.py fails when the probe drifts from it (see
compare_outcomes.drift).  A change that moves outcomes on purpose
regenerates it with

    PYTHONPATH=src:. python tests/outcomes.py > tests/outcomes.txt

and reports `python tests/compare_outcomes.py OLD tests/outcomes.txt`.
"""

import cmath
import math

import fse
from fse.delta import _even_part_params, _odd_part_params
from fse.linear import _ascending_series, _h_params
from perfbench.workloads import ROUNDS
from tests.collision_refs import DELTA0_POINTS, DELTA0_SETS


def show(tag, fn, *args, **kw):
    try:
        r = fn(*args, **kw)
        r = (r.value, r.err_est, r.method, r.work) if hasattr(r, "value") else r
        print(tag, *map(repr, r))
    except Exception as exc:
        print(tag, type(exc).__name__, exc)


def h_sets():
    """Builders of the probed parameter sets, called by the probe loop so
    that a set which fails to build prints its refusal."""
    for alpha in (1.05, 1.1, 1.2, 1.25, 1.3, 1.37, 1.4, 1.5, 1.6, 1.7,
                  1.75, 1.8, 1.9, 1.95, 2.0):
        lim = min(alpha, 2 - alpha)
        yield from (
            lambda a=alpha: _even_part_params(a),
            lambda a=alpha: _odd_part_params(a),
            lambda a=alpha: fse.shift_by_power(_even_part_params(a), 0.25),
            lambda a=alpha: fse.scale_argument_power(_odd_part_params(a), 0.5),
            lambda a=alpha: fse.invert_argument(_even_part_params(a)),
            lambda a=alpha: fse.FoxHParams(1, 1, ((0.0, 1.0),), ((0.0, 1.0), (0.0, a / 2))))
        yield from (lambda a=alpha, t=f * lim: _h_params(fse.LinearConfig(alpha=a, theta=t))
                    for f in (-0.7, 0.0, 0.6))
    # H parameters are real: a complex shift refuses to build
    yield lambda: fse.shift_by_power(_even_part_params(1.5), 0.25 + 0.4j)


H_ARGS = (0.05, 0.4, 0.9 + 0.3j, 1.7, 2.5 - 1.0j, 4.0, 7.5, 15.0, 60.0, 1e100)
for i, build in enumerate(h_sets()):
    try:
        params = build()
    except Exception as exc:
        print("H%d build" % i, type(exc).__name__, exc)
        continue
    for z in H_ARGS:
        for route in (fse.eval_series, fse.eval_contour, fse.eval_auto):
            show("H%d %r %s" % (i, z, route.__name__), route, params, z, 1e-9)

for name, gen in ROUNDS.items():
    for seed in (1, 2, 3):
        for r in range(3):
            for j, p in enumerate(gen(seed, r)):
                show("%s s%d r%d #%d" % (name, seed, r, j),
                     getattr(fse, p.route), p.cfg, p.coord, **p.tol_kwargs)

for beta in (0.15, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
    for radius in (0.5, 3.0, 9.0, 20.0, 80.0):
        for turn in (0.0, 0.25, 0.5, 0.75, 1.0, -0.4, -0.9):
            z = radius * cmath.exp(1j * math.pi * turn)
            for route in (fse.ml_contour, fse.ml_eval):
                show("E%r %r %s" % (beta, z, route.__name__), route, beta, z, 1e-9)

for alpha in (1.05, 1.5, 2.0):
    for theta in sorted({0.0, 0.5 * min(alpha, 2.0 - alpha)}):
        for y in (-10.0, -14.4, -28.8):
            show("ramp %r %r %r" % (alpha, theta, y), _ascending_series, alpha, theta, y)
        cfg = fse.LinearConfig(alpha=alpha, theta=theta)
        for x in (0.3, 1.5, 4.0):
            show("linear %r %r %r series" % (alpha, theta, x),
                 fse.linear_closed_form, cfg, x, 1e-9, "series")

for name, z in DELTA0_POINTS:
    for route in (fse.eval_series, fse.eval_contour, fse.eval_auto):
        show("D0 %s %r %s" % (name, z, route.__name__), route, DELTA0_SETS[name], z, 1e-9)
