"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload delta-grid --seed 1 --seconds 16 --trace 0

Closed loop, one process, one thread: each point is evaluated after the
previous one returns, through the public fse functions, at the CLI
tolerance.  A run evaluates a fixed number of whole rounds of the
workload (see workloads.py): --seconds over the round's nominal time
ROUND_S, so every commit times the same inputs, and the timings are taken
over the whole run.  Each latency is scaled by the machine-speed probe of
speed.py, so the figures do not drift with the load on a shared machine;
the raw figures go into the run record.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds, each untraced and then traced, checks that both give bit-identical
values and that every layer this workload is meant to exercise was hit,
and prints the per-layer metrics.  Both modes check a seeded subsample of
round 0 against independent references and print a run record on
stderr.  The last stdout line is the JSON result; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
GATE_MAX = 40                  # points of round 0 checked per run
P90 = 0.9
# nominal seconds per round at the probe's reference speed (speed.py); a
# timed run evaluates round(--seconds / ROUND_S) rounds, whatever the
# machine's speed
ROUND_S = {"delta-grid": 2.4, "param-sweep": 2.4, "time-grid": 0.03,
           "oracle": 0.115}
# rounds of the traced comparison, sized to fit one run
TRACE_ROUNDS = {"delta-grid": 3, "param-sweep": 3, "time-grid": 50,
                "oracle": 25}
# per-layer metrics each workload exists to exercise; all must be nonzero.
# Contour refusals are not listed: a refused contour is a refused point.
REQUIRED = {
    "delta-grid": (
        "numerics.log_gamma.calls", "numerics.log_gamma.self_s",
        "numerics.log_gamma.scalar_calls", "numerics.log_gamma.array_elems",
        "numerics.log_gamma.calls_re_ge_0p5",
        "numerics.log_gamma.calls_re_m50_0p5",
        "numerics.log_gamma.calls_re_lt_m50", "numerics.digamma.calls",
        "foxh.eval_series.calls", "foxh.eval_series.self_s",
        "foxh.eval_series.terms", "foxh.eval_series.refused",
        "foxh.eval_contour.calls", "foxh.eval_contour.self_s",
        "foxh.eval_contour.nodes",
        "foxh.eval_auto.calls", "foxh.eval_auto.series_hit_frac",
        "foxh.eval_auto.wasted_series_s",
        "delta.delta_closed_form.self_s",
        "route.series_frac"),
    "param-sweep": (
        "numerics.log_gamma.calls", "numerics.log_gamma.self_s",
        "foxh.eval_series.calls", "foxh.eval_series.self_s",
        "foxh.eval_series.terms",
        "foxh.eval_contour.calls", "foxh.eval_contour.self_s",
        "foxh.eval_contour.nodes", "foxh.eval_auto.calls",
        "delta.delta_closed_form.self_s", "linear.linear_closed_form.self_s",
        "route.series_frac", "route.contour_frac",
        "route.continuation_frac"),
    "time-grid": (
        "mittag.ml_series.calls", "mittag.ml_series.self_s",
        "mittag.ml_series.terms",
        "mittag.ml_contour.calls", "mittag.ml_contour.self_s",
        "mittag.ml_contour.nodes", "mittag.ml_eval.series_hit_frac",
        "time_factor.time_factor.self_s",
        "route.series_frac", "route.contour_frac"),
    "oracle": (
        "quadrature.adaptive.calls", "quadrature.adaptive.self_s",
        "quadrature.adaptive.panels",
        "quadrature.osc_semi_inf.calls", "quadrature.osc_semi_inf.self_s",
        "quadrature.ray_segment.calls", "quadrature.ray_segment.self_s",
        "quadrature.tail_algebraic.calls",
        "accel.euler_alternating.calls", "accel.euler_alternating.self_s",
        "delta.delta_quadrature.self_s", "linear.linear_quadrature.self_s",
        "route.quadrature_frac"),
}
ROUTE_CLASSES = ("series", "contour", "mixed", "continuation", "quadrature")


def _import_library():
    """Import fse from this checkout's src/, never from an installed copy."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import fse
    except ImportError as exc:
        sys.exit("perfbench: cannot import fse from %s: %s" % (SRC, exc))
    if Path(fse.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: fse imported from %s, not %s" % (fse.__file__, SRC))
    return fse


def route_class(method: str) -> str:
    if method.startswith("series-continuation"):
        return "continuation"
    if method == "quadrature" or method.startswith("ray"):
        return "quadrature"
    for cls in ("mixed", "contour", "series"):
        if cls in method:
            return cls
    return "other"


@dataclass(frozen=True)
class Refused:
    """A typed refusal, kept without its traceback (which would pin frames)."""

    kind: str
    message: str


def evaluate(fse, points, scaler=None):
    """One closed-loop pass: [(latency_s, EvalResult or Refused)], wall s.
    A speed.Scaler, if given, is told of every point (and may probe)."""
    refusal = fse.EvaluationError
    calls = [(getattr(fse, p.route), p.cfg, p.coord, p.tol_kwargs)
             for p in points]
    out = []
    wall = 0.0
    for fn, cfg, coord, kw in calls:
        t0 = perf_counter()
        try:
            res = fn(cfg, coord, **kw)
        except refusal as exc:
            res = Refused(type(exc).__name__, str(exc))
        except Exception as exc:
            raise RuntimeError("untyped failure at %s(%r, %r)"
                               % (fn.__name__, cfg, coord)) from exc
        t1 = perf_counter()
        out.append((t1 - t0, res))
        wall += t1 - t0
        if scaler is not None:
            scaler.after(t1)
    return out, wall


def _outcome(res):
    """Comparable form of one result: the exact floats, or the refusal."""
    if isinstance(res, Refused):
        return (res.kind, res.message)
    return (res.value.real, res.value.imag, res.err_est, res.method, res.work)


class Tally:
    """Route mix, work and refusals over evaluated points."""

    def __init__(self):
        self.attempted = 0
        self.answered = 0
        self.routes = {}
        self.refusals = {}
        self.work = 0

    def add(self, res):
        self.attempted += 1
        if isinstance(res, Refused):
            self.refusals[res.kind] = self.refusals.get(res.kind, 0) + 1
            return
        self.answered += 1
        cls = route_class(res.method)
        self.routes[cls] = self.routes.get(cls, 0) + 1
        self.work += res.work

    def route_fracs(self) -> dict:
        return {"route.%s_frac" % c: self.routes.get(c, 0) / max(1, self.answered)
                for c in ROUTE_CLASSES}

    def record(self) -> dict:
        return {"attempted": self.attempted, "answered": self.answered,
                "refusals": self.refusals, "work": self.work,
                "route_mix": self.route_fracs()}


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """Wall time of fresh processes that import fse, build the workload's
    first round and return its first value: raw, and speed-scaled by
    probes just before and after each process."""
    from perfbench.speed import probe, scaled

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times, scaled_times = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=str(ROOT))
        # a blocking wait: Popen.wait(timeout) polls in 50 ms steps
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        scaled_times.append(scaled(times[-1], before, probe()))
        if code != 0:
            raise RuntimeError("set-up probe exited with %d: %s" % (code, cmd))
    return times, scaled_times


def first_value(fse, workload: str, seed: int):
    """Evaluate the first point of round 0 (the set-up probe's last step)."""
    from perfbench.workloads import ROUNDS
    first = ROUNDS[workload](seed, 0)[0]
    return getattr(fse, first.route)(first.cfg, first.coord, **first.tol_kwargs)


def run_gate(gate, points, results, seed: int) -> dict:
    """Check a seeded subsample of round 0; refused points are not checked.
    A reference that refuses is a miss too: the value stays unchecked."""
    import numpy as np
    from fse import EvaluationError

    rng = np.random.default_rng([seed, 99])
    picks = sorted(rng.choice(len(points), size=min(len(points), GATE_MAX),
                              replace=False))
    checked, misses, ratios, worst = 0, [], [], 0.0
    for i in picks:
        res = results[i]
        if isinstance(res, Refused):
            continue
        p = points[i]
        try:
            got = gate.check(p, res)
        except EvaluationError as exc:
            misses.append("point %d %s(%r, %r): reference %s refused: %s: %s"
                          % (i, p.route, p.cfg, p.coord, gate.reference_name(p),
                             type(exc).__name__, exc))
            continue
        checked += 1
        ratios.append(got["err_ratio"])
        worst = max(worst, got["rel_err"] / got["bar"])
        if not got["ok"]:
            misses.append("point %d %s(%r, %r): rel err %.3e vs %s exceeds bar %.0e"
                          % (i, p.route, p.cfg, p.coord, got["rel_err"],
                             got["reference"], got["bar"]))
    return {"checked": checked, "misses": misses,
            "worst_rel_err_over_bar": worst,
            "err_ratio_median": statistics.median(ratios) if ratios else None,
            "err_ratio_max": max(ratios) if ratios else None}


def run_rounds(fse, gen, seed: int, rounds: int):
    """Evaluate rounds 0 .. rounds-1 in a closed loop.  Returns the raw
    and the speed-scaled latencies, the tally and round 0's points and
    results."""
    from perfbench.speed import Scaler

    tally = Tally()
    latencies = array("d")
    scaler = Scaler()
    first = None
    for r in range(rounds):
        points = gen(seed, r)
        results, _ = evaluate(fse, points, scaler)
        for latency, res in results:
            tally.add(res)
            latencies.append(latency)
        if first is None:
            first = (points, [res for _, res in results])
    factors = scaler.factors()
    scaled = array("d", (x * f for x, f in zip(latencies, factors)))
    return latencies, scaled, tally, first


def timed_rounds(workload: str, seed: int, seconds: float) -> int:
    """Rounds of a timed run: --seconds at the nominal round time, and at
    least as many as leave ten samples beyond the p90."""
    from perfbench.latency import min_samples
    from perfbench.workloads import ROUNDS

    per_round = len(ROUNDS[workload](seed, 0))
    return max(round(seconds / ROUND_S[workload]),
               math.ceil(min_samples(P90) / per_round))


def end_to_end(fse, gate, args, record) -> tuple[dict, int, list]:
    from perfbench.latency import beyond, percentile
    from perfbench.workloads import ROUNDS, describe

    setup_raw, setup = measure_setup(args.workload, args.seed)
    rounds = timed_rounds(args.workload, args.seed, args.seconds)
    raw, latencies, tally, (points, results) = run_rounds(
        fse, ROUNDS[args.workload], args.seed, rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate_out = run_gate(gate, points, results, args.seed)
    n = len(latencies)
    metrics = {
        "points_per_s": (tally.answered / sum(latencies), "pt/s"),
        "point_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
        "point_p90_ms": (1e3 * percentile(latencies, P90), "ms"),
        "answered_frac": (tally.answered / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    record.update({
        "rounds": rounds, "timed_wall_s": sum(raw),
        "latency_samples": n, "p90_samples_beyond": beyond(n, P90),
        # the same figures unscaled, as the wall clock read them
        "raw": {"points_per_s": tally.answered / sum(raw),
                "point_p50_ms": 1e3 * percentile(raw, 0.5),
                "point_p90_ms": 1e3 * percentile(raw, P90),
                "setup_s": statistics.median(setup_raw),
                "machine_slowness": sum(raw) / sum(latencies)},
        "refused_frac": 1.0 - tally.answered / tally.attempted,
        "setup_runs_s": setup_raw, "tally": tally.record(),
        "round0": describe(points), "gate": gate_out})
    return metrics, tally.attempted, gate_out["misses"]


def traced(fse, gate, args, record) -> tuple[dict, int, list]:
    from perfbench.spans import Tracer, layer_metrics
    from perfbench.workloads import ROUNDS, describe

    gen = ROUNDS[args.workload]
    rounds = [gen(args.seed, r) for r in range(TRACE_ROUNDS[args.workload])]
    # each round untraced, then traced: both halves of a pair see the same
    # phase of the machine, so the per-round ratio isolates the overhead
    tracer = Tracer()
    plain, seen, ratios = [], [], []
    plain_s = seen_s = 0.0
    for points in rounds:
        res, dt = evaluate(fse, points)
        plain += [r for _, r in res]
        plain_s += dt
        with tracer:
            res, dt_traced = evaluate(fse, points)
        seen += [r for _, r in res]
        seen_s += dt_traced
        ratios.append(dt_traced / dt)
    differ = [i for i, (a, b) in enumerate(zip(plain, seen))
              if _outcome(a) != _outcome(b)]
    tally = Tally()
    for res in seen:
        tally.add(res)
    metrics = layer_metrics(tracer.spans)
    metrics.update(tally.route_fracs())
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    missing = [k for k in REQUIRED[args.workload] if not metrics[k]]
    gate_out = run_gate(gate, rounds[0], seen[:len(rounds[0])], args.seed)
    record.update({
        "trace_rounds": len(rounds), "untraced_wall_s": plain_s,
        "traced_wall_s": seen_s, "spans": len(tracer.spans),
        "values_bit_identical": not differ, "coverage_missing": missing,
        "tally": tally.record(), "round0": describe(rounds[0]),
        "gate": gate_out})
    problems = gate_out["misses"] + ["traced value differs at point %d" % i
                                     for i in differ]
    problems += ["per-layer metric %s is 0 on %s" % (k, args.workload)
                 for k in missing]
    out = {}
    for key, value in metrics.items():
        unit = ("s" if key.endswith("_s") else
                "ratio" if key.endswith("_frac") else "count")
        out[key] = (value, unit)
    return out, tally.attempted, problems


def main(argv=None):
    fse = _import_library()
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        first_value(fse, args.workload, args.seed)
        return 0

    import numpy as np
    from perfbench import gate

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"node": platform.node(), "arch": platform.machine(),
                    "system": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(), "numpy": np.__version__,
        "fse": fse.__version__,
    }
    # the timed loops start warm; cold start is what setup_s measures
    first_value(fse, args.workload, args.seed)
    run = traced if args.trace else end_to_end
    metrics, attempted, problems = run(fse, gate, args, record)
    for problem in problems:
        print("perfbench: FAIL %s" % problem, file=sys.stderr)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    print(json.dumps(record, indent=1, sort_keys=True), file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    # one thread for any BLAS/OpenMP pool numpy might start (set before
    # numpy is imported; the set-up probes inherit it)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
