"""Interleaved A/B of two fse source trees over benchmark workload rounds.

Run from the repository root as

    python tests/ab_replay.py OLD_SRC NEW_SRC --workloads delta-grid,param-sweep \
        --seeds 1-3 --rounds 0-7 --pairs 10

where OLD_SRC and NEW_SRC are directories holding an `fse` package (the
`src` of two checkouts).  Each pass is a fresh subprocess that imports fse
from one tree, builds the rounds of perfbench/workloads.py with it, and
replays every point through the public entry point the workload names, at
the workload's tolerances, in one timed loop that also times each point.
Pair i runs OLD first when i is even and NEW first when it is odd, so a
drift of the machine's speed loads both sides alike.

Per workload it prints the median, first and third quartiles of the time
ratio NEW/OLD over the pairs (below 1 means NEW is faster), and the median
seconds of each side; for each side, the per-point p50 and p90 (nearest
rank, as perfbench reports them), each the median over its passes, and
the points its first pass answered and refused, by exception class; then
the outcome diff of the first pass of each side
with the semantics of tests/compare_outcomes.py: its summary (compare) and
its last-bit check (identical).  The outcome lines have the format of
tests/outcomes.py.  Per workload it also prints, for each side, the calls,
refusals and returned work of the COUNTED routes, for the raw
Mittag-Leffler routes (MISSED) the answers whose err_est misses the
call's rel_tol, which ml_eval passes over, and for foxh.eval_series its
refusals by class (REFUSAL_CLASSES): on its rounding floor, on its error
estimate, and other; counts no machine noise moves.  They are taken in
one more subprocess of each side, before the timed ones, by an untimed
pass that runs first in it, so every kept table starts cold.  Wrappers
on the routes' module globals count them, so every call that looks them
up there (ml_eval's and eval_auto's) is seen.  The same pass counts the
calls of mittag._nodes, the contours a cold run builds rather than reads
from the Mittag-Leffler table, of foxh._Plan, the H-function plans a
cold run builds rather than reads from the plan table, of
foxh.reduce_params, which a plan calls once when it is built, so any
more calls than foxh._Plan's show a set reduced again per call, of
foxh._term_part, the z-free parts of residue terms a run builds rather
than reads from a plan, of foxh._finish, one per residue term a series
sums at its z, whether its part was built or kept, of
foxh._contour_nodes, one per length of cut an
eval_contour call sums, so more calls than eval_contour's show contours
that extended their cut, of quadrature._panel_est, the panel batches of
the quadrature oracles, each one call of the integrand, and of
quadrature's euler_alternating, one per batch of oscillatory pieces;
none of the eight returns work.  The foxh kernels are never wrapped, since
a rebound kernel makes every foxh plan cold.  It exits 1 if any tag,
method, work or refusal class differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.latency import percentile  # noqa: E402
from perfbench.repeat import parse_seeds, summarise  # noqa: E402
from tests.compare_outcomes import compare, identical, parse  # noqa: E402

PASS_TIMEOUT_S = 600
# (module, function) whose calls, refusals and work a counting pass
# reports; of those in CALLS_ONLY, whose output has no work, the calls
COUNTED = (("mittag", "ml_series"), ("mittag", "ml_contour"), ("mittag", "_nodes"),
           ("foxh", "eval_series"), ("foxh", "eval_contour"), ("foxh", "_Plan"),
           ("foxh", "reduce_params"), ("foxh", "_term_part"), ("foxh", "_finish"),
           ("foxh", "_contour_nodes"), ("quadrature", "_panel_est"),
           ("quadrature", "euler_alternating"))
CALLS_ONLY = ("mittag._nodes", "foxh._Plan", "foxh.reduce_params", "foxh._term_part",
              "foxh._finish", "foxh._contour_nodes", "quadrature._panel_est",
              "quadrature.euler_alternating")
# of the COUNTED routes, those whose refusals a pass also counts by class:
# (class, a phrase of its messages) in turn, the rest as other
REFUSAL_CLASSES = {"foxh.eval_series": (("rounding", "rounding error"),
                                        ("estimate", "error estimate"))}
# of the COUNTED routes, those that return a raw (value, err_est, work)
# tuple whatever its err_est; a pass also counts their answers that miss
# rel_tol
MISSED = ("mittag.ml_series", "mittag.ml_contour")


def _evaluate(calls):
    """The result, or the refusal, of every call, and its seconds."""
    import fse

    results, seconds = [], []
    for _, fn, cfg, coord, kw in calls:
        t0 = perf_counter()
        try:
            results.append(fn(cfg, coord, **kw))
        except fse.EvaluationError as exc:
            results.append(exc)
        seconds.append(perf_counter() - t0)
    return results, seconds


def _counting(fn, tally, work=True, missed=False, classes=()):
    """fn, adding 1 to tally[0] per call, 1 to tally[1] per refusal and,
    with work, its work (an EvalResult's, or a raw tuple's last field) to
    tally[2]; with missed, 1 to tally[3] per raw answer whose err_est
    misses the call's rel_tol; with classes, 1 per refusal to tally[3 + j]
    for the first class j whose phrase its message holds, or to the last
    field, other."""
    import inspect

    import fse
    from fse.result import _meets_tol

    signature = inspect.signature(fn)

    def wrapped(*args, **kw):
        tally[0] += 1
        try:
            out = fn(*args, **kw)
        except fse.EvaluationError as exc:
            tally[1] += 1
            if classes:
                tally[3 + next((j for j, (_, phrase) in enumerate(classes) if phrase in str(exc)),
                               len(classes))] += 1
            raise
        if work:
            tally[2] += out.work if hasattr(out, "work") else out[2]
        if missed:
            call = signature.bind(*args, **kw)
            call.apply_defaults()
            tally[3] += not _meets_tol(out[1], out[0], call.arguments["rel_tol"])
        return out
    return wrapped


def count(calls) -> dict:
    """[calls, refusals, work] of each COUNTED route over one pass of calls,
    with missed answers fourth for the MISSED ones and the refusals by
    class after for the REFUSAL_CLASSES ones, counted by wrappers on the
    routes' module globals, restored after."""
    import importlib

    counts, kept = {}, []
    for module, name in COUNTED:
        mod = importlib.import_module("fse." + module)
        fn = getattr(mod, name)
        kept.append((mod, name, fn))
        key = "%s.%s" % (module, name)
        classes = REFUSAL_CLASSES.get(key, ())
        fields = 3 + (key in MISSED) + (len(classes) + 1 if classes else 0)
        setattr(mod, name, _counting(fn, counts.setdefault(key, [0] * fields),
                                     work=key not in CALLS_ONLY, missed=key in MISSED,
                                     classes=classes))
    try:
        _evaluate(calls)
    finally:
        for mod, name, fn in kept:
            setattr(mod, name, fn)
    return counts


def replay(workload: str, seeds, rounds, counted=False) -> dict:
    """One pass in this process: the seconds of the evaluation loop, the
    p50 and p90 of its points' milliseconds and the outcome line of every
    point; with counted, first the COUNTED routes' counts of one more,
    untimed pass, which then meets the tables as this process left them."""
    import fse
    from perfbench.workloads import ROUNDS

    calls = []
    for seed in seeds:
        for r in rounds:
            for j, p in enumerate(ROUNDS[workload](seed, r)):
                calls.append(("%s s%d r%d #%d" % (workload, seed, r, j),
                              getattr(fse, p.route), p.cfg, p.coord, p.tol_kwargs))
    out = {"counts": count(calls)} if counted else {}
    t0 = perf_counter()
    results, point_s = _evaluate(calls)
    seconds = perf_counter() - t0
    lines = []
    for (tag, *_), r in zip(calls, results):
        if isinstance(r, Exception):
            lines.append("%s %s %s" % (tag, type(r).__name__, r))
        else:
            fields = (r.value, r.err_est, r.method, r.work)
            lines.append(" ".join([tag] + [repr(v) for v in fields]))
    out.update(seconds=seconds, lines=lines,
               p50_ms=1e3 * percentile(point_s, 0.5), p90_ms=1e3 * percentile(point_s, 0.9))
    return out


def tally(lines) -> dict:
    """The points answered ('answer') and the points refused by exception
    class, from outcome lines."""
    return Counter(parse(line)[1] for line in lines)


def run_pass(src: str, workload: str, seeds: str, rounds: str, counted=False) -> dict:
    """One pass in a fresh subprocess that imports fse from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(src).resolve()), str(ROOT)]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--replay", workload,
           "--seeds", seeds, "--rounds", rounds] + ["--count"] * counted
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), env=env,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("pass failed (exit %d) on %s" % (proc.returncode, src))
    return json.loads(proc.stdout)


def ab(old: str, new: str, workload: str, seeds: str, rounds: str, pairs: int) -> bool:
    """Print one workload's ratio and outcome diff; True if no tag, method,
    work or class changed."""
    trees = (old, new)
    times = ([], [])
    tails = ([], [])
    lines = [None, None]
    counts = [run_pass(tree, workload, seeds, rounds, counted=True)["counts"] for tree in trees]
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            out = run_pass(trees[side], workload, seeds, rounds)
            times[side].append(out["seconds"])
            tails[side].append((out["p50_ms"], out["p90_ms"]))
            if not lines[side]:
                lines[side] = out["lines"]
    ratio = summarise([b / a for a, b in zip(*times)])
    print("%s: %d points, %d pairs, time ratio new/old median %.3f (Q1 %.3f, Q3 %.3f);"
          " old %.3f s, new %.3f s"
          % (workload, len(lines[0]), pairs, ratio["median"], ratio["q1"], ratio["q3"],
             statistics.median(times[0]), statistics.median(times[1])))
    for side, name in enumerate(("old", "new")):
        p50, p90 = (statistics.median(q) for q in zip(*tails[side]))
        print("  %s per point: p50 %.4f ms, p90 %.4f ms (medians over %d passes)"
              % (name, p50, p90, pairs))
        kinds = tally(lines[side])
        refused = "".join(", %d %s" % (n, cls) for cls, n in sorted(kinds.items())
                          if cls != "answer")
        print("  %s outcomes: %d answered%s" % (name, kinds["answer"], refused))
    for name in counts[0]:
        old_n, new_n = counts[0][name], counts[1][name]
        classes = tuple(c for c, _ in REFUSAL_CLASSES.get(name, ()))
        if name in CALLS_ONLY:
            fields = ("calls",)
        elif classes:
            fields = ("calls", "refused", "work") + classes + ("other",)
        else:
            fields = ("calls", "refused", "work", "missed")
        print("  %s: %s" % (name, ", ".join("%s %d -> %d" % f for f in zip(fields, old_n, new_n))))
    ok = compare(*lines)
    identical(*lines)
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", metavar="SRC", help="OLD_SRC NEW_SRC")
    ap.add_argument("--workloads", default="delta-grid,param-sweep")
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--rounds", default="0-7")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--replay", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.replay:
        print(json.dumps(replay(args.replay, parse_seeds(args.seeds), parse_seeds(args.rounds),
                                args.count)))
        return 0
    if len(args.trees) != 2 or args.pairs < 2:
        ap.error("need OLD_SRC NEW_SRC and --pairs >= 2")
    ok = True
    for workload in args.workloads.split(","):
        ok = ab(*args.trees, workload, args.seeds, args.rounds, args.pairs) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
