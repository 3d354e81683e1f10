"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workloads delta-grid,oracle --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  Runs are
sequential, one process at a time; a run that fails stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    summary = {"seeds": seeds, "seconds": seconds,
               "machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                           "system": platform.system(),
                           "python": platform.python_version()},
               "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        stats = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = stats
        for name, s in stats.items():
            bound = bounds.get(name)
            print("  %-28s median %-12.5g spread %.3f%s" % (
                name, s["median"], s["spread"],
                "" if bound is None else "  (bound %.2f)" % bound), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
