"""The benchmark's traced run, end to end, on every workload.

`perfbench/run.py --trace 1` installs the span tracer (which fails if a
consumer binding it expects is missing), checks that traced values are
bit-identical to untraced ones, and runs the correctness gate; its exit
code is 0 only when all of that held.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
