"""Smoke test of tests/traffic_lines.py, the lines of src/fse that the
benchmark rounds and the README grid commands execute."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^(\S+\.py)\s+(\d+)/\s*(\d+)$")


def test_one_row_per_module_with_executed_within_total():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "."]))
    proc = subprocess.run([sys.executable, "tests/traffic_lines.py"], cwd=str(ROOT),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        if line.startswith("    never: "):
            continue
        m = ROW.match(line)
        assert m, line
        rows[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    assert sorted(rows) == sorted(p.name for p in (ROOT / "src/fse").glob("*.py"))
    assert all(0 <= ran <= total and total > 0 for ran, total in rows.values())
