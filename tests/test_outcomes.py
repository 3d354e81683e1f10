"""Same numbers, same refusals: the outcome probe against its committed output.

tests/outcomes.py evaluates a fixed probe of the public routes and prints
one line per outcome; tests/outcomes.txt is that output at the current
commit.  The test fails on any change of tag, method, refusal class,
message or work, and on a value that moves by more than err_a + err_b
(compare_outcomes.drift).  Values are compared against err_est, not by
their bits, so a different libm alone does not fail it.  Its printed
summary lists what moved inside those bounds.
"""

import os
import subprocess
import sys
from pathlib import Path

from tests.compare_outcomes import compare, drift

ROOT = Path(__file__).resolve().parents[1]


def test_the_probe_keeps_the_committed_outcomes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "tests/outcomes.py"], cwd=str(ROOT), env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    new = proc.stdout.splitlines()
    old = (ROOT / "tests" / "outcomes.txt").read_text().splitlines()
    compare(old, new)
    moved = drift(old, new)
    assert not moved, "%d outcomes drifted, first:\n- %s\n+ %s" % (len(moved), *moved[0])


def test_drift_flags_any_change_but_a_value_inside_both_err_est():
    base = ["a (1+0j) 1e-10 'contour' 25", "b (0.5-2j) 3e-12 'series' 40",
            "c NonConvergence H series error estimate 2e-09 misses rel_tol"]
    inside = ["a (1.00000000015+0j) 1e-10 'contour' 25", base[1], base[2]]
    assert drift(base, inside) == []
    changes = [
        (0, "a (1.0000000003+0j) 1e-10 'contour' 25"),
        (0, "a (nan+0j) 1e-10 'contour' 25"),
        (0, "a (1+0j) 1e-10 'series' 25"),
        (0, "a (1+0j) 1e-10 'contour' 26"),
        (0, "a NonConvergence contour error estimate 1e-10 misses rel_tol"),
        (1, "bb (0.5-2j) 3e-12 'series' 40"),
        (2, "c DegeneratePoles H series error estimate 2e-09 misses rel_tol"),
        (2, "c NonConvergence H series error estimate 3e-09 misses rel_tol"),
    ]
    for pos, line in changes:
        new = list(base)
        new[pos] = line
        assert drift(base, new) == [(base[pos], line)], line
    assert drift(base, base[:2]) == [("3 lines", "2 lines")]
