"""Smoke test of tests/code_lines.py, the code-line count of src/fse."""

import subprocess
import sys
from pathlib import Path

from tests.code_lines import code_lines

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import math


class Box:
    """Class docstring."""

    size = 1  # trailing comment


def area(r):
    """Function docstring
    on two lines."""

    note = """a string that is
    not a docstring"""
    return math.pi * r * (
        r)
'''


def test_counts_code_and_skips_blanks_comments_and_docstrings():
    # import, class, size, def, the two lines of note, return and its
    # continuation
    assert code_lines(SOURCE) == 8


def test_total_is_the_sum_of_the_modules():
    proc = subprocess.run([sys.executable, "tests/code_lines.py"], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[-1][1] == "total"
    modules = {path: int(n) for n, path in rows[:-1]}
    assert "src/fse/foxh.py" in modules and all(n > 0 for n in modules.values())
    assert int(rows[-1][0]) == sum(modules.values())
    assert modules["src/fse/foxh.py"] == code_lines((ROOT / "src/fse/foxh.py").read_text())


def test_two_trees_print_each_module_old_to_new(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "pkg").mkdir(parents=True)
    (old / "pkg" / "kept.py").write_text("x = 1\n")
    (new / "pkg" / "kept.py").write_text("x = 1\ny = 2\n")
    (old / "gone.py").write_text("import math\n")
    (new / "added.py").write_text(SOURCE)
    proc = subprocess.run([sys.executable, str(ROOT / "tests/code_lines.py"), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["-", "->", "8", "added.py"], ["1", "->", "-", "gone.py"],
                    ["1", "->", "2", "pkg/kept.py"], ["2", "->", "10", "total"]]
