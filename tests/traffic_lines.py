"""Print which lines of the fse package real traffic executes.

Run from the repository root as `PYTHONPATH=src:. python tests/traffic_lines.py`.
The traffic is rounds 0-1 of every benchmark workload on seed 1 and the
grid commands of the README's CLI section, run in process.  For each module
of the package it prints the statements executed out of the total, then the
line numbers never executed.  A statement here is a source line that
carries bytecode.  Lines are recorded with sys.settrace, so no coverage
package is needed.  A line that this traffic never reaches is a candidate
for deletion, or for a test that names why it stays.
"""

import contextlib
import glob
import importlib.util
import io
import os
import re
import shlex
import sys

PKG = os.path.realpath(importlib.util.find_spec("fse").submodule_search_locations[0])
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
hits = {}


def trace(frame, event, arg):
    path = frame.f_code.co_filename
    if os.path.dirname(path) != PKG:
        return None
    lines = hits.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def statements(path):
    """Line numbers that carry bytecode, over every code object in the file."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    out = set()
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def readme_commands():
    """Each `fse <command> ... --grid ...` line of the README's CLI block."""
    with open(README) as fh:
        text = fh.read().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if "--grid" in line]


def spans(nums):
    """1, 2, 3, 7 -> '1-3, 7'."""
    out = []
    for n in sorted(nums):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def run_traffic():
    import fse
    from fse.cli import main
    from perfbench.workloads import ROUNDS

    for gen in ROUNDS.values():
        for r in (0, 1):
            for p in gen(1, r):
                try:
                    getattr(fse, p.route)(p.cfg, p.coord, **p.tol_kwargs)
                except fse.EvaluationError:
                    pass
    for argv in readme_commands():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)


if __name__ == "__main__":
    sys.settrace(trace)
    try:
        run_traffic()
    finally:
        sys.settrace(None)

    for path in sorted(glob.glob(os.path.join(PKG, "*.py"))):
        total = statements(path)
        missed = total - hits.get(path, set())
        print("%-16s %4d/%4d" % (os.path.basename(path), len(total) - len(missed), len(total)))
        if missed:
            print("    never:", spans(missed))
