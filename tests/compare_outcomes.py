"""Compare two outputs of tests/outcomes.py, line by line.

Run from the repository root as
`python tests/compare_outcomes.py OLD NEW`, where OLD and NEW hold the
output of `PYTHONPATH=src:. python tests/outcomes.py` at two commits.
It prints the number of changed lines, every line whose tag, method or
refusal class changed, and every refusal whose message alone changed.
The answers whose value, err_est or work alone changed are summarised,
not listed: for those whose work changed, their count, the summed work
old -> new and the largest relative change; for all of them, the count
per method and the worst |value_new - value_old| / (err_old + err_new);
for those whose err_est changed, the median of err_new / err_old, the
count above 2 and the largest, with its line.
It exits 1 if any tag, method, work or class changed (an answer turning
into a refusal counts as a class change), and 0 otherwise.

With `--identical` (`python tests/compare_outcomes.py --identical OLD NEW`)
it also lists every line whose parsed outcome differs in any field: tag,
value, err_est, method, work, refusal class or message, floats compared by
their exact repr.  A numpy scalar repr is unwrapped first, so it alone is
no difference.  It then exits 1 on any such line, and 0 only when every
outcome is the same to the last bit.

drift() is the stricter rule of tests/test_outcomes.py, which holds the
probe to the committed tests/outcomes.txt: any change of tag, method,
class, message or work, or a value that moves by more than err_a + err_b.
"""

import re
import statistics
import sys
from collections import Counter

# value, err_est, 'method', work; or, from the ramp's series, value, err_est, nterms
_ANSWER = re.compile(r"^(.*) ([^\s']+) ([^\s']+) (?:'([^']*)' )?(-?\d+)$")
_REFUSAL = re.compile(r"^(.*?) ([A-Z]\w*) ?(.*)$")
# numpy 2 prints a numpy scalar as np.float64(x) or np.complex128(z)
_NUMPY_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")


def _number(tok):
    """The repr of a number, unwrapped from numpy's scalar repr."""
    m = _NUMPY_SCALAR.match(tok)
    return m.group(1) if m else tok


def parse(line):
    """(tag, kind, value, err_est, method, work) for an answer, kind being
    'answer', or (tag, class name, None, None, None, message) for a
    refusal."""
    m = _ANSWER.match(line)
    if m:
        tag, value, err, method, work = m.groups()
        try:
            return (tag, "answer", complex(_number(value)), float(_number(err)),
                    method, int(work))
        except ValueError:
            pass
    m = _REFUSAL.match(line)
    if not m:
        raise ValueError("unparsed outcome line: %r" % line)
    tag, cls, msg = m.groups()
    return tag, cls, None, None, None, msg


def compare(old_lines, new_lines):
    """Print the comparison; True if no tag, method, work or class changed."""
    if len(old_lines) != len(new_lines):
        print("line counts differ: %d old, %d new" % (len(old_lines), len(new_lines)))
        return False
    changed = 0
    structural = []
    messages = []
    works = []
    ratios = []
    methods = Counter()
    worst, worst_line = 0.0, None
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        changed += 1
        ta, ka, va, ea, ma, wa = parse(a)
        tb, kb, vb, eb, mb, wb = parse(b)
        if ta != tb or ka != kb or (ka == "answer" and ma != mb):
            structural.append((a, b))
        elif ka != "answer":
            messages.append((a, b))
        else:
            methods[ma] += 1
            if wa != wb:
                works.append((wa, wb, a, b))
            if ea != eb:
                ratios.append((eb / ea if ea > 0.0 else float("inf"), a, b))
            bound = ea + eb
            ratio = abs(vb - va) / bound if bound > 0.0 else float("inf")
            if worst_line is None or ratio > worst:
                worst, worst_line = ratio, (a, b)
    print("%d of %d lines changed" % (changed, len(old_lines)))
    print("%d with a changed tag, method or class:" % len(structural))
    for a, b in structural:
        print("  - " + a + "\n  + " + b)
    print("%d refusals with a changed message only:" % len(messages))
    for a, b in messages:
        print("  - " + a + "\n  + " + b)
    print("%d answers with a changed work" % len(works))
    if works:
        rel = [abs(wb - wa) / wa if wa else float("inf") for wa, wb, _, _ in works]
        top = max(range(len(works)), key=rel.__getitem__)
        print("summed work %d -> %d, largest relative change %.3g:"
              % (sum(w[0] for w in works), sum(w[1] for w in works), rel[top]))
        print("  - " + works[top][2] + "\n  + " + works[top][3])
    print("%d answers with a changed value, err_est or work only, by method: %s"
          % (sum(methods.values()),
             ", ".join("%s %d" % kv for kv in sorted(methods.items(), key=str))))
    if worst_line is not None:
        print("worst |dvalue| / (err_a + err_b) over them: %.3g" % worst)
        print("  - " + worst_line[0] + "\n  + " + worst_line[1])
    if ratios:
        ratios.sort(key=lambda r: r[0])
        print("err_est new/old over the %d changed: median %.3g, %d above 2, largest %.3g:"
              % (len(ratios), statistics.median(r[0] for r in ratios),
                 sum(r[0] > 2.0 for r in ratios), ratios[-1][0]))
        print("  - " + ratios[-1][1] + "\n  + " + ratios[-1][2])
    return not structural and not works


def drift(old_lines, new_lines):
    """The (old, new) line pairs whose outcomes differ by more than
    rounding explains: a changed tag, method, refusal class, message or
    work, or a value that moved more than err_a + err_b.  Line counts that
    differ give one pair, the two counts."""
    if len(old_lines) != len(new_lines):
        return [("%d lines" % len(old_lines), "%d lines" % len(new_lines))]
    out = []
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        ta, ka, va, ea, ma, wa = parse(a)
        tb, kb, vb, eb, mb, wb = parse(b)
        # a refusal's message sits in the work field
        if (ta, ka, ma, wa) != (tb, kb, mb, wb) or (
                ka == "answer" and not abs(vb - va) <= ea + eb):
            out.append((a, b))
    return out


def identical(old_lines, new_lines, show=20):
    """Print the lines whose parsed outcome differs in any field, floats
    compared by repr (so -0.0 differs from 0.0 and nan matches nan); True
    if there is none."""
    if len(old_lines) != len(new_lines):
        print("line counts differ: %d old, %d new" % (len(old_lines), len(new_lines)))
        return False
    differ = [(a, b) for a, b in zip(old_lines, new_lines)
              if a != b and list(map(repr, parse(a))) != list(map(repr, parse(b)))]
    print("%d of %d outcomes differ in a parsed field" % (len(differ), len(old_lines)))
    for a, b in differ[:show]:
        print("  - " + a + "\n  + " + b)
    if len(differ) > show:
        print("  ... and %d more" % (len(differ) - show))
    return not differ


def main(argv):
    args = argv[1:]
    exact = "--identical" in args
    if exact:
        args.remove("--identical")
    if len(args) != 2:
        print("usage: python tests/compare_outcomes.py [--identical] OLD NEW",
              file=sys.stderr)
        return 2
    with open(args[0]) as f_old, open(args[1]) as f_new:
        old_lines = f_old.read().splitlines()
        new_lines = f_new.read().splitlines()
    ok = compare(old_lines, new_lines)
    if exact:
        ok = identical(old_lines, new_lines)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
