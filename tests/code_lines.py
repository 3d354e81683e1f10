"""Count the code lines of each module of src/fse: no blanks, comments or
docstrings.

Run from the repository root as `python tests/code_lines.py [DIR]`
(DIR defaults to src/fse).  It prints one line per module, `count path`,
sorted by path, and then `count total`.  A line counts when it holds a
token other than a comment or a line break; a module, class or function
docstring counts for none of its lines, and any other string counts for
every line it spans.

`python tests/code_lines.py OLD_DIR NEW_DIR` compares two trees: one line
per module, `old -> new path`, path relative to its tree and `-` on the
side that lacks the module, then `old -> new total`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root) -> dict:
    """Code lines per module of the .py files under root, keyed by path."""
    return {str(p): code_lines(p.read_text()) for p in sorted(Path(root).rglob("*.py"))}


def _relative(root) -> dict:
    """count_tree of root, keyed by path relative to root."""
    return {str(Path(path).relative_to(root)): n for path, n in count_tree(root).items()}


def main(argv) -> int:
    if len(argv) == 3:
        old, new = _relative(argv[1]), _relative(argv[2])
        for path in sorted(old.keys() | new.keys()):
            print("%5s -> %5s %s" % (old.get(path, "-"), new.get(path, "-"), path))
        print("%5d -> %5d total" % (sum(old.values()), sum(new.values())))
        return 0
    counts = count_tree(argv[1] if len(argv) > 1 else "src/fse")
    for path, n in counts.items():
        print("%5d %s" % (n, path))
    print("%5d total" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
