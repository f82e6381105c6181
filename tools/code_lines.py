"""Count the code lines of each phaselab module and the grid-kind comparisons.

    python3 tools/code_lines.py ROOT [--functions MODULE]

Prints one ``module lines`` row per module of ``ROOT/src/phaselab``, a
``total`` row, and a ``src lines`` row of the modules' physical lines (what
``wc -l`` counts).  A code line holds at least one token that is neither a
comment nor part of a docstring (the string that opens a module, class or
function body); blank lines do not count.  A last row counts the
``.kind`` comparisons the ROADMAP tracks, the matches of
``grep -nE '\\.kind (==|!=|in|not in) '`` per module, leaving out
``potentials.py`` and ``args.kind``.

``--functions MODULE`` prints instead one ``function lines`` row per
top-level function of ``ROOT/src/phaselab/MODULE.py``, in source order: the
code lines from its first decorator to its end, a nested function's
counted in its parent's.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import tokenize
from pathlib import Path

KIND_COMPARISON = re.compile(r"\.kind (==|!=|in|not in) ")
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) or not body:
            continue
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_numbers(source: str) -> set:
    """The line numbers of the code lines in ``source``."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    return len(code_line_numbers(source))


def function_lines(source: str) -> dict:
    """The code lines of each top-level function of ``source``, by name in
    source order, its decorators included."""
    lines = code_line_numbers(source)
    counts = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([d.lineno for d in node.decorator_list] + [node.lineno])
            counts[node.name] = sum(start <= n <= node.end_lineno for n in lines)
    return counts


def kind_comparisons(source: str) -> int:
    """The ROADMAP's grep count of ``.kind`` comparisons, ``args.kind`` left out."""
    return sum(1 for line in source.splitlines() if KIND_COMPARISON.search(line) and "args.kind" not in line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--functions", metavar="MODULE", help="count each top-level function of MODULE")
    args = parser.parse_args(argv)
    if args.functions:
        path = args.root / "src" / "phaselab" / f"{Path(args.functions).stem}.py"
        for name, n in function_lines(path.read_text()).items():
            print(f"{name} {n}")
        return 0
    total, physical, kinds = 0, 0, {}
    for path in sorted((args.root / "src" / "phaselab").glob("*.py")):
        source = path.read_text()
        n = code_lines(source)
        total += n
        physical += len(source.splitlines())
        print(f"{path.name} {n}")
        k = 0 if path.name == "potentials.py" else kind_comparisons(source)
        if k:
            kinds[path.stem] = k
    print(f"total {total}")
    print(f"src lines {physical}")
    detail = ", ".join(f"{name} {count}" for name, count in kinds.items())
    print(f"kind comparisons {sum(kinds.values())} ({detail})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
