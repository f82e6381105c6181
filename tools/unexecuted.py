"""List the statements of phaselab that neither the tests nor a benchmark pass execute.

    python3 tools/unexecuted.py ROOT

Traces every line executed in ``ROOT/src/phaselab`` (a ``sys.settrace`` line
trace; no coverage package is needed) while it runs, in this process, the
``pytest -m "not slow"`` selection of ``ROOT/tests`` and one circle-census
and one construct pass of ``ROOT/perfbench`` at seed 7 (through
report_digests' runner).  It then prints to stdout, per module, a count and
each statement that never ran as a ``path:line: source`` line; pytest's
output goes to stderr.  A statement is an ``ast`` statement whose first line the compiler
attributes code to, so docstrings, ``else:`` and blank lines are never listed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import sys
import threading
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_digests import passes  # noqa: E402


def _code_lines(code) -> set:
    """Every line the compiler attributes code to, nested code objects included."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict:
    """First line of every executable statement of a module -> its source line."""
    source = path.read_text()
    text = source.splitlines()
    executable = _code_lines(compile(source, str(path), "exec"))
    firsts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return {n: text[n - 1].strip() for n in sorted(firsts & executable)}


def trace_lines(package: Path):
    """Start a line trace of the files under ``package``; returns the
    filename -> executed lines map it fills, and a function that stops it
    and puts back the trace functions it replaced."""
    prefix = str(package) + "/"
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(calls)
    threading.settrace(calls)

    def stop():
        sys.settrace(previous[0])
        threading.settrace(previous[1])

    return hits, stop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("root", type=Path, help="checkout whose src/, tests/ and perfbench/ to run")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    package = root / "src" / "phaselab"
    sys.path.insert(0, str(root / "src"))

    import pytest

    hits, stop = trace_lines(package)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the listing only
            status = pytest.main(
                [str(root / "tests"), "-q", "-m", "not slow", "-p", "no:cacheprovider",
                 f"--rootdir={root}"]
            )
        for _ in passes(root, [7]):
            pass
    finally:
        stop()
    if status != 0:
        print(f"pytest exited with {status}; the list below is of a failing run", file=sys.stderr)

    total = 0
    for path in sorted(package.glob("*.py")):
        missed = {n: s for n, s in statements(path).items() if n not in hits[str(path)]}
        total += len(missed)
        rel = path.relative_to(root)
        print(f"{rel}: {len(missed)} unexecuted statements")
        for n, text in missed.items():
            print(f"  {rel}:{n}: {text}")
    print(f"total: {total} unexecuted statements")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
