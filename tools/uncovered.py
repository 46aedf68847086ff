"""Statements of src/speckleqi that no test runs.

Runs pytest in this process under a sys.settrace line tracer limited to the
files of src/speckleqi, then prints each statement that never ran, as
file:line, and a total. Code that tests run in a subprocess (the CLI smoke
runs, the benchmark workloads) is not traced, so it may be listed.

    python tools/uncovered.py [PYTEST_ARGS ...]

PYTEST_ARGS default to ``-q -p no:cacheprovider tests``. The exit code is
pytest's. Tracing slows the Tier-1 suite by about a third (45 s against 34 s
on a 2-core box), so the suite does not run this tool itself.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def statements(source: str, filename: str = "<source>") -> dict:
    """Each statement that compiles to byte code, as its first line mapped to
    the set of lines whose byte code runs it.

    A compound statement (def, class, if, for, with, ...) owns its header
    only, decorators included; its body's statements are listed themselves.
    A statement without byte code of its own, such as a function's
    docstring, is left out.
    """
    code_lines = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        lines = code_lines.intersection(range(first, max(first, last) + 1))
        if lines:
            out[node.lineno] = lines
    return out


def executed_lines(run, files) -> tuple:
    """Call run() under a line tracer; return its result and, per file name in
    files, the set of lines that ran."""
    hits = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def not_run(stmts: dict, ran: set) -> list:
    """First lines of the statements none of whose lines ran, in order."""
    return sorted(first for first, lines in stmts.items() if not lines & ran)


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    files = sorted(str(f) for f in (ROOT / "src" / "speckleqi").glob("*.py"))
    args = argv[1:] or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    code, hits = executed_lines(lambda: pytest.main(args), files)
    total = missed = 0
    for name in files:
        stmts = statements(Path(name).read_text(), name)
        lines = not_run(stmts, hits[name])
        total, missed = total + len(stmts), missed + len(lines)
        rel = Path(name).relative_to(ROOT)
        for line in lines:
            print(f"{rel}:{line}")
    print(f"{missed} of {total} statements not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
