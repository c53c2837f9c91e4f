"""Count the function-body statements of ``src/nestedrisk`` that tier-1 never runs.

Runs the test suite in-process under ``sys.settrace`` (and
``threading.settrace`` for the replication workers) and prints, per module,
the unexecuted statements out of all function-body statements, with their
line numbers.

A statement is every statement inside a function or method body, nested
blocks and nested functions included, docstrings left out. A statement ran when
a line event fired on one of its own lines: its span minus the spans of
the statements nested in it, so a multi-line call counts wherever it starts
executing.

Usage, from the repository root:

    python tools/unexecuted.py            # the whole tier-1 suite
    python tools/unexecuted.py -k sigma   # extra arguments go to pytest
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nestedrisk"


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly nested in a compound statement."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out.extend(getattr(stmt, field, None) or [])
    for handler in getattr(stmt, "handlers", None) or []:
        out.extend(handler.body)
    return out


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def body_statements(path: Path) -> dict[int, set[int]]:
    """First line -> own lines of every function-body statement in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: dict[int, set[int]] = {}

    def visit(stmts: list[ast.stmt], in_function: bool) -> None:
        for stmt in stmts:
            if in_function:
                lines = set(range(stmt.lineno, stmt.end_lineno + 1))
                for child in _children(stmt):
                    lines -= set(range(child.lineno, child.end_lineno + 1))
                found[stmt.lineno] = lines
            if isinstance(stmt, ast.FunctionDef):
                body = stmt.body[1:] if _is_docstring(stmt.body[0]) else stmt.body
                visit(body, True)
            else:
                visit(_children(stmt), in_function)

    visit(tree.body, False)
    return found


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; return its exit code and the lines hit
    per package file."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = hits[filename]

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv or ["--continue-on-collection-errors"])
    total = missed = 0
    print("\nunexecuted function-body statements:")
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = body_statements(path)
        seen = hits.get(str(path), set())
        lost = sorted(first for first, own in stmts.items() if not own & seen)
        total += len(stmts)
        missed += len(lost)
        print(f"  {path.stem:12s} {len(lost):4d} of {len(stmts):4d}"
              + (f"  lines {', '.join(map(str, lost))}" if lost else ""))
    print(f"  {'total':12s} {missed:4d} of {total:4d}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
