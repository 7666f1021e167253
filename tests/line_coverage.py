"""The statements in `src/idt` function bodies that the tier-1 tests never run.

    python tests/line_coverage.py

The script runs the tier-1 suite in this process under `sys.settrace`,
recording the lines that run in `src/idt`. It then prints each statement
inside a function body that never ran, as `path:line: source`, and their
count. Tests that run the CLI in a subprocess are not counted. pytest's own
output goes to standard error, so standard output holds only the report.
The exit code is pytest's, or 1 when more than `CEILING` statements never
ran, so that the count can only fall. pytest does not collect this file:
its name does not start with `test_`. It uses only the standard library
besides pytest and hypothesis, which the suite needs anyway.

A statement ran when a line event fell on one of its lines; a compound
statement (`if`, `while`, `try`, `def`, ...) ran when one fell on its
header or when a statement in its body ran. Three things keep the count
honest:

- `conftest.py` puts `tests/../src` on `sys.path`, so code filenames are
  compared through `os.path.realpath`;
- CPython silently drops a trace function that raises, and a deep
  evaluation near the recursion limit makes it raise, so the tracer is
  installed again before every setup, call and teardown phase of a test;
- Hypothesis's `explain` phase installs a tracer of its own, so the script
  turns that phase off (and the deadline, which tracing would break).
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "idt"
# the most statements that may never run; lower it when a change runs or
# deletes more of them. One of them runs or not with Hypothesis's draws
CEILING = 26


class Tracer:
    """The lines that ran in the files under `SRC`, by real path."""

    def __init__(self):
        self.prefix = os.path.realpath(SRC) + os.sep
        self.hits: dict = {}
        self.local_by_name: dict = {}  # a code filename -> its local tracer, or None

    def _local(self, lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self.local_by_name[name]
        except KeyError:
            path = os.path.realpath(name)
            local = None
            if path.startswith(self.prefix):
                local = self._local(self.hits.setdefault(path, set()))
            self.local_by_name[name] = local
            return local

    def install(self):
        sys.settrace(self.trace)
        threading.settrace(self.trace)


class Reinstall:
    """A pytest plugin that turns off Hypothesis's `explain` phase and its
    deadline, and installs the tracer again before each test phase."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def pytest_configure(self, config):
        # imported here, after pytest has marked it for assertion rewriting
        from hypothesis import Phase, settings

        phases = tuple(p for p in Phase if p is not Phase.explain)
        settings.register_profile("line-coverage", phases=phases, deadline=None)
        settings.load_profile("line-coverage")

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.tracer.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.tracer.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.tracer.install()


def _children(stmt: ast.stmt) -> list:
    """The statements directly inside a compound statement."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out.extend(getattr(stmt, field, ()))
    for part in (*getattr(stmt, "handlers", ()), *getattr(stmt, "cases", ())):
        out.extend(part.body)
    return out


def _runs_no_code(stmt: ast.stmt) -> bool:
    """A docstring, or a `global` or `nonlocal` declaration."""
    if isinstance(stmt, (ast.Global, ast.Nonlocal)):
        return True
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _ran(stmt: ast.stmt, lines: set) -> bool:
    kids = _children(stmt)
    if not kids:
        return any(n in lines for n in range(stmt.lineno, stmt.end_lineno + 1))
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    return any(n in lines for n in range(start, kids[0].lineno)) or any(_ran(k, lines) for k in kids)


def function_statements(tree: ast.Module) -> list:
    """Every statement inside a function body that compiles to code, in
    source order."""
    seen = {}

    def visit(stmt):
        if not _runs_no_code(stmt):
            seen[(stmt.lineno, stmt.col_offset)] = stmt
        for kid in _children(stmt):
            visit(kid)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                visit(stmt)
    return [seen[k] for k in sorted(seen)]


def report(hits: dict) -> tuple:
    """The lines naming each statement that never ran, and the count of all
    statements in function bodies."""
    missed, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        lines = hits.get(os.path.realpath(path), set())
        for stmt in function_statements(ast.parse(text)):
            total += 1
            if not _ran(stmt, lines):
                missed.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {source[stmt.lineno - 1].strip()}")
    return missed, total


def main() -> int:
    os.chdir(ROOT)
    tracer = Tracer()
    tracer.install()
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args, plugins=[Reinstall(tracer)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed, total = report(tracer.hits)
    for line in missed:
        print(line)
    print(f"{len(missed)} of {total} statements in src/idt function bodies never ran")
    if len(missed) > CEILING:
        print(f"that is more than the ceiling of {CEILING}")
        return int(code) or 1
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
