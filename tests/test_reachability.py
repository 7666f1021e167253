"""No code in `src/` that only tests reach.

Every module-level function and class of `src/idt` is referenced from some
other top-level statement of the package, or is an entry point that
`bench/tracing.py` wraps by name in `TARGETS`.
"""

import ast
import os

from conftest import ROOT

SRC = os.path.join(ROOT, "src", "idt")


def _names_in(node) -> set:
    """The identifiers that `node` loads, bare or as attributes."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def traced_names() -> set:
    with open(os.path.join(ROOT, "bench", "tracing.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in stmt.targets):
            return {entry.elts[1].value for entry in stmt.value.elts}
    raise AssertionError("bench/tracing.py defines no TARGETS")


def unreached() -> list:
    """(module, name) of each top-level definition that nothing else uses."""
    statements = []  # (module, top-level statement)
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn), encoding="utf-8") as f:
                statements += [(fn, stmt) for stmt in ast.parse(f.read()).body]
    traced = traced_names()
    out = []
    for i, (fn, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name in traced:
            continue
        if not any(stmt.name in _names_in(other) for j, (_, other) in enumerate(statements) if j != i):
            out.append((fn, stmt.name))
    return out


def test_every_definition_in_src_is_reached_from_src_or_traced():
    assert unreached() == []
