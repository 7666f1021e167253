"""No code in `src/` that only tests reach.

Every module-level function and class of `src/idt` is referenced from some
other top-level statement of the package, or is an entry point that
`bench/tracing.py` wraps by name in `TARGETS`. Every kernel rule that can
succeed runs on some idt input, except the few listed in `UNREACHED_RULES`.
"""

import ast
import os

from conftest import ROOT, load_session, read_corpus

from idt import kernel as K
from idt.cli import Session
from idt.elab import ElabError

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


# --- kernel rules that idt inputs reach -------------------------------------------

# a datatype with a `'Pi` field, and REPL lines whose rules no corpus file
# reaches: equations of tags and of enumerations, an annotated redex and an
# applied eliminator literal
ORD = "data Ord : Set where\n  Ord => oz\n  Ord => olim (g : Nat -> Ord)\n"
REPL = (
    ("type_of", "'a == 'a"),
    ("eval_expr", "(refl : {'a} == {'a})"),
    ("eval_expr", "(\\x. suc x : Nat -> Nat) 1"),
    ("eval_expr", "(['a -> 1, 'b -> 2] : Enum {'a, 'b} -> Nat) 'b"),
)
# the forms whose inference rule always raises `CannotInfer`: they only check
CHECKING_ONLY = {
    "Lam", "Pair", "Refl", "In", "LRet", "ZeroE", "SucE", "DOne", "DVarI", "DTimes", "DPi", "DSigma", "DSigmaE",
}
# the rules that can succeed and that no idt input runs
UNREACHED_RULES = {("infer", "EqElim"), ("infer", "IAllMap"), ("infer", "Void")}


def test_kernel_rules_that_idt_inputs_reach(monkeypatch):
    reached = set()
    rules = set()
    for kind, table in (("infer", K._INFER_RULES), ("check", K._CHECK_RULES)):
        for cls, rule in list(table.items()):
            if kind == "infer" and cls.__name__ in CHECKING_ONLY:
                continue
            key = (kind, cls.__name__)
            rules.add(key)

            def wrapped(*args, _rule=rule, _key=key):
                out = _rule(*args)
                reached.add(_key)
                return out

            monkeypatch.setitem(table, cls, wrapped)
    for name in sorted(os.listdir(os.path.join(ROOT, "corpus"))):
        sess = Session()
        try:
            sess.load_text(read_corpus(name))
        except ElabError:
            assert name == "bad.idt"
    sess = load_session("prelude.idt")
    sess.load_text(ORD)
    for command, line in REPL:
        getattr(sess, command)(line)
    assert rules - reached == UNREACHED_RULES
