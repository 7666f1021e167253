"""`Session.resugar` and `:t`: displayed types name the datatypes and
enumerations a session defines, checked by the naming oracle on scripts of
aliases."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import load_session

from idt import kernel as K
from idt import terms as T
from idt import values as V
from idt.cli import Session

TAG_SETS = ["{'true, 'false}", "{'a, 'b}", "{'a, 'b, 'c}"]


@pytest.fixture(scope="module")
def base():
    sess = load_session("nat_tree_vec.idt")
    sess.load_text("let Bool : Set => Enum {'true, 'false}\n")
    return sess


@st.composite
def type_exprs(draw, names: list, depth: int = 2) -> str:
    kind = draw(st.sampled_from(["Nat", "Bool", "Enum", "alias", "Tree"][: 5 if depth else 4]))
    if kind == "Enum":
        return "Enum " + draw(st.sampled_from(TAG_SETS))
    if kind == "alias":
        return draw(st.sampled_from(names)) if names else "Nat"
    if kind == "Tree":
        return f"Tree ({draw(type_exprs(names, depth - 1))})"
    return kind


@st.composite
def alias_scripts(draw):
    """Up to six `let A<k> : Set => X` aliases and a query type over them,
    an arrow or product of two such types."""
    names: list = []
    for k in range(draw(st.integers(1, 6))):
        names.append((f"A{k}", draw(type_exprs([n for n, _ in names]))))
    scope = [n for n, _ in names]
    a, b = draw(type_exprs(scope)), draw(type_exprs(scope))
    query = draw(st.sampled_from([f"({a})", f"({a}) -> ({b})", f"({a}) * ({b})"]))
    return names, query


def value(sess: Session, text: str) -> V.Value:
    """The value of the type `text` in the session's context."""
    t, _ = sess.synth_expr(f"({text} : Set)")
    return sess.ctx.eval(t)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=alias_scripts())
def test_type_of_alias_scripts_satisfies_the_naming_oracle(base, naming_oracle, script):
    aliases, query = script
    sess = Session(ctx=base.ctx)
    for name, ty in aliases:
        sess.load_text(f"let {name} : Set => {ty}\n")
        assert sess.resugar(value(sess, name)) == T.Var(0)  # the latest definition of its object
    arrow = f"({query}) -> ({query})"
    shown = sess.type_of(f"(\\x. x : {arrow})")
    # the display, read as a type in the same session, is the type it shows
    assert K.conv(sess.ctx, value(sess, shown), value(sess, arrow))
    assert naming_oracle


def test_a_context_that_is_not_an_extension_rebuilds_the_table(base):
    sess = Session(ctx=base.ctx)
    sess.load_text("let TN : Set => Tree Nat\n")
    assert sess.resugar(value(sess, "TN")) == T.Var(0)
    assert sess.type_of("(leaf : Tree Nat)") == "Tree Nat"  # another object than TN's
    sess.ctx = base.ctx
    sess.load_text("let TB : Set => Tree Bool\n")
    # Var 0 is TB now, and TN is gone
    assert sess.resugar(value(sess, "TB")) == T.Var(0)
    assert sess.type_of("(leaf : TB)") == "TB"
    assert "TN" not in sess.ctx.names()


def test_the_most_recent_of_equal_definitions_names_them(base):
    sess = Session(ctx=base.ctx)
    sess.load_text("let B1 : Set => Enum {'true, 'false}\n")
    assert sess.resugar(value(sess, "Bool")) == T.Var(1)  # B1 is another object
    sess.load_text("let TB : Set => Bool\n")
    assert sess.resugar(value(sess, "Bool")) == T.Var(0)
    assert sess.type_of("(leaf : Tree Bool)") == "Tree TB"
