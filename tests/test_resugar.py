"""`Session.resugar`: folding displayed types back into the names of the
datatypes and enumerations a session defines, against the sequential fold
it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_session

from idt import terms as T
from idt import values as V
from idt.cli import Session

TAG_SETS = ["{'true, 'false}", "{'a, 'b}", "{'a, 'b, 'c}"]


@pytest.fixture(scope="module")
def base():
    sess = load_session("nat_tree_vec.idt")
    sess.load_text("let Bool : Set => Enum {'true, 'false}\n")
    return sess


def sequential_fold(ctx, t: T.Term) -> T.Term:
    """The reference fold: each datatype or enumeration definition in turn,
    innermost first, abstracted out of the whole term."""
    for ix in range(ctx.depth):
        val = ctx.entry_at(ix).val
        if isinstance(val, (V.VIMu, V.VEnumT)):
            body = T.abstract(t, V.quote(val, ctx.depth))
            t = T.subst_free(body, lambda j: T.Var(ix) if j == 0 else T.Var(j - 1))
    return t


def unfold(ctx, t: T.Term) -> T.Term:
    """Substitute each variable of `t` by its definition's readback."""
    return T.subst_free(t, lambda j: V.quote(ctx.entry_at(j).val, ctx.depth))


def strictly_inside(small: T.Term, big: T.Term) -> bool:
    found = []

    def visit(u: T.Term, d: int):
        if u is not big and u == small:
            found.append(u)
            return u
        return None

    T.map_term(big, visit)
    return bool(found)


def definitions(ctx) -> list:
    """Readbacks of the datatype and enumeration definitions, oldest first."""
    return [
        V.quote(e.val, ctx.depth)
        for e in ctx.entries
        if isinstance(e.val, (V.VIMu, V.VEnumT))
    ]


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


def readback(sess: Session, text: str) -> T.Term:
    t, _ = sess.synth_expr(f"({text} : Set)")
    return V.quote(sess.ctx.eval(t), sess.ctx.depth)


@settings(max_examples=120, deadline=None)
@given(script=alias_scripts())
def test_resugar_round_trips_and_agrees_with_the_sequential_fold(base, script):
    aliases, query = script
    sess = Session(ctx=base.ctx)
    for name, ty in aliases:
        sess.load_text(f"let {name} : Set => {ty}\n")
        assert sess.resugar(readback(sess, name)) == T.Var(0)  # extends the table by one entry
    t = readback(sess, query)
    folded = sess.resugar(t)
    assert unfold(sess.ctx, folded) == t
    assert Session(ctx=sess.ctx).resugar(t) == folded
    defs = definitions(sess.ctx)
    nested = any(strictly_inside(later, earlier) for i, earlier in enumerate(defs) for later in defs[i + 1 :])
    if not nested:
        assert folded == sequential_fold(sess.ctx, t)


def test_a_context_that_is_not_an_extension_rebuilds_the_table(base):
    sess = Session(ctx=base.ctx)
    sess.load_text("let TN : Set => Tree Nat\n")
    tree_nat = readback(sess, "Tree Nat")
    assert sess.resugar(tree_nat) == T.Var(0)
    sess.ctx = base.ctx
    sess.load_text("let TB : Set => Tree Bool\n")
    # Var 0 is TB now, and TN is gone
    assert sess.resugar(tree_nat) == Session(ctx=sess.ctx).resugar(tree_nat) != T.Var(0)
    assert sess.resugar(readback(sess, "Tree Bool")) == T.Var(0)


def test_the_most_recent_of_equal_definitions_names_them(base):
    sess = Session(ctx=base.ctx)
    sess.load_text("let B1 : Set => Enum {'true, 'false}\n")
    assert sess.resugar(readback(sess, "Bool")) == T.Var(0)
    sess.load_text("let TB : Set => Bool\n")
    assert sess.resugar(readback(sess, "Bool")) == T.Var(0)
