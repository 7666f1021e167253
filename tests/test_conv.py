"""Conversion on values agrees with reading both sides back and comparing."""

import io
import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import constructions as C
from conftest import CORPUS
from generators import ConvPairGen

from idt import generics as G
from idt import kernel as K
from idt import terms as T
from idt import values as V
from idt.cli import run_check


def readback_eq(a, b, d: int) -> bool:
    return V.quote(a, d) == V.quote(b, d)


def free_ctx(n: int) -> K.Context:
    ctx = K.Context()
    for i in range(n):
        ctx = ctx.extend(f"v{i}", V.VSet(0))
    return ctx


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ConvPairGen.KINDS))
def test_conv_agrees_with_readback(seed, kind):
    gen = ConvPairGen(seed)
    ctx = free_ctx(gen.n_free)
    for _ in range(4):
        a, b = gen.pair(kind)
        assert K.conv(ctx, a, b) == readback_eq(a, b, ctx.depth)
        assert K.conv(ctx, b, a) == readback_eq(b, a, ctx.depth)


# `label_argtys` and `lam_names` pairs differ only where equality ignores it,
# so they are meant to be nearly all equal
@pytest.mark.parametrize("kind", ["any", "switch_stuck", "switch_open_enum", "imu_unit"])
def test_conv_pairs_give_both_verdicts(kind):
    verdicts = Counter()
    for seed in range(40):
        gen = ConvPairGen(seed)
        for _ in range(5):
            verdicts[readback_eq(*gen.pair(kind), gen.n_free)] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def test_a_long_application_chain_reads_back_and_converts_without_stack():
    def applied(n: int):
        v = V.fresh(0)
        for k in range(n):
            v = V.vapp(v, V.VIdxE(k % 3))
        return v

    a, b, longer = applied(20000), applied(20000), applied(20001)
    t = V.quote(a, 1)
    for _ in range(20000):
        assert type(t) is T.App
        t = t.fn
    assert t == T.Var(0)
    assert V.convertible(a, b, 1)
    assert not V.convertible(a, longer, 1) and not V.convertible(longer, a, 1)


def numeral(n: int, bottom: int = 0):
    """The value of the numeral `n` of the prelude's `Nat`, with the tag
    `bottom` in place of `zero`'s."""
    v = V.VIn(V.VPair(V.VIdxE(bottom), V.VVoid()))
    for _ in range(n):
        v = V.VIn(V.VPair(V.VIdxE(1), V.VPair(v, V.VVoid())))
    return v


def test_deep_numerals_convert_without_stack():
    # `suc`'s recursive argument is the first component of a pair, deeper
    # than the recursion limit allows a frame per level
    n = 100000
    assert n > sys.getrecursionlimit()
    a, b, other = numeral(n), numeral(n), numeral(n, bottom=2)
    assert V.convertible(a, b, 0)
    assert not V.convertible(a, other, 0) and not V.convertible(other, a, 0)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt")))
def test_corpus_conversions_agree_with_readback(conv_oracle, name):
    code = run_check([os.path.join(CORPUS, name)], show_codes=True, stdout=io.StringIO())
    assert code == (1 if name == "bad.idt" else 0)
    assert conv_oracle


# --- deciding equality of enumeration indices by conversion ------------------------


def switch_ctx() -> K.Context:
    """e : EnumU, e2 : EnumU, cs, s : Enum e, t : Enum e. `cs` stands for the
    cases of a switch over `e`; no type has a neutral enumeration's cases,
    and the tests only evaluate and compare switches over them."""
    ctx = K.Context().extend("e", V.VEnumU()).extend("e2", V.VEnumU())
    ctx = ctx.extend("cs", V.VUnit())
    ctx = ctx.extend("s", ctx.eval(T.EnumT(T.Var(2))))
    return ctx.extend("t", ctx.eval(T.EnumT(T.Var(3))))


def stuck_switch(scrut: T.Term) -> T.Term:
    """`switch e (\\_. Enum e2) cs scrut` in `switch_ctx()`, an index of `e2`."""
    return T.Switch(T.Var(4), T.Lam("_", T.EnumT(T.Var(4))), T.Var(2), scrut)


def test_decide_eq_of_a_stuck_switch_with_itself_is_equal():
    ctx = switch_ctx()
    n = stuck_switch(T.Var(1))
    assert C.decide_eq_enum(ctx, T.Var(3), n, n) == ("equal", T.Refl())
    K.check(ctx, T.Refl(), ctx.eval(T.Eq(T.EnumT(T.Var(3)), n, n)))


def test_decide_eq_of_different_stuck_switches_is_not_canonical():
    ctx = switch_ctx()
    with pytest.raises(G.GenericsError) as e:
        C.decide_eq_enum(ctx, T.Var(3), stuck_switch(T.Var(1)), stuck_switch(T.Var(0)))
    assert e.value.kind == "NotCanonical"


def test_decide_eq_of_distinct_closed_indices_refutes():
    ctx = K.Context()
    enum = T.ConsE(T.Tag("a"), T.ConsE(T.Tag("b"), T.NilE()))
    x, y = T.IdxE(0), T.IdxE(1)
    kind, refutation = C.decide_eq_enum(ctx, enum, x, y)
    assert kind == "not-equal"
    K.check(ctx, refutation, ctx.eval(T.Pi("_", T.Eq(T.EnumT(enum), x, y), T.EnumT(T.NilE()))))
