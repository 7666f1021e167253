"""Kernel rules, judgmental equality and the global kernel properties."""

import pytest

from conftest import enum, tup, num_term, load_session
from generators import TermGen

from idt import kernel as K
from idt import terms as T
from idt import values as V


@pytest.fixture(scope="module")
def sess():
    return load_session("prelude.idt")


def ctx0():
    return K.Context()


# --- rule examples ----------------------------------------------------------------


def test_infer_unit_axiom():
    assert K.infer(ctx0(), T.Unit()) == V.VSet(0)


def test_infer_annotated_identity():
    t = T.Lam("x", T.Unit(), T.Var(0))
    ty = K.infer(ctx0(), t)
    assert V.quote(ty, 0) == T.Pi("x", T.Unit(), T.Unit())


def test_infer_variable_rule():
    ctx = ctx0().extend("A", V.VSet(0))
    assert K.infer(ctx, T.Var(0)) == V.VSet(0)


def test_check_void_unit():
    K.check(ctx0(), T.Void(), V.VUnit())
    with pytest.raises(K.KernelError) as e:
        K.check(ctx0(), T.Void(), V.VUId())
    assert e.value.kind == "TypeMismatch"


def test_check_refl_nat_2_2(sess):
    nat = sess.datatypes["Nat"].value
    two = sess.ctx.eval(num_term(2))
    K.check(sess.ctx, T.Refl(), V.VEq(nat, two, two))
    with pytest.raises(K.KernelError):
        K.check(sess.ctx, T.Refl(), V.VEq(nat, two, sess.ctx.eval(num_term(3))))


def test_normalize_beta():
    t = T.App(T.Lam("x", T.Unit(), T.Var(0)), T.Void())
    assert K.normalize(ctx0(), t) == T.Void()


def test_normalize_fst_pair():
    t = T.Fst(T.Pair(T.Tag("a"), T.Void()))
    assert K.normalize(ctx0(), t) == T.Tag("a")


def test_normalize_switch_positional():
    # switch over {a,b,c} of (ea,eb,ec) at position of 'b picks eb
    E = enum("a", "b", "c")
    cases = tup(T.Tag("ea"), T.Tag("eb"), T.Tag("ec"))
    P = T.Lam("_", None, T.UId())
    t = T.Switch(E, P, cases, T.SucE(T.ZeroE()))
    assert K.normalize(ctx0(), t) == T.Tag("eb")


def test_defeq_reflexive_and_beta():
    t = T.Pair(T.Void(), T.Tag("a"))
    assert K.def_eq(ctx0(), t, t)
    assert K.def_eq(ctx0(), T.App(T.Lam("x", T.Unit(), T.Var(0)), T.Void()), T.Void())


def test_defeq_distinct_normal_constructors():
    assert not K.def_eq(ctx0(), T.SucE(T.ZeroE()), T.ZeroE())


def test_universe_levels():
    assert K.infer(ctx0(), T.Set_(0)) == V.VSet(1)
    assert K.infer(ctx0(), T.Set_(1)) == V.VSet(2)
    with pytest.raises(K.KernelError) as e:
        K.infer(ctx0(), T.Set_(2))
    assert e.value.kind == "UniverseMismatch"


def test_cumulativity_at_conversion():
    # Nat : Set0 checks against Set1
    K.check(ctx0(), T.Unit(), V.VSet(1))
    K.check(ctx0(), T.Unit(), V.VSet(0))


def test_unbound_variable():
    with pytest.raises(K.KernelError) as e:
        K.infer(ctx0(), T.Var(3))
    assert e.value.kind == "UnboundVariable"


def test_not_a_function():
    with pytest.raises(K.KernelError) as e:
        K.infer(ctx0(), T.App(T.Void(), T.Void()))
    assert e.value.kind == "NotAFunction"


def test_not_a_pair():
    with pytest.raises(K.KernelError) as e:
        K.infer(ctx0(), T.Fst(T.Unit()))
    assert e.value.kind == "NotAPair"


def test_eqelim_computes():
    # J on refl returns the base
    ctx = ctx0().extend("A", V.VSet(0)).extend("a", V.fresh(1))
    motive = T.Lam("y", T.Var(1), T.Lam("q", T.Eq(T.Var(2), T.Var(1), T.Var(0)), T.Unit()))
    t = T.EqElim(motive, T.Void(), T.Refl())
    assert K.normalize(ctx, t) == T.Void()


def test_split_computes():
    p = T.Pair(T.Void(), T.Tag("a"))
    pty = V.VSigma("_", V.VUnit(), V.PyClo(lambda _v: V.VUId()))
    ctx = ctx0().extend("p", pty)
    m = T.Lam("a", None, T.Lam("b", None, T.Var(0)))
    mot = T.Lam("q", None, T.UId())
    assert K.normalize(ctx0(), T.Split(mot, m, p)) == T.Tag("a")


# --- motive levels ----------------------------------------------------------------

AB = enum("a", "b")
AB_T = "EnumT(enum=ConsE(tag=Tag(name='a'), rest=ConsE(tag=Tag(name='b'), rest=NilE())))"


def test_variable_motive_checks_at_level_zero():
    # not a lambda: the level comes from trying k = 0, 1, 2 in turn
    ctx = ctx0().extend("P", V.VPi("_", V.VEnumT(ctx0().eval(AB)), V.PyClo(lambda _v: V.VSet(0))))
    assert K.infer(ctx, T.PiE(AB, T.Var(0))) == V.VSet(0)


@pytest.mark.parametrize("body, level", [(T.Unit(), 0), (T.Set_(0), 1), (T.Set_(1), 2)])
def test_lambda_motive_level_is_its_body_sort(body, level):
    assert K.infer(ctx0(), T.PiE(AB, T.Lam("x", None, body))) == V.VSet(level)
    assert K.infer(ctx0(), T.PiE(AB, T.Lam("x", T.EnumT(AB), body))) == V.VSet(level)


@pytest.mark.parametrize(
    "motive, text",
    [
        (T.Lam("x", None, T.Var(0)), f"TypeMismatch: expected Set_(level=2), got {AB_T}"),
        (T.Lam("x", T.Unit(), T.Set_(0)), "TypeMismatch: annotation disagrees with the expected domain"),
        (T.Lam("x", None, T.Lam("y", None, T.Set_(0))), "TypeMismatch: function against Set_(level=2)"),
        (T.Lam("x", None, T.Set_(2)), "UniverseMismatch: the top universe has no type"),
        (T.Void(), f"TypeMismatch: expected Pi(nm='_', dom={AB_T}, cod=Set_(level=2)), got Unit()"),
    ],
)
def test_ill_typed_motive_reports_the_last_try(motive, text):
    with pytest.raises(K.KernelError) as e:
        K.infer(ctx0(), T.PiE(AB, motive))
    assert str(e.value) == text


def test_good_corpus_raises_no_kernel_error(monkeypatch):
    real = K.check
    raised = []

    def check(ctx, t, want):
        try:
            return real(ctx, t, want)
        except K.KernelError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(K, "check", check)
    for name in ("prelude.idt", "nat_tree_vec.idt", "vec_constrained.idt", "vec_computed.idt"):
        load_session(name)
    assert raised == []


# --- context validity ------------------------------------------------------------


def test_context_validity_preserved(sess):
    assert K.context_valid(sess.ctx)


def test_context_duplicate_names_rejected_by_session():
    from idt.cli import Session
    from idt.elab import ElabError

    s = Session()
    s.load_text("let x : Set => Unit")
    with pytest.raises(ElabError) as e:
        s.load_text("let x : Set => Unit")
    assert e.value.kind == "DuplicateName"


# --- kernel properties over generated terms (acceptance criterion 7 backing) ----


def test_normalization_idempotent_and_roundtrip_generated(sess):
    checked = 0
    for seed in range(120):
        g = TermGen(sess, seed)
        for depth in (2, 3, 6):
            t, ty = g.sample(depth=depth)
            K.check(sess.ctx, t, ty)
            n1 = K.normalize(sess.ctx, t)
            n2 = K.normalize(sess.ctx, n1)
            assert n1 == n2, f"seed {seed}"
            # readback/eval roundtrip
            v = sess.ctx.eval(t)
            t1 = V.quote(v, sess.ctx.depth)
            v1 = sess.ctx.eval(t1)
            assert V.quote(v1, sess.ctx.depth) == t1
            # subject reduction at test level
            K.check(sess.ctx, n1, ty)
            checked += 1
    assert checked >= 300


def test_defeq_congruence_generated(sess):
    # defEq t u implies defEq C[t] C[u] for randomly chosen one-hole contexts
    import random as _random

    nat = sess.datatypes["Nat"].value
    plus_ix, _ = sess.ctx.lookup("plus")
    contexts = [
        lambda u: T.Pair(u, T.Void()),
        lambda u: T.In(T.Pair(T.SucE(T.ZeroE()), T.Pair(u, T.Void()))),
        lambda u: T.App(T.App(T.Var(plus_ix), u), u),
        lambda u: T.Fst(T.Pair(u, T.Tag("t"))),
        lambda u: T.App(T.Lam("y", None, T.Pair(T.Var(0), u and T.shift(u, 1))), T.Void()),
        lambda u: T.Eq(T.Unit(), T.Void(), T.Void()) and T.Pair(T.Refl(), u),
    ]
    for seed in range(40):
        g = TermGen(sess, 1000 + seed)
        rng = _random.Random(seed)
        t = g.gen(sess.ctx, nat, 2)
        redex = T.App(T.Lam("x", None, T.Var(0)), t)
        assert K.def_eq(sess.ctx, t, redex)
        for wrap in rng.sample(contexts, 3):
            assert K.def_eq(sess.ctx, wrap(t), wrap(redex))
