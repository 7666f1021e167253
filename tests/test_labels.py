"""Programming labels, the restricted by-gadget, and label index types."""

import random

import pytest

from conftest import context_valid, enum, tup, switch_fam, load_session, num_term

from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.elab import ElabError


@pytest.fixture(scope="module")
def sess():
    return load_session("prelude.idt")


def ctx0():
    return K.Context()


# --- call/return computation ---------------------------------------------------


def test_lcall_lret_iota():
    # call <f : T> (return t) reduces to t
    t = T.LCall("f", (), (), T.Unit(), T.LRet(T.Void()))
    assert K.normalize(ctx0(), t) == T.Void()


def test_dcall_dret_iota():
    en = enum("a", "b")
    fam = switch_fam(en, tup(T.DOne(), T.DOne()), T.IDesc(T.Unit()))
    label = T.DLabel("D", ())
    t = T.DCall(label, T.DRet(en, fam))
    got = K.normalize(ctx0(), t)
    want = K.normalize(ctx0(), T.DSigmaE(en, fam))
    assert got == want


def test_call_return_iota_as_defeq_property():
    for tags in (("a",), ("a", "b"), ("x", "y", "z")):
        en = enum(*tags)
        fam = switch_fam(en, tup(*(T.DOne() for _ in tags)), T.IDesc(T.Unit()))
        label = T.DLabel("D", ())
        assert K.def_eq(ctx0(), T.DCall(label, T.DRet(en, fam)), T.DSigmaE(en, fam))


# --- label index types -----------------------------------------------------------


def nat_ty_term(sess):
    return V.quote(sess.datatypes["Nat"].value, sess.ctx.depth)


def test_label_index_type_base():
    label = T.DLabel("D", ())
    assert V.quote(V.vlabel_index_type(V.eval_label(label, ctx0().env)), 0) == T.Unit()


def test_label_index_type_param_skipped_index_contributes(sess):
    ctx = sess.ctx.extend("A", V.VSet(0)).extend("n", sess.datatypes["Nat"].value)
    nat_t = V.quote(sess.datatypes["Nat"].value, ctx.depth)
    label = T.DLabel(
        "Vec", (T.LParam(T.Var(1), T.Set_(0)), T.LIndex(T.Var(0), nat_t))
    )
    got = V.quote(V.vlabel_index_type(V.eval_label(label, ctx.env)), ctx.depth)
    want = K.normalize(ctx, T.Sigma("_", T.Unit(), T.shift(nat_t, 1)))
    assert got == want


def test_label_index_type_constraint_contributes(sess):
    ctx = sess.ctx.extend("A", V.VSet(0)).extend("n", sess.datatypes["Nat"].value)
    ctx = ctx.extend("m", sess.datatypes["Nat"].value)
    nat_t = V.quote(sess.datatypes["Nat"].value, ctx.depth)
    suc_m = T.In(T.Pair(T.SucE(T.ZeroE()), T.Pair(T.Var(0), T.Void())))
    label = T.DLabel(
        "Vec", (T.LParam(T.Var(2), T.Set_(0)), T.LConstraint(T.Var(1), suc_m, nat_t))
    )
    got = V.quote(V.vlabel_index_type(V.eval_label(label, ctx.env)), ctx.depth)
    want = K.normalize(ctx, T.Sigma("_", T.Unit(), T.shift(nat_t, 1)))
    assert got == want


def test_label_index_type_against_oracle(sess):
    # property: the index type is the left-nested product of the index and
    # constraint entry types, built by an independent recursion
    rng = random.Random(5)
    nat = sess.datatypes["Nat"].value
    nat_t = V.quote(nat, sess.ctx.depth)

    def oracle(entries):
        ty = T.Unit()
        for e in entries:
            if isinstance(e, T.LParam):
                continue
            ty = T.Sigma("_", ty, T.shift(e.ty, 1))
        return ty

    for _ in range(25):
        entries = []
        for _ in range(rng.randrange(0, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                entries.append(T.LParam(T.Unit(), T.Set_(0)))
            elif kind == 1:
                entries.append(T.LIndex(num_term(rng.randrange(3)), nat_t))
            else:
                entries.append(
                    T.LConstraint(num_term(0), num_term(rng.randrange(3)), nat_t)
                )
        label = T.DLabel("D", tuple(entries))
        got = V.quote(V.vlabel_index_type(V.eval_label(label, sess.ctx.env)), sess.ctx.depth)
        want = K.normalize(sess.ctx, oracle(entries))
        assert got == want


# --- program elaboration -----------------------------------------------------------


def test_plus_computes(sess):
    from idt.elab import Elaborator

    el = Elaborator()
    for m in range(5):
        for n in range(5):
            t, _ = el.synth(sess.ctx, S.parse_expr(f"plus {m} {n}"))
            assert K.normalize(sess.ctx, t) == K.normalize(sess.ctx, num_term(m + n))


def test_ill_typed_return_reports_label_goal(sess):
    d = S.parse_file("let f (x : Nat) : Nat where\n  f x => ()\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "CheckMismatch"
    assert any("f" in g or "Nat" in g for g in e.value.trail)


def test_pattern_head_argument_order_mismatch(sess):
    d = S.parse_file("let f (m : Nat) (n : Nat) : Nat where\n  f n m => m\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "PatternHeadMismatch"


def test_pattern_head_wrong_name(sess):
    d = S.parse_file("let f (m : Nat) : Nat where\n  g m => m\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "PatternHeadMismatch"


def test_define_extends_context_with_checked_entry(sess):
    d = S.parse_file(
        "let double (x : Nat) : Nat where\n"
        "  double x by rec x {\n"
        "    double zero => zero\n"
        "    double (suc m) => suc (suc (double m))\n"
        "  }\n"
    )[0]
    definiens, ty = L.elab_define(sess.ctx, d)
    tyv = K.check_entry_type(sess.ctx, ty)
    K.check(sess.ctx, definiens, tyv)  # soundness of program elaboration
    ctx = sess.ctx.extend("double", tyv, sess.ctx.eval(definiens))
    from idt.elab import Elaborator

    el = Elaborator()
    for k in range(4):
        t, _ = el.synth(ctx, S.parse_expr(f"double {k}"))
        assert K.normalize(ctx, t) == K.normalize(ctx, num_term(2 * k))


# --- restricted elimination with a motive --------------------------------------------


def test_ewm_rec_on_nat_two_subgoals_with_hypothesis(sess):
    ctx = sess.ctx.extend("m", sess.datatypes["Nat"].value)
    ctx = ctx.extend("n", sess.datatypes["Nat"].value)
    nat = sess.datatypes["Nat"].value
    goal = V.VLabelTy(
        "plus",
        (ctx.env[ctx.depth - 2], ctx.env[ctx.depth - 1]),
        (nat, nat),
        nat,
    )
    res = L.ewm_restricted(ctx, "rec", "m", goal)
    assert [sg.tag for sg in res.subgoals] == ["zero", "suc"]
    assert not res.subgoals[0].hyp_slots
    assert len(res.subgoals[1].hyp_slots) == 1
    hyp = res.subgoals[1].hyp_slots[0]
    assert isinstance(hyp.ty, V.VLabelTy) and hyp.ty.head == "plus"


def test_ewm_case_on_enum(sess):
    ev = sess.ctx.eval(enum("l", "r"))
    ctx = sess.ctx.extend("b", V.VEnumT(ev))
    goal = V.VLabelTy("f", (ctx.env[-1],), (V.VEnumT(ev),), V.VUnit())
    res = L.ewm_restricted(ctx, "case", "b", goal)
    assert [sg.tag for sg in res.subgoals] == ["l", "r"]
    out = res.assemble([T.LRet(T.Void()), T.LRet(T.Void())])
    K.check(ctx, out, goal)


def test_ewm_unsupported_scrutinee(sess):
    ctx = sess.ctx.extend("g", ctx0().eval(T.Pi("x", T.Unit(), T.Unit())))
    goal = V.VLabelTy("f", (ctx.env[-1],), (ctx.eval(T.Pi("x", T.Unit(), T.Unit())),), V.VUnit())
    with pytest.raises(ElabError) as e:
        L.ewm_restricted(ctx, "case", "g", goal)
    assert e.value.kind == "UnsupportedScrutinee"


def test_ewm_scrutinee_not_free(sess):
    ctx = sess.ctx.extend("m", sess.datatypes["Nat"].value)
    goal = V.VLabelTy("f", (), (), V.VUnit())
    with pytest.raises(ElabError) as e:
        L.ewm_restricted(ctx, "rec", "m", goal)
    assert e.value.kind == "ScrutineeNotFree"


def test_ewm_rec_on_enum_rejected(sess):
    ev = sess.ctx.eval(enum("l", "r"))
    ctx = sess.ctx.extend("b", V.VEnumT(ev))
    goal = V.VLabelTy("f", (ctx.env[-1],), (V.VEnumT(ev),), V.VUnit())
    with pytest.raises(ElabError) as e:
        L.ewm_restricted(ctx, "rec", "b", goal)
    assert e.value.kind == "UnsupportedScrutinee"


def test_ewm_assembled_checks_at_goal(sess):
    # every corpus use site re-checks; exercise a fresh one directly
    ctx = sess.ctx.extend("m", sess.datatypes["Nat"].value)
    nat = sess.datatypes["Nat"].value
    goal = V.VLabelTy("pred", (ctx.env[-1],), (nat,), nat)
    res = L.ewm_restricted(ctx, "case", "m", goal)
    branches = []
    for sg in res.subgoals:
        inner = ctx
        for nm, tyv in sg.binders:
            inner = inner.extend(nm, tyv)
        if sg.tag == "zero":
            from conftest import num_term

            body = T.LRet(num_term(0))
        else:
            body = T.LRet(T.Var(inner.lookup("x")[0]))  # the predecessor
        branches.append(sg.wrap(body))
    out = res.assemble(branches)
    K.check(ctx, out, goal)


def test_abstract_subterm():
    t = T.App(T.Var(2), T.Lam("x", None, T.App(T.Var(3), T.Var(0))))
    body = T.abstract(t, T.Var(2))
    assert body == T.App(T.Var(0), T.Lam("x", None, T.App(T.Var(1), T.Var(0))))


def test_nested_by_blocks_in_programs(sess):
    # casing on a second argument inside a rec branch; the recursive call is
    # justified by the hypothesis of the outer rec
    from idt.cli import Session

    s = Session()
    from conftest import read_corpus

    s.load_text(read_corpus("prelude.idt"))
    s.load_text(
        "let bothZero (a : Nat) (b : Nat) : Bool where\n"
        "  bothZero a b by case a {\n"
        "    bothZero zero b by case b {\n"
        "      bothZero zero zero => true\n"
        "      bothZero zero (suc b') => false\n"
        "    }\n"
        "    bothZero (suc a') b => false\n"
        "  }\n"
    )
    for a in range(3):
        for b in range(3):
            want = "'true" if a == b == 0 else "'false"
            assert s.eval_expr(f"bothZero {a} {b}") == want
    assert context_valid(s.ctx)


def test_unjustified_recursive_call_rejected(sess):
    # a recursive call whose arguments do not match any hypothesis label is a
    # NoMatchingHypothesis error rather than unchecked recursion
    d = S.parse_file(
        "let bad (a : Nat) (b : Nat) : Nat where\n"
        "  bad a b by rec a {\n"
        "    bad zero b => zero\n"
        "    bad (suc a') b => bad a' (suc b)\n"
        "  }\n"
    )[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "NoMatchingHypothesis"


def test_program_case_on_enum_argument(sess):
    from idt.cli import Session
    from conftest import read_corpus

    s = Session()
    s.load_text(read_corpus("prelude.idt"))
    s.load_text(
        "let toNat (b : Bool) : Nat where\n"
        "  toNat b by case b {\n"
        "    toNat true => 1\n"
        "    toNat false => 0\n"
        "  }\n"
    )
    assert s.eval_expr("toNat true") == "1"
    assert s.eval_expr("toNat false") == "0"
    assert context_valid(s.ctx)
