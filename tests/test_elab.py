"""Bidirectional elaboration: sugar rules, soundness, determinism."""

import pytest

from conftest import datatype, elab_check, elab_synth, enum, load_session, num_term

from idt import kernel as K
from idt import pp
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.elab import ElabError, Elaborator


@pytest.fixture(scope="module")
def sess():
    return load_session("prelude.idt")


def ctx0():
    return K.Context()


def se(s):
    return S.parse_expr(s)


# --- synthesis -----------------------------------------------------------------


def test_synth_variable(sess):
    t, ty = elab_synth(sess.ctx, se("plus"))
    assert isinstance(t, T.Var)
    assert isinstance(ty, V.VPi)


def test_synth_application(sess):
    t, ty = elab_synth(sess.ctx, se("plus 1"))
    assert isinstance(ty, V.VPi)
    t2, ty2 = elab_synth(sess.ctx, se("plus 1 2"))
    assert isinstance(ty2, V.VIMu)


def test_synth_lambda_fails():
    with pytest.raises(ElabError) as e:
        elab_synth(ctx0(), se("\\x. x"))
    assert e.value.kind == "CannotSynthesize"


def test_synth_annotation_recovers():
    t, ty = elab_synth(ctx0(), se("(\\x. x : Unit -> Unit)"))
    assert isinstance(ty, V.VPi)
    K.check(ctx0(), t, ty)


# --- checking ------------------------------------------------------------------


def test_check_lambda_annotated_identity():
    # a checked lambda carries no domain; an annotated one keeps its type
    want = ctx0().eval(T.Pi("x", T.Unit(), T.Unit()))
    assert elab_check(ctx0(), se("\\x. x"), want) == T.Lam("x", T.Var(0))
    t = elab_check(ctx0(), se("(\\x. x : Unit -> Unit)"), want)
    assert t == T.Ann(T.Lam("x", T.Var(0)), T.Pi("x", T.Unit(), T.Unit()))
    assert pp.print_term(t, []) == "(\\x. x : Unit -> Unit)"


def test_check_mismatch():
    ctx = ctx0().extend("x", V.VUId())
    with pytest.raises(ElabError) as e:
        elab_check(ctx, se("x"), V.VUnit())
    assert e.value.kind == "CheckMismatch"


def test_check_constructor_on_nat(sess):
    nat = datatype(sess, "Nat").val
    t = elab_check(sess.ctx, se("suc zero"), nat)
    assert t == T.In(T.Pair(T.IdxE(1), T.Pair(T.In(T.Pair(T.IdxE(0), T.Void())), T.Void())))
    K.check(sess.ctx, t, nat)


# --- tuples ----------------------------------------------------------------------


def test_tuple_empty_against_unit():
    assert elab_check(ctx0(), se("()"), V.VUnit()) == T.Void()


def test_tuple_arity_error():
    # (a b) against Sigma x:Unit. Unit with one component too many
    want = ctx0().eval(T.Sigma("x", T.Unit(), T.Unit()))
    with pytest.raises(ElabError) as e:
        elab_check(ctx0(), se("(() () ())"), want)
    assert e.value.kind == "BadTupleArity"


def test_tuple_nested_forced_shape():
    want = ctx0().eval(T.Sigma("_", T.Unit(), T.Sigma("_", T.Unit(), T.Unit())))
    t = elab_check(ctx0(), se("(() () ())"), want)
    assert t == T.Pair(T.Void(), T.Pair(T.Void(), T.Void()))


def test_tuple_application_fallback(sess):
    # an application spine against a Sigma falls back to the application
    # reading when the tuple reading fails
    ctx = sess.ctx.extend(
        "f",
        ctx_pi := V.VPi(
            "x",
            V.VUnit(),
            lambda _x: V.VSigma("_", V.VUnit(), lambda _y: V.VUnit()),
        ),
    )
    t = elab_check(ctx, se("f ()"), V.VSigma("_", V.VUnit(), lambda _y: V.VUnit()))
    assert t == T.App(T.Var(0), T.Void())


# --- enumerations ------------------------------------------------------------------


def test_enum_literal():
    t = elab_check(ctx0(), se("{'a, 'b, 'c}"), V.VEnumU())
    assert t == T.ConsE(T.Tag("a"), T.ConsE(T.Tag("b"), T.ConsE(T.Tag("c"), T.NilE())))


def test_tag_second_position():
    ev = ctx0().eval(enum("a", "b", "c"))
    t = elab_check(ctx0(), se("'b"), V.VEnumT(ev))
    assert t == T.IdxE(1)


def test_tag_unknown():
    ev = ctx0().eval(enum("a", "b", "c"))
    with pytest.raises(ElabError) as e:
        elab_check(ctx0(), se("'d"), V.VEnumT(ev))
    assert e.value.kind == "UnknownTag"


def test_eliminator_literal_elaborates_to_switch():
    ev = ctx0().eval(enum("a", "b"))
    want = V.VPi("e", V.VEnumT(ev), lambda _e: V.VUId())
    t = elab_check(ctx0(), se("[a -> 't, b -> 'u]"), want)
    K.check(ctx0(), t, want)
    # applying it picks the right branch
    got = K.normalize(ctx0(), T.App(t, T.IdxE(1)))
    assert got == T.Tag("u")


def test_eliminator_literal_tag_mismatch():
    ev = ctx0().eval(enum("a", "b"))
    want = V.VPi("e", V.VEnumT(ev), lambda _e: V.VUId())
    with pytest.raises(ElabError) as e:
        elab_check(ctx0(), se("[b -> 't, a -> 'u]"), want)
    assert e.value.kind == "UnknownTag"


# --- constructor sugar on families --------------------------------------------------


@pytest.fixture(scope="module")
def vecs():
    return load_session("vec_constrained.idt"), load_session("vec_computed.idt")


def test_vnil_constrained_autofills_refl(vecs):
    sessc, _ = vecs
    el = Elaborator()
    vty, _ = el.synth(sessc.ctx, se("Vec Bool zero"))
    t = el.check(sessc.ctx, se("vnil"), sessc.ctx.eval(vty))
    # In ('nil, (refl, void))
    assert t == T.In(T.Pair(T.IdxE(0), T.Pair(T.Refl(), T.Void())))


def test_vnil_computed_no_equations(vecs):
    _, sessd = vecs
    el = Elaborator()
    vty, _ = el.synth(sessd.ctx, se("Vec Bool zero"))
    t = el.check(sessd.ctx, se("vnil"), sessd.ctx.eval(vty))
    # In ('elim, ('nil, void))
    assert t == T.In(T.Pair(T.IdxE(0), T.Pair(T.IdxE(0), T.Void())))


def test_vnil_wrong_length_fails_both_styles(vecs):
    for sess, kind in zip(vecs, ("CheckMismatch", "UnknownTag")):
        el = Elaborator()
        vty, _ = el.synth(sess.ctx, se("Vec Bool (suc zero)"))
        with pytest.raises(ElabError) as e:
            el.check(sess.ctx, se("vnil"), sess.ctx.eval(vty))
        assert e.value.kind == kind


def test_vcons_under_both_styles(vecs):
    sessc, sessd = vecs
    el = Elaborator()
    for sess, src in ((sessc, "vcons zero true vnil"), (sessd, "vcons true vnil")):
        vty, _ = el.synth(sess.ctx, se("Vec Bool (suc zero)"))
        vtyv = sess.ctx.eval(vty)
        t = el.check(sess.ctx, se(src), vtyv)
        K.check(sess.ctx, t, vtyv)


def test_not_a_constructor_type(sess):
    with pytest.raises(ElabError) as e:
        elab_check(sess.ctx, se("vnil"), V.VUnit())
    assert e.value.kind == "CannotSynthesize"


# --- soundness, determinism, conservativity ------------------------------------------


def test_soundness_over_generated_terms(sess):
    from generators import TermGen

    for seed in range(60):
        g = TermGen(sess, 7000 + seed)
        t, ty = g.sample(depth=3)
        K.check(sess.ctx, t, ty)  # every generated elaboration output re-checks


def test_elaboration_deterministic(sess):
    src = "plus (suc zero) (plus 2 1)"
    t1, ty1 = elab_synth(sess.ctx, se(src))
    t2, ty2 = elab_synth(sess.ctx, se(src))
    assert t1 == t2
    assert V.quote(ty1, sess.ctx.depth) == V.quote(ty2, sess.ctx.depth)


def test_sugar_conservativity(sess):
    # an external term already in the core fragment elaborates to itself
    cases = [
        ("\\x. x", T.Pi("x", T.Unit(), T.Unit()), T.Lam("x", T.Var(0))),
        ("()", T.Unit(), T.Void()),
        ("refl", None, None),
    ]
    want = sess.ctx.eval(cases[0][1])
    assert elab_check(sess.ctx, se(cases[0][0]), want) == cases[0][2]
    assert elab_check(sess.ctx, se("()"), V.VUnit()) == T.Void()
    nat = datatype(sess, "Nat").val
    two = sess.ctx.eval(num_term(2))
    assert elab_check(sess.ctx, se("refl"), V.VEq(nat, two, two)) == T.Refl()


def test_error_trail_nonempty(sess):
    try:
        elab_check(sess.ctx, se("plus (\\x. x) 1"), datatype(sess, "Nat").val)
        assert False
    except ElabError as e:
        assert e.trail, "judgment trail should not be empty"
        assert e.span is not None


def test_numeral_sugar_requires_nat_constructors(sess):
    with pytest.raises(ElabError) as e:
        elab_check(ctx0(), se("2"), V.VUnit())
    assert e.value.kind == "CheckMismatch"
    assert e.value.render() == "1:1: CheckMismatch: numeral against Unit\n  while checking 2 against Unit"
    with pytest.raises(ElabError) as e:
        elab_synth(sess.ctx, se("(1 : Bool)"))
    assert e.value.kind == "CheckMismatch"
    assert e.value.render() == (
        "1:2: CheckMismatch: numeral against Bool\n"
        "  while checking 1 against Bool\n"
        "  while synthesizing (1 : Bool)"
    )


def test_numeral_against_a_pair_type_keeps_the_tuple_reading():
    # `1` is `suc zero`, which reads as the pair of two nullary constructors
    s = load_session()
    s.load_text("data Foo : Set where\n  Foo => suc\ndata Bar : Set where\n  Bar => zero\n")
    assert s.eval_expr("(1 : (_ : Foo) * Bar)") == "(0 , 0)"


def test_fuzzed_external_terms_soundness(sess):
    # random external terms over known names: when synthesis succeeds, the
    # output re-checks in the kernel
    import random

    rng = random.Random(31)
    atoms = ["plus", "true", "false", "Bool", "()", "0", "1", "2", "plus 1", "(plus 1 2)"]

    def gen(depth):
        if depth == 0:
            return rng.choice(atoms)
        a, b = gen(depth - 1), gen(depth - 1)
        return rng.choice([f"({a} {b})", f"plus {a} {b}", f"(\\x. x) ({a})", a])

    succeeded = 0
    for _ in range(150):
        src = gen(rng.randrange(1, 3))
        try:
            e = S.parse_expr(src)
        except Exception:
            continue
        el = Elaborator()
        try:
            t, ty = el.synth(sess.ctx, e)
        except ElabError:
            continue
        K.check(sess.ctx, t, ty)
        succeeded += 1
    assert succeeded >= 15


def test_explicit_equality_argument_constructor(sess):
    # a genuinely user-declared equality field can be passed explicitly or
    # (when convertible) auto-filled
    from idt import dataelab as D

    decl = S.parse_file(
        "data P : Set where\n  P => mk (q : (zero : Nat) == zero)\n"
    )[0]
    res = D.elab_data(sess.ctx, decl)
    tyv = K.check_entry_type(sess.ctx, res.ty)
    K.check(sess.ctx, res.definiens, tyv)
    ctx = sess.ctx.extend("P", tyv, sess.ctx.eval(res.definiens))
    el = Elaborator()
    pv = ctx.env[-1]
    t1 = el.check(ctx, se("mk refl"), pv)
    t2 = el.check(ctx, se("mk"), pv)
    assert t1 == t2
    K.check(ctx, t1, pv)
