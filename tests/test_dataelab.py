"""Elaboration of inductive definitions: the worked-example codes, the
judgments, positivity, and randomized soundness."""

import os
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNIT_DESC,
    VAR,
    context_valid,
    datatype,
    elaborated_nat_code,
    enum,
    load_session,
    num_term,
    switch_fam,
    tup,
)
from generators import gen_data_decl, gen_let_decl
from oracles import definiens_two_pass

from idt import dataelab as D
from idt import desc
from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.elab import ElabError


@pytest.fixture(scope="module")
def sess():
    return load_session("nat_tree_vec.idt")


def applied_code(sess, name, *argtexts):
    """The datatype's code value and a context holding fresh binders for the
    declaration telescope."""
    info = datatype(sess, name)
    ctx = sess.ctx
    tyv = info.ty
    applied = info.val
    names = []
    k = 0
    while isinstance(tyv, V.VPi):
        nm = tyv.nm if tyv.nm not in names else f"{tyv.nm}{k}"
        ctx = ctx.extend(nm, tyv.dom)
        applied = V.vapp(applied, V.fresh(ctx.depth - 1))
        tyv = tyv.cod(V.fresh(ctx.depth - 1))
        names.append(nm)
        k += 1
    assert isinstance(applied, V.VIMu)
    return ctx, V.vapp(applied.fam, applied.index)


def nat_term(sess, ctx):
    return V.quote(datatype(sess, "Nat").val, ctx.depth)


# --- worked-example code reproduction --------------------------------------------------


def test_nat_code_matches_argument_rules(sess):
    # the telescope rules give 'sigma {zero,suc} [zero -> '1, suc -> 'var '* '1],
    # a code at index type Unit
    ctx, code = applied_code(sess, "Nat")
    assert K.def_eq(ctx, V.quote(code, ctx.depth), elaborated_nat_code())


def test_tree_code_shape(sess):
    # the worked example: 'var '* 'Sigma A (\_. 'var '* '1) with '1 terminators
    ctx, code = applied_code(sess, "Tree")
    got = V.quote(code, ctx.depth)
    a = T.Var(0)
    en = enum("leaf", "node")
    node = T.DTimes(VAR, T.DSigma(a, T.Lam("a", T.DTimes(VAR, T.DOne()))))
    want = T.DSigmaE(en, switch_fam(en, tup(T.DOne(), node), UNIT_DESC))
    assert K.def_eq(ctx, got, want)


def test_constrained_vec_code_shape(sess):
    # code_= : trailing equality codes, recursive call at <(), m>
    ctx, code = applied_code(sess, "Vec")
    got = V.quote(code, ctx.depth)
    nat = nat_term(sess, ctx)
    a, n = T.Var(1), T.Var(0)
    zero = num_term(0)
    suc_m = T.In(T.Pair(T.IdxE(1), T.Pair(T.Var(0), T.Void())))
    vnil = T.DSigma(
        T.Eq(nat, n, zero), T.Lam("_", T.DOne())
    )
    vcons = T.DSigma(
        nat,
        T.Lam(
            "m",
            T.DSigma(
                T.shift(a, 1),
                T.Lam(
                    "a",
                    T.DTimes(
                        T.DVarI(T.Pair(T.Void(), T.Var(1))),
                        T.DSigma(
                            T.Eq(T.shift(nat, 2), T.shift(n, 2), T.shift(suc_m, 1)),
                            T.Lam("_", T.DOne()),
                        ),
                    ),
                ),
            ),
        ),
    )
    en = enum("vnil", "vcons")
    idx_ty = T.Sigma("_", T.Unit(), T.shift(nat, 1))
    want = T.DSigmaE(en, switch_fam(en, tup(vnil, vcons), T.IDesc(idx_ty)))
    assert K.def_eq(ctx, got, want)


def test_computed_vec_code_at_canonical_indices(sess):
    # code_-> applied at 0, 1, 2 computes to the per-index constructor choices
    info = datatype(sess, "Vect")
    ctx = sess.ctx.extend("A", V.VSet(0))
    applied = V.vapps(info.val, V.fresh(sess.ctx.depth))
    assert isinstance(applied, V.VPi) is False or True
    # applied is a function over the index; grab the family
    vect_a = applied

    def code_at(k):
        v = V.vapp(vect_a, sess.ctx.eval(num_term(k)))
        assert isinstance(v, V.VIMu)
        return V.quote(V.vapp(v.fam, v.index), ctx.depth)

    a = T.Var(0)

    def sig1(tag, inner):
        en1 = enum(tag)
        idx_ty = T.Sigma("_", T.Unit(), T.shift(nat_term(sess, ctx), 1))
        return switch_fam(en1, tup(inner), T.IDesc(idx_ty))

    def elim_wrap(inner_code):
        en = enum("elim")
        idx_ty = T.Sigma("_", T.Unit(), T.shift(nat_term(sess, ctx), 1))
        return T.DSigmaE(en, switch_fam(en, tup(inner_code), T.IDesc(idx_ty)))

    want0 = elim_wrap(T.DSigmaE(enum("vnil"), sig1("vnil", T.DOne())))
    assert K.def_eq(ctx, code_at(0), want0)
    for k in (1, 2):
        vcons = T.DSigma(
            a,
            T.Lam(
                "a",
                T.DTimes(T.DVarI(T.Pair(T.Void(), num_term(k - 1))), T.DOne()),
            ),
        )
        want = elim_wrap(T.DSigmaE(enum("vcons"), sig1("vcons", vcons)))
        assert K.def_eq(ctx, code_at(k), want)


def test_both_vec_styles_give_same_inhabitants(sess):
    from idt.elab import Elaborator

    el = Elaborator()
    for vec, src in (("Vec", "vcons zero 'x vnil"), ("Vect", "vcons 'x vnil")):
        ty, _ = el.synth(sess.ctx, S.parse_expr(f"{vec} (Enum {{'x}}) 1"))
        tyv = sess.ctx.eval(ty)
        t = el.check(sess.ctx, S.parse_expr(src), tyv)
        K.check(sess.ctx, t, tyv)


# --- individual judgments --------------------------------------------------------------


def ctor_tags(ctx, res):
    """The constructor tags of the code of `res`, a declaration elaborated
    at `ctx`, read at fresh parameters and indices."""
    v = ctx.eval(res.definiens)
    for d in range(ctx.depth, ctx.depth + len(res.tel_names) - 1):
        v = V.vapp(v, V.fresh(d))
    return desc.sigma_view(V.vapp(v.fam, v.index))[0]


def test_validate_pattern_constraint(sess):
    decl = S.parse_file(
        "data V (A : Set) [n : Nat] : Set where\n  V A [n = zero] => mk\n"
    )[0]
    res = D.elab_data(sess.ctx, decl)
    assert ctor_tags(sess.ctx, res) == ["mk"]


def test_validate_pattern_renamed_parameter_rejected(sess):
    decl = S.parse_file(
        "data V (A : Set) [n : Nat] : Set where\n  V B [n] => mk\n"
    )[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "PatternHeadMismatch"


def test_validate_pattern_unchanged_label(sess):
    decl = S.parse_file("data T2 (A : Set) : Set where\n  T2 A => mk (a : A)\n")[0]
    res = D.elab_data(sess.ctx, decl)
    assert ctor_tags(sess.ctx, res) == ["mk"]


def test_match_head_checks_a_data_head_against_the_label(sess):
    ctx = sess.ctx.extend("A", V.VSet(0))
    goal = V.VLabelTy("T", (V.fresh(ctx.depth - 1),), (V.VSet(0),), V.VIDesc(V.VUnit()))
    good, bad = (
        S.parse_file(f"data T (A : Set) : Set where\n  {h} A => mk\n")[0].clauses[0].head for h in ("T", "U")
    )
    assert L.match_head(ctx, good, goal) == ((), ctx)
    with pytest.raises(ElabError) as e:
        L.match_head(ctx, bad, goal)
    assert e.value.kind == "PatternHeadMismatch"
    assert "clause head 'U' does not match the label 'T'" in e.value.msg


def test_empty_datatype(sess):
    decl = S.parse_file("data Empty : Set where\n")[0]
    res = D.elab_data(sess.ctx, decl)
    assert ctor_tags(sess.ctx, res) == []
    tyv = K.check_entry_type(sess.ctx, res.ty)
    K.check(sess.ctx, res.definiens, tyv)


def test_extract_indices_vec_recursive_call(sess):
    # the recursive argument of the constrained vcons carries <(), m>
    ctx, code = applied_code(sess, "Vec")
    tags, branches = desc.sigma_view(code)
    vcons = branches[1]
    # 'Sigma Nat (\m. 'Sigma A (\_. 'varI <(), m> '* ...))
    inner1 = V.vapp(vcons.fam, V.fresh(ctx.depth))
    ctx1 = ctx.extend("m", vcons.dom)
    inner2 = V.vapp(inner1.fam, V.fresh(ctx1.depth))
    ctx2 = ctx1.extend("a", inner1.dom)
    assert isinstance(inner2, V.VDTimes)
    rec = inner2.lhs
    assert isinstance(rec, V.VDVarI)
    assert V.quote(rec.index, ctx2.depth) == T.Pair(T.Void(), T.Var(1))


def test_extract_indices_overapplied(sess):
    decl = S.parse_file(
        "data W (A : Set) [n : Nat] : Set where\n"
        "  W A [n = zero] => mk (w : W A zero zero)\n"
    )[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "PatternHeadMismatch"


def test_extract_indices_changed_parameter(sess):
    decl = S.parse_file(
        "data W (A : Set) [n : Nat] : Set where\n"
        "  W A [n = zero] => mk (w : W Nat zero)\n"
    )[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "PatternHeadMismatch"


def test_duplicate_constructor(sess):
    decl = S.parse_file(
        "data W : Set where\n  W => mk\n  W => mk (n : Nat)\n"
    )[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "DuplicateConstructor"


def test_duplicate_name(sess):
    decl = S.parse_file("data Nat : Set where\n  Nat => zero\n")[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "DuplicateName"


def test_clauses_after_by_rejected(sess):
    decl = S.parse_file(
        "data W [n : Nat] : Set where\n"
        "  W [n] by case n {\n"
        "    W [zero] => mkz\n"
        "    W [suc m] => mks\n"
        "  }\n"
        "  W [n = zero] => extra\n"
    )[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "PatternHeadMismatch"


def test_exponential_argument(sess):
    # higher-order recursive argument becomes a 'Pi guard
    decl = S.parse_file(
        "data Fun : Set where\n  Fun => base\n  Fun => step (f : Nat -> Fun)\n"
    )[0]
    res = D.elab_data(sess.ctx, decl)
    tyv = K.check_entry_type(sess.ctx, res.ty)
    K.check(sess.ctx, res.definiens, tyv)
    ctx2 = sess.ctx.extend("Fun", tyv, sess.ctx.eval(res.definiens))
    applied = ctx2.env[-1]
    code = V.vapp(applied.fam, applied.index)
    _, branches = desc.sigma_view(code)
    step = branches[1]
    assert isinstance(step, V.VDTimes)
    assert isinstance(step.lhs, V.VDPi)


# --- positivity -------------------------------------------------------------------------


def test_bad_is_rejected_nonpositive(sess):
    decl = S.parse_file("data Bad (A : Set) : Set where\n  Bad A => ex (f : Bad A -> A)\n")[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "NonPositive"


def test_nonpositive_in_sigma_domain(sess):
    decl = S.parse_file("data B : Set where\n  B => mk (x : B -> Nat) (y : Nat)\n")[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "NonPositive"


def test_nested_nonpositive(sess):
    decl = S.parse_file("data B : Set where\n  B => mk (x : (B -> Nat) -> B)\n")[0]
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, decl)
    assert e.value.kind == "NonPositive"


# --- by-depth limit ----------------------------------------------------------------------


def test_by_depth_limit(sess):
    # nesting across distinct indices; 11 levels exceeds the limit of 8
    def build(n_levels):
        idx_names = [f"n{i}" for i in range(n_levels)]
        indices = tuple((nm, S.EVar("Nat")) for nm in idx_names)

        def head(level, at_level):
            args = []
            for i, nm in enumerate(idx_names):
                if i < level:
                    args.append(S.PIndex(S.PCon("zero", ())))
                elif i == level:
                    args.append(S.PIndex(at_level))
                else:
                    args.append(S.PIndex(S.PVar(nm)))
            return S.Head("W", tuple(args))

        def clause(level):
            if level == n_levels - 1:
                return S.Clause(head(level, S.PVar(idx_names[level])), S.CtorDecl("leaf", ()))
            # the zero branch continues casing the next index; the suc branch
            # terminates with a constructor
            inner = clause(level + 1)
            zb = S.Clause(head(level, S.PCon("zero", ())), inner.body)
            sb = S.Clause(head(level, S.PCon("suc", (f"m{level}",))), S.CtorDecl(f"c{level}", ()))
            return S.Clause(
                head(level, S.PVar(idx_names[level])),
                S.ByBlock("case", idx_names[level], (zb, sb)),
            )

        return S.DataDecl("W", (), indices, (clause(0),), ())

    shallow = build(4)
    res = D.elab_data(sess.ctx, shallow)
    tyv = K.check_entry_type(sess.ctx, res.ty)
    K.check(sess.ctx, res.definiens, tyv)

    deep = build(11)
    with pytest.raises(ElabError) as e:
        D.elab_data(sess.ctx, deep)
    assert e.value.kind == "ByDepthExceeded"


# --- randomized soundness ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_random_declarations_recheck(seed):
    rng = random.Random(900 + seed)
    sess = load_session("prelude.idt")
    for k in range(6):
        decl = gen_data_decl(rng, f"G{seed}_{k}")
        res = D.elab_data(sess.ctx, decl)
        tyv = K.check_entry_type(sess.ctx, res.ty)
        K.check(sess.ctx, res.definiens, tyv)
        sess.ctx = sess.ctx.extend(res.name, tyv, sess.ctx.eval(res.definiens))
    for k in range(3):
        decl = gen_let_decl(rng, f"g{seed}_{k}")
        definiens, ty = L.elab_define(sess.ctx, decl)
        tyv = K.check_entry_type(sess.ctx, ty)
        K.check(sess.ctx, definiens, tyv)
        sess.ctx = sess.ctx.extend(decl.name, tyv, sess.ctx.eval(definiens))


@pytest.fixture(scope="module")
def prelude():
    return load_session("prelude.idt")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_definiens_matches_the_two_pass_construction(prelude, seed):
    # the code is remapped straight under the index binders; the definiens
    # is the one the two-pass construction builds from the same code
    build = D._build_definiens
    seen = []

    def spy(decl, p_tys, i_tys, code, k, m):
        out = build(decl, p_tys, i_tys, code, k, m)
        seen.append((definiens_two_pass(decl, p_tys, i_tys, code, k, m), out))
        return out

    with mock.patch.object(D, "_build_definiens", spy):
        D.elab_data(prelude.ctx, gen_data_decl(random.Random(seed), "G"))
    ((want, got),) = seen
    assert repr(got) == repr(want)


# --- trace ------------------------------------------------------------------------------


def test_trace_structure(sess):
    decl = S.parse_file(read_nat())[0]
    res = D.elab_data(sess.ctx.__class__(), decl, trace=True)  # fresh context
    tree = res.trace
    assert tree.kind == "ElabData"
    kinds = set()

    def walk(n):
        kinds.add(n.kind)
        for c in n.children:
            walk(c)

    walk(tree)
    assert {"ElabData", "ElabDataPatts", "ElabChoices", "ElabConstr", "ElabEqs"} <= kinds
    assert "ElabRecArgs" in kinds  # the recursive suc argument
    rendered = tree.render()
    assert "ElabData" in rendered and "\n  " in rendered


def read_nat():
    return "data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n"


def test_per_judgment_instrumentation_on_corpus(monkeypatch):
    # every ElabDataPatts / ElabArgs / ElabEqs / ElabRecArgs output is
    # kernel-checked at its stated type: the label `goal`, its type
    # `IDesc I`, and `I`, over every corpus file that checks and 50
    # generated declarations
    from idt.cli import Session
    from conftest import CORPUS, read_corpus

    ran = Counter()

    def lemma(judgment, stated_type):
        elaborate = getattr(D.DataElab, judgment)

        def checked(de, ctx, *args):
            out = elaborate(de, ctx, *args)
            want = stated_type(de, ctx, *args)
            if want is not None:
                K.check(ctx, out, want)
                ran[judgment] += 1
            return out

        monkeypatch.setattr(D.DataElab, judgment, checked)

    lemma("elab_data_patts", lambda _de, _ctx, _clauses, goal, *_: goal)
    lemma("elab_args", lambda _de, _ctx, _args, goal, _constraints: goal.ty)
    lemma("elab_constraints", lambda _de, _ctx, goal, _constraints: goal.ty)
    lemma("extract_indices", lambda _de, _ctx, _args, goal, _constraints, _at: goal.ty.index)

    names = sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt") and f != "bad.idt")
    assert len(names) >= 4
    for name in names:
        s = Session()
        s.load_text(read_corpus(name))
    assert set(ran) == {"elab_data_patts", "elab_args", "elab_constraints", "extract_indices"}, ran
    on_corpus = sum(ran.values())
    s = load_session("prelude.idt")
    for seed in range(50):
        decl = gen_data_decl(random.Random(seed), f"G{seed}")
        res = D.elab_data(s.ctx, decl)
        K.check(s.ctx, res.definiens, K.check_entry_type(s.ctx, res.ty))
    assert sum(ran.values()) > on_corpus + 50, ran


def test_dependent_telescopes(sess):
    # context references cross the opaque self binding; telescope-internal
    # references do not (regression for the cutoff shift)
    from idt.cli import Session
    from conftest import read_corpus

    s = Session()
    s.load_text(read_corpus("prelude.idt"))
    s.load_text("data T (A : Set) [i : A] : Set where\n  T A [i] => mk\n")
    s.load_text("data T2 (A : Set) (x : A) : Set where\n  T2 A x => mk2 (y : A)\n")
    s.load_text(
        "data T3 (A : Set) (B : A -> Set) (a : A) : Set where\n"
        "  T3 A B a => mk3 (b : B a) (t : T3 A B a)\n"
    )
    s.load_text(
        "data T4 (A : Set) (a : A) [i : A] : Set where\n  T4 A a [i = a] => mk4\n"
    )
    assert context_valid(s.ctx)
    from idt.elab import Elaborator

    el = Elaborator()
    ty, _ = el.synth(s.ctx, S.parse_expr("T4 Nat 3 3"))
    t = el.check(s.ctx, S.parse_expr("mk4"), s.ctx.eval(ty))
    K.check(s.ctx, t, s.ctx.eval(ty))
    ty2, _ = el.synth(s.ctx, S.parse_expr("T4 Nat 3 4"))
    with pytest.raises(ElabError):
        el.check(s.ctx, S.parse_expr("mk4"), s.ctx.eval(ty2))


def test_exotic_but_valid_shapes(sess):
    from idt.cli import Session
    from conftest import read_corpus

    s = Session()
    s.load_text(read_corpus("prelude.idt"))
    s.load_text(
        "data G [m : Nat] [n : Nat] : Set where\n"
        "  G [m = zero] [n = zero] => gz\n"
        "  G [m = suc a] [n = suc b] => gs (a : Nat) (b : Nat) (g : G a b)\n"
    )
    s.load_text(
        "data W (A : Set) [n : Nat] : Set where\n"
        "  W A [n = zero] => wz\n"
        "  W A [n = suc m] => ws (m : Nat) (f : Nat -> W A m)\n"
    )
    s.load_text(
        "data R [n : Nat] : Set where\n"
        "  R [n] by rec n {\n"
        "    R [zero] => rz\n"
        "    R [suc m] => rs (x : R m)\n"
        "  }\n"
    )
    s.load_text(
        "data P [n : Nat] : Set where\n  P [n = plus a b] => mk (a : Nat) (b : Nat)\n"
    )
    assert context_valid(s.ctx)
    from idt.elab import Elaborator

    el = Elaborator()
    ty, _ = el.synth(s.ctx, S.parse_expr("P 5"))
    t = el.check(s.ctx, S.parse_expr("mk 2 3"), s.ctx.eval(ty))
    K.check(s.ctx, t, s.ctx.eval(ty))
    with pytest.raises(ElabError):
        el.check(s.ctx, S.parse_expr("mk 2 2"), s.ctx.eval(ty))


def test_enum_indexed_datatype_by_case(sess):
    from idt.cli import Session
    from conftest import read_corpus
    from idt.elab import Elaborator

    s = Session()
    s.load_text(read_corpus("prelude.idt"))
    s.load_text(
        "data Q [b : Bool] : Set where\n"
        "  Q [b] by case b {\n"
        "    Q [true] => qt\n"
        "    Q [false] => qf (n : Nat)\n"
        "  }\n"
    )
    assert context_valid(s.ctx)
    el = Elaborator()
    ty, _ = el.synth(s.ctx, S.parse_expr("Q true"))
    t = el.check(s.ctx, S.parse_expr("qt"), s.ctx.eval(ty))
    K.check(s.ctx, t, s.ctx.eval(ty))
    ty2, _ = el.synth(s.ctx, S.parse_expr("Q false"))
    with pytest.raises(ElabError):
        el.check(s.ctx, S.parse_expr("qt"), s.ctx.eval(ty2))


# --- by-branch labels -----------------------------------------------------------------


def test_by_goal_label_reads_back_to_kernel_entries(sess, monkeypatch):
    # a by-branch's goal, a label at `IDesc I`, reads back as a label with the
    # entry kinds of the clause's own label
    labels = []
    elab_data_patts = D.DataElab.elab_data_patts

    def record(de, ctx, clauses, goal, depth=0, match=None):
        labels.append((ctx, goal, de.describe(ctx, goal)))
        return elab_data_patts(de, ctx, clauses, goal, depth, match)

    monkeypatch.setattr(D.DataElab, "elab_data_patts", record)
    decl = S.parse_file(
        "data D (A : Set) [n : Nat] : Set where\n"
        "  D A [n] by case n {\n"
        "    D A [zero] => dz\n"
        "    D A [suc m] => ds (a : A)\n"
        "  }\n"
    )[0]
    D.elab_data(sess.ctx, decl)
    top, zero, suc = labels
    assert top[2] == "D (A) [n]"
    assert (zero[2], suc[2]) == ("D (A) [In (#0 , %as)]", "D (A) [In (#1 , %x , %r)]")
    nat = datatype(sess, "Nat").val
    for ctx, goal, _ in (zero, suc):
        assert goal.head == "D" and len(goal.args) == 2
        assert goal.argtys[0] == V.VSet(0)
        assert K.conv(ctx, goal.argtys[1], nat)
        assert K.conv(ctx, goal.ty, V.VIDesc(V.VSigma("_", V.VUnit(), lambda _v: nat)))


def test_by_goal_label_with_a_constraint_is_rejected(sess):
    # a `by` clause head cannot constrain an index, with branches or without
    for enum, branches in (("{}", "{ }"), ("{'t}", "{\n    W e [n] => w\n  }")):
        decl = S.parse_file(
            f"data W (e : Enum {enum}) [n : Nat] : Set where\n  W e [n = zero] by case e {branches}\n"
        )[0]
        with pytest.raises(ElabError) as e:
            D.elab_data(sess.ctx, decl)
        assert e.value.render() == "2:3: PatternHeadMismatch: a 'by' clause head cannot constrain an index"
