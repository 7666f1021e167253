"""Acceptance criteria, one test per criterion.

Each criterion prints a PASS/FAIL line (visible with `pytest -s`); an
assertion failure marks the criterion red.
"""

import io
import itertools
import os
import random

import pytest

import constructions as C
from conftest import (
    GOLDEN,
    UNIT_DESC,
    VAR,
    context_valid,
    corpus_path,
    datatype,
    elaborated_nat_code,
    enum,
    load_session,
    num_term,
    switch_fam,
    tup,
)
from decl_printer import print_decl, print_file
from generators import TermGen, gen_data_decl, gen_let_decl

from idt import dataelab as D
from idt import generics as G
from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import Session, run_check
from idt.elab import ElabError, Elaborator


# every kernel conversion the criteria make is checked against readback,
# every value built from a term's parts against evaluating the term, every
# term that names a definition against the unfolded readback, and every
# value remembered at a ground argument against applying the function afresh
pytestmark = pytest.mark.usefixtures("conv_oracle", "value_oracle", "naming_oracle", "ground_oracle")


def report(n: int, ok: bool, desc_: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc_}")
    assert ok, f"criterion {n}: {desc_}"


@pytest.fixture(scope="module")
def corpus():
    s = load_session("nat_tree_vec.idt")
    s.load_text("let Bool : Set => Enum {'true, 'false}")
    s.load_text("let true : Bool => 'true")
    s.load_text("let false : Bool => 'false")
    return s


def _applied(sess, name, *args):
    info = datatype(sess, name)
    v = info.val
    for a in args:
        v = V.vapp(v, a)
    return v


def test_criterion_1_code_reproduction(corpus):
    """Golden reproduction of the four worked-example codes."""
    sess = corpus
    ok = True

    # Nat: 'sigma {zero,suc} [zero -> '1, suc -> 'var '* '1], at index type Unit
    natv = _applied(sess, "Nat")
    ctx = sess.ctx
    nat_code = V.quote(V.vapp(natv.fam, natv.index), ctx.depth)
    ok &= K.def_eq(ctx, nat_code, elaborated_nat_code())

    # Tree: 'sigma {leaf,node} [leaf -> '1, node -> 'var '* 'Sigma A (\_. 'var '* '1)]
    ctx_a = ctx.extend("A", V.VSet(0))
    treev = _applied(sess, "Tree", V.fresh(ctx.depth))
    tree_code = V.quote(V.vapp(treev.fam, treev.index), ctx_a.depth)
    a = T.Var(0)
    ent = enum("leaf", "node")
    tree_want = T.DSigmaE(
        ent,
        switch_fam(
            ent,
            tup(T.DOne(), T.DTimes(VAR, T.DSigma(a, T.Lam("_", T.DTimes(VAR, T.DOne()))))),
            UNIT_DESC,
        ),
    )
    ok &= K.def_eq(ctx_a, tree_code, tree_want)

    # constrained Vec: code_= with trailing equality codes
    ctx_an = ctx.extend("A", V.VSet(0)).extend("n", datatype(sess, "Nat").val)
    vecv = _applied(sess, "Vec", V.fresh(ctx.depth), V.fresh(ctx.depth + 1))
    vec_code = V.quote(V.vapp(vecv.fam, vecv.index), ctx_an.depth)
    nat_t = V.quote(datatype(sess, "Nat").val, ctx_an.depth)
    A, n = T.Var(1), T.Var(0)
    suc_m = T.In(T.Pair(T.SucE(T.ZeroE()), T.Pair(T.Var(0), T.Void())))
    vnil_c = T.DSigma(T.Eq(nat_t, n, num_term(0)), T.Lam("_", T.DOne()))
    vcons_c = T.DSigma(
        nat_t,
        T.Lam(
            "m",
            T.DSigma(
                T.shift(A, 1),
                T.Lam(
                    "a",
                    T.DTimes(
                        T.DVarI(T.Pair(T.Void(), T.Var(1))),
                        T.DSigma(
                            T.Eq(T.shift(nat_t, 2), T.shift(n, 2), T.shift(suc_m, 1)),
                            T.Lam("_", T.DOne()),
                        ),
                    ),
                ),
            ),
        ),
    )
    env = enum("vnil", "vcons")
    idx_ty = T.Sigma("_", T.Unit(), T.shift(nat_t, 1))
    vec_want = T.DSigmaE(env, switch_fam(env, tup(vnil_c, vcons_c), T.IDesc(idx_ty)))
    ok &= K.def_eq(ctx_an, vec_code, vec_want)

    # computed Vect: applied at canonical indices the code selects the
    # per-index constructor choice
    ctx_a2 = ctx.extend("A", V.VSet(0))
    vect_fam = _applied(sess, "Vect", V.fresh(ctx.depth))

    def vect_code_at(k):
        v = V.vapp(vect_fam, ctx.eval(num_term(k)))
        return V.quote(V.vapp(v.fam, v.index), ctx_a2.depth)

    def elim_wrap(inner):
        een = enum("elim")
        return T.DSigmaE(een, switch_fam(een, tup(inner), T.IDesc(T.shift(idx_ty, -0))))

    a0 = T.Var(0)
    inner0 = T.DSigmaE(enum("vnil"), switch_fam(enum("vnil"), tup(T.DOne()), T.IDesc(idx_ty)))
    ok &= K.def_eq(ctx_a2, vect_code_at(0), elim_wrap(inner0))
    for k in (1, 2):
        vc = T.DSigma(a0, T.Lam("a", T.DTimes(T.DVarI(T.Pair(T.Void(), num_term(k - 1))), T.DOne())))
        innerk = T.DSigmaE(enum("vcons"), switch_fam(enum("vcons"), tup(vc), T.IDesc(idx_ty)))
        ok &= K.def_eq(ctx_a2, vect_code_at(k), elim_wrap(innerk))

    # the printed dumps byte-match the golden file
    buf = io.StringIO()
    code = run_check([corpus_path("nat_tree_vec.idt")], show_codes=True, stdout=buf)
    with open(os.path.join(GOLDEN, "nat_tree_vec.codes.txt"), "r", encoding="utf-8") as f:
        golden = f.read()
    ok &= code == 0 and buf.getvalue() == golden

    report(1, ok, "worked-example codes reproduced (defEq after call/return reduction; golden dumps byte-match)")


def test_criterion_2_soundness_as_executable_checks():
    """Every elaboration output re-checks in the kernel: the corpus plus at
    least 500 generated declarations, programs and terms."""
    ok = True
    checked = 0

    # corpus: every declaration's definiens re-checks (Session rechecks by default)
    for f in ("prelude.idt", "nat_tree_vec.idt", "vec_constrained.idt", "vec_computed.idt"):
        sess = load_session(f, recheck=True)
        ok &= context_valid(sess.ctx)
        checked += sess.ctx.depth

    # randomized declarations and programs
    rng = random.Random(42)
    base = load_session("prelude.idt")
    sess = Session()
    sess.ctx = base.ctx
    n_decls = 0
    for k in range(120):
        decl = gen_data_decl(rng, f"R{k}")
        res = D.elab_data(sess.ctx, decl)
        tyv = K.check_entry_type(sess.ctx, res.ty)
        K.check(sess.ctx, res.definiens, tyv)
        sess.ctx = sess.ctx.extend(res.name, tyv, sess.ctx.eval(res.definiens))
        n_decls += 1
    for k in range(60):
        decl = gen_let_decl(rng, f"r{k}")
        definiens, ty = L.elab_define(sess.ctx, decl)
        tyv = K.check_entry_type(sess.ctx, ty)
        K.check(sess.ctx, definiens, tyv)
        sess.ctx = sess.ctx.extend(decl.name, tyv, sess.ctx.eval(definiens))
        n_decls += 1

    # randomized terms
    n_terms = 0
    prelude = load_session("prelude.idt")
    for seed in range(110):
        g = TermGen(prelude, 5000 + seed)
        for _ in range(3):
            t, ty = g.sample(depth=3)
            K.check(prelude.ctx, t, ty)
            n_terms += 1

    total = n_decls + n_terms
    ok &= total >= 500
    report(2, ok, f"soundness: corpus + {n_decls} generated declarations/programs + {n_terms} terms re-check ({total} >= 500)")


def test_criterion_3_positivity_gate():
    buf = io.StringIO()
    code_bad = run_check([corpus_path("bad.idt")], stdout=buf)
    rejected = code_bad == 1 and "NonPositive" in buf.getvalue()
    accepted = True
    for f in ("prelude.idt", "nat_tree_vec.idt", "vec_constrained.idt", "vec_computed.idt"):
        buf2 = io.StringIO()
        accepted &= run_check([corpus_path(f)], stdout=buf2) == 0
    report(3, rejected and accepted, "Bad rejected with NonPositive; all corpus declarations accepted")


def test_criterion_4_plus_computes():
    sess = load_session("prelude.idt")
    el = Elaborator()
    ok = True
    for m in range(11):
        for n in range(11):
            t, _ = el.synth(sess.ctx, S.parse_expr(f"plus {m} {n}"))
            ok &= K.normalize(sess.ctx, t) == K.normalize(sess.ctx, num_term(m + n))
    report(4, ok, "normalize(plus m n) = m+n as numerals for all m, n <= 10")


def test_criterion_5_constructor_sugar_on_families():
    ok = True
    for fname, vcons_src in (
        ("vec_constrained.idt", "vcons zero true vnil"),
        ("vec_computed.idt", "vcons true vnil"),
    ):
        sess = load_session(fname)
        el = Elaborator()
        ty_t, _ = el.synth(sess.ctx, S.parse_expr("Vec Bool (suc zero)"))
        tyv = sess.ctx.eval(ty_t)
        tm = el.check(sess.ctx, S.parse_expr(vcons_src), tyv)
        K.check(sess.ctx, tm, tyv)  # re-checks
        if fname == "vec_constrained.idt":
            # equality slots auto-filled with refl
            ok &= _contains_refl(tm)
        try:
            el.check(sess.ctx, S.parse_expr("vnil"), tyv)
            ok = False
        except ElabError:
            pass
    report(5, ok, "vcons elaborates and re-checks under both vector styles; vnil at length 1 fails")


def _contains_refl(t) -> bool:
    if isinstance(t, T.Refl):
        return True
    fields_ = getattr(t, "_fields", None)
    if not fields_:
        return False
    return any(
        isinstance(v, T.Term) and _contains_refl(v)
        for v in (getattr(t, nm) for nm in fields_)
    )


def test_criterion_6_generics(corpus):
    from test_generics import imu_inhabitants

    sess = corpus
    ok = True

    # (a) case/induction agreement on the registered datatypes without
    # indices (Nat, and Tree at Bool), depth <= 4
    bool_ix, _ = sess.ctx.lookup("Bool")
    boolv = sess.ctx.env[sess.ctx.depth - 1 - bool_ix]
    index_free = (("Nat", _applied(sess, "Nat")), ("Tree", _applied(sess, "Tree", boolv)))
    for _, mu in index_free:
        ctx = sess.ctx
        mu_t = V.quote(mu, ctx.depth)
        case_t, case_ty = C.derive_case(ctx, mu_t)
        tyv = K.check_entry_type(ctx, case_ty)
        K.check(ctx, case_t, tyv)
        ctx = ctx.extend("case", tyv, ctx.eval(case_t))
        mu_t = T.shift(mu_t, 1)
        P = T.Lam("_", T.Unit())
        m = T.Lam("d", T.Void())
        ind_p = T.Lam("_", T.Unit())
        ind_m = T.Lam("i", T.Lam("d", T.Lam("h", T.Void())))
        fam_t = V.quote(mu.fam, ctx.depth)
        for x in imu_inhabitants(mu, 4, ctx)[:25]:
            xt = V.quote(x, ctx.depth)
            ind = T.IInduction(T.Unit(), fam_t, ind_p, ind_m, T.Void(), xt)
            ok &= K.def_eq(ctx, T.App(T.App(T.App(T.Var(0), P), m), xt), ind)
    # the registered (indexed) corpus datatypes: hypothesis-dropping induction
    for name in ("Nat", "Tree", "Vec", "Vect"):
        applied = datatype(sess, name).val
        if name in ("Tree", "Vec", "Vect"):
            applied = V.vapp(applied, boolv)
        if name in ("Vec", "Vect"):
            applied = V.vapp(applied, sess.ctx.eval(num_term(2)))
        xs = imu_inhabitants(applied, 4, sess.ctx)
        ok &= bool(xs)
        motive = V.VLam("p", lambda _p: V.VUnit())
        meth = V.VLam(
            "i", lambda _i: V.VLam("x", lambda _x: V.VLam("h", lambda _h: V.VVoid()))
        )
        for x in xs[:20]:
            got = V.viinduction(applied.ixty, applied.fam, motive, meth, applied.index, x)
            ok &= isinstance(got, V.VVoid)

    # (b) NoConfusion statement+proof kernel-check for Nat and Tree Bool,
    # normal forms distinguish all constructor pairs
    for name, mu in index_free:
        ctx = sess.ctx
        entries = C.specialize_no_confusion(ctx, name, V.quote(mu, ctx.depth))
        for nm, tm, tyt in entries:
            tyv = K.check_entry_type(ctx, tyt)
            K.check(ctx, tm, tyv)
            ctx = ctx.extend(nm, tyv, ctx.eval(tm))
        reps = imu_inhabitants(mu, 2, ctx)[:6]
        stmt = T.Var(1)
        for a, b in itertools.product(reps, reps):
            nf = K.normalize(ctx, T.App(T.App(stmt, V.quote(a, ctx.depth)), V.quote(b, ctx.depth)))
            if V.numeral_of(V.vfst(a.payload)) == V.numeral_of(V.vfst(b.payload)):
                same = isinstance(nf, T.Pi) and isinstance(nf.cod, T.Pi) and isinstance(nf.cod.dom, T.Pi)
                ok &= same
            else:
                ok &= nf == T.Pi("P", T.Set_(0), T.Var(0))

    # (c) deriving Eq accepts, and the conversion `:eq` runs agrees with the
    # structural oracle (`V.convertible`, the body of `K.conv`, which this
    # module's `conv_oracle` wraps in that very oracle)
    natv = datatype(sess, "Nat").val
    G.derive_eq(V.vapp(natv.fam, natv.index))  # raises on a refusal
    vals = [sess.ctx.eval(num_term(k)) for k in range(7)]
    d = sess.ctx.depth
    for a in vals:
        for b in vals:
            ok &= V.convertible(a, b, d) == (V.quote(a, d) == V.quote(b, d))
    el = Elaborator()
    tree_ty, _ = el.synth(sess.ctx, S.parse_expr("Tree Bool"))
    tree_v = sess.ctx.eval(tree_ty)
    G.derive_eq(V.vapp(tree_v.fam, tree_v.index))

    # exhaustive Tree Bool inhabitants of depth <= 3
    def all_trees(depth):
        leaf = V.VIn(V.VPair(V.VZeroE(), V.VVoid()))
        if depth == 0:
            return [leaf]
        subs = all_trees(depth - 1)
        out = list(subs)
        for l in subs:
            for b in (V.VZeroE(), V.VSucE(V.VZeroE())):
                for r in subs:
                    out.append(
                        V.VIn(
                            V.VPair(
                                V.VSucE(V.VZeroE()),
                                V.VPair(l, V.VPair(b, V.VPair(r, V.VVoid()))),
                            )
                        )
                    )
        return out

    tvals = all_trees(3)
    ok &= len(tvals) > 700
    quotes = [V.quote(a, d) for a in tvals]
    mismatches = 0
    for i, a in enumerate(tvals):
        qa = quotes[i]
        for j, b in enumerate(tvals):
            if V.convertible(a, b, d) != (qa == quotes[j]):
                mismatches += 1
    ok &= mismatches == 0

    # (d) deriving Eq refuses 'Pi and the pipeline reports it at the declaration
    brouwer = V.VDSigmaE(
        sess.ctx.eval(enum("z", "sup")),
        sess.ctx.eval(
            switch_fam(
                enum("z", "sup"),
                tup(T.DOne(), T.DPi(T.Unit(), T.Lam("_", VAR))),
                UNIT_DESC,
            )
        ),
    )
    try:
        G.derive_eq(brouwer)
        ok = False
    except G.GenericsError as e:
        ok &= e.kind == "DerivingUnsupported" and "'Pi" in e.msg
    s2 = Session()
    s2.load_text("data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n")
    try:
        s2.load_text("data Ord : Set where\n  Ord => oz\n  Ord => sup (f : Nat -> Ord)\nderiving Eq\n")
        ok = False
    except ElabError as e:
        ok &= e.kind == "DerivingUnsupported"

    report(6, ok, "generics: case agreement, NoConfusion, deriveEq vs oracle, 'Pi refusal at declaration")


def test_criterion_7_kernel_and_surface_properties():
    sess = load_session("prelude.idt")
    ok = True
    n = 0
    for seed in range(250):
        g = TermGen(sess, 9000 + seed)
        for _ in range(4):
            t, ty = g.sample(depth=3)
            K.check(sess.ctx, t, ty)
            n1 = K.normalize(sess.ctx, t)
            ok &= n1 == K.normalize(sess.ctx, n1)
            v = sess.ctx.eval(t)
            t1 = V.quote(v, sess.ctx.depth)
            ok &= V.quote(sess.ctx.eval(t1), sess.ctx.depth) == t1
            n += 1
    ok &= n >= 1000

    # parse/print on the corpus and on generated declarations
    for f in ("prelude.idt", "nat_tree_vec.idt", "bad.idt", "vec_constrained.idt", "vec_computed.idt"):
        with open(corpus_path(f), "r", encoding="utf-8") as fh:
            text = fh.read()
        decls = S.parse_file(text)
        ok &= S.parse_file(print_file(decls)) == decls
    rng = random.Random(7)
    for k in range(120):
        d = gen_data_decl(rng, f"P{k}")
        ok &= S.parse_file(print_decl(d)) == [d]
        p = gen_let_decl(rng, f"p{k}")
        ok &= S.parse_file(print_decl(p)) == [p]

    report(7, ok, f"kernel normalization idempotence and readback roundtrip on {n} >= 1000 terms; parse/print roundtrips")
