"""Constructions on constructors (case, NoConfusion, decidable enum
equality), which `constructions` builds for the tests, and the deriving
mechanism of `generics`."""

import itertools
import os

import pytest

import constructions as C
from conftest import (
    CORPUS,
    UNIT_DESC,
    VAR,
    bare_nat_code,
    datatype,
    enum,
    load_session,
    num_term,
    read_corpus,
    switch_fam,
    tup,
    unit_fam,
    unit_mu,
)

from oracles import sub_desc

from idt import generics as G
from idt import kernel as K
from idt import pp
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import Session
from idt.elab import ElabError, Elaborator


NatD = bare_nat_code()
Nat = unit_mu(NatD)
NatX = unit_fam(Nat)


@pytest.fixture(scope="module")
def sess():
    s = load_session("nat_tree_vec.idt")
    s.load_text("let Bool : Set => Enum {'true, 'false}")
    s.load_text("let true : Bool => 'true")
    return s


def ctx0():
    return K.Context()


def tree_code(elem: T.Term) -> T.Term:
    """A hand-built binary-tree code with `elem` labels: leaf | node l a r."""
    en = enum("leaf", "node")
    node = T.DTimes(VAR, T.DSigma(elem, T.Lam("_", T.DTimes(VAR, T.DOne()))))
    return T.DSigmaE(en, switch_fam(en, tup(T.DOne(), node), UNIT_DESC))


# --- canonical inhabitants up to a depth -------------------------------------------


CAP = 6  # per-level breadth cap keeps enumeration tractable at depth 4


def inhabitants(code: V.Value, top: V.Value, depth: int):
    """Canonical payloads of ``code`` with recursive positions drawn from
    inhabitants of ``top`` one level shallower (breadth-capped)."""
    if depth < 0:
        return []
    if isinstance(code, V.VDOne):
        return [V.VVoid()]
    if isinstance(code, V.VDVarI):
        return [V.VIn(p) for p in inhabitants(top, top, depth - 1)[:CAP]]
    if isinstance(code, V.VDTimes):
        return [
            V.VPair(a, b)
            for a in inhabitants(code.lhs, top, depth)[:CAP]
            for b in inhabitants(code.rhs, top, depth)[:CAP]
        ]
    if isinstance(code, (V.VDSigma, V.VDSigmaE)):
        if isinstance(code, V.VDSigmaE):
            doms = [V.make_numeral(k) for k in range(len(V.enum_tags(code.enum) or []))]
        else:
            dom = code.dom
            if isinstance(dom, V.VEnumT) and V.enum_tags(dom.enum) is not None:
                doms = [V.make_numeral(k) for k in range(len(V.enum_tags(dom.enum)))]
            elif isinstance(dom, V.VEq):
                doms = [V.VRefl()] if V.quote(dom.lhs, 0) == V.quote(dom.rhs, 0) else []
            else:
                return []
        out = []
        for dv in doms:
            for rest in inhabitants(V.vapp(code.fam, dv), top, depth)[:CAP]:
                out.append(V.VPair(dv, rest))
        return out
    return []


def mu_inhabitants(code_v: V.Value, depth: int):
    return [V.VIn(p) for p in inhabitants(code_v, code_v, depth)]


# --- case ----------------------------------------------------------------------------


def test_derive_case_not_tagged(sess):
    # a code without a constructor choice
    with pytest.raises(G.GenericsError) as e:
        C.derive_case(ctx0(), unit_mu(T.DOne()))
    assert e.value.kind == "NotTagged"
    # a code rather than a datatype
    with pytest.raises(G.GenericsError) as e:
        C.derive_case(ctx0(), VAR)
    assert e.value.kind == "NotTagged"
    # a datatype with indices
    ctx = sess.ctx
    vec = V.vapps(datatype(sess, "Vec").val, V.VUnit(), ctx.eval(num_term(2)))
    for derive in (C.derive_case, lambda c, t: C.specialize_no_confusion(c, "Vec", t)):
        with pytest.raises(G.GenericsError) as e:
            derive(ctx, V.quote(vec, ctx.depth))
        assert e.value.kind == "Indexed"


def test_case_nat_iota_drops_hypothesis():
    ctx = ctx0()
    case_t, case_ty = C.derive_case(ctx, Nat)
    tyv = K.check_entry_type(ctx, case_ty)
    K.check(ctx, case_t, tyv)
    ctx = ctx.extend("caseN", tyv, ctx.eval(case_t))
    P = T.Lam("_", T.Unit())
    ctx = ctx.extend("m", ctx.eval(T.Pi("d", T.InterpIDesc(NatD, NatX), T.Unit())))
    scrut = T.In(T.Pair(T.ZeroE(), T.Void()))
    lhs = T.App(T.App(T.App(T.Var(1), P), T.Var(0)), scrut)
    rhs = T.App(T.Var(0), T.Pair(T.ZeroE(), T.Void()))
    assert K.def_eq(ctx, lhs, rhs)


def test_case_tree_picks_branch(sess):
    # distinguish leaf/node on a depth-2 tree, hand-evaluating one step
    boolv = sess.ctx.env[sess.ctx.depth - 1 - sess.ctx.lookup("Bool")[0]]
    en = enum("leaf", "node")
    tree = unit_mu(tree_code(V.quote(boolv, 0)))
    ctx = ctx0()
    case_t, case_ty = C.derive_case(ctx, tree)
    tyv = K.check_entry_type(ctx, case_ty)
    K.check(ctx, case_t, tyv)
    leaf = T.In(T.Pair(T.ZeroE(), T.Void()))
    node = T.In(
        T.Pair(
            T.SucE(T.ZeroE()),
            T.Pair(leaf, T.Pair(T.ZeroE(), T.Pair(leaf, T.Void()))),
        )
    )
    # constant motive picking a tag per constructor
    P = T.Lam("_", T.UId())
    m = T.Lam(
        "d",
        T.Switch(
            en,
            T.Lam("_", T.UId()),
            tup(T.Tag("isleaf"), T.Tag("isnode")),
            T.Fst(T.Var(0)),
        ),
    )
    applied = T.App(T.App(T.App(case_t, P), m), node)
    assert K.normalize(ctx, applied) == T.Tag("isnode")
    applied = T.App(T.App(T.App(case_t, P), m), leaf)
    assert K.normalize(ctx, applied) == T.Tag("isleaf")


def test_case_induction_agreement_desc_level(sess):
    # defEq(case_D P m x, iinduction Unit (\_. D) P (\i d _. m d) () x) for depth <= 4
    boolv = sess.ctx.env[sess.ctx.depth - 1 - sess.ctx.lookup("Bool")[0]]
    treed = tree_code(V.quote(boolv, 0))
    for code in (NatD, treed):
        ctx = ctx0()
        mu = unit_mu(code)
        case_t, case_ty = C.derive_case(ctx, mu)
        tyv = K.check_entry_type(ctx, case_ty)
        ctx = ctx.extend("case", tyv, ctx.eval(case_t))
        P = T.Lam("_", T.Unit())
        m = T.Lam("d", T.Void())
        ind_m = T.Lam("i", T.Lam("d", T.Lam("h", T.Void())))
        xs = mu_inhabitants(ctx.eval(code), 4)
        assert xs
        for x in xs[:40]:
            xt = V.quote(x, ctx.depth)
            lhs = T.App(T.App(T.App(T.Var(0), P), m), xt)
            rhs = T.IInduction(T.Unit(), unit_fam(code), T.Lam("_", T.Unit()), ind_m, T.Void(), xt)
            assert K.def_eq(ctx, lhs, rhs)


def imu_inhabitants(applied: V.VIMu, depth: int, ctx):
    """Canonical inhabitants of an indexed fix-point instance (breadth-capped),
    recursing with the owning family at each recursive position."""

    def of_imu(fam, index, d):
        if d < 0:
            return []
        code = V.vapp(fam, index)
        return [V.VIn(p) for p in walk(code, fam, d)[:CAP]]

    def walk(code_v, fam, d):
        if isinstance(code_v, V.VDOne):
            return [V.VVoid()]
        if isinstance(code_v, V.VDVarI):
            return of_imu(fam, code_v.index, d - 1)
        if isinstance(code_v, V.VDTimes):
            return [
                V.VPair(a, b)
                for a in walk(code_v.lhs, fam, d)[:CAP]
                for b in walk(code_v.rhs, fam, d)[:CAP]
            ]
        if isinstance(code_v, (V.VDSigma, V.VDSigmaE)):
            if isinstance(code_v, V.VDSigmaE):
                doms = [V.make_numeral(k) for k in range(len(V.enum_tags(code_v.enum) or []))]
            else:
                dom = code_v.dom
                if isinstance(dom, V.VEnumT) and V.enum_tags(dom.enum) is not None:
                    doms = [V.make_numeral(k) for k in range(len(V.enum_tags(dom.enum)))]
                elif isinstance(dom, V.VEq):
                    eqp = V.quote(dom.lhs, ctx.depth) == V.quote(dom.rhs, ctx.depth)
                    doms = [V.VRefl()] if eqp else []
                elif isinstance(dom, V.VIMu):
                    doms = of_imu(dom.fam, dom.index, d - 1)
                else:
                    return []
            out = []
            for dv in doms[:CAP]:
                for rest in walk(V.vapp(code_v.fam, dv), fam, d)[:CAP]:
                    out.append(V.VPair(dv, rest))
            return out
        return []

    return of_imu(applied.fam, applied.index, depth)


def test_case_induction_agreement_indexed_level(sess):
    # the same agreement for the registered (indexed) datatypes: an
    # iinduction whose method ignores the hypothesis behaves as a case
    for name in ("Nat", "Tree", "Vec", "Vect"):
        info = datatype(sess, name)
        ctx = sess.ctx
        applied = info.val
        if name in ("Tree", "Vec", "Vect"):
            bix, _ = ctx.lookup("Bool")
            applied = V.vapp(applied, ctx.env[ctx.depth - 1 - bix])
        if name in ("Vec", "Vect"):
            applied = V.vapp(applied, ctx.eval(num_term(2)))
        assert isinstance(applied, V.VIMu)
        xs = imu_inhabitants(applied, 4, ctx)
        assert xs, name
        fam, ixty, index_v = applied.fam, applied.ixty, applied.index
        # constant motive: both sides land at void
        motive = V.VLam("p", lambda _p: V.VUnit())
        case_method = V.VLam(
            "i",
            lambda _i: V.VLam(
                "xs", lambda _x: V.VLam("h", lambda _h: V.VVoid())
            ),
        )
        for x in xs[:30]:
            lhs = V.viinduction(ixty, fam, motive, case_method, index_v, x)
            assert isinstance(lhs, V.VVoid)
        # a discriminating motive over constructor indices
        code = V.vapp(fam, index_v)
        tagfam = V.VLam("p", lambda _p: V.VEnumT(V.VNilE()) and V.VUId())
        disc = V.VLam(
            "i",
            lambda _i: V.VLam(
                "xs",
                lambda xsv: V.VLam(
                    "h",
                    lambda _h, xx=xsv: V.VTag(
                        f"c{V.numeral_of(V.vfst(xx))}"
                    ),
                ),
            ),
        )
        for x in xs[:30]:
            got = V.viinduction(ixty, fam, V.VLam("p", lambda _p: V.VUId()), disc, index_v, x)
            want = V.VTag(f"c{V.numeral_of(V.vfst(x.payload))}")
            assert got == want, name


# --- NoConfusion ----------------------------------------------------------------------


def extend_with(ctx, entries):
    """Kernel-check each (name, term, type) entry and add it to the context."""
    for nm, tm, tyt in entries:
        tyv = K.check_entry_type(ctx, tyt)
        K.check(ctx, tm, tyv)
        ctx = ctx.extend(nm, tyv, ctx.eval(tm))
    return ctx


@pytest.fixture(scope="module")
def nc_nat():
    return extend_with(ctx0(), C.specialize_no_confusion(ctx0(), "Nat", Nat))


def test_no_confusion_kernel_checks(nc_nat):
    assert nc_nat.lookup("NoConfusionNat") is not None
    assert nc_nat.lookup("noConfusionNat") is not None


def test_no_confusion_normal_forms(nc_nat):
    ctx = nc_nat
    stmt = T.Var(1)
    zero = T.In(T.Pair(T.ZeroE(), T.Void()))
    two = bare_num(2)
    # same constructor: Pi P. (payload == payload -> P) -> P
    nf = K.normalize(ctx, T.App(T.App(stmt, two), two))
    assert isinstance(nf, T.Pi) and isinstance(nf.dom, T.Set_)
    assert isinstance(nf.cod, T.Pi) and isinstance(nf.cod.dom, T.Pi)
    assert isinstance(nf.cod.dom.dom, T.Eq)
    # distinct constructors: Pi P. P
    nf2 = K.normalize(ctx, T.App(T.App(stmt, zero), two))
    assert nf2 == T.Pi("P", T.Set_(0), T.Var(0))


def bare_num(k):
    t = T.In(T.Pair(T.ZeroE(), T.Void()))
    for _ in range(k):
        t = T.In(T.Pair(T.SucE(T.ZeroE()), t))
    return t


def test_no_confusion_distinguishes_all_pairs_nat_tree(sess, nc_nat):
    # Nat pairs
    ctx = nc_nat
    stmt = T.Var(1)
    vals = [bare_num(k) for k in range(3)]
    for a, b in itertools.product(vals, vals):
        nf = K.normalize(ctx, T.App(T.App(stmt, a), b))
        same_con = (a == b) or (
            isinstance(a, T.In) and isinstance(b, T.In)
            and K.normalize(ctx, T.Fst(a.payload)) == K.normalize(ctx, T.Fst(b.payload))
        )
        if same_con:
            assert isinstance(nf.cod, T.Pi) and isinstance(nf.cod.dom, T.Pi)
        else:
            assert nf == T.Pi("P", T.Set_(0), T.Var(0))


def test_no_confusion_proof_computes(nc_nat):
    # equal constructors with refl, P, k computes to k refl
    ctx = nc_nat.extend("P", V.VSet(0))
    two = bare_num(2)
    pred_eq = T.Eq(T.InterpIDesc(T.App(NatD.fam, T.SucE(T.ZeroE())), NatX), bare_num(1), bare_num(1))
    ctx = ctx.extend("k", ctx.eval(T.Pi("_", pred_eq, T.Var(1))))
    proof = T.Var(2)
    t = T.App(T.App(T.App(T.App(T.App(proof, two), two), T.Refl()), T.Var(1)), T.Var(0))
    assert K.normalize(ctx, t) == T.App(T.Var(0), T.Refl())


def test_no_confusion_tree(sess):
    boolv = sess.ctx.env[sess.ctx.depth - 1 - sess.ctx.lookup("Bool")[0]]
    tree = unit_mu(tree_code(V.quote(boolv, 0)))
    ctx = extend_with(ctx0(), C.specialize_no_confusion(ctx0(), "Tree", tree))
    leaf = T.In(T.Pair(T.ZeroE(), T.Void()))
    node = T.In(T.Pair(T.SucE(T.ZeroE()), T.Pair(leaf, T.Pair(T.ZeroE(), T.Pair(leaf, T.Void())))))
    stmt = T.Var(1)
    nf = K.normalize(ctx, T.App(T.App(stmt, leaf), node))
    assert nf == T.Pi("P", T.Set_(0), T.Var(0))
    nf2 = K.normalize(ctx, T.App(T.App(stmt, leaf), leaf))
    assert isinstance(nf2.cod.dom, T.Pi) and isinstance(nf2.cod.dom.dom, T.Eq)


# --- case and NoConfusion on the datatypes a Session registers ------------------------


def _load(corpus_file: str) -> Session:
    s = Session()
    try:
        s.load_text(read_corpus(corpus_file))
    except ElabError:
        pass  # the declarations before a rejected one stay registered
    return s


def _data_decls(corpus_file: str) -> dict:
    """The first `data` declaration of each name in `corpus_file`, the one
    that a Session registers."""
    found = {}
    for d in S.parse_file(read_corpus(corpus_file)):
        if isinstance(d, S.DataDecl):
            found.setdefault(d.name, d)
    return found


def _index_free_datatypes():
    """(corpus file, name) of each datatype without indices that a Session
    registers from the corpus, once per name."""
    found = {}
    for f in sorted(os.listdir(CORPUS)):
        if not f.endswith(".idt"):
            continue
        ctx = _load(f).ctx
        for name, d in _data_decls(f).items():
            if ctx.lookup(name) is not None and not d.indices:
                found.setdefault(name, f)
    return sorted((f, name) for name, f in found.items())


INDEX_FREE = _index_free_datatypes()


def test_the_corpus_registers_nat_and_tree():
    assert sorted(name for _, name in INDEX_FREE) == ["Nat", "Tree"]


def registered(corpus_file: str, name: str):
    """A session loaded from `corpus_file` with `Bool`, and the datatype
    `name` there with each parameter instantiated at `Bool`."""
    s = _load(corpus_file)
    if s.ctx.lookup("Bool") is None:
        s.load_text("let Bool : Set => Enum {'true, 'false}")
    ctx = s.ctx
    boolv = ctx.eval(T.Var(ctx.lookup("Bool")[0]))
    applied = datatype(s, name).val
    for _ in _data_decls(corpus_file)[name].params:
        applied = V.vapp(applied, boolv)
    assert isinstance(applied, V.VIMu) and isinstance(applied.ixty, V.VUnit)
    return ctx, applied


@pytest.fixture(scope="module", params=INDEX_FREE, ids=[name for _, name in INDEX_FREE])
def index_free(request):
    ctx, applied = registered(*request.param)
    return request.param[1], ctx, applied


def test_session_case_kernel_checks_and_agrees_with_induction(index_free):
    name, ctx, applied = index_free
    case_t, case_ty = C.derive_case(ctx, V.quote(applied, ctx.depth))
    tyv = K.check_entry_type(ctx, case_ty)
    K.check(ctx, case_t, tyv)
    case_v = ctx.eval(case_t)
    # a method that returns the payload it is given, and its
    # hypothesis-dropping induction
    motive = V.VLam("x", lambda _x: V.VUnit())
    method = V.VLam("d", lambda d: d)
    ind_motive = V.VLam("q", lambda _q: V.VUnit())
    ind_method = V.VLam(
        "i", lambda _i: V.VLam("d", lambda d: V.VLam("h", lambda _h, dd=d: dd))
    )
    xs = imu_inhabitants(applied, 4, ctx)
    assert len(xs) > 4, name
    d = ctx.depth
    for x in xs:
        got = V.vapps(case_v, motive, method, x)
        want = V.viinduction(applied.ixty, applied.fam, ind_motive, ind_method, applied.index, x)
        assert V.quote(got, d) == V.quote(want, d) == V.quote(x.payload, d), name


def check_no_confusion(name: str, ctx, applied: V.VIMu, n_ctors: int):
    """Kernel-check NoConfusion for `applied` and check that its statement
    separates constructors over `imu_inhabitants`: `(P : Set) -> P` for
    different ones, and an equation of the two payloads' fields, with no
    transport, for the same one."""
    entries = C.specialize_no_confusion(ctx, name, V.quote(applied, ctx.depth))
    assert [nm for nm, _, _ in entries] == [f"NoConfusion{name}", f"noConfusion{name}"]
    ctx = extend_with(ctx, entries)
    xs = imu_inhabitants(applied, 2, ctx)[:8]

    def tag(x):
        return V.numeral_of(V.vfst(x.payload))

    assert {tag(x) for x in xs} == set(range(n_ctors)), name
    bottom = T.Pi("P", T.Set_(0), T.Var(0))
    for a, b in itertools.product(xs, xs):
        at, bt = V.quote(a, ctx.depth), V.quote(b, ctx.depth)
        nf = K.normalize(ctx, T.App(T.App(T.Var(1), at), bt))
        distinct = tag(a) != tag(b)
        assert (nf == bottom) == distinct, name
        if not distinct:
            # Pi P. (payload == payload -> P) -> P
            eq = nf.cod.dom.dom
            assert isinstance(nf.cod.dom, T.Pi) and isinstance(eq, T.Eq), name
            assert (eq.lhs, eq.rhs) == (at.payload.snd, bt.payload.snd), name


def test_session_no_confusion_kernel_checks_and_separates_constructors(index_free):
    check_no_confusion(*index_free, n_ctors=2)


@pytest.mark.parametrize(
    "name, n_ctors, decl",
    [
        ("Unary", 1, "data Unary : Set where\n  Unary => wrap (b : Bool) (c : Bool)\n"),
        (
            "Three",
            3,
            "data Three : Set where\n  Three => lf\n  Three => one (b : Bool)\n"
            "  Three => two (l : Three) (r : Three)\n",
        ),
    ],
)
def test_no_confusion_one_and_three_constructors(name, n_ctors, decl):
    s = load_session("nat_tree_vec.idt")
    s.load_text("let Bool : Set => Enum {'true, 'false}")
    s.load_text(decl)
    check_no_confusion(name, s.ctx, datatype(s, name).val, n_ctors)


# --- decidable enum equality -------------------------------------------------------


def test_decide_eq_enum_examples():
    e = enum("a", "b")
    kind, proof = C.decide_eq_enum(ctx0(), e, T.ZeroE(), T.ZeroE())
    assert kind == "equal" and proof == T.Refl()
    kind, _ = C.decide_eq_enum(ctx0(), e, T.ZeroE(), T.SucE(T.ZeroE()))
    assert kind == "not-equal"


def bare_index(k: int) -> T.Term:
    x = T.ZeroE()
    for _ in range(k):
        x = T.SucE(x)
    return x


def test_decide_eq_enum_brute_force_agreement():
    # agreement with numeral comparison for all pairs in enums of size <= 6
    for n in range(1, 7):
        e = enum(*[f"t{i}" for i in range(n)])
        for i in range(n):
            for j in range(n):
                kind, _ = C.decide_eq_enum(ctx0(), e, bare_index(i), bare_index(j))
                assert kind == ("equal" if i == j else "not-equal")


def test_decide_eq_refutation_kernel_checks():
    e = enum("a", "b", "c")
    ctx = ctx0()
    for i, j in itertools.permutations(range(3), 2):
        x, y = bare_index(i), bare_index(j)
        kind, refutation = C.decide_eq_enum(ctx, e, x, y)
        assert kind == "not-equal"
        K.check(ctx, refutation, ctx.eval(T.Pi("_", T.Eq(T.EnumT(e), x, y), T.EnumT(T.NilE()))))


# --- membership and deriveEq --------------------------------------------------------


def eq_refusal(code: V.Value):
    """The reason `derive_eq` refuses `code` for, or None when it accepts
    it."""
    try:
        G.derive_eq(code)
    except G.GenericsError as e:
        assert e.kind == "DerivingUnsupported" and e.msg.startswith("cannot derive Eq: ")
        return e.msg[len("cannot derive Eq: "):]
    return None


def test_eq_membership_examples():
    assert eq_refusal(ctx0().eval(NatD)) is None
    assert eq_refusal(V.VDOne()) is None
    brouwer = T.DSigmaE(
        enum("z", "sup"),
        switch_fam(
            enum("z", "sup"),
            tup(T.DOne(), T.DPi(T.Unit(), T.Lam("_", VAR))),
            UNIT_DESC,
        ),
    )
    r = eq_refusal(ctx0().eval(brouwer))
    assert r is not None and "'Pi" in r


def test_eq_membership_sigma_non_enum_domain(sess):
    nat = datatype(sess, "Nat").val
    code = V.VDSigma(nat, V.VLam("_", lambda _v: V.VDOne()))
    assert eq_refusal(code) == "'Sigma over a non-enumeration domain"


def small_codes(depth):
    """Brute-force enumerator of small codes for the agreement check."""
    if depth == 0:
        return [V.VDOne(), V.VDVarI(V.VVoid())]
    smaller = small_codes(depth - 1)
    out = list(smaller)
    for a in smaller[:4]:
        for b in smaller[:4]:
            out.append(V.VDTimes(a, b))
    e2 = V.VConsE(V.VTag("p"), V.VConsE(V.VTag("q"), V.VNilE()))
    for a in smaller[:3]:
        for b in smaller[:3]:
            fam = V.VLam(
                "c",
                lambda c, aa=a, bb=b: V.vswitch(
                    e2, V.VLam("_", lambda _v: V.VIDesc(V.VUnit())), V.VPair(aa, V.VPair(bb, V.VVoid())), c
                ),
            )
            out.append(V.VDSigmaE(e2, fam))
    out.append(V.VDPi(V.VUnit(), V.VLam("_", lambda _v: V.VDVarI(V.VVoid()))))
    return out


def test_membership_agrees_with_sub_desc_predicate():
    for code in small_codes(2):
        assert (eq_refusal(code) is None) == sub_desc(code)
        if sub_desc(code):
            # `:eq` decides a member's equality by conversion
            xs = mu_inhabitants(code, 2)[:8]
            for a, b in itertools.product(xs, xs):
                assert K.conv(K.Context(), a, b) == (V.quote(a, 0) == V.quote(b, 0))


def test_derive_eq_refuses_with_the_first_reason_depth_first():
    pi = V.VDPi(V.VUnit(), V.VLam("_", lambda _v: V.VDVarI(V.VVoid())))
    sigma = V.VDSigma(V.VUnit(), V.VLam("_", lambda _v: V.VDOne()))
    assert eq_refusal(V.VDTimes(pi, sigma)) == "'Pi codes admit no decidable equality"
    assert eq_refusal(V.VDTimes(sigma, pi)) == "'Sigma over a non-enumeration domain"
    e2 = V.VConsE(V.VTag("p"), V.VConsE(V.VTag("q"), V.VNilE()))
    both = V.VDSigma(V.VEnumT(e2), V.VLam("c", lambda c: pi if V.numeral_of(c) else V.VDOne()))
    assert eq_refusal(V.VDTimes(V.VDVarI(V.VVoid()), both)) == "'Pi codes admit no decidable equality"
    assert eq_refusal(V.VDSigmaE(V.fresh(0), both.fam)) == (
        "constructor choice over a non-canonical enumeration"
    )
    assert eq_refusal(V.VSet(0)) == "the code is not canonical"


def test_derive_eq_nat_exhaustive(sess):
    applied = datatype(sess, "Nat").val
    assert G.derive_eq(V.vapp(applied.fam, applied.index)) is None
    vals = [sess.ctx.eval(num_term(k)) for k in range(7)]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            structural = V.quote(a, sess.ctx.depth) == V.quote(b, sess.ctx.depth)
            assert K.conv(sess.ctx, a, b) == structural == (i == j)
            assert sess.eq_command(str(i), str(j)) == ("equal" if structural else "not-equal")


def test_derive_eq_tree_bool(sess):
    el = Elaborator()
    bool_ty, _ = el.synth(sess.ctx, S.parse_expr("Bool"))
    tree_ty, _ = el.synth(sess.ctx, S.parse_expr("Tree Bool"))
    tree_v = sess.ctx.eval(tree_ty)
    assert isinstance(tree_v, V.VIMu)
    assert G.derive_eq(V.vapp(tree_v.fam, tree_v.index)) is None

    # build trees directly at the value level for an exhaustive depth-3 set
    tt = sess.ctx.eval(el.check(sess.ctx, S.parse_expr("true"), sess.ctx.eval(bool_ty)))
    ff = V.make_numeral(1)

    def vtrees(depth):
        vleaf = V.VIn(V.VPair(V.VZeroE(), V.VVoid()))
        if depth == 0:
            return [vleaf]
        subs = vtrees(depth - 1)
        out = [vleaf]
        for l in subs[:4]:
            for b in (tt, ff):
                for r in subs[:4]:
                    out.append(
                        V.VIn(
                            V.VPair(
                                V.VSucE(V.VZeroE()),
                                V.VPair(l, V.VPair(b, V.VPair(r, V.VVoid()))),
                            )
                        )
                    )
        return out

    vals = vtrees(3)
    assert len(vals) > 30
    d = sess.ctx.depth
    for a in vals[:25]:
        for b in vals[:25]:
            structural = V.quote(a, d) == V.quote(b, d)
            assert K.conv(sess.ctx, a, b) == structural


def test_deriving_unsupported_at_declaration():
    s = Session()
    s.load_text("data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n")
    with pytest.raises(ElabError) as e:
        s.load_text(
            "data Ord : Set where\n  Ord => oz\n  Ord => sup (f : Nat -> Ord)\nderiving Eq\n"
        )
    assert e.value.kind == "DerivingUnsupported"


def test_deriving_refusal_names_the_datatype_and_the_reason():
    s = Session()
    s.load_text("data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n")
    with pytest.raises(ElabError) as e:
        s.load_text("data Ord : Set where\n  Ord => oz\n  Ord => sup (f : Nat -> Ord)\nderiving Eq\n")
    assert e.value.msg == "Ord: cannot derive Eq: 'Pi codes admit no decidable equality"
    with pytest.raises(ElabError) as e:
        s.load_text("data U : Set where\n  U => u\nderiving Show\n")
    assert (e.value.kind, e.value.msg) == ("DerivingUnsupported", "U: no derivable property 'Show'")


def test_deriving_on_family_unsupported():
    s = Session()
    s.load_text("data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n")
    with pytest.raises(ElabError) as e:
        s.load_text(
            "data V (A : Set) [n : Nat] : Set where\n  V A [n = zero] => mk\nderiving Eq\n"
        )
    assert e.value.kind == "DerivingUnsupported"


def test_eq_on_trees_prints_no_term(monkeypatch):
    """`:eq` on two constructor terms probes each type with a derived
    equality in turn, and the probes' errors are dropped: they format no
    message, so no term is printed."""
    s = Session()
    s.load_text(
        "data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\nderiving Eq\n"
        "let Bool : Set => Enum {'true, 'false}\n"
        "data BTree : Set where\n  BTree => bleaf\n  BTree => bnode (l : BTree) (b : Bool) (r : BTree)\nderiving Eq\n"
    )
    printed = []
    real = pp.print_term
    monkeypatch.setattr(pp, "print_term", lambda t, names: printed.append(t) or real(t, names))
    tree = "bnode (bnode bleaf 'true bleaf) 'false bleaf"
    assert s.eq_command(tree, tree) == "equal"
    assert s.eq_command(tree, "bnode bleaf 'false bleaf") == "not-equal"
    assert printed == []


def test_constructor_error_message_is_formatted_when_read():
    s = Session()
    s.load_text("data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n")
    with pytest.raises(ElabError) as e:
        s.eval_expr("(bleaf : Nat)")
    assert e.value.msg == "'bleaf' is not a constructor of Nat (constructors: zero, suc)"
    assert str(e.value) == f"UnknownTag: {e.value.msg}"


# --- the registry ---------------------------------------------------------------------


def test_registry_dispatch_and_errors():
    reg = G.DerivingRegistry()
    with pytest.raises(G.GenericsError) as e:
        reg.derive_for("Unknown", V.VDOne())
    assert e.value.kind == "UnknownProperty"
    assert e.value.msg == "no derivable property 'Unknown'"
    assert reg.derive_for("Eq", V.VDOne()) is None  # accepted: nothing raised


def test_registry_refusal_routes_to_error():
    reg = G.DerivingRegistry()
    brouwer = V.VDPi(V.VUnit(), V.VLam("_", lambda _v: V.VDVarI(V.VVoid())))
    with pytest.raises(G.GenericsError) as e:
        reg.derive_for("Eq", brouwer)
    assert e.value.kind == "DerivingUnsupported"
