"""The description universes: interpretation, inductive hypotheses, the
elimination principle, and the code dump printer."""

import pytest

from conftest import UNIT_DESC, VAR, bare_nat_code, datatype, enum, load_session, switch_fam, tup, unit_fam, unit_mu

from idt import desc
from idt import kernel as K
from idt import terms as T
from idt import values as V


@pytest.fixture(scope="module")
def sess():
    return load_session("nat_tree_vec.idt")


def ctx0():
    return K.Context()


NatD = bare_nat_code()
NatR = unit_fam(NatD)  # the family Nat is the fix-point of
Nat = unit_mu(NatD)
NatX = unit_fam(Nat)  # the family its recursive positions interpret to


# --- interpretation ---------------------------------------------------------------


def test_interp_unit_clause():
    assert K.normalize(ctx0(), T.InterpIDesc(T.DOne(), NatX)) == T.Unit()


def test_interp_identity_functor_clause():
    # at a constant family, the recursive position 'varI () is the identity functor
    got = K.normalize(ctx0(), T.InterpIDesc(VAR, NatX))
    assert got == K.normalize(ctx0(), Nat)


def test_interp_natd_unfolds_by_hand():
    # oracle: unfold the clauses manually — a 'sigma interprets to a pair of
    # the tag index and the payload computed by the lookup; at the family
    # \_. Unit both payloads land at Unit, via different clauses
    v = V.vinterp_i(ctx0().eval(NatD), V.VLam("_", lambda _: V.VUnit()))
    assert isinstance(v, V.VSigma)
    assert isinstance(v.dom, V.VEnumT)
    assert V.enum_tags(v.dom.enum) == ["zero", "suc"]
    assert isinstance(v.cod(V.VIdxE(0)), V.VUnit)
    assert isinstance(v.cod(V.VIdxE(1)), V.VUnit)
    # at the family \_. IMu Unit (\_. NatD) () the recursive payload is the fix-point
    v2 = V.vinterp_i(ctx0().eval(NatD), ctx0().eval(NatX))
    suc_payload = v2.cod(V.VIdxE(1))
    assert V.quote(suc_payload, 0) == K.normalize(ctx0(), Nat)


def test_interp_idesc_var_clause():
    # 'var <(), m> interprets to X <(), m>
    ctx = ctx0().extend("X", V.VPi("_", V.VSigma("_", V.VUnit(), lambda _: V.VUnit()), lambda _: V.VSet(0)))
    ctx = ctx.extend("m", V.VUnit())
    code = T.DVarI(T.Pair(T.Void(), T.Var(0)))
    got = K.normalize(ctx, T.InterpIDesc(code, T.Var(1)))
    assert got == T.App(T.Var(1), T.Pair(T.Void(), T.Var(0)))


def test_interp_idesc_unit_clause():
    ctx = ctx0().extend("X", V.VPi("_", V.VUnit(), lambda _: V.VSet(0)))
    assert K.normalize(ctx, T.InterpIDesc(T.DOne(), T.Var(0))) == T.Unit()


def test_interp_constrained_vec_telescope(sess):
    # unfold code_= at a neutral index: the vnil branch is the constrained
    # Sigma telescope
    ctx = sess.ctx.extend("n", datatype(sess, "Nat").val)
    vec = sess.ctx.lookup("Vec")
    vecv = datatype(sess, "Vec").val
    applied = V.vapps(vecv, V.VUnit(), V.fresh(sess.ctx.depth))
    assert isinstance(applied, V.VIMu)
    code = V.vapp(applied.fam, applied.index)
    tags, branches = desc.sigma_view(code)
    assert tags == ["vnil", "vcons"]
    xfam = V.VLam("j", lambda j: V.VIMu(applied.ixty, applied.fam, j))
    vnil_ty = V.vinterp_i(branches[0], xfam)
    # Sigma (n == zero) (\_. Unit)
    assert isinstance(vnil_ty, V.VSigma)
    assert isinstance(vnil_ty.dom, V.VEq)
    assert isinstance(vnil_ty.cod(V.VRefl()), V.VUnit)


# --- IAll ---------------------------------------------------------------------------


def oracle_all(code: V.Value, x: V.Value, p: V.Value, d: V.Value) -> V.Value:
    """Independent structural-recursion oracle for the inductive-hypothesis
    type."""
    if isinstance(code, V.VDVarI):
        return V.vapp(p, V.VPair(code.index, d))
    if isinstance(code, V.VDOne):
        return V.VUnit()
    if isinstance(code, V.VDTimes):
        left = oracle_all(code.lhs, x, p, V.vfst(d))
        right = oracle_all(code.rhs, x, p, V.vsnd(d))
        return V.VSigma("_", left, lambda _v: right)
    if isinstance(code, V.VDPi):
        return V.VPi(
            "s", code.dom, lambda s: oracle_all(V.vapp(code.fam, s), x, p, V.vapp(d, s))
        )
    if isinstance(code, (V.VDSigma, V.VDSigmaE)):
        return oracle_all(V.vapp(code.fam, V.vfst(d)), x, p, V.vsnd(d))
    raise AssertionError("bad code")


def motive_ctx():
    """P : (Sigma Unit (\\_. Nat)) -> Set, the motive over index-value pairs."""
    ctx = ctx0()
    dom = ctx.eval(T.Sigma("i", T.Unit(), T.shift(Nat, 1)))
    return ctx.extend("P", V.VPi("_", dom, lambda _: V.VSet(0)))


def test_all_unit_clause():
    got = K.normalize(ctx0(), T.IAllD(T.DOne(), NatX, T.Lam("_", T.Unit()), T.Void()))
    assert got == T.Unit()


def test_all_var_clause():
    ctx = motive_ctx()
    ctx = ctx.extend("x", ctx.eval(Nat))
    got = K.normalize(ctx, T.IAllD(VAR, NatX, T.Var(1), T.Var(0)))
    assert got == T.App(T.Var(1), T.Pair(T.Void(), T.Var(0)))


def test_all_product_against_oracle():
    # IAll('varI () '* 'varI ()) on a pair is P ((), x) * P ((), y)
    ctx = motive_ctx()
    ctx = ctx.extend("x", ctx.eval(Nat)).extend("y", ctx.eval(Nat))
    code = T.DTimes(VAR, VAR)
    d = T.Pair(T.Var(1), T.Var(0))
    got = K.normalize(ctx, T.IAllD(code, NatX, T.Var(2), d))
    want = V.quote(
        oracle_all(ctx.eval(code), ctx.eval(NatX), ctx.eval(T.Var(2)), ctx.eval(d)), ctx.depth
    )
    assert got == want


@pytest.mark.parametrize("seed", range(12))
def test_all_random_codes_against_oracle(seed):
    import random

    rng = random.Random(seed)

    def gen_code(depth):
        opts = [VAR, T.DOne()]
        if depth > 0:
            opts += [
                T.DTimes(gen_code(depth - 1), gen_code(depth - 1)),
                T.DSigmaE(
                    enum("p", "q"),
                    switch_fam(enum("p", "q"), tup(gen_code(depth - 1), gen_code(depth - 1)), UNIT_DESC),
                ),
            ]
        return rng.choice(opts)

    code = gen_code(2)
    ctx = motive_ctx()
    # a canonical payload for the code
    def gen_payload(cv):
        if isinstance(cv, V.VDVarI):
            return V.VIn(V.VPair(V.VIdxE(0), V.VVoid()))
        if isinstance(cv, V.VDOne):
            return V.VVoid()
        if isinstance(cv, V.VDTimes):
            return V.VPair(gen_payload(cv.lhs), gen_payload(cv.rhs))
        if isinstance(cv, V.VDSigmaE):
            k = rng.randrange(2)
            return V.VPair(V.VIdxE(k), gen_payload(V.vapp(cv.fam, V.VIdxE(k))))
        raise AssertionError

    cv = ctx.eval(code)
    d = gen_payload(cv)
    got = K.normalize(ctx, T.IAllD(code, NatX, T.Var(0), V.quote(d, ctx.depth)))
    want = V.quote(oracle_all(cv, ctx.eval(NatX), ctx.eval(T.Var(0)), d), ctx.depth)
    assert got == want


# --- elimination -------------------------------------------------------------------


def test_induction_zero_case_no_hypotheses():
    # iinduction Unit (\_. NatD) P m () (In ('zero, void)) reduces to
    # m () ('zero, void) applied to the trivial hypothesis
    ctx = ctx0().extend(
        "m",
        V.VPi(
            "d",
            V.vinterp_i(ctx0().eval(NatD), ctx0().eval(NatX)),
            lambda _d: V.VUnit(),
        ),
    )
    P = T.Lam("_", T.Unit())
    method = T.Lam("i", T.Lam("d", T.Lam("h", T.App(T.Var(3), T.Var(1)))))
    zero = T.In(T.Pair(T.IdxE(0), T.Void()))
    got = K.normalize(ctx, T.IInduction(T.Unit(), NatR, P, method, T.Void(), zero))
    assert got == K.normalize(ctx, T.App(T.Var(0), T.Pair(T.IdxE(0), T.Void())))


def test_induction_recursive_unfolding():
    # double via induction reduces through the recursive hypothesis
    En = enum("zero", "suc")
    fam = switch_fam(En, tup(T.DOne(), VAR), UNIT_DESC)
    natd = T.DSigmaE(En, fam)

    def code_at(c):
        # `fam c`, beta-reduced as readback leaves it: a lambda only checks
        return T.Switch(En, T.Lam("_", UNIT_DESC), tup(T.DOne(), VAR), c)

    nat, natx = unit_mu(natd), unit_fam(unit_mu(natd))
    zero = T.In(T.Pair(T.IdxE(0), T.Void()))

    def suc(n):
        return T.In(T.Pair(T.IdxE(1), n))

    to_nat = T.Lam("_", nat)
    PC = T.Lam(
        "c2",
        T.Pi(
            "a",
            T.InterpIDesc(code_at(T.Var(0)), natx),
            T.Pi("h2", T.IAllD(code_at(T.Var(1)), natx, to_nat, T.Var(0)), nat),
        ),
    )
    B0 = T.Lam("a2", T.Lam("h2", zero))
    BS = T.Lam("a2", T.Lam("h2", suc(suc(T.Var(0)))))
    MSTEP = T.Lam(
        "c", T.Lam("a", T.App(T.Switch(En, PC, tup(B0, BS), T.Var(1)), T.Var(0)))
    )
    # the split motive's code is the stuck one the by-gadget builds: code
    # formers only check, so the code of an `IAll` must be neutral
    ms_all = T.IAllD(code_at(T.Fst(T.Var(0))), natx, to_nat, T.Snd(T.Var(0)))
    MS = T.Lam("p", T.Pi("hh", ms_all, nat))
    METHOD = T.Lam(
        "i", T.Lam("d", T.Lam("h", T.App(T.Split(MS, MSTEP, T.Var(1)), T.Var(0))))
    )
    double = T.Lam("m", T.IInduction(T.Unit(), unit_fam(natd), to_nat, METHOD, T.Void(), T.Var(0)))
    ctx = ctx0()
    K.check(ctx, double, ctx.eval(T.Pi("m", nat, nat)))

    def num(k):
        t = zero
        for _ in range(k):
            t = suc(t)
        return t

    for k in range(4):
        assert K.normalize(ctx, T.App(double, num(k))) == K.normalize(ctx, num(2 * k))


def test_builtin_signatures_roundtrip_through_infer():
    ctx = ctx0()
    assert K.infer(ctx, Nat) == V.VSet(0)
    # In : interpI (R ()) (\j. IMu Unit R j) -> IMu Unit R ()
    K.check(ctx, T.In(T.Pair(T.IdxE(0), T.Void())), ctx.eval(Nat))
    # IMu R i : Set when R : I -> IDesc I
    r = T.Lam("j", T.DOne())
    assert K.infer(ctx, T.IMu(T.Unit(), r, T.Void())) == V.VSet(0)


def test_functoriality_smoke():
    ctx = ctx0()
    redex = T.App(T.Lam("x", T.Var(0)), T.Unit())
    a = K.normalize(ctx, T.InterpIDesc(NatD, unit_fam(T.Unit())))
    b = K.normalize(ctx, T.InterpIDesc(NatD, unit_fam(redex)))
    assert a == b


def test_induction_computes_on_corpus_inhabitants(sess):
    # for canonical inhabitants the iota rule fires and the result re-checks
    from idt.elab import Elaborator
    from idt import surface as S

    ctx = sess.ctx
    natv = datatype(sess, "Nat").val
    assert isinstance(natv, V.VIMu)
    el = Elaborator()
    terms = [el.check(ctx, S.parse_expr(str(k)), natv) for k in range(5)]
    motive = T.Lam("p", T.Unit())
    method = T.Lam("i", T.Lam("xs", T.Lam("h", T.Void())))
    for t in terms:
        res = T.IInduction(
            V.quote(natv.ixty, ctx.depth),
            V.quote(natv.fam, ctx.depth),
            motive,
            method,
            T.Void(),
            t,
        )
        nf = K.normalize(ctx, res)
        assert nf == T.Void()
        K.check(ctx, nf, V.VUnit())


# --- printer -------------------------------------------------------------------------
# `print_code` prints a code value; these tests evaluate their code terms first


def test_print_code_golden_natd():
    assert desc.print_code(ctx0(), ctx0().eval(NatD)) == "'sigma {zero,suc} [zero -> '1, suc -> 'varI ()]"


def test_print_code_desc_view_natd():
    got = desc.print_code(ctx0(), ctx0().eval(NatD), unindexed=True)
    assert got == "'sigma {zero,suc} [zero -> '1, suc -> 'var]"


def test_print_code_golden_one():
    assert desc.print_code(ctx0(), V.VDOne()) == "'1"


def test_print_code_tree_shape():
    ctx = ctx0().extend("A", V.VSet(0))
    en = enum("leaf", "node")
    tree = T.DSigmaE(
        en,
        switch_fam(
            en,
            tup(
                T.DOne(),
                T.DTimes(VAR, T.DSigma(T.Var(0), T.Lam("_", T.DTimes(VAR, T.DOne())))),
            ),
            UNIT_DESC,
        ),
    )
    out = desc.print_code(ctx, ctx.eval(tree), unindexed=True)
    assert out == "'sigma {leaf,node} [leaf -> '1, node -> 'var '* 'Sigma A (\\_. 'var '* '1)]"


def test_print_code_desc_view_of_nested_codes():
    # a field whose type is a fix-point at index type Unit * Unit: its
    # recursive position keeps its index, the Unit-indexed code around it
    # shows the Desc view
    pair_ix = T.Sigma("_", T.Unit(), T.Unit())
    inner = T.IMu(
        pair_ix,
        T.Lam("j", T.DTimes(T.DVarI(T.Pair(T.Void(), T.Snd(T.Var(0)))), T.DOne())),
        T.Pair(T.Void(), T.Void()),
    )
    code = T.DSigma(inner, T.Lam("x", T.DTimes(VAR, T.DOne())))
    assert desc.print_code(ctx0(), ctx0().eval(code), unindexed=True) == (
        "'Sigma (IMu (\\j. 'varI (() , snd j) '* '1) (())) (\\x. 'var '* '1)"
    )
    nested_nat = T.DSigma(Nat, T.Lam("n", T.DOne()))
    assert desc.print_code(ctx0(), ctx0().eval(nested_nat), unindexed=True) == (
        "'Sigma (IMu (\\_. 'sigma {'zero, 'suc} (\\c. switch {'zero, 'suc} (\\_. Desc) ('1 'var) c)) ())"
        " (\\n. '1)"
    )
    assert "IDesc Unit" in desc.print_code(ctx0(), ctx0().eval(nested_nat))


def test_print_code_parenthesises_dependent_and_arrow_domains():
    # a field's type is printed as an argument of 'Sigma, so a dependent or
    # arrow type is parenthesised even when its text starts with one
    ctx = ctx0().extend("A", V.VSet(0))
    dep = T.Pi("n", T.Var(0), T.Eq(T.Var(1), T.Var(0), T.Var(0)))
    arrow = T.Pi("_", T.Pi("_", T.Var(0), T.Var(1)), T.Var(1))
    for ty, want in ((dep, "(n : A) -> n == n"), (arrow, "(A -> A) -> A")):
        code = T.DSigma(ty, T.Lam("f", T.DOne()))
        assert desc.print_code(ctx, ctx.eval(code)) == f"'Sigma ({want}) (\\f. '1)"


def test_show_codes_parenthesises_a_dependent_field_type():
    s = load_session("nat_tree_vec.idt", show_codes=True)
    s.out.clear()
    s.load_text("data P : Set where\n  P => mk (f : (n : Nat) -> n == n)\n")
    (dump,) = s.out
    assert dump.startswith("P = 'sigma {mk} [mk -> 'Sigma ((n : IMu (\\j. 'sigma {'zero, 'suc} ")
    assert dump.endswith(" ()) -> n == n) (\\f. '1)]")
