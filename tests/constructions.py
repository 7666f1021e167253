"""Constructions on constructors, built from indexed induction.

Case analysis and NoConfusion take a datatype without indices, given as the
term of an `IMu` at index type `Unit` whose code is a constructor choice
(such as a registered `Nat`, or `Tree` applied to `Bool`). Case analysis is
induction with the hypotheses discarded. NoConfusion is specialized per
datatype: a case analysis of both constructor tags states it, and J from
the same case analysis on the diagonal proves it. Equality of two
enumeration indices is decided by conversion, with a refutation by
transport when they differ. The constructions follow McBride, Goguen &
McKinna, "A Few Constructions on Constructors" (TYPES 2004). The pipeline
does not build them; the tests kernel-check them against the codes it
elaborates.
"""

from __future__ import annotations

from typing import Optional

from idt import desc
from idt import kernel as K
from idt import terms as T
from idt import values as V
from idt.generics import GenericsError
from idt.kernel import Context
from idt.terms import Term
from idt.values import Value


def _tagged(ctx: Context, ty: Term) -> V.VIMu:
    """The value of `ty`, a datatype without indices whose code is headed by
    a constructor choice."""
    try:
        K.check(ctx, ty, V.VSet(0))
    except K.KernelError as e:
        raise GenericsError("NotTagged", f"the term is not a datatype ({e.msg})") from None
    mu = ctx.eval(ty)
    if not isinstance(mu, V.VIMu):
        raise GenericsError("NotTagged", "the type is not a fix-point of a code")
    if not isinstance(mu.ixty, V.VUnit):
        raise GenericsError("Indexed", "the datatype has indices; only index type Unit is supported")
    if desc.sigma_view(V.vapp(mu.fam, mu.index)) is None:
        raise GenericsError("NotTagged", "the code is not headed by a constructor choice")
    return mu


def _eliminate(mu: V.VIMu, p: Value, method, x: Value) -> Value:
    """Induction on `x : mu` into the motive `p` over `mu`, where
    `method(d, h)` gives the result for `In d` from the hypotheses `h`."""
    motive = V.VLam("q", lambda q: V.vapp(p, V.vsnd(q)))
    m = V.VLam(
        "i",
        lambda _i: V.VLam(
            "d", lambda d: V.VLam("h", lambda h, dd=d: method(dd, h))
        ),
    )
    return V.viinduction(mu.ixty, mu.fam, motive, m, mu.index, x)


def derive_case(ctx: Context, ty: Term):
    """Case analysis for a datatype without indices, given as the term of a
    tagged `IMu` at index type `Unit`: induction with the inductive
    hypothesis dropped. Returns (term, type term)."""
    mu = _tagged(ctx, ty)
    d = ctx.depth
    code = V.vapp(mu.fam, mu.index)
    xfam = V.imu_family(mu.ixty, mu.fam)

    case_v = V.VLam(
        "P",
        lambda p: V.VLam(
            "m",
            lambda m: V.VLam(
                "x", lambda x: _eliminate(mu, p, lambda dd, _h: V.vapp(m, dd), x)
            ),
        ),
    )
    p_ty = V.VPi("_", mu, lambda _v: V.VSet(0))

    def m_ty_of(p: Value) -> Value:
        return V.VPi(
            "d", V.vinterp_i(code, xfam), lambda dd: V.vapp(p, V.VIn(dd))
        )

    term = V.quote(case_v, d)
    ty = T.Pi(
        "P",
        V.quote(p_ty, d),
        T.Pi(
            "m",
            V.quote(m_ty_of(V.fresh(d)), d + 1),
            T.Pi(
                "x",
                V.quote(mu, d + 2),
                T.App(T.Var(2), T.Var(0)),
            ),
        ),
    )
    return term, ty


def _lam(nm: str, body) -> Value:
    return V.VLam(nm, body)


def _arrow(dom: Value, cod: Value) -> Value:
    return V.VPi("_", dom, lambda _v: cod)


def _set_lam(k: int) -> Value:
    return _lam("_", lambda _v: V.VSet(k))


_EMPTY = V.VEnumT(V.VNilE())


def _refutation(enum: Value, pos: int) -> Optional[Value]:
    """Refutation of `pos == j` for every index j of `enum` other than `pos`:
    transport along the hypothetical proof the family that is `Unit` at `pos`
    and empty at every other index."""
    tags = V.enum_tags(enum)
    if tags is None:
        return None
    cases: Value = V.VVoid()
    for k in reversed(range(len(tags))):
        cases = V.VPair(V.VUnit() if k == pos else _EMPTY, cases)
    motive = _lam("z", lambda z: _lam("q", lambda _q: V.vswitch(enum, _set_lam(0), cases, z)))
    return _lam("q", lambda q: V.veqelim(motive, V.VVoid(), q))


def decide_eq_enum(ctx: Context, enum: Term, x: Term, y: Term):
    """Decide whether the indices `x` and `y` of `enum` are equal; returns
    ('equal', proof term) or ('not-equal', refutation term)."""
    xv, yv = ctx.eval(x), ctx.eval(y)
    if K.conv(ctx, xv, yv):
        return "equal", T.Refl()
    nx, ny = V.numeral_of(xv), V.numeral_of(yv)
    refut = None if nx is None or ny is None else _refutation(ctx.eval(enum), nx)
    if refut is None:
        raise GenericsError("NotCanonical", "decision did not compute; indices are not canonical")
    return "not-equal", V.quote(refut, ctx.depth)


# --- NoConfusion ------------------------------------------------------------------


def specialize_no_confusion(ctx: Context, name: str, ty: Term):
    """Specialized NoConfusion statement and proof for a datatype without
    indices, given as the term of a tagged `IMu` at index type `Unit`.

    The statement takes both payloads apart and switches on both tags. Two
    values with the same constructor give `(P : Set) -> ((ax == ay) -> P) ->
    P` over their fields `ax` and `ay`, which have one type there; two with
    different constructors give `(P : Set) -> P`. The proof is J from the
    diagonal, which the same case analysis proves.

    Returns [(entry name, term, type term), ...] where the proof is stated
    in the context already extended with the statement.
    """
    mu = _tagged(ctx, ty)
    d = ctx.depth
    code = V.vapp(mu.fam, mu.index)
    n = len(V.enum_tags(code.enum))
    xfam = V.imu_family(mu.ixty, mu.fam)

    def payload_ty(c: Value) -> Value:
        return V.vinterp_i(V.vapp(code.fam, c), xfam)

    def on_tag(dx: Value, result, case) -> Value:
        """Case analysis of the tag of the payload `dx`, applied to its
        fields: case k is the function `case(k)` of the fields at tag k, and
        the motive is `\\c. (a : payload_ty c) -> result(c, a)`."""
        cases: Value = V.VVoid()
        for k in reversed(range(n)):
            cases = V.VPair(case(k), cases)
        motive = _lam("c", lambda c: V.VPi("a", payload_ty(c), lambda a: result(c, a)))
        return V.vapp(V.vswitch(code.enum, motive, cases, V.vfst(dx)), V.vsnd(dx))

    def set1(_c: Value, _a: Value) -> Value:
        return V.VSet(1)

    def statement(k: int, j: int, ax: Value, ay: Value) -> Value:
        if k != j:
            return V.VPi("P", V.VSet(0), lambda p: p)
        eq = V.VEq(payload_ty(V.VIdxE(k)), ax, ay)
        return V.VPi("P", V.VSet(0), lambda p: _arrow(_arrow(eq, p), p))

    def nc_body(dx: Value, dy: Value) -> Value:
        return on_tag(dx, set1, lambda k: _lam("ax", lambda ax: on_tag(
            dy, set1, lambda j: _lam("ay", lambda ay: statement(k, j, ax, ay))
        )))

    k1 = _set_lam(1)
    nc_v = _lam("x", lambda x: _lam("y", lambda y: _eliminate(
        mu, k1, lambda dx, _h: _eliminate(mu, k1, lambda dy, _h2: nc_body(dx, dy), y), x
    )))
    mu_t = V.quote(mu, d)
    stmt = V.quote(nc_v, d)
    stmt_ty = T.Pi("x", mu_t, T.Pi("y", T.shift(mu_t, 1), T.Set_(1)))

    # the proof lives under the statement entry, whose level is `d`
    def nc(x: Value, y: Value) -> Value:
        return V.vapps(V.fresh(d), x, y)

    def nc_diag(c: Value, a: Value) -> Value:
        return nc(V.VIn(V.VPair(c, a)), V.VIn(V.VPair(c, a)))

    refl_k = _lam("a", lambda _a: _lam("P", lambda _p: _lam("k", lambda kk: V.vapp(kk, V.VRefl()))))

    def diag(x: Value) -> Value:
        motive = _lam("x'", lambda x2: nc(x2, x2))
        return _eliminate(mu, motive, lambda dx, _h: on_tag(dx, nc_diag, lambda _k: refl_k), x)

    def transport(x: Value, q: Value) -> Value:
        motive = _lam("y'", lambda y2: _lam("_", lambda _q: nc(x, y2)))
        return V.veqelim(motive, diag(x), q)

    proof_v = _lam("x", lambda x: _lam("y", lambda _y: _lam("q", lambda q: transport(x, q))))
    mu_t2 = V.quote(mu, d + 1)
    eq_t = T.Eq(T.shift(mu_t2, 2), T.Var(1), T.Var(0))
    proof = V.quote(proof_v, d + 1)
    nc_xy = T.App(T.App(T.Var(3), T.Var(2)), T.Var(1))
    proof_ty = T.Pi("x", mu_t2, T.Pi("y", T.shift(mu_t2, 1), T.Pi("q", eq_t, nc_xy)))
    return [(f"NoConfusion{name}", stmt, stmt_ty), (f"noConfusion{name}", proof, proof_ty)]
