"""Generic constructions over elaborated codes.

Case analysis and NoConfusion take a datatype without indices, given as the
term of an `IMu` at index type `Unit` whose code is a constructor choice
(such as a registered `Nat`, or `Tree` applied to `Bool`); both are built
from indexed induction. Case analysis is induction with the hypotheses
discarded; NoConfusion is specialized per datatype and proved by J plus the
decidable equality of enumeration indices. The deriving mechanism walks a
code's membership in the decidable-equality sub-universe and produces a
comparison procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from . import desc
from . import kernel as K
from . import labels as L
from . import terms as T
from . import values as V
from .kernel import Context
from .terms import Term
from .values import Value


class GenericsError(Exception):
    def __init__(self, kind: str, msg: str):
        self.kind = kind
        self.msg = msg
        super().__init__(f"{kind}: {msg}")


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
    motive = V.VLam("q", V.PyClo(lambda q: V.vapp(p, V.vsnd(q))))
    m = V.VLam(
        "i",
        V.PyClo(
            lambda _i: V.VLam(
                "d", V.PyClo(lambda d: V.VLam("h", V.PyClo(lambda h, dd=d: method(dd, h))))
            )
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
        V.PyClo(
            lambda p: V.VLam(
                "m",
                V.PyClo(
                    lambda m: V.VLam(
                        "x", V.PyClo(lambda x: _eliminate(mu, p, lambda dd, _h: V.vapp(m, dd), x))
                    )
                ),
            )
        ),
    )
    p_ty = V.VPi("_", mu, V.PyClo(lambda _v: V.VSet(0)))
    pn = V.fresh(d)

    def m_ty_of(p: Value) -> Value:
        return V.VPi(
            "d", V.vinterp_i(code, xfam), V.PyClo(lambda dd: V.vapp(p, V.VIn(dd)))
        )

    term = V.quote(case_v, d)
    anns = [
        V.quote(p_ty, d),
        V.quote(m_ty_of(pn), d + 1),
        V.quote(mu, d + 2),
    ]
    term = L._ann_lams(term, anns)
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


@dataclass(frozen=True)
class W1:
    pass


@dataclass(frozen=True)
class WVar:
    pass


@dataclass(frozen=True)
class WTimes:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class WBranches:
    """Finite choice: per-branch witnesses ('sigma, or 'Sigma over an
    enumeration)."""

    subs: tuple


@dataclass(frozen=True)
class Refusal:
    reason: str


Witness = Union[W1, WVar, WTimes, WBranches]


def sub_desc(code: Value) -> bool:
    """Declarative sub-universe predicate: products, finite sums, recursive
    positions and unit."""
    if isinstance(code, (V.VDOne, V.VDVarI)):
        return True
    if isinstance(code, V.VDTimes):
        return sub_desc(code.lhs) and sub_desc(code.rhs)
    if isinstance(code, V.VDSigmaE):
        view = desc.sigma_view(code)
        if view is None:
            return False
        return all(sub_desc(c) for c in view[1])
    if isinstance(code, V.VDSigma):
        dom = code.dom
        if not (isinstance(dom, V.VEnumT) and V.enum_tags(dom.enum) is not None):
            return False
        n = len(V.enum_tags(dom.enum))
        return all(sub_desc(V.vapp(code.fam, V.make_numeral(k))) for k in range(n))
    return False


def eq_membership(code: Value):
    """Decision procedure for membership in the decidable-equality
    sub-universe; returns a witness or a refusal."""
    if isinstance(code, V.VDOne):
        return W1()
    if isinstance(code, V.VDVarI):
        return WVar()
    if isinstance(code, V.VDTimes):
        lw = eq_membership(code.lhs)
        if isinstance(lw, Refusal):
            return lw
        rw = eq_membership(code.rhs)
        if isinstance(rw, Refusal):
            return rw
        return WTimes(lw, rw)
    if isinstance(code, V.VDSigmaE):
        view = desc.sigma_view(code)
        if view is None:
            return Refusal("constructor choice over a non-canonical enumeration")
        subs = []
        for c in view[1]:
            w = eq_membership(c)
            if isinstance(w, Refusal):
                return w
            subs.append(w)
        return WBranches(tuple(subs))
    if isinstance(code, V.VDSigma):
        dom = code.dom
        if isinstance(dom, V.VEnumT):
            tags = V.enum_tags(dom.enum)
            if tags is not None:
                subs = []
                for k in range(len(tags)):
                    w = eq_membership(V.vapp(code.fam, V.make_numeral(k)))
                    if isinstance(w, Refusal):
                        return w
                    subs.append(w)
                return WBranches(tuple(subs))
        return Refusal("'Sigma over a non-enumeration domain")
    if isinstance(code, V.VDPi):
        return Refusal("'Pi codes admit no decidable equality")
    return Refusal("the code is not canonical")


def derive_eq(code: Value, witness: Witness) -> Callable[[Value, Value], bool]:
    """Total comparison of canonical inhabitants, following the witness."""

    def eq_top(x: Value, y: Value) -> bool:
        assert isinstance(x, V.VIn) and isinstance(y, V.VIn), "comparison needs canonical values"
        return walk(witness, x.payload, y.payload)

    def walk(w: Witness, x: Value, y: Value) -> bool:
        if isinstance(w, W1):
            return True
        if isinstance(w, WVar):
            return eq_top(x, y)
        if isinstance(w, WTimes):
            return walk(w.lhs, V.vfst(x), V.vfst(y)) and walk(w.rhs, V.vsnd(x), V.vsnd(y))
        if isinstance(w, WBranches):
            cx = V.numeral_of(V.vfst(x))
            cy = V.numeral_of(V.vfst(y))
            assert cx is not None and cy is not None, "comparison needs canonical values"
            if cx != cy:
                return False
            return walk(w.subs[cx], V.vsnd(x), V.vsnd(y))
        raise GenericsError("DerivingUnsupported", f"bad witness {w!r}")

    return eq_top


@dataclass
class DerivableProperty:
    """A user-registrable derivable property over codes."""

    name: str
    sub_desc: Callable[[Value], bool]
    membership: Callable[[Value], object]
    derive: Callable[[Value, object], object]


class DerivingRegistry:
    def __init__(self):
        self._props = {}
        self.register(
            DerivableProperty("Eq", sub_desc, eq_membership, derive_eq)
        )

    def register(self, prop: DerivableProperty):
        if prop.name in self._props:
            raise GenericsError("DuplicateProperty", f"'{prop.name}' is already registered")
        self._props[prop.name] = prop

    def get(self, name: str) -> DerivableProperty:
        if name not in self._props:
            raise GenericsError("UnknownProperty", f"no derivable property '{name}'")
        return self._props[name]

    def derive_for(self, name: str, code: Value):
        prop = self.get(name)
        w = prop.membership(code)
        if isinstance(w, Refusal):
            raise GenericsError(
                "DerivingUnsupported", f"cannot derive {name}: {w.reason}"
            )
        return prop.derive(code, w)


def decide_eq_enum(ctx: Context, enum: Term, x: Term, y: Term):
    """Run the builtin decision; returns ('equal', proof term) or
    ('not-equal', refutation term)."""
    v = ctx.eval(T.DecEqEnum(enum, x, y))
    if isinstance(v, V.VPair):
        which = V.numeral_of(v.fst)
        if which == 0:
            return "equal", V.quote(v.snd, ctx.depth)
        if which == 1:
            return "not-equal", V.quote(v.snd, ctx.depth)
    raise GenericsError("NotCanonical", "decision did not compute; indices are not canonical")


# --- NoConfusion ------------------------------------------------------------------


_E2 = V.VConsE(V.VTag("equal"), V.VConsE(V.VTag("not-equal"), V.VNilE()))


def _set_lam(k: int) -> Value:
    return V.VLam("_", V.PyClo(lambda _v: V.VSet(k)))


def specialize_no_confusion(ctx: Context, name: str, ty: Term):
    """Specialized NoConfusion statement and proof for a datatype without
    indices, given as the term of a tagged `IMu` at index type `Unit`.

    Returns [(entry name, term, type term), ...] where the proof is stated
    in the context already extended with the statement.
    """
    mu = _tagged(ctx, ty)
    d = ctx.depth
    code = V.vapp(mu.fam, mu.index)
    enum = code.enum
    tfam = code.fam
    xfam = V.imu_family(mu.ixty, mu.fam)

    def payload_ty(c: Value) -> Value:
        return V.vinterp_i(V.vapp(tfam, c), xfam)

    def transport(e: Value, cx: Value, a: Value) -> Value:
        motive = V.VLam(
            "c", V.PyClo(lambda c: V.VLam("q", V.PyClo(lambda _q, cc=c: payload_ty(cc))))
        )
        return V.veqelim(motive, a, e)

    def nc_body(dx: Value, dy: Value) -> Value:
        cx, ax = V.vfst(dx), V.vsnd(dx)
        cy, ay = V.vfst(dy), V.vsnd(dy)
        eq_ty = V.VEq(V.VEnumT(enum), cx, cy)
        neg = V.VPi("_", eq_ty, V.PyClo(lambda _v: V.VEnumT(V.VNilE())))
        pay = V.VLam(
            "b",
            V.PyClo(
                lambda b: V.vswitch(_E2, _set_lam(0), V.VPair(eq_ty, V.VPair(neg, V.VVoid())), b)
            ),
        )
        same = V.VLam(
            "e",
            V.PyClo(
                lambda e: V.VPi(
                    "P",
                    V.VSet(0),
                    V.PyClo(
                        lambda p, ee=e: V.VPi(
                            "_",
                            V.VPi(
                                "_",
                                V.VEq(payload_ty(cy), transport(ee, cx, ax), ay),
                                V.PyClo(lambda _v, pp=p: pp),
                            ),
                            V.PyClo(lambda _v, pp=p: pp),
                        )
                    ),
                )
            ),
        )
        diff = V.VLam(
            "n",
            V.PyClo(lambda _n: V.VPi("P", V.VSet(0), V.PyClo(lambda p: p))),
        )
        motive2 = V.VLam(
            "b", V.PyClo(lambda b: V.VPi("_", V.vapp(pay, b), V.PyClo(lambda _v: V.VSet(1))))
        )
        dec = V.vdeceq(enum, cx, cy)
        return V.vapp(
            V.vswitch(_E2, motive2, V.VPair(same, V.VPair(diff, V.VVoid())), V.vfst(dec)),
            V.vsnd(dec),
        )

    k1 = _set_lam(1)
    nc_v = V.VLam(
        "x",
        V.PyClo(
            lambda x: V.VLam(
                "y",
                V.PyClo(
                    lambda y: _eliminate(
                        mu,
                        k1,
                        lambda dx, _h: _eliminate(mu, k1, lambda dy, _h2: nc_body(dx, dy), y),
                        x,
                    )
                ),
            )
        ),
    )
    mu_t = V.quote(mu, d)
    stmt = L._ann_lams(V.quote(nc_v, d), [mu_t, T.shift(mu_t, 1)])
    stmt_ty = T.Pi("x", mu_t, T.Pi("y", T.shift(mu_t, 1), T.Set_(1)))
    stmt_name = f"NoConfusion{name}"

    # the proof lives under the statement entry
    nc_head = V.fresh(d)  # the statement's level once appended
    d2 = d + 1

    def diag(x: Value) -> Value:
        motive = V.VLam("x'", V.PyClo(lambda x2: V.vapps(nc_head, x2, x2)))
        refl_k = V.VLam(
            "P", V.PyClo(lambda _p: V.VLam("k", V.PyClo(lambda kk: V.vapp(kk, V.VRefl()))))
        )
        return _eliminate(mu, motive, lambda _d, _h: refl_k, x)

    proof_v = V.VLam(
        "x",
        V.PyClo(
            lambda x: V.VLam(
                "y",
                V.PyClo(
                    lambda y: V.VLam(
                        "q",
                        V.PyClo(
                            lambda q, xx=x, yy=y: V.veqelim(
                                V.VLam(
                                    "y'",
                                    V.PyClo(
                                        lambda y2: V.VLam(
                                            "_",
                                            V.PyClo(
                                                lambda _q, y3=y2, x3=xx: V.vapps(nc_head, x3, y3)
                                            ),
                                        )
                                    ),
                                ),
                                diag(xx),
                                q,
                            )
                        ),
                    )
                ),
            )
        ),
    )
    mu_t2 = V.quote(mu, d2)
    proof = L._ann_lams(
        V.quote(proof_v, d2),
        [mu_t2, T.shift(mu_t2, 1), T.Eq(T.shift(mu_t2, 2), T.Var(1), T.Var(0))],
    )
    proof_ty = T.Pi(
        "x",
        mu_t2,
        T.Pi(
            "y",
            T.shift(mu_t2, 1),
            T.Pi(
                "q",
                T.Eq(T.shift(mu_t2, 2), T.Var(1), T.Var(0)),
                T.App(T.App(T.Var(3), T.Var(2)), T.Var(1)),
            ),
        ),
    )
    proof_name = f"noConfusion{name}"
    return [(stmt_name, stmt, stmt_ty), (proof_name, proof, proof_ty)]
