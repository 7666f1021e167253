"""Semantic values and evaluation.

Terms evaluate into weak-head-normal values with closures for binders;
stuck eliminations form neutral spines headed by a variable. Readback
(`quote`) turns a value back into a beta/iota-normal term.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import terms as T
from .terms import Term

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class EvalError(Exception):
    """Internal evaluator invariant violation (ill-typed input)."""


@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class Clo:
    """Defunctionalized closure: a term body in its environment."""

    env: tuple
    term: Term

    def __call__(self, v: Value) -> Value:
        return eval_term(self.term, self.env + (v,))


class PyClo:
    """Host-language closure, used by the builtin iota rules."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Value], Value]):
        self.fn = fn

    def __call__(self, v: Value) -> Value:
        return self.fn(v)


@dataclass(frozen=True)
class VSet(Value):
    level: int


@dataclass(frozen=True)
class VPi(Value):
    nm: str
    dom: Value
    cod: object  # closure


@dataclass(frozen=True)
class VLam(Value):
    nm: str
    body: object  # closure


@dataclass(frozen=True)
class VSigma(Value):
    nm: str
    dom: Value
    cod: object


@dataclass(frozen=True)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True)
class VUnit(Value):
    pass


@dataclass(frozen=True)
class VVoid(Value):
    pass


@dataclass(frozen=True)
class VUId(Value):
    pass


@dataclass(frozen=True)
class VTag(Value):
    name: str


@dataclass(frozen=True)
class VEnumU(Value):
    pass


@dataclass(frozen=True)
class VNilE(Value):
    pass


@dataclass(frozen=True)
class VConsE(Value):
    tag: Value
    rest: Value


@dataclass(frozen=True)
class VEnumT(Value):
    enum: Value


@dataclass(frozen=True)
class VZeroE(Value):
    pass


@dataclass(frozen=True)
class VSucE(Value):
    pred: Value


@dataclass(frozen=True)
class VEq(Value):
    ty: Value
    lhs: Value
    rhs: Value


@dataclass(frozen=True)
class VRefl(Value):
    pass


@dataclass(frozen=True)
class VDesc(Value):
    pass


@dataclass(frozen=True)
class VIDesc(Value):
    index: Value


@dataclass(frozen=True)
class VDVar(Value):
    pass


@dataclass(frozen=True)
class VDVarI(Value):
    index: Value


@dataclass(frozen=True)
class VDOne(Value):
    pass


@dataclass(frozen=True)
class VDTimes(Value):
    lhs: Value
    rhs: Value


@dataclass(frozen=True)
class VDPi(Value):
    dom: Value
    fam: Value


@dataclass(frozen=True)
class VDSigma(Value):
    dom: Value
    fam: Value


@dataclass(frozen=True)
class VDSigmaE(Value):
    enum: Value
    fam: Value


@dataclass(frozen=True)
class VMu(Value):
    code: Value


@dataclass(frozen=True)
class VIMu(Value):
    ixty: Value = field(compare=False)
    fam: Value
    index: Value


@dataclass(frozen=True)
class VIn(Value):
    payload: Value


@dataclass(frozen=True)
class VLabelTy(Value):
    head: str
    args: tuple
    argtys: tuple = field(compare=False)
    ty: Value


@dataclass(frozen=True)
class VLRet(Value):
    val: Value


@dataclass(frozen=True)
class VLParam:
    tm: Value
    ty: Value


@dataclass(frozen=True)
class VLIndex:
    tm: Value
    ty: Value


@dataclass(frozen=True)
class VLConstraint:
    var: Value
    tm: Value
    ty: Value


@dataclass(frozen=True)
class VDLabel:
    head: str
    entries: tuple


@dataclass(frozen=True)
class VDLabelTy(Value):
    label: VDLabel


@dataclass(frozen=True)
class VDRet(Value):
    enum: Value
    fam: Value


# --- neutrals ----------------------------------------------------------------


@dataclass(frozen=True)
class FApp:
    arg: Value


@dataclass(frozen=True)
class FFst:
    pass


@dataclass(frozen=True)
class FSnd:
    pass


class FGeneric:
    """Stuck builtin elimination, the term `kind(*fields)`.

    `fields` are the eliminator's arguments in the order of the term
    constructor `kind`: values, tuples of values, description labels or a
    head name. Field `owner_at` holds the neutral this frame extends, possibly
    under `VSucE` wrappers; readback puts the quoted spine prefix there.
    """

    __slots__ = ("kind", "fields", "owner_at")

    def __init__(self, kind: type, fields: tuple, owner_at: int):
        self.kind = kind
        self.fields = fields
        self.owner_at = owner_at


@dataclass(frozen=True)
class VNeutral(Value):
    lvl: int
    spine: tuple = ()


def fresh(lvl: int) -> VNeutral:
    return VNeutral(lvl)


# --- elimination helpers ------------------------------------------------------


def _extend(n: VNeutral, frame) -> VNeutral:
    return VNeutral(n.lvl, n.spine + (frame,))


def _stuck(owner: VNeutral, kind: type, fields: tuple, owner_at: int) -> VNeutral:
    return _extend(owner, FGeneric(kind, fields, owner_at))


def vapp(f: Value, a: Value) -> Value:
    if isinstance(f, VLam):
        return f.body(a)
    if isinstance(f, VNeutral):
        return _extend(f, FApp(a))
    raise EvalError(f"cannot apply {type(f).__name__}")


def vapps(f: Value, *args: Value) -> Value:
    for a in args:
        f = vapp(f, a)
    return f


def vfst(p: Value) -> Value:
    if isinstance(p, VPair):
        return p.fst
    if isinstance(p, VNeutral):
        return _extend(p, FFst())
    raise EvalError(f"cannot project {type(p).__name__}")


def vsnd(p: Value) -> Value:
    if isinstance(p, VPair):
        return p.snd
    if isinstance(p, VNeutral):
        return _extend(p, FSnd())
    raise EvalError(f"cannot project {type(p).__name__}")


def _stuck_inner_neutral(v: Value) -> Optional[VNeutral]:
    """Find a neutral inside a canonical-headed numeral-ish value."""
    while isinstance(v, VSucE):
        v = v.pred
    return v if isinstance(v, VNeutral) else None


def vswitch(enum: Value, fam: Value, cases: Value, scrut: Value) -> Value:
    if isinstance(scrut, VZeroE):
        return vfst(cases)
    if isinstance(scrut, VSucE) and isinstance(enum, VConsE):
        return vswitch(
            enum.rest,
            VLam("k", PyClo(lambda k: vapp(fam, VSucE(k)))),
            vsnd(cases),
            scrut.pred,
        )
    fields = (enum, fam, cases, scrut)
    owner = _stuck_inner_neutral(scrut)
    if owner is not None:
        return _stuck(owner, T.Switch, fields, 3)
    if isinstance(enum, VNeutral):
        return _stuck(enum, T.Switch, fields, 0)
    raise EvalError("switch stuck on non-neutral scrutinee")


def vpie(enum: Value, fam: Value) -> Value:
    if isinstance(enum, VNilE):
        return VUnit()
    if isinstance(enum, VConsE):
        head = vapp(fam, VZeroE())
        rest_fam = VLam("k", PyClo(lambda k: vapp(fam, VSucE(k))))
        rest = enum.rest
        return VSigma("_", head, PyClo(lambda _v: vpie(rest, rest_fam)))
    if isinstance(enum, VNeutral):
        return _stuck(enum, T.PiE, (enum, fam), 0)
    raise EvalError("pi-enum on non-enumeration")


def vinterp(code: Value, x: Value) -> Value:
    if isinstance(code, VDVar):
        return x
    if isinstance(code, VDOne):
        return VUnit()
    if isinstance(code, VDTimes):
        left = vinterp(code.lhs, x)
        rhs, xx = code.rhs, x
        return VSigma("_", left, PyClo(lambda _v: vinterp(rhs, xx)))
    if isinstance(code, VDPi):
        fam, xx = code.fam, x
        return VPi("s", code.dom, PyClo(lambda s: vinterp(vapp(fam, s), xx)))
    if isinstance(code, VDSigma):
        fam, xx = code.fam, x
        return VSigma("s", code.dom, PyClo(lambda s: vinterp(vapp(fam, s), xx)))
    if isinstance(code, VDSigmaE):
        fam, xx = code.fam, x
        return VSigma("c", VEnumT(code.enum), PyClo(lambda c: vinterp(vapp(fam, c), xx)))
    if isinstance(code, VNeutral):
        return _stuck(code, T.InterpDesc, (code, x), 0)
    raise EvalError(f"interp of non-code {type(code).__name__}")


def vinterp_i(code: Value, x: Value) -> Value:
    if isinstance(code, VDVarI):
        return vapp(x, code.index)
    if isinstance(code, VDOne):
        return VUnit()
    if isinstance(code, VDTimes):
        left = vinterp_i(code.lhs, x)
        rhs, xx = code.rhs, x
        return VSigma("_", left, PyClo(lambda _v: vinterp_i(rhs, xx)))
    if isinstance(code, VDPi):
        fam, xx = code.fam, x
        return VPi("s", code.dom, PyClo(lambda s: vinterp_i(vapp(fam, s), xx)))
    if isinstance(code, VDSigma):
        fam, xx = code.fam, x
        return VSigma("s", code.dom, PyClo(lambda s: vinterp_i(vapp(fam, s), xx)))
    if isinstance(code, VDSigmaE):
        fam, xx = code.fam, x
        return VSigma("c", VEnumT(code.enum), PyClo(lambda c: vinterp_i(vapp(fam, c), xx)))
    if isinstance(code, VNeutral):
        return _stuck(code, T.InterpIDesc, (code, x), 0)
    raise EvalError(f"indexed interp of non-code {type(code).__name__}")


def vall(code: Value, x: Value, p: Value, d: Value) -> Value:
    if isinstance(code, VDVar):
        return vapp(p, d)
    if isinstance(code, VDOne):
        return VUnit()
    if isinstance(code, VDTimes):
        left = vall(code.lhs, x, p, vfst(d))
        rhs, rest = code.rhs, vsnd(d)
        return VSigma("_", left, PyClo(lambda _v, xx=x, pp=p: vall(rhs, xx, pp, rest)))
    if isinstance(code, VDPi):
        fam, xx, pp, dd = code.fam, x, p, d
        return VPi("s", code.dom, PyClo(lambda s: vall(vapp(fam, s), xx, pp, vapp(dd, s))))
    if isinstance(code, (VDSigma, VDSigmaE)):
        return vall(vapp(code.fam, vfst(d)), x, p, vsnd(d))
    if isinstance(code, VNeutral):
        return _stuck(code, T.AllD, (code, x, p, d), 0)
    raise EvalError(f"All over non-code {type(code).__name__}")


def viall(code: Value, x: Value, p: Value, d: Value) -> Value:
    if isinstance(code, VDVarI):
        return vapp(p, VPair(code.index, d))
    if isinstance(code, VDOne):
        return VUnit()
    if isinstance(code, VDTimes):
        left = viall(code.lhs, x, p, vfst(d))
        rhs, rest = code.rhs, vsnd(d)
        return VSigma("_", left, PyClo(lambda _v, xx=x, pp=p: viall(rhs, xx, pp, rest)))
    if isinstance(code, VDPi):
        fam, xx, pp, dd = code.fam, x, p, d
        return VPi("s", code.dom, PyClo(lambda s: viall(vapp(fam, s), xx, pp, vapp(dd, s))))
    if isinstance(code, (VDSigma, VDSigmaE)):
        return viall(vapp(code.fam, vfst(d)), x, p, vsnd(d))
    if isinstance(code, VNeutral):
        return _stuck(code, T.IAllD, (code, x, p, d), 0)
    raise EvalError(f"IAll over non-code {type(code).__name__}")


def vallmap(code: Value, x: Value, p: Value, rec: Value, d: Value) -> Value:
    if isinstance(code, VDVar):
        return vapp(rec, d)
    if isinstance(code, VDOne):
        return VVoid()
    if isinstance(code, VDTimes):
        return VPair(
            vallmap(code.lhs, x, p, rec, vfst(d)),
            vallmap(code.rhs, x, p, rec, vsnd(d)),
        )
    if isinstance(code, VDPi):
        fam, xx, pp, rr, dd = code.fam, x, p, rec, d
        return VLam("s", PyClo(lambda s: vallmap(vapp(fam, s), xx, pp, rr, vapp(dd, s))))
    if isinstance(code, (VDSigma, VDSigmaE)):
        return vallmap(vapp(code.fam, vfst(d)), x, p, rec, vsnd(d))
    if isinstance(code, VNeutral):
        return _stuck(code, T.AllMap, (code, x, p, rec, d), 0)
    raise EvalError(f"all-map over non-code {type(code).__name__}")


def viallmap(code: Value, x: Value, p: Value, rec: Value, d: Value) -> Value:
    if isinstance(code, VDVarI):
        return vapp(vapp(rec, code.index), d)
    if isinstance(code, VDOne):
        return VVoid()
    if isinstance(code, VDTimes):
        return VPair(
            viallmap(code.lhs, x, p, rec, vfst(d)),
            viallmap(code.rhs, x, p, rec, vsnd(d)),
        )
    if isinstance(code, VDPi):
        fam, xx, pp, rr, dd = code.fam, x, p, rec, d
        return VLam("s", PyClo(lambda s: viallmap(vapp(fam, s), xx, pp, rr, vapp(dd, s))))
    if isinstance(code, (VDSigma, VDSigmaE)):
        return viallmap(vapp(code.fam, vfst(d)), x, p, rec, vsnd(d))
    if isinstance(code, VNeutral):
        return _stuck(code, T.IAllMap, (code, x, p, rec, d), 0)
    raise EvalError(f"indexed all-map over non-code {type(code).__name__}")


def vinduction(code: Value, p: Value, m: Value, x: Value) -> Value:
    if isinstance(x, VIn):
        rec = VLam("x", PyClo(lambda v: vinduction(code, p, m, v)))
        hyp = vallmap(code, VMu(code), p, rec, x.payload)
        return vapps(m, x.payload, hyp)
    if isinstance(x, VNeutral):
        return _stuck(x, T.Induction, (code, p, m, x), 3)
    raise EvalError("induction on non-canonical scrutinee")


def viinduction(ixty: Value, fam: Value, p: Value, m: Value, i: Value, x: Value) -> Value:
    if isinstance(x, VIn):
        code = vapp(fam, i)
        xfam = VLam("j", PyClo(lambda j: VIMu(ixty, fam, j)))
        rec = VLam(
            "i",
            PyClo(lambda i2: VLam("x", PyClo(lambda v: viinduction(ixty, fam, p, m, i2, v)))),
        )
        hyp = viallmap(code, xfam, p, rec, x.payload)
        return vapps(m, i, x.payload, hyp)
    if isinstance(x, VNeutral):
        return _stuck(x, T.IInduction, (ixty, fam, p, m, i, x), 5)
    raise EvalError("indexed induction on non-canonical scrutinee")


def vsplit(p: Value, m: Value, scrut: Value) -> Value:
    if isinstance(scrut, VPair):
        return vapps(m, scrut.fst, scrut.snd)
    if isinstance(scrut, VNeutral):
        return _stuck(scrut, T.Split, (p, m, scrut), 2)
    raise EvalError("split on non-pair")


def veqelim(motive: Value, base: Value, proof: Value) -> Value:
    if isinstance(proof, VRefl):
        return base
    if isinstance(proof, VNeutral):
        return _stuck(proof, T.EqElim, (motive, base, proof), 2)
    raise EvalError("eq-elim on non-proof")


def vlcall(head: str, args: tuple, argtys: tuple, ty: Value, body: Value) -> Value:
    if isinstance(body, VLRet):
        return body.val
    if isinstance(body, VNeutral):
        return _stuck(body, T.LCall, (head, args, argtys, ty, body), 4)
    raise EvalError("call on non-return")


def vdcall(label: VDLabel, body: Value) -> Value:
    if isinstance(body, VDRet):
        return VDSigmaE(body.enum, body.fam)
    if isinstance(body, VNeutral):
        return _stuck(body, T.DCall, (label, body), 1)
    raise EvalError("description call on non-return")


# --- decidable equality of enumeration indices -------------------------------


def numeral_of(v: Value) -> Optional[int]:
    n = 0
    while isinstance(v, VSucE):
        n += 1
        v = v.pred
    return n if isinstance(v, VZeroE) else None


def make_numeral(k: int) -> Value:
    v: Value = VZeroE()
    for _ in range(k):
        v = VSucE(v)
    return v


def enum_tags(enum: Value) -> Optional[list]:
    out = []
    while isinstance(enum, VConsE):
        if not isinstance(enum.tag, VTag):
            return None
        out.append(enum.tag.name)
        enum = enum.rest
    return out if isinstance(enum, VNilE) else None


def v_alpha_eq(a: Value, b: Value) -> bool:
    """Conservative closed-structural comparison; used by the decidable
    enumeration equality to fire its reflexivity rule."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (VZeroE, VVoid, VRefl, VNilE, VDVar, VDOne)):
        return True
    if isinstance(a, VTag):
        return a.name == b.name
    if isinstance(a, VSucE):
        return v_alpha_eq(a.pred, b.pred)
    if isinstance(a, VPair):
        return v_alpha_eq(a.fst, b.fst) and v_alpha_eq(a.snd, b.snd)
    if isinstance(a, VConsE):
        return v_alpha_eq(a.tag, b.tag) and v_alpha_eq(a.rest, b.rest)
    if isinstance(a, VIn):
        return v_alpha_eq(a.payload, b.payload)
    if isinstance(a, VNeutral):
        if a.lvl != b.lvl or len(a.spine) != len(b.spine):
            return False
        for fa, fb in zip(a.spine, b.spine):
            if type(fa) is not type(fb):
                return False
            if isinstance(fa, FApp):
                if not v_alpha_eq(fa.arg, fb.arg):
                    return False
            elif isinstance(fa, (FFst, FSnd)):
                continue
            else:
                return False
        return True
    return False


def _empty_type() -> Value:
    return VEnumT(VNilE())


def _refutation(enum: Value, pos: int) -> Optional[Value]:
    """Honest refutation term for two distinct canonical indices: transport a
    discriminating family along the hypothetical proof."""
    tags = enum_tags(enum)
    if tags is None:
        return None
    cases: Value = VVoid()
    for k in reversed(range(len(tags))):
        cell = VUnit() if k == pos else _empty_type()
        cases = VPair(cell, cases)
    setfam = VLam("_", PyClo(lambda _v: VSet(0)))
    discr = VLam("z", PyClo(lambda z: vswitch(enum, setfam, cases, z)))
    motive = VLam("z", PyClo(lambda z: VLam("q", PyClo(lambda _q: vapp(discr, z)))))
    return VLam("q", PyClo(lambda q: veqelim(motive, VVoid(), q)))


def vdeceq(enum: Value, lhs: Value, rhs: Value) -> Value:
    if v_alpha_eq(lhs, rhs):
        return VPair(VZeroE(), VRefl())
    nl, nr = numeral_of(lhs), numeral_of(rhs)
    if nl is not None and nr is not None and nl != nr:
        refut = _refutation(enum, nl)
        if refut is not None:
            return VPair(VSucE(VZeroE()), refut)

    fields = (enum, lhs, rhs)
    for at in (1, 2, 0):
        if isinstance(fields[at], VNeutral):
            return _stuck(fields[at], T.DecEqEnum, fields, at)
    for at in (1, 2):
        inner = _stuck_inner_neutral(fields[at])
        if inner is not None:
            return _stuck(inner, T.DecEqEnum, fields, at)
    raise EvalError("decidable enum equality stuck on canonical input")


def vdecidable(prop: Value) -> Value:
    """The type (prop + (prop -> Empty)) encoded over the {equal,not-equal}
    enumeration; the type of DecEqEnum results."""
    e2 = VConsE(VTag("equal"), VConsE(VTag("not-equal"), VNilE()))
    setfam = VLam("_", PyClo(lambda _v: VSet(0)))
    neg = VPi("_", prop, PyClo(lambda _v: _empty_type()))
    cases = VPair(prop, VPair(neg, VVoid()))
    return VSigma("b", VEnumT(e2), PyClo(lambda b: vswitch(e2, setfam, cases, b)))


def vlabel_index_type(label: VDLabel) -> Value:
    """The index type computed from a description label's telescope."""
    ty: Value = VUnit()
    for e in label.entries:
        if isinstance(e, VLParam):
            continue
        ity = e.ty
        prev = ty
        ty = VSigma("_", prev, PyClo(lambda _v, it=ity: it))
    return ty


# --- evaluation ---------------------------------------------------------------


def eval_label(label: T.DLabel, env: tuple) -> VDLabel:
    entries = []
    for e in label.entries:
        if isinstance(e, T.LParam):
            entries.append(VLParam(eval_term(e.tm, env), eval_term(e.ty, env)))
        elif isinstance(e, T.LIndex):
            entries.append(VLIndex(eval_term(e.tm, env), eval_term(e.ty, env)))
        else:
            entries.append(
                VLConstraint(eval_term(e.var, env), eval_term(e.tm, env), eval_term(e.ty, env))
            )
    return VDLabel(label.head, tuple(entries))


def eval_term(t: Term, env: tuple) -> Value:
    match t:
        case T.Var(ix):
            return env[len(env) - 1 - ix]
        case T.Set_(level):
            return VSet(level)
        case T.Pi(nm, dom, cod):
            return VPi(nm, eval_term(dom, env), Clo(env, cod))
        case T.Lam(nm, _, body):
            return VLam(nm, Clo(env, body))
        case T.App(fn, arg):
            return vapp(eval_term(fn, env), eval_term(arg, env))
        case T.Sigma(nm, dom, cod):
            return VSigma(nm, eval_term(dom, env), Clo(env, cod))
        case T.Pair(fst, snd):
            return VPair(eval_term(fst, env), eval_term(snd, env))
        case T.Fst(p):
            return vfst(eval_term(p, env))
        case T.Snd(p):
            return vsnd(eval_term(p, env))
        case T.Unit():
            return VUnit()
        case T.Void():
            return VVoid()
        case T.UId():
            return VUId()
        case T.Tag(name):
            return VTag(name)
        case T.EnumU():
            return VEnumU()
        case T.NilE():
            return VNilE()
        case T.ConsE(tag, rest):
            return VConsE(eval_term(tag, env), eval_term(rest, env))
        case T.EnumT(e):
            return VEnumT(eval_term(e, env))
        case T.ZeroE():
            return VZeroE()
        case T.SucE(n):
            return VSucE(eval_term(n, env))
        case T.PiE(e, p):
            return vpie(eval_term(e, env), eval_term(p, env))
        case T.Switch(e, p, cs, x):
            return vswitch(eval_term(e, env), eval_term(p, env), eval_term(cs, env), eval_term(x, env))
        case T.Eq(a, l, r):
            return VEq(eval_term(a, env), eval_term(l, env), eval_term(r, env))
        case T.Refl():
            return VRefl()
        case T.EqElim(m, b, q):
            return veqelim(eval_term(m, env), eval_term(b, env), eval_term(q, env))
        case T.Desc():
            return VDesc()
        case T.IDesc(i):
            return VIDesc(eval_term(i, env))
        case T.DVar():
            return VDVar()
        case T.DVarI(i):
            return VDVarI(eval_term(i, env))
        case T.DOne():
            return VDOne()
        case T.DTimes(a, b):
            return VDTimes(eval_term(a, env), eval_term(b, env))
        case T.DPi(s, f):
            return VDPi(eval_term(s, env), eval_term(f, env))
        case T.DSigma(s, f):
            return VDSigma(eval_term(s, env), eval_term(f, env))
        case T.DSigmaE(e, f):
            return VDSigmaE(eval_term(e, env), eval_term(f, env))
        case T.InterpDesc(code, x):
            return vinterp(eval_term(code, env), eval_term(x, env))
        case T.InterpIDesc(code, x):
            return vinterp_i(eval_term(code, env), eval_term(x, env))
        case T.AllD(code, x, p, d):
            return vall(eval_term(code, env), eval_term(x, env), eval_term(p, env), eval_term(d, env))
        case T.IAllD(code, x, p, d):
            return viall(eval_term(code, env), eval_term(x, env), eval_term(p, env), eval_term(d, env))
        case T.AllMap(code, x, p, r, d):
            return vallmap(
                eval_term(code, env), eval_term(x, env), eval_term(p, env), eval_term(r, env), eval_term(d, env)
            )
        case T.IAllMap(code, x, p, r, d):
            return viallmap(
                eval_term(code, env), eval_term(x, env), eval_term(p, env), eval_term(r, env), eval_term(d, env)
            )
        case T.Mu(code):
            return VMu(eval_term(code, env))
        case T.IMu(ixty, fam, i):
            return VIMu(eval_term(ixty, env), eval_term(fam, env), eval_term(i, env))
        case T.In(d):
            return VIn(eval_term(d, env))
        case T.Induction(code, p, m, x):
            return vinduction(eval_term(code, env), eval_term(p, env), eval_term(m, env), eval_term(x, env))
        case T.IInduction(ixty, fam, p, m, i, x):
            return viinduction(
                eval_term(ixty, env),
                eval_term(fam, env),
                eval_term(p, env),
                eval_term(m, env),
                eval_term(i, env),
                eval_term(x, env),
            )
        case T.Split(p, m, s):
            return vsplit(eval_term(p, env), eval_term(m, env), eval_term(s, env))
        case T.DecEqEnum(e, l, r):
            return vdeceq(eval_term(e, env), eval_term(l, env), eval_term(r, env))
        case T.LabelTy(head, args, argtys, ty):
            return VLabelTy(
                head,
                tuple(eval_term(a, env) for a in args),
                tuple(eval_term(a, env) for a in argtys),
                eval_term(ty, env),
            )
        case T.LRet(v):
            return VLRet(eval_term(v, env))
        case T.LCall(head, args, argtys, ty, body):
            return vlcall(
                head,
                tuple(eval_term(a, env) for a in args),
                tuple(eval_term(a, env) for a in argtys),
                eval_term(ty, env),
                eval_term(body, env),
            )
        case T.DLabelTy(label):
            return VDLabelTy(eval_label(label, env))
        case T.DRet(e, f):
            return VDRet(eval_term(e, env), eval_term(f, env))
        case T.DCall(label, body):
            return vdcall(eval_label(label, env), eval_term(body, env))
    raise EvalError(f"cannot evaluate {type(t).__name__}")


# --- readback -----------------------------------------------------------------


def name_definition(names: dict, ty: Value, val: Value, lvl: int) -> dict:
    """The `quote` table `names` with the definition `val : ty` at level
    `lvl` added if it is a datatype without index or an enumeration in
    `Set 0`, which is exactly the universe their unfolded forms infer; else
    `names` itself. The table maps the identity of the datatype's family or
    of the enumeration to that object and the level."""
    if not (isinstance(ty, VSet) and ty.level == 0):
        return names
    if isinstance(val, VIMu) and isinstance(val.ixty, VUnit):
        key = val.fam
    elif isinstance(val, VEnumT):
        key = val.enum
    else:
        return names
    return {**names, id(key): (key, lvl)}


def _definition_var(names: dict, key: Value, d: int) -> Optional[Term]:
    """The variable at depth `d` of the definition `names` holds for `key`."""
    hit = names.get(id(key))
    if hit is not None and hit[0] is key and hit[1] < d:
        return T.Var(d - 1 - hit[1])
    return None


def quote_label(label: VDLabel, d: int, names: Optional[dict] = None) -> T.DLabel:
    entries = []
    for e in label.entries:
        if isinstance(e, VLParam):
            entries.append(T.LParam(quote(e.tm, d, names), quote(e.ty, d, names)))
        elif isinstance(e, VLIndex):
            entries.append(T.LIndex(quote(e.tm, d, names), quote(e.ty, d, names)))
        else:
            entries.append(
                T.LConstraint(quote(e.var, d, names), quote(e.tm, d, names), quote(e.ty, d, names))
            )
    return T.DLabel(label.head, tuple(entries))


def quote(v: Value, d: int, names: Optional[dict] = None) -> Term:
    """Read `v` back as a term at depth `d`.

    With a table from `name_definition`, a datatype or enumeration whose
    family or enumeration is the very object of a definition at a level below
    `d` reads back as that definition's variable, and evaluating the variable
    gives a value with the same readback. Without one, definitions are
    unfolded: the normal form."""
    match v:
        case VSet(level):
            return T.Set_(level)
        case VPi(nm, dom, cod):
            return T.Pi(nm, quote(dom, d, names), quote(cod(fresh(d)), d + 1, names))
        case VLam(nm, body):
            return T.Lam(nm, None, quote(body(fresh(d)), d + 1, names))
        case VSigma(nm, dom, cod):
            return T.Sigma(nm, quote(dom, d, names), quote(cod(fresh(d)), d + 1, names))
        case VPair(a, b):
            return T.Pair(quote(a, d, names), quote(b, d, names))
        case VUnit():
            return T.Unit()
        case VVoid():
            return T.Void()
        case VUId():
            return T.UId()
        case VTag(name):
            return T.Tag(name)
        case VEnumU():
            return T.EnumU()
        case VNilE():
            return T.NilE()
        case VConsE(tag, rest):
            return T.ConsE(quote(tag, d, names), quote(rest, d, names))
        case VEnumT(e):
            if names and (var := _definition_var(names, e, d)):
                return var
            return T.EnumT(quote(e, d, names))
        case VZeroE():
            return T.ZeroE()
        case VSucE(n):
            return T.SucE(quote(n, d, names))
        case VEq(a, l, r):
            return T.Eq(quote(a, d, names), quote(l, d, names), quote(r, d, names))
        case VRefl():
            return T.Refl()
        case VDesc():
            return T.Desc()
        case VIDesc(i):
            return T.IDesc(quote(i, d, names))
        case VDVar():
            return T.DVar()
        case VDVarI(i):
            return T.DVarI(quote(i, d, names))
        case VDOne():
            return T.DOne()
        case VDTimes(a, b):
            return T.DTimes(quote(a, d, names), quote(b, d, names))
        case VDPi(s, f):
            return T.DPi(quote(s, d, names), quote(f, d, names))
        case VDSigma(s, f):
            return T.DSigma(quote(s, d, names), quote(f, d, names))
        case VDSigmaE(e, f):
            return T.DSigmaE(quote(e, d, names), quote(f, d, names))
        case VMu(code):
            return T.Mu(quote(code, d, names))
        case VIMu(ixty, fam, i):
            if names and isinstance(ixty, VUnit) and (var := _definition_var(names, fam, d)):
                return var
            # eta for the degenerate index: anything at Unit reads back as void
            iq = T.Void() if isinstance(ixty, VUnit) else quote(i, d, names)
            return T.IMu(quote(ixty, d, names), quote(fam, d, names), iq)
        case VIn(p):
            return T.In(quote(p, d, names))
        case VLabelTy(head, args, argtys, ty):
            return T.LabelTy(
                head,
                tuple(quote(a, d, names) for a in args),
                tuple(quote(a, d, names) for a in argtys),
                quote(ty, d, names),
            )
        case VLRet(val):
            return T.LRet(quote(val, d, names))
        case VDLabelTy(label):
            return T.DLabelTy(quote_label(label, d, names))
        case VDRet(e, f):
            return T.DRet(quote(e, d, names), quote(f, d, names))
        case VNeutral(lvl, spine):
            t: Term = T.Var(d - 1 - lvl)
            for f in spine:
                if isinstance(f, FApp):
                    t = T.App(t, quote(f.arg, d, names))
                elif isinstance(f, FFst):
                    t = T.Fst(t)
                elif isinstance(f, FSnd):
                    t = T.Snd(t)
                else:
                    t = _quote_stuck(f, t, d, names)
            return t
    raise EvalError(f"cannot quote {type(v).__name__}")


def _quote_stuck(f: FGeneric, owner: Term, d: int, names: Optional[dict]) -> Term:
    """Read back a stuck elimination around its quoted spine prefix."""
    args = []
    for at, x in enumerate(f.fields):
        if at == f.owner_at:
            while isinstance(x, VSucE):
                owner = T.SucE(owner)
                x = x.pred
            args.append(owner)
        elif isinstance(x, Value):
            args.append(quote(x, d, names))
        elif isinstance(x, tuple):
            args.append(tuple(quote(a, d, names) for a in x))
        elif isinstance(x, VDLabel):
            args.append(quote_label(x, d, names))
        else:
            args.append(x)  # a label head
    return f.kind(*args)


# --- conversion ---------------------------------------------------------------


def convertible(a: Value, b: Value, d: int) -> bool:
    """Whether `quote(a, d) == quote(b, d)`, decided on the values themselves.

    The comparison stops at the first mismatch and opens a pair of closures
    only when they differ, under one fresh variable. It ignores exactly what
    term equality ignores (binder names, the `ixty` of `IMu` and `IInduction`,
    the argument types of labels and the entry types of description labels)
    and keeps readback's one eta rule: at index type `Unit`, every index of
    `IMu` reads back as void.
    """
    while a is not b:
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is VIn:
            a, b = a.payload, b.payload
        elif cls is VPair:
            if not convertible(a.fst, b.fst, d):
                return False
            a, b = a.snd, b.snd
        elif cls is VSucE:
            a, b = a.pred, b.pred
        else:
            rule = _CONV_RULES.get(cls)
            if rule is None:
                raise EvalError(f"cannot compare {cls.__name__}")
            return rule(a, b, d)
    return True


def _conv_clo(f, g, d: int) -> bool:
    if f is g or (type(f) is Clo and type(g) is Clo and f.term is g.term and f.env is g.env):
        return True
    x = fresh(d)
    return convertible(f(x), g(x), d + 1)


def _conv_binder(a, b, d: int) -> bool:
    return convertible(a.dom, b.dom, d) and _conv_clo(a.cod, b.cod, d)


def _conv_fields(*names: str):
    def rule(a, b, d: int) -> bool:
        for n in names:
            if not convertible(getattr(a, n), getattr(b, n), d):
                return False
        return True

    return rule


def _conv_all(xs: tuple, ys: tuple, d: int) -> bool:
    return len(xs) == len(ys) and all(convertible(x, y, d) for x, y in zip(xs, ys))


def _conv_imu(a: VIMu, b: VIMu, d: int) -> bool:
    if not convertible(a.fam, b.fam, d):
        return False
    a_unit, b_unit = isinstance(a.ixty, VUnit), isinstance(b.ixty, VUnit)
    if a_unit or b_unit:
        # the index reads back as void on a Unit-indexed side
        return (a_unit or isinstance(a.index, VVoid)) and (b_unit or isinstance(b.index, VVoid))
    return convertible(a.index, b.index, d)


def _conv_label(a: VDLabel, b: VDLabel, d: int) -> bool:
    if a.head != b.head or len(a.entries) != len(b.entries):
        return False
    for x, y in zip(a.entries, b.entries):
        if type(x) is not type(y):
            return False
        if isinstance(x, VLConstraint) and not convertible(x.var, y.var, d):
            return False
        if not convertible(x.tm, y.tm, d):
            return False
    return True


def _conv_neutral(a: VNeutral, b: VNeutral, d: int) -> bool:
    if a.lvl != b.lvl or len(a.spine) != len(b.spine):
        return False
    for x, y in zip(a.spine, b.spine):
        if x is y:
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is FApp:
            if not convertible(x.arg, y.arg, d):
                return False
        elif cls is FGeneric and not _conv_stuck(x, y, d):
            return False
    return True


def _conv_stuck(x: FGeneric, y: FGeneric, d: int) -> bool:
    """Compare two stuck frames whose spine prefixes are compared already."""
    if x.kind is not y.kind or x.owner_at != y.owner_at:
        return False
    for at, (f, g, compared) in enumerate(zip(x.fields, y.fields, _COMPARED[x.kind])):
        if at == x.owner_at:
            # the owner is the spine prefix; only its VSucE wrappers are left
            while isinstance(f, VSucE) and isinstance(g, VSucE):
                f, g = f.pred, g.pred
            if isinstance(f, VSucE) or isinstance(g, VSucE):
                return False
        elif not compared:
            continue
        elif isinstance(f, Value):
            if not convertible(f, g, d):
                return False
        elif isinstance(f, tuple):
            if not _conv_all(f, g, d):
                return False
        elif isinstance(f, VDLabel):
            if not _conv_label(f, g, d):
                return False
        elif f != g:  # label heads
            return False
    return True


def _same(a, b, d: int) -> bool:
    return True


_CONV_RULES = {
    VSet: lambda a, b, d: a.level == b.level,
    VTag: lambda a, b, d: a.name == b.name,
    VPi: _conv_binder,
    VSigma: _conv_binder,
    VLam: lambda a, b, d: _conv_clo(a.body, b.body, d),
    VConsE: _conv_fields("tag", "rest"),
    VEnumT: _conv_fields("enum"),
    VEq: _conv_fields("ty", "lhs", "rhs"),
    VIDesc: _conv_fields("index"),
    VDVarI: _conv_fields("index"),
    VDTimes: _conv_fields("lhs", "rhs"),
    VDPi: _conv_fields("dom", "fam"),
    VDSigma: _conv_fields("dom", "fam"),
    VDSigmaE: _conv_fields("enum", "fam"),
    VMu: _conv_fields("code"),
    VIMu: _conv_imu,
    VLabelTy: lambda a, b, d: a.head == b.head and _conv_all(a.args, b.args, d) and convertible(a.ty, b.ty, d),
    VLRet: _conv_fields("val"),
    VDLabelTy: lambda a, b, d: _conv_label(a.label, b.label, d),
    VDRet: _conv_fields("enum", "fam"),
    VNeutral: _conv_neutral,
}
_CONV_RULES.update(dict.fromkeys((VUnit, VVoid, VUId, VEnumU, VNilE, VZeroE, VRefl, VDesc, VDVar, VDOne), _same))

# which fields of each stuck-elimination term take part in term equality
_COMPARED = {
    kind: tuple(f.compare for f in dataclasses.fields(kind))
    for kind in (
        T.PiE, T.Switch, T.EqElim, T.InterpDesc, T.InterpIDesc, T.AllD, T.IAllD, T.AllMap,
        T.IAllMap, T.Induction, T.IInduction, T.Split, T.DecEqEnum, T.LCall, T.DCall,
    )
}
