"""Semantic values and evaluation.

Terms evaluate into weak-head-normal values with closures for binders;
stuck eliminations form neutral spines headed by a variable. Readback
(`quote`) turns a value back into a beta/iota-normal term.

There is one universe of descriptions, the indexed one (`IDesc I`): a
datatype without indices is a fix-point at index type `Unit`, interpreted by
`vinterp_i` and eliminated by `viinduction` like every other datatype.

`eval_term`, `quote` and `convertible` look their rule up in a table keyed
on the exact class of the node (`_EVAL_RULES`, `_QUOTE_RULES`, `_CONV_RULES`):
one dictionary lookup per node, and a class without an entry is an error.

Two things are computed once instead of per constructor level. A method that
never reads its inductive hypotheses (a term lambda whose body does not
mention its variable, as every `by case` method is) is entered without
building them, so derived case analysis costs no recursion; whether a body
reads its variable is remembered on the body term. And `vapp_ground`
remembers a term closure's value at void or a closed enumeration index on
the closure itself, so a datatype's code and each constructor's code are
evaluated once per family, not once per node.

An elimination is evaluated scrutinee first (`switch`, `split`, `EqElim`'s
proof, a label call's body). Its enumeration, motive or label is evaluated
only when it is stuck, because iota reduction never reads them; values of
well-typed terms are those of the eager rules.
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
class VIDesc(Value):
    index: Value


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
    constructor `kind`: values, tuples of values or a label's head name.
    Field `owner_at` holds the neutral this frame extends, possibly under
    `VSucE` wrappers; readback puts the quoted spine prefix there.
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


def vapp_ground(f: Value, a: Value) -> Value:
    """`vapp(f, a)` where `a` is void or a closed enumeration index.

    The value of a term closure at such an argument depends on nothing else,
    so it is stored on the closure object and lives exactly as long as it.
    """
    if type(f) is VLam and type(f.body) is Clo:
        key = -1 if type(a) is VVoid else numeral_of(a)
        if key is not None:
            memo = f.body.__dict__.setdefault("ground", {})
            got = memo.get(key)
            if got is None:
                got = memo[key] = f.body(a)
            return got
    return vapp(f, a)


def _reads_bound(t: Term) -> bool:
    """Whether the binder body `t` reads its bound variable `Var 0`; the
    answer is stored on the term object (outside its compared fields)."""
    got = t.__dict__.get("reads_bound")
    if got is None:
        got = t.__dict__["reads_bound"] = T.occurs(t, 0)
    return got


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
        return VSigma("c", VEnumT(code.enum), PyClo(lambda c: vinterp_i(vapp_ground(fam, c), xx)))
    if isinstance(code, VNeutral):
        return _stuck(code, T.InterpIDesc, (code, x), 0)
    raise EvalError(f"indexed interp of non-code {type(code).__name__}")


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
        return viall(vapp_ground(code.fam, vfst(d)), x, p, vsnd(d))
    if isinstance(code, VNeutral):
        return _stuck(code, T.IAllD, (code, x, p, d), 0)
    raise EvalError(f"IAll over non-code {type(code).__name__}")


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
        return viallmap(vapp_ground(code.fam, vfst(d)), x, p, rec, vsnd(d))
    if isinstance(code, VNeutral):
        return _stuck(code, T.IAllMap, (code, x, p, rec, d), 0)
    raise EvalError(f"indexed all-map over non-code {type(code).__name__}")


def imu_family(ixty: Value, fam: Value) -> Value:
    """The family `\\j. IMu ixty fam j` that the recursive positions of the
    codes of `fam` interpret to."""
    return VLam("j", PyClo(lambda j: VIMu(ixty, fam, j)))


def viinduction(ixty: Value, fam: Value, p: Value, m: Value, i: Value, x: Value) -> Value:
    if isinstance(x, VIn):
        step = vapps(m, i, x.payload)
        if type(step) is VLam and type(step.body) is Clo and not _reads_bound(step.body.term):
            # a case analysis: void stands in for the hypotheses the body never reads
            return step.body(VVoid())
        rec = VLam(
            "i",
            PyClo(lambda i2: VLam("x", PyClo(lambda v: viinduction(ixty, fam, p, m, i2, v)))),
        )
        hyp = viallmap(vapp_ground(fam, i), imu_family(ixty, fam), p, rec, x.payload)
        return vapp(step, hyp)
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


# --- enumeration indices -----------------------------------------------------


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


# --- evaluation ---------------------------------------------------------------


def eval_term(t: Term, env: tuple) -> Value:
    rule = _EVAL_RULES.get(type(t))
    if rule is None:
        raise EvalError(f"cannot evaluate {type(t).__name__}")
    return rule(t, env)


def _eval_switch(t: T.Switch, env: tuple) -> Value:
    scrut = eval_term(t.scrut, env)
    cases = eval_term(t.cases, env)
    k = numeral_of(scrut)
    if k is None:
        return vswitch(eval_term(t.enum, env), eval_term(t.fam, env), cases, scrut)
    for _ in range(k):
        cases = vsnd(cases)
    return vfst(cases)


def _eval_split(t: T.Split, env: tuple) -> Value:
    scrut = eval_term(t.scrut, env)
    if type(scrut) is VPair:
        return vapps(eval_term(t.method, env), scrut.fst, scrut.snd)
    return vsplit(eval_term(t.motive, env), eval_term(t.method, env), scrut)


def _eval_eqelim(t: T.EqElim, env: tuple) -> Value:
    proof = eval_term(t.proof, env)
    if type(proof) is VRefl:
        return eval_term(t.base, env)
    return veqelim(eval_term(t.motive, env), eval_term(t.base, env), proof)


def _eval_lcall(t: T.LCall, env: tuple) -> Value:
    body = eval_term(t.body, env)
    if type(body) is VLRet:
        return body.val
    return vlcall(
        t.head, tuple(eval_term(a, env) for a in t.args), tuple(eval_term(a, env) for a in t.argtys),
        eval_term(t.ty, env), body,
    )


# keyed on the exact class: a subclass of a term class needs its own rule
_EVAL_RULES = {
    T.Var: lambda t, env: env[len(env) - 1 - t.ix],
    T.Set_: lambda t, env: VSet(t.level),
    T.Pi: lambda t, env: VPi(t.nm, eval_term(t.dom, env), Clo(env, t.cod)),
    T.Lam: lambda t, env: VLam(t.nm, Clo(env, t.body)),
    T.App: lambda t, env: vapp(eval_term(t.fn, env), eval_term(t.arg, env)),
    T.Sigma: lambda t, env: VSigma(t.nm, eval_term(t.dom, env), Clo(env, t.cod)),
    T.Pair: lambda t, env: VPair(eval_term(t.fst, env), eval_term(t.snd, env)),
    T.Fst: lambda t, env: vfst(eval_term(t.pair, env)),
    T.Snd: lambda t, env: vsnd(eval_term(t.pair, env)),
    T.Unit: lambda t, env: VUnit(),
    T.Void: lambda t, env: VVoid(),
    T.UId: lambda t, env: VUId(),
    T.Tag: lambda t, env: VTag(t.name),
    T.EnumU: lambda t, env: VEnumU(),
    T.NilE: lambda t, env: VNilE(),
    T.ConsE: lambda t, env: VConsE(eval_term(t.tag, env), eval_term(t.rest, env)),
    T.EnumT: lambda t, env: VEnumT(eval_term(t.enum, env)),
    T.ZeroE: lambda t, env: VZeroE(),
    T.SucE: lambda t, env: VSucE(eval_term(t.pred, env)),
    T.PiE: lambda t, env: vpie(eval_term(t.enum, env), eval_term(t.fam, env)),
    T.Switch: _eval_switch,
    T.Eq: lambda t, env: VEq(eval_term(t.ty, env), eval_term(t.lhs, env), eval_term(t.rhs, env)),
    T.Refl: lambda t, env: VRefl(),
    T.EqElim: _eval_eqelim,
    T.IDesc: lambda t, env: VIDesc(eval_term(t.index, env)),
    T.DVarI: lambda t, env: VDVarI(eval_term(t.index, env)),
    T.DOne: lambda t, env: VDOne(),
    T.DTimes: lambda t, env: VDTimes(eval_term(t.lhs, env), eval_term(t.rhs, env)),
    T.DPi: lambda t, env: VDPi(eval_term(t.dom, env), eval_term(t.fam, env)),
    T.DSigma: lambda t, env: VDSigma(eval_term(t.dom, env), eval_term(t.fam, env)),
    T.DSigmaE: lambda t, env: VDSigmaE(eval_term(t.enum, env), eval_term(t.fam, env)),
    T.InterpIDesc: lambda t, env: vinterp_i(eval_term(t.code, env), eval_term(t.arg, env)),
    T.IAllD: lambda t, env: viall(
        eval_term(t.code, env), eval_term(t.fam, env), eval_term(t.motive, env), eval_term(t.payload, env)
    ),
    T.IAllMap: lambda t, env: viallmap(
        eval_term(t.code, env), eval_term(t.fam, env), eval_term(t.motive, env), eval_term(t.rec, env),
        eval_term(t.payload, env),
    ),
    T.IMu: lambda t, env: VIMu(eval_term(t.ixty, env), eval_term(t.fam, env), eval_term(t.index, env)),
    T.In: lambda t, env: VIn(eval_term(t.payload, env)),
    T.IInduction: lambda t, env: viinduction(
        eval_term(t.ixty, env), eval_term(t.fam, env), eval_term(t.motive, env),
        eval_term(t.method, env), eval_term(t.index, env), eval_term(t.scrut, env),
    ),
    T.Split: _eval_split,
    T.LabelTy: lambda t, env: VLabelTy(
        t.head, tuple(eval_term(a, env) for a in t.args), tuple(eval_term(a, env) for a in t.argtys),
        eval_term(t.ty, env),
    ),
    T.LRet: lambda t, env: VLRet(eval_term(t.val, env)),
    T.LCall: _eval_lcall,
}


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


def quote(v: Value, d: int, names: Optional[dict] = None) -> Term:
    """Read `v` back as a term at depth `d`.

    With a table from `name_definition`, a datatype or enumeration whose
    family or enumeration is the very object of a definition at a level below
    `d` reads back as that definition's variable, and evaluating the variable
    gives a value with the same readback. Without one, definitions are
    unfolded: the normal form."""
    rule = _QUOTE_RULES.get(type(v))
    if rule is None:
        raise EvalError(f"cannot quote {type(v).__name__}")
    return rule(v, d, names)


def _quote_enumt(v: VEnumT, d: int, names: Optional[dict]) -> Term:
    if names and (var := _definition_var(names, v.enum, d)):
        return var
    return T.EnumT(quote(v.enum, d, names))


def _quote_imu(v: VIMu, d: int, names: Optional[dict]) -> Term:
    unit = isinstance(v.ixty, VUnit)
    if names and unit and (var := _definition_var(names, v.fam, d)):
        return var
    # eta for the degenerate index: anything at Unit reads back as void
    iq = T.Void() if unit else quote(v.index, d, names)
    return T.IMu(quote(v.ixty, d, names), quote(v.fam, d, names), iq)


def _quote_neutral(v: VNeutral, d: int, names: Optional[dict]) -> Term:
    t: Term = T.Var(d - 1 - v.lvl)
    for f in v.spine:
        if isinstance(f, FApp):
            t = T.App(t, quote(f.arg, d, names))
        elif isinstance(f, FFst):
            t = T.Fst(t)
        elif isinstance(f, FSnd):
            t = T.Snd(t)
        else:
            t = _quote_stuck(f, t, d, names)
    return t


# keyed on the exact class, as `_EVAL_RULES` is
_QUOTE_RULES = {
    VSet: lambda v, d, names: T.Set_(v.level),
    VPi: lambda v, d, names: T.Pi(v.nm, quote(v.dom, d, names), quote(v.cod(fresh(d)), d + 1, names)),
    VLam: lambda v, d, names: T.Lam(v.nm, None, quote(v.body(fresh(d)), d + 1, names)),
    VSigma: lambda v, d, names: T.Sigma(v.nm, quote(v.dom, d, names), quote(v.cod(fresh(d)), d + 1, names)),
    VPair: lambda v, d, names: T.Pair(quote(v.fst, d, names), quote(v.snd, d, names)),
    VUnit: lambda v, d, names: T.Unit(),
    VVoid: lambda v, d, names: T.Void(),
    VUId: lambda v, d, names: T.UId(),
    VTag: lambda v, d, names: T.Tag(v.name),
    VEnumU: lambda v, d, names: T.EnumU(),
    VNilE: lambda v, d, names: T.NilE(),
    VConsE: lambda v, d, names: T.ConsE(quote(v.tag, d, names), quote(v.rest, d, names)),
    VEnumT: _quote_enumt,
    VZeroE: lambda v, d, names: T.ZeroE(),
    VSucE: lambda v, d, names: T.SucE(quote(v.pred, d, names)),
    VEq: lambda v, d, names: T.Eq(quote(v.ty, d, names), quote(v.lhs, d, names), quote(v.rhs, d, names)),
    VRefl: lambda v, d, names: T.Refl(),
    VIDesc: lambda v, d, names: T.IDesc(quote(v.index, d, names)),
    VDVarI: lambda v, d, names: T.DVarI(quote(v.index, d, names)),
    VDOne: lambda v, d, names: T.DOne(),
    VDTimes: lambda v, d, names: T.DTimes(quote(v.lhs, d, names), quote(v.rhs, d, names)),
    VDPi: lambda v, d, names: T.DPi(quote(v.dom, d, names), quote(v.fam, d, names)),
    VDSigma: lambda v, d, names: T.DSigma(quote(v.dom, d, names), quote(v.fam, d, names)),
    VDSigmaE: lambda v, d, names: T.DSigmaE(quote(v.enum, d, names), quote(v.fam, d, names)),
    VIMu: _quote_imu,
    VIn: lambda v, d, names: T.In(quote(v.payload, d, names)),
    VLabelTy: lambda v, d, names: T.LabelTy(
        v.head, tuple(quote(a, d, names) for a in v.args), tuple(quote(a, d, names) for a in v.argtys),
        quote(v.ty, d, names),
    ),
    VLRet: lambda v, d, names: T.LRet(quote(v.val, d, names)),
    VNeutral: _quote_neutral,
}


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
        else:
            args.append(x)  # a label head
    return f.kind(*args)


# --- conversion ---------------------------------------------------------------


def convertible(a: Value, b: Value, d: int) -> bool:
    """Whether `quote(a, d) == quote(b, d)`, decided on the values themselves.

    The comparison stops at the first mismatch and opens a pair of closures
    only when they differ, under one fresh variable. It ignores exactly what
    term equality ignores (binder names, the `ixty` of `IMu` and `IInduction`
    and the argument types of labels, description labels included) and keeps
    readback's one eta rule: at index type `Unit`, every index of `IMu` reads
    back as void.
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
    VIMu: _conv_imu,
    VLabelTy: lambda a, b, d: a.head == b.head and _conv_all(a.args, b.args, d) and convertible(a.ty, b.ty, d),
    VLRet: _conv_fields("val"),
    VNeutral: _conv_neutral,
}
_CONV_RULES.update(dict.fromkeys((VUnit, VVoid, VUId, VEnumU, VNilE, VZeroE, VRefl, VDOne), _same))

# which fields of each stuck-elimination term take part in term equality
_COMPARED = {
    kind: tuple(f.compare for f in dataclasses.fields(kind))
    for kind in (T.PiE, T.Switch, T.EqElim, T.InterpIDesc, T.IAllD, T.IAllMap, T.IInduction, T.Split, T.LCall)
}
