"""Semantic values and evaluation.

Terms evaluate into weak-head-normal values with closures for binders. A
neutral is a variable (`VVar`) or an elimination stuck on a neutral
(`VStuck`), kept as its term class and fields. Readback (`quote`) turns a
value back into a beta/iota-normal term.

There is one universe of descriptions, the indexed one (`IDesc I`): a
datatype without indices is a fix-point at index type `Unit`, interpreted by
`vinterp_i` and eliminated by `viinduction` like every other datatype.

`eval_term`, `quote` and `convertible` look their rule up in a table keyed
on the exact class of the node (`_EVAL_RULES`, `_QUOTE_RULES`, `_CONV_RULES`):
one dictionary lookup per node, and a class without an entry is an error.

Three things are computed once instead of per constructor level. A method
that never reads its inductive hypotheses (a term lambda whose body does not
mention its variable, as every `by case` method is) is entered without
building them, so derived case analysis costs no recursion; whether a body
reads its variable is remembered on the body term. `vapp_ground` remembers
a term closure's value at void or a closed enumeration index on the closure
itself, so a datatype's code and each constructor's code are evaluated once
per family, not once per node; `payload_type` remembers the type of a
constructor's payload there too, and the codomain of a `'sigma` code's
interpretation remembers it for each closed tag.

A datatype's code is shared, not copied: a declared datatype's family
closure holds its normal form, and an eliminator over it puts that very
term in its family. Two closures over one term that reads no variable but
its own binder are equal without being opened (`_conv_clo`); whether a term
reads an outer variable is remembered on it as well.

Induction builds its hypotheses eagerly on an explicit stack: `viallmap`
walks a payload's code in a loop and runs the induction at each recursive
position on the same stack, so the depth of the data costs no Python stack.

Only the branch that is taken is evaluated: a `switch` on a known index
whose cases are a written tuple evaluates the chosen case alone, and a
`split` of a pair whose method is two written lambdas binds the components
in the environment of the inner body without building closures.

An elimination is evaluated scrutinee first (`switch`, `split`, `EqElim`'s
proof, a label call's body). Its enumeration, motive or label is evaluated
only when it is stuck, because iota reduction never reads them; values of
well-typed terms are those of the eager rules.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional

from . import terms as T
from .record import Record, field
from .terms import Term

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class EvalError(Exception):
    """Internal evaluator invariant violation (ill-typed input)."""


class Value(Record):
    pass


class Clo(Record):
    """Defunctionalized closure: a term body in its environment. The
    builtin iota rules close over values with plain Python functions."""

    __slots__ = ("ground", "payloads")  # the memos of `vapp_ground` and `payload_type`

    env: tuple
    term: Term

    def __call__(self, v: Value) -> Value:
        return eval_term(self.term, self.env + (v,))


class VSet(Value):
    level: int


class VPi(Value):
    nm: str
    dom: Value
    cod: object  # closure


class VLam(Value):
    nm: str
    body: object  # closure


class VSigma(Value):
    nm: str
    dom: Value
    cod: object


class VPair(Value):
    fst: Value
    snd: Value


class VUnit(Value):
    pass


class VVoid(Value):
    pass


class VUId(Value):
    pass


class VTag(Value):
    name: str


class VEnumU(Value):
    pass


class VNilE(Value):
    pass


class VConsE(Value):
    tag: Value
    rest: Value


class VEnumT(Value):
    enum: Value


class VIdxE(Value):
    k: int


class VEq(Value):
    ty: Value
    lhs: Value
    rhs: Value


class VRefl(Value):
    pass


class VIDesc(Value):
    index: Value


class VDVarI(Value):
    index: Value


class VDOne(Value):
    pass


class VDTimes(Value):
    lhs: Value
    rhs: Value


class VDPi(Value):
    dom: Value
    fam: Value


class VDSigma(Value):
    dom: Value
    fam: Value


class VDSigmaE(Value):
    enum: Value
    fam: Value


class VIMu(Value):
    ixty: Value = field(compare=False)
    fam: Value
    index: Value


class VIn(Value):
    payload: Value


class VLabelTy(Value):
    head: str
    args: tuple
    argtys: tuple = field(compare=False)
    ty: Value


class VLRet(Value):
    val: Value


# --- neutrals ----------------------------------------------------------------


class VNeutral(Value):
    """A variable, or an elimination stuck on a neutral."""


class VVar(VNeutral):
    lvl: int


class VStuck(VNeutral):
    """The stuck elimination `kind(*fields)`: `kind` is `T.App`, `T.Fst`,
    `T.Snd` or a builtin eliminator, and `fields` are its arguments in the
    order of that term class (values, tuples of values or a label's head).
    The neutral it is stuck on is one of them."""

    kind: type
    fields: tuple


# eliminations stuck on their first field, which readback and conversion loop through
_CHAINED = (T.App, T.Fst, T.Snd)


fresh = VVar  # the variable at a level


# --- elimination helpers ------------------------------------------------------


def vapp(f: Value, a: Value) -> Value:
    if isinstance(f, VLam):
        return f.body(a)
    if isinstance(f, VNeutral):
        return VStuck(T.App, (f, a))
    raise EvalError(f"cannot apply {type(f).__name__}")


def _ground_key(f: Value, a: Value) -> Optional[int]:
    """The key under which a term closure `f` remembers its value at `a`:
    -1 for void, k for the closed enumeration index k, None otherwise."""
    if type(f) is VLam and type(f.body) is Clo:
        return -1 if type(a) is VVoid else numeral_of(a)
    return None


def _memo(clo: Clo, slot: str) -> dict:
    """The memo dictionary in `slot` of `clo`, made on first use."""
    try:
        return getattr(clo, slot)
    except AttributeError:
        memo = {}
        object.__setattr__(clo, slot, memo)
        return memo


def vapp_ground(f: Value, a: Value) -> Value:
    """`vapp(f, a)` where `a` is void or a closed enumeration index.

    The value of a term closure at such an argument depends on nothing else,
    so it is stored on the closure object and lives exactly as long as it.
    """
    key = _ground_key(f, a)
    if key is None:
        return vapp(f, a)
    memo = _memo(f.body, "ground")
    got = memo.get(key)
    if got is None:
        got = memo[key] = f.body(a)
    return got


def payload_type(ixty: Value, fam: Value, index: Value) -> Value:
    """The type of the payload of a constructor of `IMu ixty fam index`: the
    code at `index` interpreted at the family `\\j. IMu ixty fam j`. At void
    or a closed enumeration index it is stored on the family closure, as
    `vapp_ground` stores the code."""
    key = _ground_key(fam, index)
    if key is None:
        return vinterp_i(vapp(fam, index), imu_family(ixty, fam))
    memo = _memo(fam.body, "payloads")
    got = memo.get(key)
    if got is None:
        got = memo[key] = vinterp_i(vapp_ground(fam, index), imu_family(ixty, fam))
    return got


def _reads_bound(t: Term) -> bool:
    """Whether the binder body `t` reads its bound variable `Var 0`; the
    answer is stored on the term object (outside its compared fields)."""
    try:
        return t.reads_bound
    except AttributeError:
        got = T.occurs(t, 0)
        object.__setattr__(t, "reads_bound", got)
        return got


def reads_arg(cod) -> bool:
    """Whether the codomain `cod` of a Pi type may read its argument: a term
    closure does when its body reads its variable (`_reads_bound`), a
    host-level function may always. A caller that finds it does not may
    instantiate `cod` at None, which nothing then reads."""
    return type(cod) is not Clo or _reads_bound(cod.term)


def own_binder_only(clo: Clo) -> bool:
    """Whether the term of `clo` reads no variable but its own binder, so
    that its values do not depend on the environment; the answer is stored
    on the term object, as `_reads_bound`'s is."""
    t = clo.term
    try:
        return not t.reads_outer
    except AttributeError:
        got = T.occurs(t, 1, math.inf)
        object.__setattr__(t, "reads_outer", got)
        return not got


def closed_family(fam: Value) -> bool:
    """Whether the family `fam` is a lambda that reads only its own binder."""
    return type(fam) is VLam and type(fam.body) is Clo and own_binder_only(fam.body)


def vapps(f: Value, *args: Value) -> Value:
    for a in args:
        f = vapp(f, a)
    return f


def vfst(p: Value) -> Value:
    if isinstance(p, VPair):
        return p.fst
    if isinstance(p, VNeutral):
        return VStuck(T.Fst, (p,))
    raise EvalError(f"cannot project {type(p).__name__}")


def vsnd(p: Value) -> Value:
    if isinstance(p, VPair):
        return p.snd
    if isinstance(p, VNeutral):
        return VStuck(T.Snd, (p,))
    raise EvalError(f"cannot project {type(p).__name__}")


def vswitch(enum: Value, fam: Value, cases: Value, scrut: Value) -> Value:
    """The k-th component of `cases` at the index `#k`, else stuck on the
    neutral `scrut`."""
    if isinstance(scrut, VIdxE):
        for _ in range(scrut.k):
            cases = vsnd(cases)
        return vfst(cases)
    if isinstance(scrut, VNeutral):
        return VStuck(T.Switch, (enum, fam, cases, scrut))
    raise EvalError("switch stuck on non-neutral scrutinee")


def vpie(enum: Value, fam: Value, j: int = 0) -> Value:
    """The type of the cases of a switch over the closed enumeration `enum`
    from its tag `j` on: one component per tag, at `fam` of its index. No
    enumeration is neutral, because no idt program can declare a variable
    of type `EnumU`."""
    if isinstance(enum, VNilE):
        return VUnit()
    if isinstance(enum, VConsE):
        rest = enum.rest
        return VSigma("_", vapp(fam, VIdxE(j)), lambda _v: vpie(rest, fam, j + 1))
    raise EvalError("pi-enum on non-enumeration")


def vinterp_i(code: Value, x: Value) -> Value:
    if isinstance(code, VDVarI):
        return vapp(x, code.index)
    if isinstance(code, VDOne):
        return VUnit()
    if isinstance(code, VDTimes):
        left = vinterp_i(code.lhs, x)
        rhs, xx = code.rhs, x
        return VSigma("_", left, lambda _v: vinterp_i(rhs, xx))
    if isinstance(code, VDPi):
        fam, xx = code.fam, x
        return VPi("s", code.dom, lambda s: vinterp_i(vapp(fam, s), xx))
    if isinstance(code, VDSigma):
        fam, xx = code.fam, x
        return VSigma("s", code.dom, lambda s: vinterp_i(vapp(fam, s), xx))
    if isinstance(code, VDSigmaE):
        return VSigma("c", VEnumT(code.enum), _tag_codomain(code.fam, x))
    if isinstance(code, VNeutral):
        return VStuck(T.InterpIDesc, (code, x))
    raise EvalError(f"indexed interp of non-code {type(code).__name__}")


def _tag_codomain(fam: Value, x: Value) -> Callable[[Value], Value]:
    """The codomain of a `'sigma` code's interpretation: the payload type of
    the constructor at each tag, remembered for each closed tag."""
    memo: dict = {}

    def cod(c: Value) -> Value:
        k = numeral_of(c)
        if k is None:
            return vinterp_i(vapp_ground(fam, c), x)
        got = memo.get(k)
        if got is None:
            got = memo[k] = vinterp_i(vapp_ground(fam, c), x)
        return got

    return cod


def viall(code: Value, x: Value, p: Value, d: Value) -> Value:
    if isinstance(code, VDVarI):
        return vapp(p, VPair(code.index, d))
    if isinstance(code, VDOne):
        return VUnit()
    if isinstance(code, VDTimes):
        left = viall(code.lhs, x, p, vfst(d))
        rhs, rest = code.rhs, vsnd(d)
        return VSigma("_", left, lambda _v, xx=x, pp=p: viall(rhs, xx, pp, rest))
    if isinstance(code, VDPi):
        fam, xx, pp, dd = code.fam, x, p, d
        return VPi("s", code.dom, lambda s: viall(vapp(fam, s), xx, pp, vapp(dd, s)))
    if isinstance(code, (VDSigma, VDSigmaE)):
        return viall(vapp_ground(code.fam, vfst(d)), x, p, vsnd(d))
    if isinstance(code, VNeutral):
        return VStuck(T.IAllD, (code, x, p, d))
    raise EvalError(f"IAll over non-code {type(code).__name__}")


def viallmap(code: Value, x: Value, p: Value, rec: Value, d: Value) -> Value:
    """The hypotheses `rec` gives the recursive positions of the payload `d`
    of code `code`, walked on an explicit stack. When `rec` is an
    induction's own (`_Induction`), the induction at a recursive position
    that holds a constructor runs on that stack too: its method is entered,
    its payload's hypotheses are walked, and the method is applied to them,
    so that evaluation through `'varI` positions costs no Python stack. A
    `'Pi` position's hypotheses stay a function, built pointwise when it
    is applied."""
    ind = rec.body if type(rec) is VLam and type(rec.body) is _Induction else None
    stack: list = []  # frames awaiting a value, innermost last: (kind, a, b)
    while True:
        if isinstance(code, VDVarI):
            if ind is not None and type(d) is VIn:
                v, step = _enter(ind.m, code.index, d.payload)
                if step is not None:
                    stack.append((_APPLY, step, None))
                    code, d = vapp_ground(ind.fam, code.index), d.payload
                    continue
            else:
                v = vapp(vapp(rec, code.index), d)
        elif isinstance(code, VDOne):
            v = VVoid()
        elif isinstance(code, VDTimes):
            stack.append((_RIGHT, code.rhs, vsnd(d)))
            code, d = code.lhs, vfst(d)
            continue
        elif isinstance(code, VDPi):
            v = _pointwise(code.fam, x, p, rec, d)
        elif isinstance(code, (VDSigma, VDSigmaE)):
            code, d = vapp_ground(code.fam, vfst(d)), vsnd(d)
            continue
        elif isinstance(code, VNeutral):
            v = VStuck(T.IAllMap, (code, x, p, rec, d))
        else:
            raise EvalError(f"indexed all-map over non-code {type(code).__name__}")
        # hand `v` to the frames that await it, up to one with a walk left
        while stack:
            kind, a, b = stack.pop()
            if kind is _RIGHT:
                stack.append((_PAIR, v, None))
                code, d = a, b
                break
            v = VPair(a, v) if kind is _PAIR else a(v)
        else:
            return v


# what a frame of `viallmap` does with the value it awaits: walk the right
# component of a product (whose payload it holds) after the left, pair the
# left's value with the right's, or apply an entered method to its hypotheses
_RIGHT, _PAIR, _APPLY = "right", "pair", "apply"


def _pointwise(fam: Value, x: Value, p: Value, rec: Value, d: Value) -> Value:
    """The hypotheses of a `'Pi` position of family `fam` holding the
    function `d`: at each argument, those of `d` there."""
    return VLam("s", lambda s: viallmap(vapp(fam, s), x, p, rec, vapp(d, s)))


def imu_family(ixty: Value, fam: Value) -> Value:
    """The family `\\j. IMu ixty fam j` that the recursive positions of the
    codes of `fam` interpret to."""
    return VLam("j", lambda j: VIMu(ixty, fam, j))


class _Induction:
    """The body of an induction's hypotheses function `\\i. \\x. iinduction
    ixty fam p m i x`, which `viallmap` recognises."""

    __slots__ = ("ixty", "fam", "p", "m")

    def __init__(self, ixty: Value, fam: Value, p: Value, m: Value):
        self.ixty, self.fam, self.p, self.m = ixty, fam, p, m

    def __call__(self, i: Value) -> Value:
        return VLam("x", lambda v: viinduction(self.ixty, self.fam, self.p, self.m, i, v))


def _enter(m: Value, i: Value, payload: Value) -> tuple:
    """The method `m` at the index `i` and `payload`: (its value, None) when
    it reads no hypotheses, else (None, the function that awaits them).

    A written `\\i. \\xs. \\h. body` takes `i` and the payload straight into
    the environment of `body`. A body that does not read `h` is a case
    analysis: void stands in for the hypotheses, which are never built."""
    if type(m) is VLam and type(m.body) is Clo:
        t = m.body.term
        if type(t) is T.Lam and type(t.body) is T.Lam:
            step = Clo(m.body.env + (i, payload), t.body.body)
            return (None, step) if _reads_bound(step.term) else (step(VVoid()), None)
    step = vapps(m, i, payload)
    if type(step) is VLam:
        if type(step.body) is Clo and not _reads_bound(step.body.term):
            return step.body(VVoid()), None
        return None, step.body
    return None, lambda h: vapp(step, h)


def viinduction(ixty: Value, fam: Value, p: Value, m: Value, i: Value, x: Value) -> Value:
    """Induction over `x`: the method at its constructor, applied to the
    hypotheses of its payload, which `viallmap` builds first, left to right
    through the recursive positions."""
    if isinstance(x, VIn):
        v, step = _enter(m, i, x.payload)
        if step is None:
            return v
        rec = VLam("i", _Induction(ixty, fam, p, m))
        return step(viallmap(vapp_ground(fam, i), imu_family(ixty, fam), p, rec, x.payload))
    if isinstance(x, VNeutral):
        return VStuck(T.IInduction, (ixty, fam, p, m, i, x))
    raise EvalError("indexed induction on non-canonical scrutinee")


def vsplit(p: Value, m: Value, scrut: Value) -> Value:
    if isinstance(scrut, VPair):
        return vapps(m, scrut.fst, scrut.snd)
    if isinstance(scrut, VNeutral):
        return VStuck(T.Split, (p, m, scrut))
    raise EvalError("split on non-pair")


def veqelim(motive: Value, base: Value, proof: Value) -> Value:
    if isinstance(proof, VRefl):
        return base
    if isinstance(proof, VNeutral):
        return VStuck(T.EqElim, (motive, base, proof))
    raise EvalError("eq-elim on non-proof")


def vlcall(head: str, args: tuple, argtys: tuple, ty: Value, body: Value) -> Value:
    if isinstance(body, VLRet):
        return body.val
    if isinstance(body, VNeutral):
        return VStuck(T.LCall, (head, args, argtys, ty, body))
    raise EvalError("call on non-return")


# --- enumeration indices -----------------------------------------------------


def numeral_of(v: Value) -> Optional[int]:
    return v.k if type(v) is VIdxE else None


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
    """At the index k, only the k-th case of a written tuple is evaluated."""
    scrut = eval_term(t.scrut, env)
    k = numeral_of(scrut)
    if k is None:
        cases = eval_term(t.cases, env)
        return vswitch(eval_term(t.enum, env), eval_term(t.fam, env), cases, scrut)
    cases = t.cases
    while k and type(cases) is T.Pair:
        cases, k = cases.snd, k - 1
    if type(cases) is T.Pair:
        return eval_term(cases.fst, env)
    cases = eval_term(cases, env)
    for _ in range(k):
        cases = vsnd(cases)
    return vfst(cases)


def _eval_split(t: T.Split, env: tuple) -> Value:
    """A method of two written lambdas takes the pair's components straight
    into its body's environment."""
    scrut = eval_term(t.scrut, env)
    if type(scrut) is VPair:
        m = t.method
        if type(m) is T.Lam and type(m.body) is T.Lam:
            return eval_term(m.body.body, env + (scrut.fst, scrut.snd))
        return vapps(eval_term(m, env), scrut.fst, scrut.snd)
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
    T.Ann: lambda t, env: eval_term(t.term, env),
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
    T.IdxE: lambda t, env: VIdxE(t.k),
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


def name_definition(names: dict, ty: Value, val: Value, env: tuple) -> dict:
    """The `quote` table `names` with the definition `val : ty`, made in
    `env`, added if readback can recognise it; else `names`. Its type must
    be a telescope ending in `Set 0`. Without arguments, a datatype at index
    type `Unit` or an enumeration is keyed by its family or enumeration
    object. With `n` arguments, what a `data` declaration builds is keyed by
    its family closure's term: applied to fresh variables, it is a fix-point
    whose family closes over exactly `env` and them, at the pair of the last
    `m` of them. An entry is (key, level, parameters `n - m`, indices `m`)."""
    lvl, xs = len(env), ()
    while type(ty) is VPi:
        xs += (fresh(lvl + len(xs)),)
        ty = ty.cod(xs[-1])
    if not (type(ty) is VSet and ty.level == 0):
        return names
    if not xs:
        if isinstance(val, VIMu) and isinstance(val.ixty, VUnit):
            key = val.fam
        elif isinstance(val, VEnumT):
            key = val.enum
        else:
            return names
        return {**names, id(key): (key, lvl, 0, 0)}
    val = vapps(val, *xs)
    if not (type(val) is VIMu and type(val.fam) is VLam and type(val.fam.body) is Clo):
        return names
    fenv, m, index = val.fam.body.env, 0, val.index
    if len(fenv) != lvl + len(xs) or any(a is not b for a, b in zip(fenv, env + xs)):
        return names
    while type(index) is VPair:
        index, m = index.fst, m + 1
    key = val.fam.body.term
    return {**names, id(key): (key, lvl, len(xs) - m, m)}


def _definition_var(names: dict, key: object, d: int) -> Optional[Term]:
    """The variable at depth `d` of the definition `names` holds for `key`."""
    hit = names.get(id(key))
    if hit is not None and hit[0] is key and hit[1] < d:
        return T.Var(d - 1 - hit[1])
    return None


def _named_instance(v: VIMu, d: int, names: dict) -> Optional[Term]:
    """`D ps is` for a fix-point whose family closure is that of the datatype
    definition `D`: the parameters come from the closure's environment, the
    indices from the components of `v.index` (a recursive position shares
    the family of the instance it sits in). None when the index is not a
    pair of the definition's number of indices."""
    clo = v.fam.body if type(v.fam) is VLam else None
    if type(clo) is not Clo or (var := _definition_var(names, clo.term, d)) is None:
        return None
    _, lvl, k, m = names[id(clo.term)]
    index, ixs = v.index, ()
    for _ in range(m):
        if type(index) is not VPair:
            return None
        index, ixs = index.fst, (index.snd,) + ixs
    for a in clo.env[lvl : lvl + k] + ixs:
        var = T.App(var, quote(a, d, names))
    return var


def quote(v: Value, d: int, names: Optional[dict] = None) -> Term:
    """Read `v` back as a term at depth `d`.

    With a table from `name_definition`, a datatype or enumeration whose
    family or enumeration is the very object of a definition at a level below
    `d` reads back as that definition's variable, and an instance of a
    datatype definition as `D ps is`; evaluating the result gives a value
    with the same readback. Without a table, definitions are unfolded: the
    normal form."""
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
    if names:
        var = (_definition_var(names, v.fam, d) if unit else None) or _named_instance(v, d, names)
        if var is not None:
            return var
    # eta for the degenerate index: anything at Unit reads back as void
    iq = T.Void() if unit else quote(v.index, d, names)
    return T.IMu(quote(v.ixty, d, names), quote(v.fam, d, names), iq)


def _quote_stuck(v: VStuck, d: int, names: Optional[dict]) -> Term:
    """`kind(*quoted fields)`. A chain of applications and projections is
    read back in a loop from its head, so its length costs no stack."""
    if v.kind not in _CHAINED:
        return v.kind(*(_quote_field(x, d, names) for x in v.fields))
    outer = []
    while type(v) is VStuck and v.kind in _CHAINED:
        outer.append(v)
        v = v.fields[0]
    t = quote(v, d, names)
    for e in reversed(outer):
        t = e.kind(t, *(quote(x, d, names) for x in e.fields[1:]))
    return t


def _quote_field(x, d: int, names: Optional[dict]):
    if isinstance(x, tuple):
        return tuple(quote(a, d, names) for a in x)
    return quote(x, d, names) if isinstance(x, Value) else x  # else a label head


# keyed on the exact class, as `_EVAL_RULES` is
_QUOTE_RULES = {
    VSet: lambda v, d, names: T.Set_(v.level),
    VPi: lambda v, d, names: T.Pi(v.nm, quote(v.dom, d, names), quote(v.cod(fresh(d)), d + 1, names)),
    VLam: lambda v, d, names: T.Lam(v.nm, quote(v.body(fresh(d)), d + 1, names)),
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
    VIdxE: lambda v, d, names: T.IdxE(v.k),
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
    VVar: lambda v, d, names: T.Var(d - 1 - v.lvl),
    VStuck: _quote_stuck,
}


# --- conversion ---------------------------------------------------------------


def convertible(a: Value, b: Value, d: int) -> bool:
    """Whether `quote(a, d) == quote(b, d)`, decided on the values themselves.

    The comparison stops at the first mismatch and opens a pair of closures
    only when they differ, under one fresh variable. It ignores exactly what
    term equality ignores (binder names, the `ixty` of `IMu` and `IInduction`
    and the argument types of labels, description labels included) and keeps
    readback's one eta rule: at index type `Unit`, every index of `IMu` reads
    back as void. The second components of pairs wait on a list while the
    first ones (`suc`'s recursive argument) are compared, so that depth costs
    no Python stack.
    """
    pending = None  # made at the first pair: most calls meet none
    while True:
        while a is not b:
            cls = type(a)
            if cls is not type(b):
                return False
            if cls is VIn:
                a, b = a.payload, b.payload
            elif cls is VPair:
                if pending is None:
                    pending = []
                pending.append((a.snd, b.snd))
                a, b = a.fst, b.fst
            elif cls is VStuck and a.kind in _CHAINED:
                if not _conv_stuck(a, b, d, 1):
                    return False
                a, b = a.fields[0], b.fields[0]
            else:
                rule = _CONV_RULES.get(cls)
                if rule is None:
                    raise EvalError(f"cannot compare {cls.__name__}")
                if not rule(a, b, d):
                    return False
                break
        if not pending:
            return True
        a, b = pending.pop()


def _conv_clo(f, g, d: int) -> bool:
    """Two closures over one term are equal without being opened when they
    share their environment, or when the term reads no variable but its own
    binder (a datatype's family, which every `by` block over it shares)."""
    if f is g or (
        type(f) is Clo and type(g) is Clo and f.term is g.term and (f.env is g.env or own_binder_only(f))
    ):
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


def _conv_stuck(a: VStuck, b: VStuck, d: int, start: int = 0) -> bool:
    """Whether `a` and `b` are eliminations of one kind whose compared fields
    from `start` on are convertible."""
    if a.kind is not b.kind:
        return False
    for f, g, compared in zip(a.fields[start:], b.fields[start:], _COMPARED[a.kind][start:]):
        if not compared:
            continue
        if isinstance(f, Value):
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
    VIdxE: lambda a, b, d: a.k == b.k,
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
    VVar: lambda a, b, d: a.lvl == b.lvl,
    VStuck: _conv_stuck,
}
_CONV_RULES.update(dict.fromkeys((VUnit, VVoid, VUId, VEnumU, VNilE, VRefl, VDOne), _same))

# which fields of each term class take part in term equality
_COMPARED = {kind: tuple(f in kind._compared for f in kind._fields) for kind in _EVAL_RULES}
