"""Bidirectional kernel checker for the core language.

Descriptions live in one universe, `IDesc I`; a datatype without indices is
the fix-point `IMu Unit R ()`, so constructors, inductive hypotheses and
induction all have their indexed rules only.

Judgmental equality compares values structurally (`values.convertible`):
variables by level, stuck eliminations by kind and then field by field,
binders under one fresh variable, with exactly the verdict of reading both
sides back and comparing the terms for alpha-equality. Universes are three
fixed levels with cumulativity as a subtyping check at conversion points.

`check` returns the value of the term it checked when it built that value
from the values of the parts (pairs, constructors, `()`, enumeration
indices, `refl`), and None otherwise; a dependent codomain is instantiated
with that value instead of evaluating the argument again.

`infer` and `check` look their rule up by the exact class of the term
(`_INFER_RULES`, `_CHECK_RULES`). A class without a checking rule is checked
by synthesis: its type is inferred and compared with `conv_le`.

Elaborated `by` programs arrive beta-normal: each branch is a lambda in a
tuple of cases or a split method, checked against the type the eliminator
gives it. An annotated lambda in head position, which `_infer_lam`
synthesises by reading its body's type back, comes only from the source
program. Each judgment has one rule: a motive's lambdas check against its
domains and the universe its body's type ends in is its level
(`_motive_check`); the code formers only check, so the code of an `interpI`,
`IAll` or `IAllMap` is neutral and its inferred `IDesc I` is its check.
"""

from __future__ import annotations

from typing import Optional

from . import pp
from . import terms as T
from . import values as V
from .record import Record
from .terms import Term
from .values import Value


class KernelError(Exception):
    def __init__(self, kind: str, term, msg: str):
        self.kind = kind
        self.term = term
        self.msg = msg
        self.span = None  # the declaration being re-checked, if the driver knows it
        super().__init__(f"{kind}: {msg}")


def _err(kind: str, term, msg: str):
    raise KernelError(kind, term, msg)


def show(ctx: Context, v: Value) -> str:
    """Message text for a value, read back by `ctx.quote` (so naming the
    definitions of `ctx`); every message that shows a value uses it."""
    return pp.print_term(ctx.quote(v), ctx.names())


class Entry(Record):
    name: str
    ty: Value
    val: Optional[Value]  # None for declarations


class Context:
    """Ordered typing context; entries are declarations or definitions.

    `named` is the table of the datatypes and enumerations defined in the
    context, for `quote`; `extend` maintains it."""

    __slots__ = ("entries", "env", "named")

    def __init__(self, entries: tuple = (), env: tuple = (), named: Optional[dict] = None):
        self.entries = entries
        self.env = env
        self.named = {} if named is None else named

    @property
    def depth(self) -> int:
        return len(self.entries)

    def extend(self, name: str, ty: Value, val: Optional[Value] = None) -> "Context":
        if val is None:
            bound, named = V.fresh(self.depth), self.named
        else:
            bound, named = val, V.name_definition(self.named, ty, val, self.env)
        return Context(self.entries + (Entry(name, ty, val),), self.env + (bound,), named)

    def quote(self, v: Value, d: Optional[int] = None) -> Term:
        """Read `v` back at depth `d` (this context's by default), naming the
        datatypes and enumerations defined here instead of unfolding them."""
        return V.quote(v, self.depth if d is None else d, self.named)

    def lookup(self, name: str):
        """Innermost entry with this name, as (de Bruijn index, entry)."""
        for ix, e in enumerate(reversed(self.entries)):
            if e.name == name:
                return ix, e
        return None

    def entry_at(self, ix: int) -> Entry:
        return self.entries[self.depth - 1 - ix]

    def names(self) -> list:
        return [e.name for e in self.entries]

    def eval(self, t: Term) -> Value:
        return V.eval_term(t, self.env)

    def __repr__(self):
        return f"Context({', '.join(e.name for e in self.entries)})"


def normalize(ctx: Context, t: Term) -> Term:
    return V.quote(ctx.eval(t), ctx.depth)


def conv(ctx: Context, a: Value, b: Value) -> bool:
    return V.convertible(a, b, ctx.depth)


def conv_le(ctx: Context, got: Value, want: Value) -> bool:
    """Conversion with universe cumulativity at the head."""
    if isinstance(got, V.VSet) and isinstance(want, V.VSet):
        return got.level <= want.level
    return conv(ctx, got, want)


def def_eq(ctx: Context, t: Term, u: Term) -> bool:
    return conv(ctx, ctx.eval(t), ctx.eval(u))


def check_is_type(ctx: Context, t: Term, max_level: int = 2) -> tuple:
    """Elaborated types: returns (type-as-value, universe level)."""
    ty = infer(ctx, t)
    if not isinstance(ty, V.VSet):
        _err("UniverseMismatch", t, f"expected a type, its type is {show(ctx, ty)}")
    if ty.level > max_level:
        _err("UniverseMismatch", t, f"type lives at level {ty.level}, needed at most {max_level}")
    return ctx.eval(t), ty.level


def _motive_check(ctx: Context, p: Term, want: Value) -> tuple:
    """Check a motive against `want`, a Pi type ending in `Set 0`, letting
    it end in any universe; returns (motive value, that universe's level).
    The lambdas `p` opens check against the domains of `want` as in
    `_check_lam`; the rest is inferred once, and its type must take the
    domains left over and end in a universe."""
    outer, motive = ctx, p
    while isinstance(p, T.Lam) and isinstance(want, V.VPi):
        if p.ann is not None:
            annv, _ = check_is_type(ctx, p.ann)
            if not conv(ctx, annv, want.dom):
                _err("TypeMismatch", p, "annotation disagrees with the expected domain")
        x = V.fresh(ctx.depth)
        ctx = ctx.extend(p.nm, want.dom)
        want, p = want.cod(x), p.body
    got = infer(ctx, p)
    while isinstance(want, V.VPi):
        if not (isinstance(got, V.VPi) and conv(ctx, got.dom, want.dom)):
            _err("TypeMismatch", p, f"expected a motive over {show(ctx, want.dom)}, got {show(ctx, got)}")
        x = V.fresh(ctx.depth)
        ctx = ctx.extend(got.nm, want.dom)
        want, got = want.cod(x), got.cod(x)
    if not isinstance(got, V.VSet):
        _err("UniverseMismatch", p, f"expected a type, its type is {show(ctx, got)}")
    return outer.eval(motive), got.level


def _pi_to(dom: Value, mk_cod) -> Value:
    return V.VPi("x", dom, V.PyClo(mk_cod))


def _const_pi(dom: Value, cod: Value) -> Value:
    return V.VPi("_", dom, V.PyClo(lambda _v: cod))


def label_wf(ctx: Context, head: str, args: tuple, argtys: tuple):
    if len(args) != len(argtys):
        _err("TypeMismatch", None, f"label {head}: {len(args)} args but {len(argtys)} types")
    for a, aty in zip(args, argtys):
        atyv, _ = check_is_type(ctx, aty)
        check(ctx, a, atyv)


def infer(ctx: Context, t: Term) -> Value:
    rule = _INFER_RULES.get(type(t))
    if rule is None:
        _err("CannotInfer", t, f"no synthesis rule for {type(t).__name__}")
    return rule(ctx, t)


def _infer_binder(ctx: Context, t) -> Value:
    domv, j = check_is_type(ctx, t.dom)
    _, k = check_is_type(ctx.extend(t.nm, domv), t.cod)
    return V.VSet(max(j, k))


def _infer_lam(ctx: Context, t: T.Lam) -> Value:
    if t.ann is None:
        _err("CannotInfer", t, "unannotated function")
    domv, _ = check_is_type(ctx, t.ann)
    body_ty = infer(ctx.extend(t.nm, domv), t.body)
    cod = ctx.quote(body_ty, ctx.depth + 1)
    return V.VPi(t.nm, domv, V.Clo(ctx.env, cod))


def _infer_app(ctx: Context, t: T.App) -> Value:
    fty = infer(ctx, t.fn)
    if not isinstance(fty, V.VPi):
        _err("NotAFunction", t, f"applied term has type {show(ctx, fty)}")
    argv = check(ctx, t.arg, fty.dom)
    return fty.cod(ctx.eval(t.arg) if argv is None else argv)


def _infer_pair_type(ctx: Context, t) -> V.VSigma:
    """The type of the pair that `Fst` or `Snd` projects."""
    pty = infer(ctx, t.pair)
    if not isinstance(pty, V.VSigma):
        _err("NotAPair", t, f"projected term has type {show(ctx, pty)}")
    return pty


def _infer_conse(ctx: Context, t: T.ConsE) -> Value:
    check(ctx, t.tag, V.VUId())
    check(ctx, t.rest, V.VEnumU())
    return V.VEnumU()


def _infer_enumt(ctx: Context, t: T.EnumT) -> Value:
    check(ctx, t.enum, V.VEnumU())
    return V.VSet(0)


def _enum_motive(ctx: Context, t) -> tuple:
    """Check the enumeration and the motive of a `PiE` or a `Switch`;
    returns (enumeration value, motive value, motive level)."""
    check(ctx, t.enum, V.VEnumU())
    ev = ctx.eval(t.enum)
    pv, k = _motive_check(ctx, t.fam, _const_pi(V.VEnumT(ev), V.VSet(0)))
    return ev, pv, k


def _infer_switch(ctx: Context, t: T.Switch) -> Value:
    ev, pv, _ = _enum_motive(ctx, t)
    check(ctx, t.cases, V.vpie(ev, pv))
    check(ctx, t.scrut, V.VEnumT(ev))
    return V.vapp(pv, ctx.eval(t.scrut))


def _infer_eq(ctx: Context, t: T.Eq) -> Value:
    av, lvl = check_is_type(ctx, t.ty)
    check(ctx, t.lhs, av)
    check(ctx, t.rhs, av)
    return V.VSet(lvl)


def _infer_eqelim(ctx: Context, t: T.EqElim) -> Value:
    qty = infer(ctx, t.proof)
    if not isinstance(qty, V.VEq):
        _err("TypeMismatch", t, "eliminating a non-equation")
    a, lhs = qty.ty, qty.lhs

    mv, _ = _motive_check(ctx, t.motive, _pi_to(a, lambda y: _const_pi(V.VEq(a, lhs, y), V.VSet(0))))
    check(ctx, t.base, V.vapps(mv, lhs, V.VRefl()))
    return V.vapps(mv, qty.rhs, ctx.eval(t.proof))


def _infer_idesc(ctx: Context, t: T.IDesc) -> Value:
    check_is_type(ctx, t.index, max_level=0)
    return V.VSet(1)


def _code_index_type(ctx: Context, code: Term) -> Value:
    """The index type I of the code of an `interpI`, `IAll` or `IAllMap`.

    The code's inferred type `IDesc I` gives it, and that inference is the
    code's check. Canonical codes only check, so the code is neutral: a
    variable or a stuck elimination, as readback leaves it."""
    cty = infer(ctx, code)
    if not isinstance(cty, V.VIDesc):
        _err("TypeMismatch", code, f"expected a description code, got {show(ctx, cty)}")
    return cty.index


def _infer_interp(ctx: Context, t: T.InterpIDesc) -> Value:
    ixty = _code_index_type(ctx, t.code)
    check(ctx, t.arg, _const_pi(ixty, V.VSet(0)))
    return V.VSet(0)


def _all_motive(ctx: Context, t) -> tuple:
    """Check the code, the family and the motive of an `IAll` or an
    `IAllMap`; returns (index type, family value, motive value, level)."""
    ixty = _code_index_type(ctx, t.code)
    check(ctx, t.fam, _const_pi(ixty, V.VSet(0)))
    xv = ctx.eval(t.fam)
    sig = V.VSigma("i", ixty, V.PyClo(lambda i: V.vapp(xv, i)))
    pv, k = _motive_check(ctx, t.motive, _const_pi(sig, V.VSet(0)))
    return ixty, xv, pv, k


def _infer_iall(ctx: Context, t: T.IAllD) -> Value:
    _, xv, _, k = _all_motive(ctx, t)
    check(ctx, t.payload, V.vinterp_i(ctx.eval(t.code), xv))
    return V.VSet(k)


def _infer_iallmap(ctx: Context, t: T.IAllMap) -> Value:
    ixty, xv, pv, _ = _all_motive(ctx, t)
    check(ctx, t.rec, _pi_to(ixty, lambda i: _pi_to(V.vapp(xv, i), lambda v: V.vapp(pv, V.VPair(i, v)))))
    check(ctx, t.payload, V.vinterp_i(ctx.eval(t.code), xv))
    return V.viall(ctx.eval(t.code), xv, pv, ctx.eval(t.payload))


def _infer_imu(ctx: Context, t: T.IMu) -> Value:
    iv, _ = check_is_type(ctx, t.ixty, max_level=0)
    check(ctx, t.fam, _const_pi(iv, V.VIDesc(iv)))
    check(ctx, t.index, iv)
    return V.VSet(0)


def _infer_iinduction(ctx: Context, t: T.IInduction) -> Value:
    iv, _ = check_is_type(ctx, t.ixty, max_level=0)
    check(ctx, t.fam, _const_pi(iv, V.VIDesc(iv)))
    rv = ctx.eval(t.fam)
    xfam = V.imu_family(iv, rv)
    sig = V.VSigma("i", iv, V.PyClo(lambda j: V.VIMu(iv, rv, j)))
    pv, _ = _motive_check(ctx, t.motive, _const_pi(sig, V.VSet(0)))
    method_ty = _pi_to(
        iv,
        lambda i2: _pi_to(
            V.vinterp_i(V.vapp(rv, i2), xfam),
            lambda xs: _const_pi(V.viall(V.vapp(rv, i2), xfam, pv, xs), V.vapp(pv, V.VPair(i2, V.VIn(xs)))),
        ),
    )
    check(ctx, t.method, method_ty)
    check(ctx, t.index, iv)
    iv2 = ctx.eval(t.index)
    check(ctx, t.scrut, V.VIMu(iv, rv, iv2))
    return V.vapp(pv, V.VPair(iv2, ctx.eval(t.scrut)))


def _infer_split(ctx: Context, t: T.Split) -> Value:
    sty = infer(ctx, t.scrut)
    if not isinstance(sty, V.VSigma):
        _err("NotAPair", t, "splitting a non-pair")
    pv, _ = _motive_check(ctx, t.motive, _const_pi(sty, V.VSet(0)))
    check(ctx, t.method, _pi_to(sty.dom, lambda a: _pi_to(sty.cod(a), lambda b: V.vapp(pv, V.VPair(a, b)))))
    return V.vapp(pv, ctx.eval(t.scrut))


def _infer_labelty(ctx: Context, t: T.LabelTy) -> Value:
    label_wf(ctx, t.head, t.args, t.argtys)
    _, lvl = check_is_type(ctx, t.ty)
    return V.VSet(lvl)


def _infer_lcall(ctx: Context, t: T.LCall) -> Value:
    label_wf(ctx, t.head, t.args, t.argtys)
    tyv, _ = check_is_type(ctx, t.ty)
    lab = V.VLabelTy(t.head, tuple(ctx.eval(a) for a in t.args), tuple(ctx.eval(a) for a in t.argtys), tyv)
    check(ctx, t.body, lab)
    return tyv


# keyed on the exact class: a subclass of a term class needs its own rule
_INFER_RULES = {
    T.Var: lambda ctx, t: (
        ctx.entry_at(t.ix).ty
        if 0 <= t.ix < ctx.depth
        else _err("UnboundVariable", t, f"index {t.ix} out of range")
    ),
    T.Set_: lambda ctx, t: (
        V.VSet(t.level + 1) if t.level < 2 else _err("UniverseMismatch", t, "the top universe has no type")
    ),
    T.Pi: _infer_binder,
    T.Sigma: _infer_binder,
    T.Lam: _infer_lam,
    T.App: _infer_app,
    T.Pair: lambda ctx, t: _err("CannotInfer", t, "unannotated pair"),
    T.Fst: lambda ctx, t: _infer_pair_type(ctx, t).dom,
    T.Snd: lambda ctx, t: _infer_pair_type(ctx, t).cod(V.vfst(ctx.eval(t.pair))),
    T.Unit: lambda ctx, t: V.VSet(0),
    T.UId: lambda ctx, t: V.VSet(0),
    T.EnumU: lambda ctx, t: V.VSet(0),
    T.Void: lambda ctx, t: V.VUnit(),
    T.Tag: lambda ctx, t: V.VUId(),
    T.NilE: lambda ctx, t: V.VEnumU(),
    T.ConsE: _infer_conse,
    T.EnumT: _infer_enumt,
    T.PiE: lambda ctx, t: V.VSet(_enum_motive(ctx, t)[2]),
    T.Switch: _infer_switch,
    T.Eq: _infer_eq,
    T.Refl: lambda ctx, t: _err("CannotInfer", t, "refl needs a checking type"),
    T.EqElim: _infer_eqelim,
    T.IDesc: _infer_idesc,
    T.InterpIDesc: _infer_interp,
    T.IAllD: _infer_iall,
    T.IAllMap: _infer_iallmap,
    T.IMu: _infer_imu,
    T.In: lambda ctx, t: _err("CannotInfer", t, "constructor form needs a checking type"),
    T.IInduction: _infer_iinduction,
    T.Split: _infer_split,
    T.LabelTy: _infer_labelty,
    T.LRet: lambda ctx, t: _err("CannotInfer", t, "return needs a label type"),
    T.LCall: _infer_lcall,
}
_INFER_RULES.update(
    dict.fromkeys(
        (T.DOne, T.DVarI, T.DTimes, T.DPi, T.DSigma, T.DSigmaE, T.ZeroE, T.SucE),
        lambda ctx, t: _err("CannotInfer", t, "checking-only form in synthesis position"),
    )
)


def check(ctx: Context, t: Term, want: Value) -> Optional[Value]:
    """Check `t` against `want`; returns the value of `t` when it was built
    from the values of its parts, else None. A term class without a
    checking rule is checked by synthesis."""
    return _CHECK_RULES.get(type(t), _check_by_synthesis)(ctx, t, want)


def _check_by_synthesis(ctx: Context, t: Term, want: Value) -> None:
    got = infer(ctx, t)
    if not conv_le(ctx, got, want):
        _err("TypeMismatch", t, f"expected {show(ctx, want)}, got {show(ctx, got)}")


def _check_lam(ctx: Context, t: T.Lam, want: Value) -> None:
    if not isinstance(want, V.VPi):
        _err("TypeMismatch", t, f"function against {show(ctx, want)}")
    if t.ann is not None:
        annv, _ = check_is_type(ctx, t.ann)
        if not conv(ctx, annv, want.dom):
            _err("TypeMismatch", t, "annotation disagrees with the expected domain")
    inner = ctx.extend(t.nm, want.dom)
    check(inner, t.body, want.cod(V.fresh(ctx.depth)))


def _check_pair(ctx: Context, t: T.Pair, want: Value) -> Optional[Value]:
    if not isinstance(want, V.VSigma):
        _err("TypeMismatch", t, f"pair against {show(ctx, want)}")
    av = check(ctx, t.fst, want.dom)
    if av is None:
        av = ctx.eval(t.fst)
    bv = check(ctx, t.snd, want.cod(av))
    return None if bv is None else V.VPair(av, bv)


def _check_void(ctx: Context, t: T.Void, want: Value) -> Optional[Value]:
    if isinstance(want, V.VUnit):
        return V.VVoid()
    return _check_by_synthesis(ctx, t, want)  # for the mismatch message


def _check_index(ctx: Context, t: Term, want: Value) -> Optional[Value]:
    """The checking rule of `ZeroE` and `SucE`: against a non-empty `EnumT`."""
    if not (isinstance(want, V.VEnumT) and isinstance(want.enum, V.VConsE)):
        _err("TypeMismatch", t, f"enum index against {show(ctx, want)}")
    if type(t) is T.ZeroE:
        return V.VZeroE()
    nv = check(ctx, t.pred, V.VEnumT(want.enum.rest))
    return None if nv is None else V.VSucE(nv)


def _check_refl(ctx: Context, t: T.Refl, want: Value) -> Optional[Value]:
    if not isinstance(want, V.VEq):
        _err("TypeMismatch", t, f"refl against {show(ctx, want)}")
    if conv(ctx, want.lhs, want.rhs):
        return V.VRefl()
    sides = f"{show(ctx, want.lhs)} and {show(ctx, want.rhs)}"
    _err("TypeMismatch", t, f"refl between non-convertible sides {sides}")


def _check_in(ctx: Context, t: T.In, want: Value) -> Optional[Value]:
    if not isinstance(want, V.VIMu):
        _err("TypeMismatch", t, f"constructor against {show(ctx, want)}")
    xfam = V.imu_family(want.ixty, want.fam)
    dv = check(ctx, t.payload, V.vinterp_i(V.vapp_ground(want.fam, want.index), xfam))
    return None if dv is None else V.VIn(dv)


def _check_code(ctx: Context, t: Term, want: Value) -> None:
    """The checking rule of every description code: against `IDesc I`."""
    if not isinstance(want, V.VIDesc):
        _err("TypeMismatch", t, f"expected {show(ctx, want)}, got a description code")
    ixty, cls = want.index, type(t)
    if cls is T.DVarI:
        check(ctx, t.index, ixty)
    elif cls is T.DTimes:
        check(ctx, t.lhs, want)
        check(ctx, t.rhs, want)
    elif cls is T.DSigmaE:
        check(ctx, t.enum, V.VEnumU())
        check(ctx, t.fam, _const_pi(V.VEnumT(ctx.eval(t.enum)), want))
    elif cls is not T.DOne:  # DPi, DSigma
        sv, _ = check_is_type(ctx, t.dom, max_level=0)
        check(ctx, t.fam, _const_pi(sv, want))


def _check_lret(ctx: Context, t: T.LRet, want: Value) -> None:
    if not isinstance(want, V.VLabelTy):
        _err("TypeMismatch", t, f"return against {show(ctx, want)}")
    check(ctx, t.val, want.ty)


# the checking rules; every other term class is checked by synthesis
_CHECK_RULES = {
    T.Lam: _check_lam,
    T.Pair: _check_pair,
    T.Void: _check_void,
    T.ZeroE: _check_index,
    T.SucE: _check_index,
    T.Refl: _check_refl,
    T.In: _check_in,
    T.LRet: _check_lret,
}
_CHECK_RULES.update(dict.fromkeys((T.DOne, T.DVarI, T.DTimes, T.DPi, T.DSigma, T.DSigmaE), _check_code))


def check_entry_type(ctx: Context, ty: Term) -> Value:
    """Validity side condition for extending a context."""
    tv, _ = check_is_type(ctx, ty)
    return tv
