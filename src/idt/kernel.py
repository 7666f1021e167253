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
with that value instead of evaluating the argument again, and a codomain
that does not read its variable gets no value at all. `check_value` also
builds the value of an application from those of its head and arguments.
The rules of the introduction forms run as one loop (`_check_intro`), so a
literal's depth costs no Python stack.

`infer` and `check` look their rule up by the exact class of the term
(`_INFER_RULES`, `_CHECK_RULES`). A class without a checking rule is checked
by synthesis: its type is inferred and compared with `conv_le`.

Elaborated `by` programs arrive beta-normal: each branch is a lambda in a
tuple of cases or a split method, checked against the type the eliminator
gives it. A lambda only checks; the one the source program writes in head
position arrives as `Ann(lambda, type)`, whose rule checks the type, checks
the lambda against it and infers it. Each judgment has one rule: a motive's
lambdas check against its domains and the universe its body's type ends in
is its level (`_motive_check`); the code formers only check, so the code of
an `interpI`, `IAll` or `IAllMap` is neutral and its inferred `IDesc I` is
its check.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional

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


class LazyEntry:
    """A declaration whose type is computed when something first reads it."""

    __slots__ = ("name", "_ty", "_make")
    val = None

    def __init__(self, name: str, make_ty: Callable[[], Value]):
        self.name, self._ty, self._make = name, None, make_ty

    @property
    def ty(self) -> Value:
        if self._make is not None:
            self._ty, self._make = self._make(), None
        return self._ty


class Context:
    """Ordered typing context; entries are declarations or definitions.

    `named` is the table of the datatypes and enumerations defined in the
    context, for `quote`; `extend` maintains it. `levels` maps each name to
    the levels at which some extension of the same empty context binds it,
    in ascending order; `extend` adds to it in place, so every context that
    shares it finds a name without scanning its entries."""

    __slots__ = ("entries", "env", "named", "levels")

    def __init__(self, entries: tuple = (), env: tuple = (), named: Optional[dict] = None,
                 levels: Optional[dict] = None):
        self.entries = entries
        self.env = env
        self.named = {} if named is None else named
        self.levels = {} if levels is None else levels

    @property
    def depth(self) -> int:
        return len(self.entries)

    def extend(self, name: str, ty: Value | Callable[[], Value], val: Optional[Value] = None) -> "Context":
        """This context with `name` declared at the type `ty`, or defined as
        `val` of it. The type of a declaration may be given as a function of
        no arguments, called when something first reads the type."""
        lvl = len(self.entries)
        if val is None:
            bound, named = V.fresh(lvl), self.named
        else:
            bound, named = val, V.name_definition(self.named, ty, val, self.env)
        seen = self.levels.setdefault(name, [])
        if not seen or seen[-1] < lvl:
            seen.append(lvl)
        else:
            i = bisect_left(seen, lvl)
            if seen[i] != lvl:
                seen.insert(i, lvl)
        entry = LazyEntry(name, ty) if callable(ty) else Entry(name, ty, val)
        return Context(self.entries + (entry,), self.env + (bound,), named, self.levels)

    def quote(self, v: Value, d: Optional[int] = None) -> Term:
        """Read `v` back at depth `d` (this context's by default), naming the
        datatypes and enumerations defined here instead of unfolding them."""
        return V.quote(v, self.depth if d is None else d, self.named)

    def lookup(self, name: str):
        """Innermost entry with this name, as (de Bruijn index, entry): the
        highest level below the depth at which this context binds it. A
        sibling extension may have bound the name at a level where this
        context has another entry, so each candidate level is checked."""
        seen = self.levels.get(name)
        if seen:
            entries, d = self.entries, len(self.entries)
            i = bisect_left(seen, d)
            while i:
                i -= 1
                e = entries[seen[i]]
                if e.name == name:
                    return d - 1 - seen[i], e
        return None

    def entry_at(self, ix: int) -> Entry:
        return self.entries[self.depth - 1 - ix]

    def names(self) -> list:
        return [e.name for e in self.entries]

    def eval(self, t: Term) -> Value:
        return V.eval_term(t, self.env)


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


def type_level(ctx: Context, t: Term, max_level: int = 2) -> int:
    """Check that `t` is a type at a level up to `max_level`; returns that
    level. The judgment for a type whose value is not needed."""
    ty = infer(ctx, t)
    if not isinstance(ty, V.VSet):
        _err("UniverseMismatch", t, f"expected a type, its type is {show(ctx, ty)}")
    if ty.level > max_level:
        _err("UniverseMismatch", t, f"type lives at level {ty.level}, needed at most {max_level}")
    return ty.level


def check_is_type(ctx: Context, t: Term, max_level: int = 2) -> tuple:
    """Elaborated types: returns (type-as-value, universe level)."""
    lvl = type_level(ctx, t, max_level)
    return ctx.eval(t), lvl


def _motive_check(ctx: Context, p: Term, want: Value) -> tuple:
    """Check a motive against `want`, a Pi type ending in `Set 0`, letting
    it end in any universe; returns (motive value, that universe's level).
    The lambdas `p` opens check against the domains of `want` as in
    `_check_lam`; the rest is inferred once, and its type must take the
    domains left over and end in a universe."""
    outer, motive = ctx, p
    while isinstance(p, T.Lam) and isinstance(want, V.VPi):
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
    return V.VPi("x", dom, mk_cod)


def _const_pi(dom: Value, cod: Value) -> Value:
    return V.VPi("_", dom, lambda _v: cod)


def label_wf(ctx: Context, head: str, args: tuple, argtys: tuple) -> tuple:
    """Check a label's arguments against their types; returns what `check`
    gave for each argument (its value when it built one, else None) and the
    values of their types."""
    if len(args) != len(argtys):
        _err("TypeMismatch", None, f"label {head}: {len(args)} args but {len(argtys)} types")
    built, tyvs = [], []
    for a, aty in zip(args, argtys):
        atyv, _ = check_is_type(ctx, aty)
        built.append(check(ctx, a, atyv))
        tyvs.append(atyv)
    return built, tuple(tyvs)


def infer(ctx: Context, t: Term) -> Value:
    rule = _INFER_RULES.get(type(t))
    if rule is None:
        _err("CannotInfer", t, f"no synthesis rule for {type(t).__name__}")
    return rule(ctx, t)


def _infer_binder(ctx: Context, t) -> Value:
    domv, j = check_is_type(ctx, t.dom)
    k = type_level(ctx.extend(t.nm, domv), t.cod)
    return V.VSet(max(j, k))


def _infer_ann(ctx: Context, t: T.Ann) -> Value:
    tyv, _ = check_is_type(ctx, t.ty)
    check(ctx, t.term, tyv)
    return tyv


def _infer_app(ctx: Context, t: T.App) -> Value:
    return _infer_spine(ctx, t, False)[0]


def _infer_spine(ctx: Context, t: T.App, with_value: bool) -> tuple:
    """The type of the application spine `t`, inferred from its head
    outwards, and with `with_value` also its value: the head's value applied
    to each argument's value from `check_value`. Without it, an argument
    other than a variable whose check built no value is evaluated only when
    the codomain reads it: a term closure whose body does not read its
    variable never does."""
    apps = []
    while type(t) is T.App:
        apps.append(t)
        t = t.fn
    fty = infer(ctx, t)
    fv = ctx.eval(t) if with_value else None
    for app in reversed(apps):
        if not isinstance(fty, V.VPi):
            _err("NotAFunction", app, f"applied term has type {show(ctx, fty)}")
        if with_value:
            argv = check_value(ctx, app.arg, fty.dom)
            fv = V.vapp(fv, argv)
        else:
            argv = check(ctx, app.arg, fty.dom)
            if argv is None and (type(app.arg) is T.Var or V.reads_arg(fty.cod)):
                argv = ctx.eval(app.arg)  # a variable's value is a lookup
        fty = fty.cod(argv)
    return fty, fv


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


def _infer_switch(ctx: Context, t: T.Switch) -> Value:
    check(ctx, t.enum, V.VEnumU())
    ev = ctx.eval(t.enum)
    pv, _ = _motive_check(ctx, t.fam, _const_pi(V.VEnumT(ev), V.VSet(0)))
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
    type_level(ctx, t.index, max_level=0)
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
    sig = V.VSigma("i", ixty, lambda i: V.vapp(xv, i))
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
    sig = V.VSigma("i", iv, lambda j: V.VIMu(iv, rv, j))
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
    return V.VSet(type_level(ctx, t.ty))


def _infer_lcall(ctx: Context, t: T.LCall) -> Value:
    built, tyvs = label_wf(ctx, t.head, t.args, t.argtys)
    tyv, _ = check_is_type(ctx, t.ty)
    argvs = tuple(ctx.eval(a) if v is None else v for a, v in zip(t.args, built))
    check(ctx, t.body, V.VLabelTy(t.head, argvs, tyvs, tyv))
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
    T.App: _infer_app,
    T.Ann: _infer_ann,
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
        (T.Lam, T.DOne, T.DVarI, T.DTimes, T.DPi, T.DSigma, T.DSigmaE, T.ZeroE, T.SucE),
        lambda ctx, t: _err("CannotInfer", t, "checking-only form in synthesis position"),
    )
)


def check(ctx: Context, t: Term, want: Value) -> Optional[Value]:
    """Check `t` against `want`; returns the value of `t` when it was built
    from the values of its parts, else None. A term class without a
    checking rule is checked by synthesis."""
    return _CHECK_RULES.get(type(t), _check_by_synthesis)(ctx, t, want)


def check_value(ctx: Context, t: Term, want: Value) -> Value:
    """`check`, returning the value of `t` whatever its class: that of an
    application comes from `_infer_spine`, built from the values that its
    arguments' checks gave, and any other term whose check built no value
    is evaluated."""
    if type(t) is T.App:
        got, v = _infer_spine(ctx, t, True)
        _check_by_synthesis(ctx, t, want, got)
        return v
    v = check(ctx, t, want)
    return ctx.eval(t) if v is None else v


def _check_by_synthesis(ctx: Context, t: Term, want: Value, got: Optional[Value] = None) -> None:
    """Checking by synthesis: the type of `t` (`got`, when the caller has
    inferred it) is convertible to `want` up to cumulativity."""
    if got is None:
        got = infer(ctx, t)
    if not conv_le(ctx, got, want):
        _err("TypeMismatch", t, f"expected {show(ctx, want)}, got {show(ctx, got)}")


def _check_lam(ctx: Context, t: T.Lam, want: Value) -> None:
    if not isinstance(want, V.VPi):
        _err("TypeMismatch", t, f"function against {show(ctx, want)}")
    inner = ctx.extend(t.nm, want.dom)
    check(inner, t.body, want.cod(V.fresh(ctx.depth)))


def _check_refl(ctx: Context, t: T.Refl, want: Value) -> Optional[Value]:
    if not isinstance(want, V.VEq):
        _err("TypeMismatch", t, f"refl against {show(ctx, want)}")
    if conv(ctx, want.lhs, want.rhs):
        return V.VRefl()
    sides = f"{show(ctx, want.lhs)} and {show(ctx, want.rhs)}"
    _err("TypeMismatch", t, f"refl between non-convertible sides {sides}")


def _check_intro(ctx: Context, t: Term, want: Value) -> Optional[Value]:
    """The checking rules of the introduction forms `In`, `Pair`, `ZeroE`,
    `SucE` and `Void`, run as one loop over an explicit stack, so that a
    constructor literal costs no Python stack however deep it is.

    Going down, each node is checked against its type as its rule says: a
    constructor's payload against the payload type of its fix-point, a
    pair's first component against the domain, an index's predecessor
    against the rest of its enumeration; a subterm of another class is
    checked by `check`. Coming up, each node builds its value from its
    parts' (None when a part built none), and a pair's second component is
    checked against the codomain at the first's value, evaluated when its
    check built none."""
    stack: list = []  # nodes awaiting a part's value, innermost last: (node, x, second)
    while True:
        cls = type(t)
        if cls is _Pair:
            if not isinstance(want, _VSigma):
                _err("TypeMismatch", t, f"pair against {show(ctx, want)}")
            stack.append((t, want, False))
            t, want = t.fst, want.dom
            continue
        if cls is _In:
            if not isinstance(want, _VIMu):
                _err("TypeMismatch", t, f"constructor against {show(ctx, want)}")
            stack.append((t, None, False))
            t, want = t.payload, V.payload_type(want.ixty, want.fam, want.index)
            continue
        if cls is _Void:
            v = _VVoid() if isinstance(want, _VUnit) else _check_by_synthesis(ctx, t, want)
        elif cls is _SucE or cls is _ZeroE:
            if not (isinstance(want, _VEnumT) and isinstance(want.enum, _VConsE)):
                _err("TypeMismatch", t, f"enum index against {show(ctx, want)}")
            if cls is _SucE:
                stack.append((t, None, False))
                t, want = t.pred, _VEnumT(want.enum.rest)
                continue
            v = _VZeroE()
        else:
            v = check(ctx, t, want)
        # hand `v` up to the nodes that await it, up to a pair whose second
        # component is still to check
        while stack:
            node, x, second = stack.pop()
            if second:  # x is the value of the pair's first component
                if v is not None:
                    v = _VPair(x, v)
            elif x is not None:  # x is the pair's type
                av = ctx.eval(node.fst) if v is None else v
                stack.append((node, av, True))
                t, want = node.snd, x.cod(av)
                break
            elif v is not None:
                v = _VIn(v) if type(node) is _In else _VSucE(v)
        else:
            return v


# the classes `_check_intro` tests and builds, bound once
_In, _Pair, _ZeroE, _SucE, _Void = T.In, T.Pair, T.ZeroE, T.SucE, T.Void
_VIMu, _VSigma, _VEnumT, _VConsE, _VUnit = V.VIMu, V.VSigma, V.VEnumT, V.VConsE, V.VUnit
_VIn, _VPair, _VZeroE, _VSucE, _VVoid = V.VIn, V.VPair, V.VZeroE, V.VSucE, V.VVoid


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
    T.Refl: _check_refl,
    T.LRet: _check_lret,
}
_CHECK_RULES.update(dict.fromkeys((T.In, T.Pair, T.ZeroE, T.SucE, T.Void), _check_intro))
_CHECK_RULES.update(dict.fromkeys((T.DOne, T.DVarI, T.DTimes, T.DPi, T.DSigma, T.DSigmaE), _check_code))


def check_entry_type(ctx: Context, ty: Term) -> Value:
    """Validity side condition for extending a context."""
    tv, _ = check_is_type(ctx, ty)
    return tv
