"""Bidirectional kernel checker for the core language.

Judgmental equality compares values structurally (`values.convertible`):
neutrals by head level and then frame by frame, binders under one fresh
variable, with exactly the verdict of reading both sides back and comparing
the terms for alpha-equality. Universes are three fixed levels with
cumulativity as a subtyping check at conversion points.

`check` returns the value of the term it checked when it built that value
from the values of the parts (pairs, constructors, `()`, enumeration
indices, `refl`), and None otherwise; a dependent codomain is instantiated
with that value instead of evaluating the argument again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import terms as T
from . import values as V
from .terms import Term
from .values import Value


class KernelError(Exception):
    def __init__(self, kind: str, term, msg: str):
        self.kind = kind
        self.term = term
        self.msg = msg
        super().__init__(f"{kind}: {msg}")


def _err(kind: str, term, msg: str):
    raise KernelError(kind, term, msg)


@dataclass(frozen=True)
class Entry:
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
            bound, named = val, V.name_definition(self.named, ty, val, self.depth)
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


def infer_sort(ctx: Context, t: Term) -> tuple:
    """Elaborated types: returns (type-as-value, universe level)."""
    ty = infer(ctx, t)
    if not isinstance(ty, V.VSet):
        _err("UniverseMismatch", t, f"expected a type, its type is {V.quote(ty, ctx.depth)}")
    return ctx.eval(t), ty.level


def check_is_type(ctx: Context, t: Term, max_level: int = 2) -> tuple:
    tv, lvl = infer_sort(ctx, t)
    if lvl > max_level:
        _err("UniverseMismatch", t, f"type lives at level {lvl}, needed at most {max_level}")
    return tv, lvl


def _motive_check(ctx: Context, p: Term, dom_maker) -> tuple:
    """Check a motive against dom -> Set k for the smallest admissible k;
    returns (motive value, k). dom_maker(k) builds the candidate Pi type.

    A lambda motive gets its level from one inference of its body. Other
    motives, and every failure, go through the tries at k = 0, 1, 2, whose
    last error is the one reported."""
    k = _lambda_motive_level(ctx, p, dom_maker(0))
    if k is not None:
        return ctx.eval(p), k
    last = None
    for k in (0, 1, 2):
        want = dom_maker(k)
        try:
            check(ctx, p, want)
            return ctx.eval(p), k
        except KernelError as e:
            last = e
    raise last if last is not None else KernelError("TypeMismatch", p, "motive")


def _lambda_motive_level(ctx: Context, p: Term, want: Value) -> Optional[int]:
    """The smallest k at which the lambda `p` checks against `want` with its
    final `Set 0` raised to `Set k`, or None if that takes the full check.

    The binders are checked as `check` would; the body then checks against
    `Set k` exactly when it infers `Set j` with j <= k, since none of the
    checking-only forms has a universe as its type."""
    try:
        while isinstance(p, T.Lam) and isinstance(want, V.VPi):
            if p.ann is not None:
                annv, _ = check_is_type(ctx, p.ann)
                if not conv(ctx, annv, want.dom):
                    return None
            x = V.fresh(ctx.depth)
            ctx = ctx.extend(p.nm, want.dom)
            want, p = want.cod(x), p.body
        if not isinstance(want, V.VSet):
            return None
        got = infer(ctx, p)
    except KernelError:
        return None
    return got.level if isinstance(got, V.VSet) else None


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


def dlabel_wf(ctx: Context, label: T.DLabel):
    for e in label.entries:
        if isinstance(e, T.LParam):
            tyv, _ = check_is_type(ctx, e.ty)
            check(ctx, e.tm, tyv)
        elif isinstance(e, T.LIndex):
            tyv, lvl = check_is_type(ctx, e.ty)
            if lvl > 0:
                _err("UniverseMismatch", e.ty, "index types must live in Set")
            check(ctx, e.tm, tyv)
        else:
            tyv, lvl = check_is_type(ctx, e.ty)
            if lvl > 0:
                _err("UniverseMismatch", e.ty, "index types must live in Set")
            check(ctx, e.var, tyv)
            check(ctx, e.tm, tyv)


def _desc_target(ctx: Context, want: Value, t: Term) -> Optional[Value]:
    """For code checking: VDesc -> None (unindexed), VIDesc I -> I."""
    if isinstance(want, V.VDesc):
        return None
    if isinstance(want, V.VIDesc):
        return want.index
    _err("TypeMismatch", t, f"expected {V.quote(want, ctx.depth)}, got a description code")
    return None


def infer(ctx: Context, t: Term) -> Value:
    match t:
        case T.Var(ix):
            if ix < 0 or ix >= ctx.depth:
                _err("UnboundVariable", t, f"index {ix} out of range")
            return ctx.entry_at(ix).ty
        case T.Set_(level):
            if level >= 2:
                _err("UniverseMismatch", t, "the top universe has no type")
            return V.VSet(level + 1)
        case T.Pi(nm, dom, cod) | T.Sigma(nm, dom, cod):
            domv, j = infer_sort(ctx, dom)
            _, k = infer_sort(ctx.extend(nm, domv), cod)
            return V.VSet(max(j, k))
        case T.Lam(nm, ann, body):
            if ann is None:
                _err("CannotInfer", t, "unannotated function")
            domv, _ = check_is_type(ctx, ann)
            body_ty = infer(ctx.extend(nm, domv), body)
            cod = V.quote(body_ty, ctx.depth + 1)
            return V.VPi(nm, domv, V.Clo(ctx.env, cod))
        case T.App(fn, arg):
            fty = infer(ctx, fn)
            if not isinstance(fty, V.VPi):
                _err("NotAFunction", t, f"applied term has type {V.quote(fty, ctx.depth)}")
            argv = check(ctx, arg, fty.dom)
            return fty.cod(ctx.eval(arg) if argv is None else argv)
        case T.Pair(a, b):
            if t.ann is None:
                _err("CannotInfer", t, "unannotated pair")
            nm, fam = t.ann
            aty = infer(ctx, a)
            check_is_type(ctx.extend(nm, aty), fam)
            bty = V.Clo(ctx.env, fam)(ctx.eval(a))
            check(ctx, b, bty)
            return V.VSigma(nm, aty, V.Clo(ctx.env, fam))
        case T.Fst(p):
            pty = infer(ctx, p)
            if not isinstance(pty, V.VSigma):
                _err("NotAPair", t, f"projected term has type {V.quote(pty, ctx.depth)}")
            return pty.dom
        case T.Snd(p):
            pty = infer(ctx, p)
            if not isinstance(pty, V.VSigma):
                _err("NotAPair", t, f"projected term has type {V.quote(pty, ctx.depth)}")
            return pty.cod(V.vfst(ctx.eval(p)))
        case T.Unit() | T.UId() | T.EnumU():
            return V.VSet(0)
        case T.Void():
            return V.VUnit()
        case T.Tag(_):
            return V.VUId()
        case T.NilE():
            return V.VEnumU()
        case T.ConsE(tag, rest):
            check(ctx, tag, V.VUId())
            check(ctx, rest, V.VEnumU())
            return V.VEnumU()
        case T.EnumT(e):
            check(ctx, e, V.VEnumU())
            return V.VSet(0)
        case T.PiE(e, p):
            check(ctx, e, V.VEnumU())
            ev = ctx.eval(e)
            _, k = _motive_check(ctx, p, lambda k: _const_pi(V.VEnumT(ev), V.VSet(k)))
            return V.VSet(k)
        case T.Switch(e, p, cs, x):
            check(ctx, e, V.VEnumU())
            ev = ctx.eval(e)
            pv, _ = _motive_check(ctx, p, lambda k: _const_pi(V.VEnumT(ev), V.VSet(k)))
            check(ctx, cs, V.vpie(ev, pv))
            check(ctx, x, V.VEnumT(ev))
            return V.vapp(pv, ctx.eval(x))
        case T.Eq(a, l, r):
            av, lvl = check_is_type(ctx, a)
            check(ctx, l, av)
            check(ctx, r, av)
            return V.VSet(lvl)
        case T.Refl():
            _err("CannotInfer", t, "refl needs a checking type")
        case T.EqElim(m, base, q):
            qty = infer(ctx, q)
            if not isinstance(qty, V.VEq):
                _err("TypeMismatch", t, "eliminating a non-equation")
            a, lhs = qty.ty, qty.lhs

            def want(k):
                return _pi_to(
                    a,
                    lambda y: _const_pi(V.VEq(a, lhs, y), V.VSet(k)),
                )

            mv, _ = _motive_check(ctx, m, want)
            check(ctx, base, V.vapps(mv, lhs, V.VRefl()))
            return V.vapps(mv, qty.rhs, ctx.eval(q))
        case T.Desc():
            return V.VSet(1)
        case T.IDesc(i):
            check_is_type(ctx, i, max_level=0)
            return V.VSet(1)
        case T.DVar():
            return V.VDesc()
        case T.DVarI(i):
            ity = infer(ctx, i)
            return V.VIDesc(ity)
        case T.DTimes(a, b):
            ta = infer(ctx, a)
            if not isinstance(ta, (V.VDesc, V.VIDesc)):
                _err("TypeMismatch", t, "product of non-codes")
            check(ctx, b, ta)
            return ta
        case T.InterpDesc(code, x):
            check(ctx, code, V.VDesc())
            check(ctx, x, V.VSet(0))
            return V.VSet(0)
        case T.InterpIDesc(code, x):
            ixty = _family_index_type(ctx, code, x, t)
            check(ctx, code, V.VIDesc(ixty))
            check(ctx, x, _const_pi(ixty, V.VSet(0)))
            return V.VSet(0)
        case T.AllD(code, x, p, d):
            check(ctx, code, V.VDesc())
            check(ctx, x, V.VSet(0))
            xv = ctx.eval(x)
            _, k = _motive_check(ctx, p, lambda k: _const_pi(xv, V.VSet(k)))
            check(ctx, d, V.vinterp(ctx.eval(code), xv))
            return V.VSet(k)
        case T.IAllD(code, x, p, d):
            ixty = _family_index_type(ctx, code, x, t)
            check(ctx, code, V.VIDesc(ixty))
            check(ctx, x, _const_pi(ixty, V.VSet(0)))
            xv = ctx.eval(x)
            sig = V.VSigma("i", ixty, V.PyClo(lambda i: V.vapp(xv, i)))
            _, k = _motive_check(ctx, p, lambda k: _const_pi(sig, V.VSet(k)))
            check(ctx, d, V.vinterp_i(ctx.eval(code), xv))
            return V.VSet(k)
        case T.AllMap(code, x, p, rec, d):
            check(ctx, code, V.VDesc())
            check(ctx, x, V.VSet(0))
            xv = ctx.eval(x)
            pv, _ = _motive_check(ctx, p, lambda k: _const_pi(xv, V.VSet(k)))
            check(ctx, rec, _pi_to(xv, lambda v: V.vapp(pv, v)))
            dv_ty = V.vinterp(ctx.eval(code), xv)
            check(ctx, d, dv_ty)
            return V.vall(ctx.eval(code), xv, pv, ctx.eval(d))
        case T.IAllMap(code, x, p, rec, d):
            ixty = _family_index_type(ctx, code, x, t)
            check(ctx, code, V.VIDesc(ixty))
            check(ctx, x, _const_pi(ixty, V.VSet(0)))
            xv = ctx.eval(x)
            sig = V.VSigma("i", ixty, V.PyClo(lambda i: V.vapp(xv, i)))
            pv, _ = _motive_check(ctx, p, lambda k: _const_pi(sig, V.VSet(k)))
            check(
                ctx,
                rec,
                _pi_to(ixty, lambda i: _pi_to(V.vapp(xv, i), lambda v: V.vapp(pv, V.VPair(i, v)))),
            )
            check(ctx, d, V.vinterp_i(ctx.eval(code), xv))
            return V.viall(ctx.eval(code), xv, pv, ctx.eval(d))
        case T.Mu(code):
            check(ctx, code, V.VDesc())
            return V.VSet(0)
        case T.IMu(ixty, fam, i):
            iv, _ = check_is_type(ctx, ixty, max_level=0)
            check(ctx, fam, _const_pi(iv, V.VIDesc(iv)))
            check(ctx, i, iv)
            return V.VSet(0)
        case T.In(_):
            _err("CannotInfer", t, "constructor form needs a checking type")
        case T.Induction(code, p, m, x):
            check(ctx, code, V.VDesc())
            dv = ctx.eval(code)
            mu = V.VMu(dv)
            pv, _ = _motive_check(ctx, p, lambda k: _const_pi(mu, V.VSet(k)))
            check(
                ctx,
                m,
                _pi_to(
                    V.vinterp(dv, mu),
                    lambda d: _const_pi(
                        V.vall(dv, mu, pv, d), V.vapp(pv, V.VIn(d))
                    ),
                ),
            )
            check(ctx, x, mu)
            return V.vapp(pv, ctx.eval(x))
        case T.IInduction(ixty, fam, p, m, i, x):
            iv, _ = check_is_type(ctx, ixty, max_level=0)
            check(ctx, fam, _const_pi(iv, V.VIDesc(iv)))
            rv = ctx.eval(fam)
            xfam = V.VLam("j", V.PyClo(lambda j: V.VIMu(iv, rv, j)))
            sig = V.VSigma("i", iv, V.PyClo(lambda j: V.VIMu(iv, rv, j)))
            pv, _ = _motive_check(ctx, p, lambda k: _const_pi(sig, V.VSet(k)))
            check(
                ctx,
                m,
                _pi_to(
                    iv,
                    lambda i2: _pi_to(
                        V.vinterp_i(V.vapp(rv, i2), xfam),
                        lambda xs: _const_pi(
                            V.viall(V.vapp(rv, i2), xfam, pv, xs),
                            V.vapp(pv, V.VPair(i2, V.VIn(xs))),
                        ),
                    ),
                ),
            )
            check(ctx, i, iv)
            iv2 = ctx.eval(i)
            check(ctx, x, V.VIMu(iv, rv, iv2))
            return V.vapp(pv, V.VPair(iv2, ctx.eval(x)))
        case T.Split(p, m, s):
            sty = infer(ctx, s)
            if not isinstance(sty, V.VSigma):
                _err("NotAPair", t, "splitting a non-pair")
            pv, _ = _motive_check(ctx, p, lambda k: _const_pi(sty, V.VSet(k)))
            check(
                ctx,
                m,
                _pi_to(
                    sty.dom,
                    lambda a: _pi_to(sty.cod(a), lambda b: V.vapp(pv, V.VPair(a, b))),
                ),
            )
            return V.vapp(pv, ctx.eval(s))
        case T.DecEqEnum(e, l, r):
            check(ctx, e, V.VEnumU())
            ev = ctx.eval(e)
            check(ctx, l, V.VEnumT(ev))
            check(ctx, r, V.VEnumT(ev))
            return V.vdecidable(V.VEq(V.VEnumT(ev), ctx.eval(l), ctx.eval(r)))
        case T.LabelTy(head, args, argtys, ty):
            label_wf(ctx, head, args, argtys)
            _, lvl = infer_sort(ctx, ty)
            return V.VSet(lvl)
        case T.LRet(_):
            _err("CannotInfer", t, "return needs a label type")
        case T.LCall(head, args, argtys, ty, body):
            label_wf(ctx, head, args, argtys)
            tyv, _ = check_is_type(ctx, ty)
            lab = V.VLabelTy(
                head,
                tuple(ctx.eval(a) for a in args),
                tuple(ctx.eval(a) for a in argtys),
                tyv,
            )
            check(ctx, body, lab)
            return tyv
        case T.DLabelTy(label):
            dlabel_wf(ctx, label)
            return V.VSet(1)
        case T.DRet(_, _):
            _err("CannotInfer", t, "description return needs a label type")
        case T.DCall(label, body):
            dlabel_wf(ctx, label)
            lv = V.eval_label(label, ctx.env)
            check(ctx, body, V.VDLabelTy(lv))
            return V.VIDesc(V.vlabel_index_type(lv))
        case T.DOne() | T.DPi(_, _) | T.DSigma(_, _) | T.DSigmaE(_, _) | T.ZeroE() | T.SucE(_):
            _err("CannotInfer", t, "checking-only form in synthesis position")
    _err("CannotInfer", t, f"no synthesis rule for {type(t).__name__}")


def _family_index_type(ctx: Context, code: Term, x: Term, at: Term) -> Value:
    """Recover the index type for indexed-code forms: try the code, then the
    family annotation."""
    try:
        cty = infer(ctx, code)
        if isinstance(cty, V.VIDesc):
            return cty.index
    except KernelError:
        pass
    try:
        xty = infer(ctx, x)
        if isinstance(xty, V.VPi):
            return xty.dom
    except KernelError:
        pass
    _err("CannotInfer", at, "cannot determine the index type; annotate the family")


def check(ctx: Context, t: Term, want: Value) -> Optional[Value]:
    """Check `t` against `want`; returns the value of `t` when it was built
    from the values of its parts, else None."""
    match t:
        case T.Lam(nm, ann, body):
            if isinstance(want, V.VPi):
                if ann is not None:
                    annv, _ = check_is_type(ctx, ann)
                    if not conv(ctx, annv, want.dom):
                        _err("TypeMismatch", t, "annotation disagrees with the expected domain")
                inner = ctx.extend(nm, want.dom)
                check(inner, body, want.cod(V.fresh(ctx.depth)))
                return
            _err("TypeMismatch", t, f"function against {V.quote(want, ctx.depth)}")
        case T.Pair(a, b):
            if isinstance(want, V.VSigma):
                av = check(ctx, a, want.dom)
                if av is None:
                    av = ctx.eval(a)
                bv = check(ctx, b, want.cod(av))
                return None if bv is None else V.VPair(av, bv)
            _err("TypeMismatch", t, f"pair against {V.quote(want, ctx.depth)}")
        case T.Void():
            if isinstance(want, V.VUnit):
                return V.VVoid()
            # fall through to synthesis for the mismatch message
        case T.ZeroE():
            if isinstance(want, V.VEnumT) and isinstance(want.enum, V.VConsE):
                return V.VZeroE()
            _err("TypeMismatch", t, f"enum index against {V.quote(want, ctx.depth)}")
        case T.SucE(n):
            if isinstance(want, V.VEnumT) and isinstance(want.enum, V.VConsE):
                nv = check(ctx, n, V.VEnumT(want.enum.rest))
                return None if nv is None else V.VSucE(nv)
            _err("TypeMismatch", t, f"enum index against {V.quote(want, ctx.depth)}")
        case T.Refl():
            if isinstance(want, V.VEq):
                if conv(ctx, want.lhs, want.rhs):
                    return V.VRefl()
                _err(
                    "TypeMismatch",
                    t,
                    "refl between non-convertible sides "
                    f"{V.quote(want.lhs, ctx.depth)} and {V.quote(want.rhs, ctx.depth)}",
                )
            _err("TypeMismatch", t, f"refl against {V.quote(want, ctx.depth)}")
        case T.In(d):
            if isinstance(want, V.VMu):
                dv = check(ctx, d, V.vinterp(want.code, want))
            elif isinstance(want, V.VIMu):
                xfam = V.VLam("j", V.PyClo(lambda j: V.VIMu(want.ixty, want.fam, j)))
                dv = check(ctx, d, V.vinterp_i(V.vapp(want.fam, want.index), xfam))
            else:
                _err("TypeMismatch", t, f"constructor against {V.quote(want, ctx.depth)}")
            return None if dv is None else V.VIn(dv)
        case T.DOne():
            _desc_target(ctx, want, t)
            return
        case T.DVar():
            if isinstance(want, V.VDesc):
                return
            _err("TypeMismatch", t, "'var only describes unindexed types")
        case T.DVarI(i):
            ixty = _desc_target(ctx, want, t)
            if ixty is None:
                _err("TypeMismatch", t, "'var with an index against Desc")
            check(ctx, i, ixty)
            return
        case T.DTimes(a, b):
            _desc_target(ctx, want, t)
            check(ctx, a, want)
            check(ctx, b, want)
            return
        case T.DPi(s, fam) | T.DSigma(s, fam):
            _desc_target(ctx, want, t)
            sv, _ = check_is_type(ctx, s, max_level=0)
            check(ctx, fam, _const_pi(sv, want))
            return
        case T.DSigmaE(e, fam):
            _desc_target(ctx, want, t)
            check(ctx, e, V.VEnumU())
            check(ctx, fam, _const_pi(V.VEnumT(ctx.eval(e)), want))
            return
        case T.LRet(v):
            if isinstance(want, V.VLabelTy):
                check(ctx, v, want.ty)
                return
            _err("TypeMismatch", t, f"return against {V.quote(want, ctx.depth)}")
        case T.DRet(e, fam):
            if isinstance(want, V.VDLabelTy):
                check(ctx, e, V.VEnumU())
                idx = V.vlabel_index_type(want.label)
                check(ctx, fam, _const_pi(V.VEnumT(ctx.eval(e)), V.VIDesc(idx)))
                return
            _err("TypeMismatch", t, f"description return against {V.quote(want, ctx.depth)}")
    got = infer(ctx, t)
    if not conv_le(ctx, got, want):
        _err(
            "TypeMismatch",
            t,
            f"expected {V.quote(want, ctx.depth)}, got {V.quote(got, ctx.depth)}",
        )


def check_entry_type(ctx: Context, ty: Term) -> Value:
    """Validity side condition for extending a context."""
    tv, _ = check_is_type(ctx, ty)
    return tv


def context_valid(ctx: Context) -> bool:
    """Re-check the whole context from scratch (validity invariant)."""
    acc = Context()
    for e in ctx.entries:
        ty_term = V.quote(e.ty, acc.depth)
        tv = check_entry_type(acc, ty_term)
        if e.val is not None:
            check(acc, V.quote(e.val, acc.depth), tv)
            acc = acc.extend(e.name, tv, acc.eval(V.quote(e.val, acc.depth)))
        else:
            acc = acc.extend(e.name, tv)
    return True
