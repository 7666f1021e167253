"""Bidirectional elaboration of external terms to core terms.

Type synthesis and checking mirror the kernel rules; on top of those sit the
sugar rules: LISP-style tuples against Sigma telescopes, enumeration
literals, eliminator literals, tag indexing, constructor applications
against tagged fix-points (with equality slots auto-filled by refl), and
decimal numerals.

Checking hands back, beside the core term, its value when it was built from
the values of its parts (constructors, tuples, tag indices, `refl`), so a
dependent codomain is instantiated without evaluating the finished argument
again: a numeral of size n elaborates in O(n). The goal trail holds
unformatted goals; their text is produced only when an error is rendered.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from . import kernel as K
from . import pp
from . import surface as S
from . import terms as T
from . import values as V
from .kernel import Context, KernelError
from .terms import Term
from .values import Value

# a checked term with its value when that was built from the values of its
# parts, else None
Checked = tuple[Term, Optional[Value]]


class ElabError(Exception):
    """An elaboration failure and the goals in progress when it was raised.

    A goal is its text or a function that formats it; functions are called
    only when the trail is read or rendered."""

    def __init__(self, kind: str, span, msg: str, trail=None):
        self.kind = kind
        self.span = span
        self.msg = msg
        self._goals = list(trail) if trail else []
        super().__init__(f"{kind}: {msg}")

    @property
    def trail(self) -> list:
        """The goal texts, outermost first."""
        self._goals[:] = [g if isinstance(g, str) else g() for g in self._goals]
        return self._goals

    def render(self) -> str:
        loc = f"{self.span[0]}:{self.span[1]}: " if self.span else ""
        lines = [f"{loc}{self.kind}: {self.msg}"]
        for g in reversed(self.trail):
            lines.append(f"  while {g}")
        return "\n".join(lines)


class Elaborator:
    """Elaboration session state: the goal trail and the active definition
    (for label-directed recursive calls)."""

    def __init__(self):
        self.trail: list = []
        self.active: Optional[str] = None

    @contextmanager
    def goal(self, desc):
        """Push a goal for the extent of the block: its text, or a function
        of no arguments that formats it."""
        self.trail.append(desc)
        try:
            yield
        finally:
            self.trail.pop()

    def err(self, kind: str, span, msg: str):
        raise ElabError(kind, span, msg, self.trail)

    def _type_str(self, ctx: Context, tv: Value) -> str:
        return pp.print_term(V.quote(tv, ctx.depth), ctx.names())

    # -- synthesis --

    def synth(self, ctx: Context, e: S.ExtTerm):
        with self.goal(lambda: f"synthesizing {S.print_expr(e)}"):
            return self._synth(ctx, e)

    def _synth(self, ctx: Context, e: S.ExtTerm):
        if isinstance(e, S.EVar):
            hit = ctx.lookup(e.name)
            if hit is None:
                if self.active == e.name:
                    return self._recursive_call(ctx, e, [])
                self.err(
                    "CannotSynthesize",
                    e.span,
                    f"unbound name '{e.name}'; a constructor is checking-only, "
                    "annotate with '(e : T)'",
                )
            ix, entry = hit
            return T.Var(ix), entry.ty
        if isinstance(e, S.EApp):
            head, args = _spine(e)
            if isinstance(head, S.EVar) and ctx.lookup(head.name) is None and self.active == head.name:
                return self._recursive_call(ctx, e, args)
            t, ty = self.synth(ctx, head)
            for a in args:
                if not isinstance(ty, V.VPi):
                    self.err(
                        "NotAFunction",
                        _span(a) or _span(e),
                        f"applied term has type {self._type_str(ctx, ty)}",
                    )
                at, av = self._check_value(ctx, a, ty.dom)
                t = T.App(t, at)
                ty = ty.cod(ctx.eval(at) if av is None else av)
            return t, ty
        if isinstance(e, S.EAnn):
            tyt, tyv, _ = self.elab_type(ctx, e.ty)
            t = self.check(ctx, e.expr, tyv)
            return t, tyv
        if isinstance(e, S.EPi):
            domt, domv, j = self.elab_type(ctx, e.dom)
            codt, _, k = self.elab_type(ctx.extend(e.name, domv), e.cod)
            return T.Pi(e.name, domt, codt), V.VSet(max(j, k))
        if isinstance(e, S.ESigma):
            domt, domv, j = self.elab_type(ctx, e.dom)
            codt, _, k = self.elab_type(ctx.extend(e.name, domv), e.cod)
            return T.Sigma(e.name, domt, codt), V.VSet(max(j, k))
        if isinstance(e, S.ESet):
            if e.level >= 2:
                self.err("CannotSynthesize", e.span, "the top universe has no type")
            return T.Set_(e.level), V.VSet(e.level + 1)
        if isinstance(e, S.EUnit):
            return T.Unit(), V.VSet(0)
        if isinstance(e, S.EEnumT):
            at = self.check(ctx, e.arg, V.VEnumU())
            return T.EnumT(at), V.VSet(0)
        if isinstance(e, S.EEq):
            lt, lty = self.synth(ctx, e.lhs)
            if isinstance(lty, V.VSet):
                self.err("CannotSynthesize", e.span, "propositional equality is between values")
            rt = self.check(ctx, e.rhs, lty)
            tyt = V.quote(lty, ctx.depth)
            try:
                _, lvl = K.infer_sort(ctx, tyt)
            except KernelError:
                lvl = 0
            return T.Eq(tyt, lt, rt), V.VSet(lvl)
        if isinstance(e, S.ETag):
            return T.Tag(e.name), V.VUId()
        if isinstance(e, S.EParen):
            return T.Void(), V.VUnit()
        if isinstance(e, S.EEnumLit):
            t = self._enum_lit(e)
            return t, V.VEnumU()
        kind = type(e).__name__
        self.err(
            "CannotSynthesize",
            _span(e),
            f"{kind} is a checking-only form; add a type annotation '(e : T)'",
        )

    def _recursive_call(self, ctx: Context, e: S.ExtTerm, args: list):
        """Resolve a call of the definition under elaboration against an
        in-scope hypothesis label."""
        name = self.active
        assert name is not None
        attempts = 0
        for ix in range(ctx.depth):
            entry = ctx.entry_at(ix)
            lab = entry.ty
            if not isinstance(lab, V.VLabelTy) or lab.head != name:
                continue
            if len(lab.args) != len(args):
                continue
            attempts += 1
            try:
                arg_terms = []
                ok = True
                for a, want_tyv, want_val in zip(args, lab.argtys, lab.args):
                    at, av = self._check_value(ctx, a, want_tyv)
                    if not K.conv(ctx, ctx.eval(at) if av is None else av, want_val):
                        ok = False
                        break
                    arg_terms.append(at)
                if not ok:
                    continue
            except ElabError:
                continue
            d = ctx.depth
            return (
                T.LCall(
                    name,
                    tuple(arg_terms),
                    tuple(V.quote(a, d) for a in lab.argtys),
                    V.quote(lab.ty, d),
                    T.Var(ix),
                ),
                lab.ty,
            )
        self.err(
            "NoMatchingHypothesis",
            _span(e),
            f"recursive call to '{name}' does not match any hypothesis in scope"
            + ("" if attempts else " (no hypothesis with this arity)"),
        )

    # -- checking --

    def check(self, ctx: Context, e: S.ExtTerm, want: Value) -> Term:
        return self._check_value(ctx, e, want)[0]

    def _check_value(self, ctx: Context, e: S.ExtTerm, want: Value) -> Checked:
        """`check`, also returning the term's value when it was built from
        the values of its parts."""
        with self.goal(lambda: f"checking {S.print_expr(e)} against {self._type_str(ctx, want)}"):
            return self._check(ctx, e, want)

    def _check(self, ctx: Context, e: S.ExtTerm, want: Value) -> Checked:
        if isinstance(e, S.ELam):
            if not isinstance(want, V.VPi):
                self.err("CheckMismatch", e.span, f"function against {self._type_str(ctx, want)}")
            inner = ctx.extend(e.name, want.dom)
            body = self.check(inner, e.body, want.cod(V.fresh(ctx.depth)))
            return T.Lam(e.name, V.quote(want.dom, ctx.depth), body), None
        if isinstance(e, S.EParen):
            if isinstance(want, (V.VSigma, V.VUnit)):
                return self._tuple(ctx, e, [], want)
            self.err("CheckMismatch", e.span, f"'()' against {self._type_str(ctx, want)}")
        if isinstance(e, S.EApp) and isinstance(want, (V.VSigma, V.VUnit)):
            # the LISP-inspired tuple reading of an application spine, with the
            # plain application as the fallback
            head, args = _spine(e)
            try:
                return self._tuple(ctx, e, [head] + args, want)
            except ElabError as tuple_err:
                try:
                    t, got = self.synth(ctx, e)
                except ElabError:
                    raise tuple_err
                if K.conv_le(ctx, got, want):
                    return t, None
                raise tuple_err
        if isinstance(e, S.EEnumLit):
            if isinstance(want, V.VEnumU):
                return self._enum_lit(e), None
            self.err("CheckMismatch", e.span, f"enumeration against {self._type_str(ctx, want)}")
        if isinstance(e, S.EAltsLit):
            return self._alts_lit(ctx, e, want), None
        if isinstance(e, S.ETag):
            if isinstance(want, V.VEnumT):
                idx = 0
                enum = want.enum
                while isinstance(enum, V.VConsE):
                    if isinstance(enum.tag, V.VTag) and enum.tag.name == e.name:
                        return _enum_index(idx)
                    idx += 1
                    enum = enum.rest
                self.err("UnknownTag", e.span, f"tag '{e.name}' is not in the enumeration")
            if isinstance(want, V.VUId):
                return T.Tag(e.name), None
            self.err("CheckMismatch", e.span, f"tag against {self._type_str(ctx, want)}")
        if isinstance(e, S.ENum):
            expanded: S.ExtTerm = S.EVar("zero", span=e.span)
            for _ in range(e.value):
                expanded = S.EApp(S.EVar("suc", span=e.span), expanded, span=e.span)
            return self._check(ctx, expanded, want)
        if isinstance(e, S.ERefl):
            if isinstance(want, V.VEq):
                if K.conv(ctx, want.lhs, want.rhs):
                    return T.Refl(), V.VRefl()
                self.err(
                    "CheckMismatch",
                    e.span,
                    "refl between non-convertible sides "
                    f"{pp.print_term(V.quote(want.lhs, ctx.depth), ctx.names())} and "
                    f"{pp.print_term(V.quote(want.rhs, ctx.depth), ctx.names())}",
                )
            self.err("CheckMismatch", e.span, f"refl against {self._type_str(ctx, want)}")
        # constructor sugar: an unbound head applied against a tagged fix-point
        head, args = _spine(e)
        if (
            isinstance(head, S.EVar)
            and ctx.lookup(head.name) is None
            and head.name != self.active
            and isinstance(want, (V.VMu, V.VIMu))
        ):
            return self._constructor(ctx, e, head, args, want)
        t, got = self.synth(ctx, e)
        if not K.conv_le(ctx, got, want):
            self.err(
                "CheckMismatch",
                _span(e),
                f"expected {self._type_str(ctx, want)}, got {self._type_str(ctx, got)}",
            )
        return t, None

    # -- sugar --

    def _enum_lit(self, e: S.EEnumLit) -> Term:
        seen = set()
        for tg in e.tags:
            if tg in seen:
                self.err("DuplicateTag", e.span, f"duplicate tag '{tg}' in enumeration literal")
            seen.add(tg)
        t: Term = T.NilE()
        for tg in reversed(e.tags):
            t = T.ConsE(T.Tag(tg), t)
        return t

    def _alts_lit(self, ctx: Context, e: S.EAltsLit, want: Value) -> Term:
        if not (isinstance(want, V.VPi) and isinstance(want.dom, V.VEnumT)):
            self.err(
                "CheckMismatch",
                e.span,
                f"eliminator literal against {self._type_str(ctx, want)}",
            )
        tags = V.enum_tags(want.dom.enum)
        if tags is None:
            self.err("CheckMismatch", e.span, "eliminator literal against an open enumeration")
        given = [tg for tg, _ in e.alts]
        if given != tags:
            self.err(
                "UnknownTag",
                e.span,
                f"alternatives {given} do not match the enumeration {tags}",
            )
        d = ctx.depth
        enum_t = V.quote(want.dom.enum, d)
        fam_t = T.Lam("e", None, V.quote(want.cod(V.fresh(d)), d + 1))
        fam_v = ctx.eval(fam_t)
        cases: list = []
        for k, (_, rhs) in enumerate(e.alts):
            cases.append(self.check(ctx, rhs, V.vapp(fam_v, V.make_numeral(k))))
        cases_t: Term = T.Void()
        for c in reversed(cases):
            cases_t = T.Pair(c, cases_t)
        body = T.Switch(T.shift(enum_t, 1), T.shift(fam_t, 1), T.shift(cases_t, 1), T.Var(0))
        return T.Lam("e", T.EnumT(enum_t), body)

    def _tuple(self, ctx: Context, e, items: list, want: Value) -> Checked:
        if isinstance(want, V.VUnit):
            if not items:
                return T.Void(), V.VVoid()
            if len(items) == 1:
                # the terminal unit slot may be written explicitly
                return self._check(ctx, items[0], V.VUnit())
            self.err(
                "BadTupleArity",
                e.span,
                f"{len(items)} component(s) left over against Unit",
            )
        if isinstance(want, V.VSigma):
            if not items:
                self.err("BadTupleArity", e.span, "missing components against a pair type")
            a, av = self._check_value(ctx, items[0], want.dom)
            if av is None:
                av = ctx.eval(a)
            rest_want = want.cod(av)
            if len(items) == 1 and not isinstance(rest_want, (V.VSigma, V.VUnit)):
                self.err("BadTupleArity", e.span, "missing component against a pair type")
            if len(items) >= 2 and not isinstance(rest_want, (V.VSigma, V.VUnit)):
                if len(items) != 2:
                    self.err("BadTupleArity", e.span, "too many components")
                b, bv = self._check_value(ctx, items[1], rest_want)
            else:
                b, bv = self._tuple(ctx, e, items[1:], rest_want)
            return _pair(a, av, b, bv)
        self.err("CheckMismatch", e.span, f"tuple against {self._type_str(ctx, want)}")

    def _constructor(self, ctx: Context, e, head: S.EVar, args: list, want: Value) -> Checked:
        if isinstance(want, V.VMu):
            code = want.code
            xfam: Value = want
            indexed = False
        else:
            code = V.vapp(want.fam, want.index)
            xfam = V.VLam("j", V.PyClo(lambda j, w=want: V.VIMu(w.ixty, w.fam, j)))
            indexed = True
        if not isinstance(code, V.VDSigmaE):
            self.err(
                "NotAConstructorType",
                e.span if hasattr(e, "span") else None,
                f"the target type does not expose a choice of constructors "
                f"({self._type_str(ctx, want)})",
            )
        found = _find_constructor(code, head.name, 4)
        if found is None:
            tags = V.enum_tags(code.enum)
            self.err(
                "UnknownTag",
                head.span,
                f"'{head.name}' is not a constructor of {self._type_str(ctx, want)}"
                + (f" (constructors: {', '.join(tags)})" if tags else ""),
            )
        path, final_code = found
        payload_want = V.vinterp_i(final_code, xfam) if indexed else V.vinterp(final_code, xfam)
        args_t, args_v = self._ctor_args(ctx, e, list(args), payload_want)
        for k in reversed(path):
            args_t, args_v = _pair(*_enum_index(k), args_t, args_v)
        return T.In(args_t), None if args_v is None else V.VIn(args_v)

    def _ctor_args(self, ctx: Context, e, args: list, want: Value) -> Checked:
        if isinstance(want, V.VUnit):
            if args:
                self.err("BadTupleArity", _span(e), f"constructor applied to {len(args)} too many argument(s)")
            return T.Void(), V.VVoid()
        if isinstance(want, V.VSigma):
            if isinstance(want.dom, V.VEq) and not args:
                # an equality slot generated from an index constraint
                if K.conv(ctx, want.dom.lhs, want.dom.rhs):
                    a: Term = T.Refl()
                    av: Optional[Value] = V.VRefl()
                else:
                    self.err(
                        "CheckMismatch",
                        _span(e),
                        "index constraint not satisfied: "
                        f"{pp.print_term(V.quote(want.dom.lhs, ctx.depth), ctx.names())} /= "
                        f"{pp.print_term(V.quote(want.dom.rhs, ctx.depth), ctx.names())}",
                    )
            elif args:
                a, av = self._check_value(ctx, args.pop(0), want.dom)
            else:
                self.err("BadTupleArity", _span(e), "constructor is missing arguments")
            if av is None:
                av = ctx.eval(a)
            rest, rest_v = self._ctor_args(ctx, e, args, want.cod(av))
            return _pair(a, av, rest, rest_v)
        # terminal non-telescope payload (bare recursive position and friends)
        if len(args) == 1:
            return self._check_value(ctx, args[0], want)
        if not args and isinstance(want, V.VEq):
            if K.conv(ctx, want.lhs, want.rhs):
                return T.Refl(), V.VRefl()
        self.err(
            "BadTupleArity",
            _span(e),
            f"constructor arity mismatch ({len(args)} argument(s) left for "
            f"{self._type_str(ctx, want)})",
        )

    # -- helpers --

    def elab_type(self, ctx: Context, e: S.ExtTerm):
        """Elaborate a type: returns (term, value, universe level)."""
        t, ty = self.synth(ctx, e)
        if not isinstance(ty, V.VSet):
            self.err(
                "CheckMismatch",
                _span(e),
                f"expected a type, got something of type {self._type_str(ctx, ty)}",
            )
        return t, ctx.eval(t), ty.level


def _pair(a: Term, av: Value, b: Term, bv: Optional[Value]) -> Checked:
    return T.Pair(a, b), None if bv is None else V.VPair(av, bv)


def _enum_index(k: int) -> Checked:
    """The k-th position of an enumeration, as a term and as a value."""
    t: Term = T.ZeroE()
    for _ in range(k):
        t = T.SucE(t)
    return t, V.make_numeral(k)


def _find_constructor(code: Value, name: str, fuel: int):
    """Position path of a constructor through (possibly layered) tagged
    codes; computed-style datatypes wrap the choice in an elimination
    singleton."""
    if fuel <= 0 or not isinstance(code, V.VDSigmaE):
        return None
    tags = V.enum_tags(code.enum)
    if tags is None:
        return None
    if name in tags:
        k = tags.index(name)
        return [k], V.vapp(code.fam, V.make_numeral(k))
    for k in range(len(tags)):
        sub = V.vapp(code.fam, V.make_numeral(k))
        got = _find_constructor(sub, name, fuel - 1)
        if got is not None:
            return [k] + got[0], got[1]
    return None


def _spine(e: S.ExtTerm):
    args: list = []
    while isinstance(e, S.EApp):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


def _span(e) -> Optional[tuple]:
    return getattr(e, "span", None)


def elab_synth(ctx: Context, e: S.ExtTerm):
    """Synthesize a core term and its type from an external term."""
    return Elaborator().synth(ctx, e)


def elab_check(ctx: Context, e: S.ExtTerm, want: Value) -> Term:
    """Check an external term against a type, producing a core term."""
    return Elaborator().check(ctx, e, want)
