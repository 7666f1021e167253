"""Bidirectional elaboration of external terms to core terms.

Type synthesis and checking mirror the kernel rules; on top of those sit the
sugar rules: LISP-style tuples against Sigma telescopes, enumeration
literals, eliminator literals, tag indexing, constructor applications
against tagged fix-points (with equality slots auto-filled by refl), and
decimal numerals.

Checking hands back, beside the core term, its value when it was built from
the values of its parts (constructors, tuples, tag indices, `refl`), so a
dependent codomain is instantiated without evaluating the finished argument
again: a constructor literal of size n elaborates in O(n). A numeral against
a datatype shaped like `Nat` skips the constructor rule: one loop builds its
term and value bottom-up, equal to what the rule gives `suc (… zero)`.

A datatype's code comes only from `dataelab`, so the constructor rule takes
it to be a `'sigma` over a closed enumeration of constructors, one layer
more for each `by` block, below that block's constructor `elim`.

An error's goal trail is built as the error unwinds: `synth`, `check` and
`labels`' clause step each catch an error that `Elaborator.err` raised, add
their goal, a judgment whose text is formatted only when it is read, and
raise it on. On the success path they keep no record. The derivation steps
of the paper's judgments (`ElabData`, `ElabConstr`, ...) are not in trails;
an elaborator built with `trace=True` records them as a tree of
`TraceNode`s, which is what `--emit-trace` prints, and any other elaborator
enters them through a shared no-op.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from . import kernel as K
from . import surface as S
from . import terms as T
from . import values as V
from .kernel import Context
from .terms import Term
from .values import Value

# a checked term with its value when that was built from the values of its
# parts, else None
Checked = tuple[Term, Optional[Value]]

# the deepest decimal literal: each level costs a few hundred bytes in each
# of its term, its value and what evaluation builds from it, so `plus
# 100000 100000` takes seconds and a deeper literal only fills the memory
MAX_NUMERAL = 100_000


class ElabError(Exception):
    """An elaboration failure and the goals in progress when it was raised.

    An error that `Elaborator.err` raised collects its goals as it unwinds
    through them (`add_goal`); any other has no trail. The message is a text
    or a function that formats it, and each goal a function and its
    arguments; they are called only when the message or the trail is read,
    so an error that is caught and dropped formats nothing."""

    def __init__(self, kind: str, span, msg):
        self.kind = kind
        self.span = span
        self._msg = msg
        self._goals: Optional[list] = None  # innermost first
        super().__init__(kind)

    def add_goal(self, fmt, *args) -> None:
        """Record a goal the error leaves, whose text is `fmt(*args)`. An
        error not raised by `err` keeps none."""
        if self._goals is not None:
            self._goals.append((fmt, args))

    def __str__(self) -> str:
        return f"{self.kind}: {self.msg}"

    @property
    def msg(self) -> str:
        if not isinstance(self._msg, str):
            self._msg = self._msg()
        return self._msg

    @property
    def trail(self) -> list:
        """The goal texts, outermost first."""
        return [fmt(*args) for fmt, args in reversed(self._goals or ())]

    def render(self) -> str:
        loc = f"{self.span[0]}:{self.span[1]}: " if self.span else ""
        lines = [f"{loc}{self.kind}: {self.msg}"]
        for g in reversed(self.trail):
            lines.append(f"  while {g}")
        return "\n".join(lines)


class TraceNode:
    """A recorded derivation step: its rule, its subject and the steps made
    inside it."""

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text
        self.children = []

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.kind}: {self.text}"]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)


class _Step:
    """A derivation step being recorded: entered, it hangs its node under
    the innermost step in progress and becomes that step itself."""

    __slots__ = ("el", "node")

    def __init__(self, el: "Elaborator", node: TraceNode):
        self.el = el
        self.node = node

    def __enter__(self):
        steps = self.el.steps
        if steps:
            steps[-1].children.append(self.node)
        else:
            self.el.root = self.node
        steps.append(self.node)

    def __exit__(self, *exc):
        self.el.steps.pop()


_NO_STEP = nullcontext()


class Elaborator:
    """Elaboration session state: the derivation steps recorded when
    tracing and the active definition (for label-directed recursive
    calls)."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.steps: list = []  # recorded steps in progress, outermost first
        self.root: Optional[TraceNode] = None  # the outermost recorded step
        self.active: Optional[str] = None

    def goal(self, desc, rule: str):
        """A derivation step of the judgment `rule` for the extent of a
        `with` block. When tracing, `desc`, a function of no arguments, is
        called at once and the step recorded under the innermost step in
        progress; otherwise the step is a shared no-op and `desc` is never
        called. Error trails leave derivation steps out."""
        if self.trace:
            return _Step(self, TraceNode(rule, desc()))
        return _NO_STEP

    def err(self, kind: str, span, msg):
        """Raise an `ElabError` whose trail the goals it unwinds fill in."""
        e = ElabError(kind, span, msg)
        e._goals = []
        raise e

    # -- synthesis --

    def synth(self, ctx: Context, e: S.ExtTerm):
        try:
            return self._synth(ctx, e)
        except ElabError as err:
            err.add_goal(_synthesizing, e)
            raise

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
            head, args = _unapply(e)
            if isinstance(head, S.EVar) and ctx.lookup(head.name) is None and self.active == head.name:
                return self._recursive_call(ctx, e, args)
            t, ty = self.synth(ctx, head)
            for a in args:
                if not isinstance(ty, V.VPi):
                    self.err(
                        "NotAFunction",
                        _span(a) or _span(e),
                        f"applied term has type {K.show(ctx, ty)}",
                    )
                at, av = self._check_value(ctx, a, ty.dom)
                t = T.App(t, at)
                if av is None and (type(at) is T.Var or V.reads_arg(ty.cod)):
                    av = ctx.eval(at)  # a variable's value is a lookup
                ty = ty.cod(av)
            return t, ty
        if isinstance(e, S.EAnn):
            tyt, tyv, _ = self.elab_type(ctx, e.ty)
            t = self.check(ctx, e.expr, tyv)
            # a lambda only checks; annotated, it can head an application
            return (T.Ann(t, tyt) if type(t) is T.Lam else t), tyv
        if isinstance(e, S.EPi):
            domt, domv, j = self.elab_type(ctx, e.dom)
            codt, _, k = self.elab_type(ctx.extend(e.name, domv), e.cod)
            return T.Pi(e.name, domt, codt), V.VSet(max(j, k))
        if isinstance(e, S.ESigma):
            domt, domv, j = self.elab_type(ctx, e.dom)
            codt, _, k = self.elab_type(ctx.extend(e.name, domv), e.cod)
            return T.Sigma(e.name, domt, codt), V.VSet(max(j, k))
        if isinstance(e, S.ESet):
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
            tyt = ctx.quote(lty)
            return T.Eq(tyt, lt, rt), V.VSet(K.type_level(ctx, tyt))
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
            return (
                T.LCall(
                    name,
                    tuple(arg_terms),
                    tuple(ctx.quote(a) for a in lab.argtys),
                    ctx.quote(lab.ty),
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
        try:
            return self._check(ctx, e, want)
        except ElabError as err:
            err.add_goal(_checking, ctx, e, want)
            raise

    def _check(self, ctx: Context, e: S.ExtTerm, want: Value) -> Checked:
        if isinstance(e, S.ELam):
            if not isinstance(want, V.VPi):
                self.err("CheckMismatch", e.span, f"function against {K.show(ctx, want)}")
            inner = ctx.extend(e.name, want.dom)
            body = self.check(inner, e.body, want.cod(V.fresh(ctx.depth)))
            return T.Lam(e.name, body), None
        if isinstance(e, S.EParen):
            if isinstance(want, (V.VSigma, V.VUnit)):
                return self._tuple(ctx, e, [], want)
            self.err("CheckMismatch", e.span, f"'()' against {K.show(ctx, want)}")
        if isinstance(e, S.EApp) and isinstance(want, (V.VSigma, V.VUnit)):
            # the LISP-inspired tuple reading of an application, with the
            # plain application as the fallback
            head, args = _unapply(e)
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
            self.err("CheckMismatch", e.span, f"enumeration against {K.show(ctx, want)}")
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
            self.err("CheckMismatch", e.span, f"tag against {K.show(ctx, want)}")
        if isinstance(e, S.ENum):
            return self._numeral(ctx, e, want)
        if isinstance(e, S.ERefl):
            if isinstance(want, V.VEq):
                if K.conv(ctx, want.lhs, want.rhs):
                    return T.Refl(), V.VRefl()
                self.err(
                    "CheckMismatch",
                    e.span,
                    "refl between non-convertible sides "
                    f"{K.show(ctx, want.lhs)} and {K.show(ctx, want.rhs)}",
                )
            self.err("CheckMismatch", e.span, f"refl against {K.show(ctx, want)}")
        # constructor sugar: an unbound head applied against a tagged fix-point
        head, args = _unapply(e)
        if (
            isinstance(head, S.EVar)
            and ctx.lookup(head.name) is None
            and head.name != self.active
            and isinstance(want, V.VIMu)
        ):
            return self._constructor(ctx, e, head, args, want)
        t, got = self.synth(ctx, e)
        if not K.conv_le(ctx, got, want):
            self.err(
                "CheckMismatch",
                _span(e),
                f"expected {K.show(ctx, want)}, got {K.show(ctx, got)}",
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
                f"eliminator literal against {K.show(ctx, want)}",
            )
        tags = V.enum_tags(want.dom.enum)
        given = [tg for tg, _ in e.alts]
        if given != tags:
            self.err(
                "UnknownTag",
                e.span,
                f"alternatives {given} do not match the enumeration {tags}",
            )
        d = ctx.depth
        enum_t = ctx.quote(want.dom.enum)
        fam_t = T.Lam("e", ctx.quote(want.cod(V.fresh(d)), d + 1))
        fam_v = ctx.eval(fam_t)
        cases: list = []
        for k, (_, rhs) in enumerate(e.alts):
            cases.append(self.check(ctx, rhs, V.vapp(fam_v, V.VIdxE(k))))
        cases_t: Term = T.Void()
        for c in reversed(cases):
            cases_t = T.Pair(c, cases_t)
        body = T.Switch(T.shift(enum_t, 1), T.shift(fam_t, 1), T.shift(cases_t, 1), T.Var(0))
        return T.Lam("e", body)

    def _numeral(self, ctx: Context, e: S.ENum, want: Value) -> Checked:
        """A decimal literal `n`, which means `suc (… zero)` with `n` `suc`s.

        Against a datatype at index type `Unit` whose `zero` code is `'1` and
        whose `suc` code is `'varI () '* '1`, the term and its value are
        built bottom-up in one loop; they equal what the constructor rule
        gives the expansion. With `zero` or `suc` bound or being defined, or
        against any other fix-point, the expansion is elaborated, errors
        included. Against a type that is no datatype, with both names free,
        the numeral is rejected as such. A literal deeper than `MAX_NUMERAL`
        is refused before anything is built."""
        if e.value > MAX_NUMERAL:
            raise RecursionError(f"numeral {e.value} is deeper than {MAX_NUMERAL} levels")
        if ctx.lookup("zero") is None and ctx.lookup("suc") is None and self.active not in ("zero", "suc"):
            paths = _nat_paths(want)
            if paths is not None:
                return _build_numeral(e.value, *paths)
            # a Sigma keeps the expansion: its tuple reading may succeed
            if not isinstance(want, (V.VIMu, V.VSigma)):
                self.err("CheckMismatch", e.span, f"numeral against {K.show(ctx, want)}")
        expanded: S.ExtTerm = S.EVar("zero", span=e.span)
        for _ in range(e.value):
            expanded = S.EApp(S.EVar("suc", span=e.span), expanded, span=e.span)
        return self._check(ctx, expanded, want)

    def _tuple(self, ctx: Context, e, items: list, want: Value) -> Checked:
        """The tuple `items` against `want`, a Sigma or a Unit type."""
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

    def _constructor(self, ctx: Context, e, head: S.EVar, args: list, want: Value) -> Checked:
        code = V.vapp_ground(want.fam, want.index)
        assert isinstance(code, V.VDSigmaE), "a code is a 'sigma at every index"
        found = _find_constructor(code, head.name)
        if found is None:

            def msg():
                tags = V.enum_tags(code.enum)
                listed = f" (constructors: {', '.join(tags)})" if tags else ""
                return f"'{head.name}' is not a constructor of {K.show(ctx, want)}{listed}"

            self.err("UnknownTag", head.span, msg)
        path, final_code = found
        payload_want = V.vinterp_i(final_code, V.imu_family(want.ixty, want.fam))
        args_t, args_v = self._ctor_args(ctx, e, list(args), payload_want)
        return _tagged([_enum_index(k) for k in path], args_t, args_v)

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
                        f"{K.show(ctx, want.dom.lhs)} /= {K.show(ctx, want.dom.rhs)}",
                    )
            elif args:
                a, av = self._check_value(ctx, args.pop(0), want.dom)
            else:
                self.err("BadTupleArity", _span(e), "constructor is missing arguments")
            if av is None:
                av = ctx.eval(a)
            rest, rest_v = self._ctor_args(ctx, e, args, want.cod(av))
            return _pair(a, av, rest, rest_v)
        # a payload type stuck on its index, such as that of `elim`, the
        # constructor a `by` clause adds, at an index its block cannot split
        if len(args) == 1:
            return self._check_value(ctx, args[0], want)
        self.err(
            "BadTupleArity",
            _span(e),
            f"constructor arity mismatch ({len(args)} argument(s) left for "
            f"{K.show(ctx, want)})",
        )

    # -- helpers --

    def elab_type(self, ctx: Context, e: S.ExtTerm):
        """Elaborate a type: returns (term, value, universe level)."""
        t, ty = self.synth(ctx, e)
        if not isinstance(ty, V.VSet):
            self.err(
                "CheckMismatch",
                _span(e),
                f"expected a type, got something of type {K.show(ctx, ty)}",
            )
        return t, ctx.eval(t), ty.level


def _synthesizing(e: S.ExtTerm) -> str:
    return f"synthesizing {S.print_expr(e)}"


def _checking(ctx: Context, e: S.ExtTerm, want: Value) -> str:
    return f"checking {S.print_expr(e)} against {K.show(ctx, want)}"


def _pair(a: Term, av: Value, b: Term, bv: Optional[Value]) -> Checked:
    return T.Pair(a, b), None if bv is None else V.VPair(av, bv)


def _enum_index(k: int) -> Checked:
    """The k-th position of an enumeration, as a term and as a value."""
    return T.IdxE(k), V.VIdxE(k)


def _nat_paths(want: Value):
    """The tag paths of `zero` and `suc` in `want` when it is a datatype at
    index type `Unit` whose `zero` code is `'1` and whose `suc` code is
    `'varI () '* '1`, else None."""
    if not (type(want) is V.VIMu and type(want.ixty) is V.VUnit and type(want.index) is V.VVoid):
        return None
    code = V.vapp_ground(want.fam, want.index)
    zero, suc = _find_constructor(code, "zero"), _find_constructor(code, "suc")
    if zero is None or suc is None or type(zero[1]) is not V.VDOne:
        return None
    rec = suc[1]
    if (
        type(rec) is V.VDTimes
        and type(rec.lhs) is V.VDVarI
        and type(rec.lhs.index) is V.VVoid
        and type(rec.rhs) is V.VDOne
    ):
        return zero[0], suc[0]
    return None


def _build_numeral(n: int, zero_path: list, suc_path: list) -> Checked:
    """`suc (… zero)` with `n` `suc`s as the constructor rule elaborates it,
    given the tag paths of the two constructors."""
    zero_tags = [_enum_index(k) for k in zero_path]
    suc_tags = [_enum_index(k) for k in suc_path]
    void_t, void_v = T.Void(), V.VVoid()
    t, v = _tagged(zero_tags, void_t, void_v)
    for _ in range(n):
        t, v = _tagged(suc_tags, T.Pair(t, void_t), V.VPair(v, void_v))
    return t, v


def _tagged(tags: list, args_t: Term, args_v: Optional[Value]) -> Checked:
    """The constructor behind the tag indices `tags` (outermost first, each
    as `_enum_index` gives it) applied to the argument tuple `args_t`, whose
    value is `args_v` or None."""
    for kt, kv in reversed(tags):
        args_t, args_v = _pair(kt, kv, args_t, args_v)
    return T.In(args_t), None if args_v is None else V.VIn(args_v)


def _find_constructor(code: Value, name: str):
    """Position path of a constructor through (possibly layered) tagged
    codes, with the constructor's own code: a `by` clause adds a layer, the
    constructor `elim` whose code is the choice the block makes. Codes are
    finite, so the search ends; an `elim` at an index the block cannot
    split has a stuck code and no constructors."""
    if not isinstance(code, V.VDSigmaE):
        return None
    tags = V.enum_tags(code.enum)
    if name in tags:
        k = tags.index(name)
        return [k], V.vapp_ground(code.fam, V.VIdxE(k))
    for k in range(len(tags)):
        sub = V.vapp_ground(code.fam, V.VIdxE(k))
        got = _find_constructor(sub, name)
        if got is not None:
            return [k] + got[0], got[1]
    return None


def _unapply(e: S.ExtTerm):
    args: list = []
    while isinstance(e, S.EApp):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


def _span(e) -> Optional[tuple]:
    return getattr(e, "span", None)
