"""Programming labels and the restricted by-gadget.

A definition `let f xs : T where prog` elaborates its body against the
phantom goal type <f xs : T>; `by case x` / `by rec x` builds the
corresponding eliminator with the motive obtained by abstracting the goal
at the scrutinee, one subgoal per constructor (hypotheses for `rec`).

`data` clauses share the two steps around a label: `match_head` reads a
clause head against a label, and `elab_by` takes a clause's `by` step,
giving each subgoal the one clause whose head matches it. A datatype's
description label `<D ps is : IDesc I>` says by its type which arguments
are indices (`param_count`), so `match_head` applies the rules of a `data`
head there itself: bare parameters, bracketed indices and `[n = e]`
constraints.

The by-gadget knows a datatype's code only through `values`: it reads the
constructors' codes with `vapp_ground`, a branch's hypothesis types are
`viall` of the codes, and a constructor pattern binds the fields of the
payload type that `payload_type` memoises, the type that the kernel checks
the payload against. It trusts the shape `dataelab` gives every code: a
`'sigma` over one closed enumeration at every index, each constructor's
telescope ending in `'1` with only recursive leaves left of `'*`. The one
code it cannot split is the stuck code of `elim` at an index its block
cannot split.

The eliminator comes out beta-normal. A branch over a datatype is the
nested `split` of the constructor's payload around the branch body. The
walk that binds the payload's components as the body's variables also
builds that wrapper, one lambda per variable and one split per level, so
the body goes in where it was elaborated, unchanged. The eliminator is
built as a term around its tuple of branches, with its motives and codes
read back where they sit. So the result has no lambda-headed application
of its own, and the kernel re-checks each branch against the type the
eliminator gives it instead of synthesising the type of an annotated
redex.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from . import kernel as K
from . import surface as S
from . import terms as T
from . import values as V
from .elab import ElabError, Elaborator
from .kernel import Context
from .terms import Term
from .values import Value


class Slot:
    """One argument (or hypothesis) position of a constructor subgoal."""

    def __init__(self, ty: Value, proj: Value):
        self.ty = ty
        self.proj = proj


class EwmSubgoal:
    def __init__(self, tag: Optional[str], binders: List[tuple], hyp_slots: List[Slot], goal: Value, wrap: Callable):
        self.tag = tag
        # (name, type value or a function of no arguments that computes it),
        # fresh at ctx.depth + position
        self.binders = binders
        self.hyp_slots = hyp_slots
        self.goal = goal  # refined goal, valid under the binders
        self.wrap = wrap  # fn(body term under the binders) -> branch term


class EwmResult:
    def __init__(self, subgoals: List[EwmSubgoal], assemble: Callable[[List[Term]], Term]):
        self.subgoals = subgoals
        self.assemble = assemble


def ewm_restricted(ctx: Context, kind: str, scrut_name: str, goal: Value) -> EwmResult:
    """Restricted elimination with a motive: case or rec on one variable whose
    type is an enumeration or an elaborated tagged fix-point, with the motive
    formed by abstracting the goal at that variable."""
    hit = ctx.lookup(scrut_name)
    if hit is None:
        raise ElabError("UnsupportedScrutinee", None, f"unknown scrutinee '{scrut_name}'")
    ix, entry = hit
    d = ctx.depth
    scrut_v = ctx.env[d - 1 - ix]
    abstracted, occurs = T.abstract(ctx.quote(goal), ctx.quote(scrut_v))
    if not occurs:
        raise ElabError(
            "ScrutineeNotFree",
            None,
            f"'{scrut_name}' does not occur in the goal; the motive would be degenerate",
        )

    def motive_at(repl: Value) -> Value:
        return V.eval_term(abstracted, ctx.env + (repl,))

    sty = entry.ty
    if isinstance(sty, V.VEnumT):
        return _ewm_enum(ctx, kind, scrut_name, scrut_v, sty, motive_at)
    if isinstance(sty, V.VIMu):
        return _ewm_fix(ctx, kind, scrut_v, sty, motive_at)
    raise ElabError(
        "UnsupportedScrutinee",
        None,
        f"cannot eliminate '{scrut_name}' of type {K.show(ctx, sty)}",
    )


def _ewm_enum(ctx, kind, scrut_name, scrut_v, sty, motive_at) -> EwmResult:
    if kind != "case":
        raise ElabError("UnsupportedScrutinee", None, "'rec' on an enumeration; use 'case'")
    tags = V.enum_tags(sty.enum)
    assert tags is not None, "an enumeration type is closed: the surface cannot name EnumU"
    subgoals = []
    for k, tag in enumerate(tags):
        g = motive_at(V.VIdxE(k))
        subgoals.append(EwmSubgoal(tag, [], [], g, lambda body: body))
    motive_v = V.VLam(scrut_name, motive_at)

    def assemble(branches: List[Term]) -> Term:
        # switch E MOT BRANCHES x
        return T.Switch(ctx.quote(sty.enum), ctx.quote(motive_v), _cases(branches), ctx.quote(scrut_v))

    return EwmResult(subgoals, assemble)


def _cases(branches: List[Term]) -> Term:
    """The tuple of the branch terms."""
    out: Term = T.Void()
    for b in reversed(branches):
        out = T.Pair(b, out)
    return out


def _fam_name(fam: Value, default: str) -> str:
    if isinstance(fam, V.VLam) and fam.nm and fam.nm != "_":
        return fam.nm
    return default


def _ewm_fix(ctx, kind, scrut_v, sty, motive_at) -> EwmResult:
    d = ctx.depth
    ixty, fam_v, i0 = sty.ixty, sty.fam, sty.index
    code0, probe = V.vapp_ground(fam_v, i0), V.vapp(fam_v, V.fresh(d))
    assert isinstance(code0, V.VDSigmaE) and isinstance(probe, V.VDSigmaE), "a code is a 'sigma at every index"
    xfam = V.imu_family(ixty, fam_v)
    tags = V.enum_tags(code0.enum)

    has_hyp = kind == "rec"

    motive_v = V.VLam("p", lambda p: motive_at(V.vsnd(p)))

    def goal_of(v: Value, i: Value = i0) -> Value:
        return V.vapp(motive_v, V.VPair(i, v))

    def interp(code: Value) -> Value:
        return V.vinterp_i(code, xfam)

    def iall(code: Value, x: Value) -> Value:
        return V.viall(code, xfam, motive_v, x)

    def rebuild(knum: int, parts: list, tail: Value) -> Value:
        v = tail
        for x in reversed(parts):
            v = V.VPair(x, v)
        return goal_of(V.VIn(V.VPair(V.VIdxE(knum), v)))

    # the branches sit under the method's binders `\i. \xs. \h.` and its
    # step's `\c. \as.` (see `assemble`), so each subgoal binds these first
    # and its branch is built where it lands; no branch names `xs`, `h` or
    # `as`, so their types are computed only if something reads them
    iv, cv = V.fresh(d), V.fresh(d + 3)  # `probe` is the code at iv
    method_binders = [
        ("i", ixty),
        ("xs", lambda: interp(probe)),
        ("h", lambda: iall(probe, V.fresh(d + 1))),
        ("c", V.VEnumT(probe.enum)),
        ("as", lambda: interp(V.vapp(probe.fam, cv))),
    ]

    def plan(tag: str, knum: int, code: Value) -> EwmSubgoal:
        """The subgoal of constructor `knum`, whose payload has the code
        `code`, by a walk of fresh variables from below the method's
        binders.

        Constructor arguments become real variables via dependent pair
        splits; for `rec`, the inductive-hypothesis tuple threads through
        the split motives. A level's hypothesis is bound (h) after the
        payload and after a field; after a recursive argument it is the
        second component of the product's hypothesis (hp). The branch
        wrapper is built as the binders are, one lambda per binder and one
        split per level read back at its depth; `wrap(body)` puts it around
        a body elaborated under the binders."""
        binders: list = list(method_binders)
        hyp_slots: List[Slot] = []
        parts: list = []  # the payload's fields and recursive arguments so far
        frames: list = []  # fn(term inside) -> term, outermost first

        def bind(name: str, tyv: Value) -> Value:
            v = V.fresh(d + len(binders))
            binders.append((name, tyv))
            frames.append(lambda t: T.Lam(name, t))
            return v

        def split(code: Value, cursor: Value, h: Optional[Value]) -> None:
            # the motive rebuilds the goal from the parts so far; for `rec`
            # it also takes this level's hypothesis, and the split is
            # applied to `h`
            dd = d + len(binders)

            def motive(p: Value) -> Value:
                if has_hyp:
                    return V.VPi("h", iall(code, p), lambda _h: rebuild(knum, parts, p))
                return rebuild(knum, parts, p)

            mot, cur = ctx.quote(V.VLam("p", motive), dd), ctx.quote(cursor, dd)
            if has_hyp:
                ht = ctx.quote(h, dd)
                frames.append(lambda t: T.App(T.Split(mot, t, cur), ht))
            else:
                frames.append(lambda t: T.Split(mot, t, cur))

        cursor = bind("as", interp(code))
        hv = bind("h", iall(code, cursor)) if has_hyp else None
        while True:  # a constructor's telescope ends in '1
            if isinstance(code, V.VDOne):
                break
            if isinstance(code, (V.VDSigma, V.VDSigmaE)):
                split(code, cursor, hv)
                dom = V.VEnumT(code.enum) if isinstance(code, V.VDSigmaE) else code.dom
                x = bind(_fam_name(code.fam, "x"), dom)
                nxt = V.vapp(code.fam, x)
                r = bind("r", interp(nxt))
                parts.append(x)
                cursor, code = r, nxt
                if has_hyp:
                    hv = bind("h", iall(code, cursor))
                continue
            if isinstance(code, V.VDTimes):  # a recursive leaf on the left
                split(code, cursor, hv)
                x = bind("x", interp(code.lhs))
                r = bind("r", interp(code.rhs))
                parts.append(x)
                if has_hyp:
                    hp = bind("hp", iall(code, V.VPair(x, r)))
                    hyp_slots.append(Slot(iall(code.lhs, x), V.vfst(hp)))
                    hv = V.vsnd(hp)
                cursor, code = r, code.rhs
                continue
            raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")

        def wrap(body: Term) -> Term:
            for frame in reversed(frames):
                body = frame(body)
            return body

        return EwmSubgoal(tag, binders, hyp_slots, rebuild(knum, parts, cursor), wrap)

    subgoals = [plan(tag, k, V.vapp_ground(code0.fam, V.VIdxE(k))) for k, tag in enumerate(tags)]

    def assemble(branches: List[Term]) -> Term:
        # iinduction FAM MOT (\i. \xs. \h. split MS (\c. \as. switch E PC BRANCHES c as) xs h) I X,
        # with MS read back under i, xs and h, and E and PC also under c and as
        def pc(c2: Value) -> Value:
            ck = V.vapp(probe.fam, c2)

            def cod(a2: Value) -> Value:
                goal = goal_of(V.VIn(V.VPair(c2, a2)), iv)
                return V.VPi("h2", iall(ck, a2), lambda _h2: goal) if has_hyp else goal

            return V.VPi("a2", interp(ck), cod)

        def ms(q: Value) -> Value:
            goal = goal_of(V.VIn(q), iv)
            return V.VPi("hh", iall(probe, q), lambda _h: goal) if has_hyp else goal

        pcv = V.VLam("c2", pc)
        switch = T.Switch(ctx.quote(code0.enum, d + 5), ctx.quote(pcv, d + 5), _cases(branches), T.Var(1))
        step = T.Lam("c", T.Lam("as", T.App(switch, T.Var(0))))
        split: Term = T.Split(ctx.quote(V.VLam("q", ms), d + 3), step, T.Var(1))
        if has_hyp:
            split = T.App(split, T.Var(0))
        method = T.Lam("i", T.Lam("xs", T.Lam("h", split)))
        return T.IInduction(
            ctx.quote(ixty), _family_term(ctx, fam_v), ctx.quote(motive_v), method, ctx.quote(i0),
            ctx.quote(scrut_v),
        )

    return EwmResult(subgoals, assemble)


def _family_term(ctx: Context, fam: Value) -> Term:
    """The family of an eliminator over the fix-point of `fam`. A declared
    datatype's family closure holds its normal form, so when that term reads
    no variable but its binder, the eliminator shares it instead of reading
    it back: the kernel then finds the two families equal without opening
    them."""
    if type(fam) is V.VLam and type(fam.body) is V.Clo and V.own_binder_only(fam.body):
        return T.Lam(fam.nm, fam.body.term)
    return ctx.quote(fam)


# --- program elaboration --------------------------------------------------------


MAX_BY_DEPTH = 8


def elab_define(ctx: Context, decl: S.LetDecl, el: Optional[Elaborator] = None):
    """Elaborate a let-program; returns (definiens term, type term, type value)."""
    el = el or Elaborator()
    tel: list = []  # (name, type term at its depth)
    inner = ctx
    for nm, tye in decl.params:
        tyt, tyv, _ = el.elab_type(inner, tye)
        tel.append((nm, tyt))
        inner = inner.extend(nm, tyv)
    ret_t, ret_v, _ = el.elab_type(inner, decl.ret)

    args = tuple(T.Var(len(tel) - 1 - i) for i in range(len(tel)))
    argtys = tuple(T.shift(tyt, len(tel) - i) for i, (nm, tyt) in enumerate(tel))
    goal = V.VLabelTy(
        decl.name,
        tuple(inner.eval(a) for a in args),
        tuple(inner.eval(a) for a in argtys),
        ret_v,
    )

    prev_active = el.active
    el.active = decl.name
    try:
        body = _elab_clause(inner, el, decl.prog, goal, depth=0)
    finally:
        el.active = prev_active

    lcall = T.LCall(decl.name, args, argtys, ret_t, body)
    definiens: Term = lcall
    ty: Term = ret_t
    for nm, tyt in reversed(tel):
        definiens = T.Lam(nm, definiens)
        ty = T.Pi(nm, tyt, ty)
    return definiens, ty


def _elab_clause(
    ctx: Context, el: Elaborator, clause: S.Clause, goal: V.VLabelTy, depth: int, match: Optional[tuple] = None
) -> Term:
    """A clause at `goal`; `match`, when given, is its head's match, which
    the `by` step that chose the clause has made."""
    with el.goal(lambda: f"realizing the programming goal {K.show(ctx, goal)}"):
        _, ctx2 = match or match_head(ctx, clause.head, goal)
        if isinstance(clause.body, S.ByBlock):
            out = elab_by(
                ctx2,
                clause.body,
                clause.head.span,
                goal,
                depth,
                lambda c, cl, g, m: _elab_clause(c, el, cl, g, depth + 1, m),
            )
        else:
            out = T.LRet(el.check(ctx2, clause.body, goal.ty))
        return _inline_defs(ctx2, ctx, out)


def elab_by(ctx: Context, by: S.ByBlock, span, goal: V.VLabelTy, depth: int, recurse) -> Term:
    """The `by` step of a clause at `goal`, `depth` blocks deep: the
    eliminator of `by.var`, with each subgoal's branch elaborated by
    `recurse(ctx, clause, goal, match)` from the one clause whose head
    `match_head` accepts, `match` being what it returned, and constructor
    arguments bound as real variables. A subgoal tries only the clauses
    that name its constructor where the goal is split and those that name
    none there (`_clauses_by_constructor`); the others cannot match it.
    When no clause matches, the message gives the first clause's reason.
    Errors without a place of their own are located at `span`."""
    try:
        res = ewm_restricted(ctx, by.kind, by.var, goal)
    except ElabError as e:
        if e.span is None:
            e.span = span
        raise
    keyed = _clauses_by_constructor(ctx, by, goal)
    branches = []
    remaining = list(by.clauses)
    left = {id(c) for c in remaining}
    for sg in res.subgoals:
        inner = ctx
        for nm, tyv in sg.binders:
            inner = inner.extend(f"%{nm}", tyv)
        base = inner
        # hypotheses enter the context as definitions so label search finds them
        for j, slot in enumerate(sg.hyp_slots):
            inner = inner.extend(f"%ih{j}", slot.ty, slot.proj)
        pool = [c for c in keyed.get(sg.tag, []) + keyed[None] if id(c) in left]
        matched, reasons = _matches(inner, pool, sg.goal)
        if len(matched) != 1:
            # every clause left, in order, for the message
            matched, reasons = _matches(inner, remaining, sg.goal)
        if len(matched) != 1:
            have = ", ".join(c.head.name for c in remaining) or "none"
            why = f"; first clause: {reasons[0]}" if reasons and not matched else ""
            raise ElabError(
                "PatternHeadMismatch",
                remaining[0].head.span if remaining else span,
                f"expected exactly one branch for constructor '{sg.tag}' (have: {have}){why}",
            )
        c, match = matched[0]
        if depth >= MAX_BY_DEPTH:
            raise ElabError("ByDepthExceeded", c.head.span, f"'by' nesting deeper than {MAX_BY_DEPTH}")
        remaining.remove(c)
        left.discard(id(c))
        body = recurse(inner, c, sg.goal, match)
        branches.append(sg.wrap(_inline_defs(inner, base, body)))
    if remaining:
        raise ElabError(
            "PatternHeadMismatch",
            remaining[0].head.span,
            f"branch '{remaining[0].head.name}' matches no constructor of the scrutinee",
        )
    return res.assemble(branches)


def _matches(ctx: Context, clauses: list, goal: V.VLabelTy) -> tuple:
    """([(clause, its match)] for the clauses whose head `match_head`
    accepts at `ctx` and `goal`, [the messages of the others])."""
    matched, reasons = [], []
    for c in clauses:
        try:
            matched.append((c, match_head(ctx, c.head, goal)))
        except ElabError as e:
            reasons.append(e.msg)
    return matched, reasons


def _clauses_by_constructor(ctx: Context, by: S.ByBlock, goal: V.VLabelTy) -> dict:
    """The clauses of `by`, in order, keyed by the constructor or tag that
    each head names at the split position, the first argument of `goal`
    that is the scrutinee itself, or by None where it names none (all, when
    no argument is the scrutinee). A head names `c` there by a pattern
    `c xs`, or by a bare `c` that is not in scope at that position: neither
    matches a subgoal of another constructor."""
    ix, _ = ctx.lookup(by.var)
    scrut_v = ctx.env[ctx.depth - 1 - ix]
    pos = next((p for p, argv in enumerate(goal.args) if argv is scrut_v), None)
    keyed: dict = {None: []}
    for c in by.clauses:
        keyed.setdefault(_constructor_at(ctx, c.head, pos), []).append(c)
    return keyed


def _constructor_at(ctx: Context, head: S.Head, pos: Optional[int]) -> Optional[str]:
    if pos is None or len(head.pats) <= pos:
        return None
    pats = [p.pat if isinstance(p, S.PIndex) else p for p in head.pats[: pos + 1]]
    pat = pats[-1]
    if isinstance(pat, S.PCon):
        return pat.ctor
    if isinstance(pat, S.PVar) and ctx.lookup(pat.name) is None:
        # the variables that the earlier patterns bind are in scope too
        if not any(isinstance(p, S.PCon) and pat.name in p.vars for p in pats[:-1]):
            return pat.name
    return None


def _inline_defs(inner: Context, outer: Context, body: Term) -> Term:
    """Inline into `body` the definition entries by which `inner` extends
    `outer`, in one pass: a definition's value never mentions another
    definition's level, so each reads back at `outer`'s depth."""
    base, ndefs = outer.depth, inner.depth - outer.depth
    if ndefs == 0:
        return body
    dterms = []
    for e in reversed(inner.entries[base:]):
        assert e.val is not None, "expected a definition entry"
        dterms.append(inner.quote(e.val, base))
    return T.subst_free(body, lambda j: dterms[j] if j < ndefs else T.Var(j - ndefs))


def param_count(goal: V.VLabelTy) -> Optional[int]:
    """How many of a description label's arguments are parameters: the
    label `<D ps is : IDesc I>` ends in one index per component of `I`
    (`Unit` has none, `I * J` one more than `I`). None at a program's
    label."""
    if not isinstance(goal.ty, V.VIDesc):
        return None
    i, n = goal.ty.index, 0
    while isinstance(i, V.VSigma):
        i, n = i.dom, n + 1
    return len(goal.args) - n


def match_head(ctx: Context, head: S.Head, goal: V.VLabelTy) -> tuple:
    """Match a clause head against a label, position by position: a name
    matches the argument that the name in scope stands for, or a nullary
    constructor or enumeration tag the argument is refined to; `c xs`
    matches an argument refined to the constructor `c` and binds `xs` to
    its arguments. At a description label a parameter position takes a
    bare name and an index position a bracketed pattern, where `[n = e]`
    matches as the name `n` and constrains that index to `e`. Returns (the
    head's constraints as (position, surface expression) pairs, the context
    extended with the bindings)."""
    n_params = param_count(goal)
    if head.name != goal.head:
        raise ElabError(
            "PatternHeadMismatch",
            head.span,
            f"clause head '{head.name}' does not match the label '{goal.head}'",
        )
    if len(head.pats) != len(goal.args):
        raise ElabError(
            "PatternHeadMismatch",
            head.span,
            f"clause head has {len(head.pats)} argument(s); the label has {len(goal.args)}",
        )
    pats, constraints = head.pats, []
    if n_params is not None:
        pats = [
            _unbracket(pos, pat, argv, pos >= n_params, constraints)
            for pos, (pat, argv) in enumerate(zip(head.pats, goal.args))
        ]
    inner = ctx
    for pos, (pat, argv, argty) in enumerate(zip(pats, goal.args, goal.argtys)):
        if isinstance(pat, S.PVar):
            hit = inner.lookup(pat.name)
            if hit is not None and K.conv(inner, inner.env[inner.depth - 1 - hit[0]], argv):
                continue
            if _matches_enum_tag(pat.name, argv, argty):
                continue
            got = bind_refined(inner, pat.name, (), argv, argty, pat.span)
            if got is None:
                raise ElabError(
                    "PatternHeadMismatch",
                    pat.span,
                    f"pattern variable '{pat.name}' does not match argument {pos} of the label",
                )
        else:
            got = bind_refined(inner, pat.ctor, pat.vars, argv, argty, pat.span)
            if got is None:
                raise ElabError(
                    "PatternHeadMismatch",
                    pat.span,
                    f"constructor pattern '{pat.ctor}' does not match argument {pos}",
                )
        inner = got
    return tuple(constraints), inner


def _unbracket(pos: int, pat, argv: Value, is_index: bool, constraints: list):
    """The pattern that a `data` head's pattern at `pos` matches as: an
    index's bracketed pattern, with `[n = e]` read as `n` and its constraint
    added to `constraints`, or a parameter's bare name."""
    if isinstance(pat, S.PIndex) != is_index:
        raise ElabError(
            "PatternHeadMismatch",
            pat.span,
            f"index position {pos} must be written in brackets"
            if is_index
            else f"position {pos} is a parameter and must repeat the declared variable",
        )
    if not is_index:
        return pat
    pat = pat.pat
    if isinstance(pat, S.PConstraint):
        # under a by-refinement the index is no longer a variable
        if not isinstance(argv, V.VVar):
            raise ElabError(
                "PatternHeadMismatch", pat.span, f"refined index position {pos} cannot be constrained"
            )
        constraints.append((pos, pat.value))
        return S.PVar(pat.name, span=pat.span)
    return pat


def _matches_enum_tag(name: str, val: Value, tyv: Value) -> bool:
    """A by-refined enumeration index matches the pattern naming its tag."""
    if not isinstance(tyv, V.VEnumT):
        return False
    tags = V.enum_tags(tyv.enum)
    k = V.numeral_of(val)
    return tags is not None and k is not None and k < len(tags) and tags[k] == name


def bind_refined(ctx: Context, ctor: str, vars_: tuple, argv: Value, argty: Value, span) -> Optional[Context]:
    """Match the pattern `ctor vars` at `span` against a by-refined label
    argument `In (k, args)`: the context with `vars` bound to the
    constructor's arguments, or None when the constructor differs. A wrong
    number of variables is an error."""
    if not (isinstance(argv, V.VIn) and isinstance(argv.payload, V.VPair) and isinstance(argty, V.VIMu)):
        return None
    knum, code0 = V.numeral_of(argv.payload.fst), V.vapp_ground(argty.fam, argty.index)
    assert knum is not None, "a `by` step refines an argument to a constructor tag's numeral"
    assert isinstance(code0, V.VDSigmaE), "a code is a 'sigma at every index"
    tags = V.enum_tags(code0.enum)
    if tags is None or knum >= len(tags) or tags[knum] != ctor:
        return None
    # the constructor's fields, read off its payload type: a datatype's
    # constructor telescopes end in '1, so that type is a chain of Sigmas
    want = V.payload_type(argty.ixty, argty.fam, argty.index).cod(argv.payload.fst)
    args = argv.payload.snd
    slots: List[Slot] = []
    while isinstance(want, V.VSigma):
        slots.append(Slot(want.dom, V.vfst(args)))
        want, args = want.cod(V.vfst(args)), V.vsnd(args)
    if len(slots) != len(vars_):
        raise ElabError("PatternHeadMismatch", span, f"constructor '{ctor}' takes {len(slots)} argument(s)")
    inner = ctx
    for nm, slot in zip(vars_, slots):
        inner = inner.extend(nm, slot.ty, slot.proj)
    return inner
