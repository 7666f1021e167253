"""Programming labels and the restricted by-gadget.

A definition `let f xs : T where prog` elaborates its body against the
phantom goal type <f xs : T>; `by case x` / `by rec x` builds the
corresponding eliminator with the motive obtained by abstracting the goal
at the scrutinee, one subgoal per constructor (hypotheses for `rec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from . import kernel as K
from . import pp
from . import surface as S
from . import terms as T
from . import values as V
from .elab import ElabError, Elaborator
from .kernel import Context
from .terms import Term
from .values import Value


@dataclass
class Slot:
    """One argument (or hypothesis) position of a constructor subgoal."""

    ty: Value
    proj: Value
    recursive: bool = False


@dataclass
class EwmSubgoal:
    tag: Optional[str]
    knum: int
    has_hyp: bool
    binders: List[tuple]  # (name, type value), fresh at ctx.depth + position
    arg_slots: List[Slot]
    hyp_slots: List[Slot]
    goal: Value  # refined goal, valid under the binders
    branch_ty: Value  # full branch type at the original depth
    wrap: Callable  # fn(outer ctx, body term under the binders) -> branch term


@dataclass
class EwmResult:
    subgoals: List[EwmSubgoal]
    assemble: Callable[[List[Term]], Term]


def _ann_lams(t: Term, anns: List[Term]) -> Term:
    """Re-annotate the first len(anns) lambda binders of a quoted value."""
    if not anns:
        return t
    assert isinstance(t, T.Lam), "expected a lambda spine"
    return T.Lam(t.nm, anns[0], _ann_lams(t.body, anns[1:]))


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
    scrut_t = ctx.quote(scrut_v)
    goal_t = ctx.quote(goal)
    abstracted = T.abstract(goal_t, scrut_t)
    if abstracted == T.shift(goal_t, 1):
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
        return _ewm_fix(ctx, kind, scrut_name, scrut_v, sty, motive_at)
    raise ElabError(
        "UnsupportedScrutinee",
        None,
        f"cannot eliminate '{scrut_name}' of type "
        f"{_print_value(ctx, sty)}",
    )


def _ewm_enum(ctx, kind, scrut_name, scrut_v, sty, motive_at) -> EwmResult:
    if kind != "case":
        raise ElabError("UnsupportedScrutinee", None, "'rec' on an enumeration; use 'case'")
    tags = V.enum_tags(sty.enum)
    if tags is None:
        raise ElabError("UnsupportedScrutinee", None, "case on an open enumeration")
    d = ctx.depth
    subgoals = []
    for k, tag in enumerate(tags):
        g = motive_at(V.make_numeral(k))
        subgoals.append(
            EwmSubgoal(tag, k, False, [], [], [], g, g, lambda _c, body: body)
        )
    enum_v = sty.enum
    motive_v = V.VLam(scrut_name, V.PyClo(motive_at))

    def assemble(branches: List[Term]) -> Term:
        def mk(bvals: List[Value]) -> Value:
            cases: Value = V.VVoid()
            for b in reversed(bvals):
                cases = V.VPair(b, cases)
            return V.vswitch(enum_v, motive_v, cases, scrut_v)

        elim_v = _lam_chain(len(tags), mk)
        elim_t = ctx.quote(elim_v)
        anns = [ctx.quote(sg.branch_ty, d + i) for i, sg in enumerate(subgoals)]
        elim_t = _ann_lams(elim_t, anns)
        out = elim_t
        for b in branches:
            out = T.App(out, b)
        return out

    return EwmResult(subgoals, assemble)


def _lam_chain(n: int, mk: Callable[[List[Value]], Value]) -> Value:
    """n-ary host-level lambda value collecting its arguments."""

    def go(acc: List[Value]) -> Value:
        if len(acc) == n:
            return mk(acc)
        return V.VLam(f"b{len(acc)}", V.PyClo(lambda v, a=acc: go(a + [v])))

    return go([])


def _is_leaf(code: Value) -> bool:
    return isinstance(code, (V.VDVarI, V.VDPi))


def _fam_name(fam: Value, default: str) -> str:
    if isinstance(fam, V.VLam) and fam.nm and fam.nm != "_":
        return fam.nm
    return default


class _BranchShape:
    """The nested-split decomposition of one constructor's payload.

    Constructor arguments become real variables via dependent pair splits;
    for `rec`, the inductive-hypothesis tuple threads through the split
    motives and is rebound (h) at every level.
    """

    def __init__(self, code: Value, knum: int, has_hyp: bool, interp, iall, goal_of, motive_v):
        self.code0 = code
        self.knum = knum
        self.has_hyp = has_hyp
        self.interp = interp
        self.iall = iall
        self.goal_of = goal_of
        self.motive_v = motive_v

    def _leaf_hyp_ty(self, code: Value, arg: Value) -> Value:
        if isinstance(code, V.VDVarI):
            return V.vapp(self.motive_v, V.VPair(code.index, arg))
        # exponential: pointwise hypotheses
        return V.VPi(
            "s",
            code.dom,
            V.PyClo(lambda s: self._leaf_hyp_ty(V.vapp(code.fam, s), V.vapp(arg, s))),
        )

    def rebuild(self, parts: list, tail: Value) -> Value:
        v = tail
        for x in reversed(parts):
            v = V.VPair(x, v)
        return self.goal_of(V.VIn(V.VPair(V.make_numeral(self.knum), v)))

    def plan(self, d: int):
        """Fresh-variable walk: binder specs, pattern slots, refined goal."""
        binders: list = []
        arg_slots: List[Slot] = []
        hyp_slots: List[Slot] = []

        def bind(name: str, tyv: Value) -> Value:
            v = V.fresh(d + len(binders))
            binders.append((name, tyv))
            return v

        as_v = bind("as", self.interp(self.code0))
        parts: list = []
        cursor, code = as_v, self.code0
        while True:
            if self.has_hyp:
                hv = bind("h", self.iall(code, cursor))
            if _is_leaf(code):
                arg_slots.append(
                    Slot(self.interp(code), cursor, recursive=not isinstance(code, V.VDPi))
                )
                if self.has_hyp:
                    hyp_slots.append(Slot(self._leaf_hyp_ty(code, cursor), hv))
                break
            if isinstance(code, V.VDOne):
                break
            if isinstance(code, (V.VDSigma, V.VDSigmaE)):
                dom = V.VEnumT(code.enum) if isinstance(code, V.VDSigmaE) else code.dom
                x = bind(_fam_name(code.fam, "x"), dom)
                nxt = V.vapp(code.fam, x)
                if not isinstance(nxt, (V.VDVarI, V.VDPi, V.VDOne, V.VDTimes, V.VDSigma, V.VDSigmaE)):
                    raise ElabError(
                        "UnsupportedScrutinee", None, "constructor code is not canonical"
                    )
                r = bind("r", self.interp(nxt))
                arg_slots.append(Slot(dom, x))
                parts.append(x)
                cursor, code = r, nxt
                continue
            if isinstance(code, V.VDTimes):
                if not _is_leaf(code.lhs):
                    raise ElabError(
                        "UnsupportedScrutinee", None, "unexpected product shape in a code"
                    )
                x = bind("x", self.interp(code.lhs))
                r = bind("r", self.interp(code.rhs))
                arg_slots.append(
                    Slot(self.interp(code.lhs), x, recursive=not isinstance(code.lhs, V.VDPi))
                )
                parts.append(x)
                if self.has_hyp:
                    hp = bind("hp", self.iall(code, V.VPair(x, r)))
                    hyp_slots.append(Slot(self._leaf_hyp_ty(code.lhs, x), V.vfst(hp)))
                cursor, code = r, code.rhs
                continue
            raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")
        goal = self.rebuild(parts, cursor)
        return binders, arg_slots, hyp_slots, goal

    def build(self, bf: Value) -> Value:
        """The branch value, applying the body function to the binder values
        in plan order."""

        def level(code, cursor, parts, acc):
            if self.has_hyp:
                return V.VLam(
                    "h",
                    V.PyClo(lambda h: after(code, cursor, parts, acc + [h], h)),
                )
            return after(code, cursor, parts, acc, None)

        def after(code, cursor, parts, acc, h):
            if _is_leaf(code) or isinstance(code, V.VDOne):
                return V.vapps(bf, *acc)
            if isinstance(code, (V.VDSigma, V.VDSigmaE)):
                meth = V.VLam(
                    _fam_name(code.fam, "x"),
                    V.PyClo(
                        lambda x, code=code, parts=list(parts), acc=list(acc): V.VLam(
                            "r",
                            V.PyClo(
                                lambda r, x=x: level(
                                    V.vapp(code.fam, x), r, parts + [x], acc + [x, r]
                                )
                            ),
                        )
                    ),
                )
                return self._split(code, parts, cursor, meth, h)
            if isinstance(code, V.VDTimes):
                def meth_body(x, r, code=code, parts=list(parts), acc=list(acc)):
                    if self.has_hyp:
                        return V.VLam(
                            "hp",
                            V.PyClo(
                                lambda hp, x=x, r=r: V.vapp(
                                    level(code.rhs, r, parts + [x], acc + [x, r, hp]),
                                    V.vsnd(hp),
                                )
                            ),
                        )
                    return level(code.rhs, r, parts + [x], acc + [x, r])

                meth = V.VLam(
                    "x",
                    V.PyClo(
                        lambda x: V.VLam("r", V.PyClo(lambda r, x=x: meth_body(x, r)))
                    ),
                )
                return self._split(code, parts, cursor, meth, h)
            raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")

        return V.VLam("as", V.PyClo(lambda as_v: level(self.code0, as_v, [], [as_v])))

    def _split(self, code: Value, parts: list, cursor: Value, meth: Value, h) -> Value:
        """Split `cursor` at one level, with the motive rebuilding the goal
        from `parts`; for `rec` the motive also takes this level's hypothesis,
        and the split is applied to `h`."""

        def motive(p: Value) -> Value:
            if self.has_hyp:
                return V.VPi("h", self.iall(code, p), V.PyClo(lambda _h: self.rebuild(parts, p)))
            return self.rebuild(parts, p)

        split = V.vsplit(V.VLam("p", V.PyClo(motive)), meth, cursor)
        return V.vapp(split, h) if self.has_hyp else split


def _ewm_fix(ctx, kind, scrut_name, scrut_v, sty, motive_at) -> EwmResult:
    d = ctx.depth
    ixty, fam_v, i0 = sty.ixty, sty.fam, sty.index
    code0 = V.vapp(fam_v, i0)
    xfam = V.imu_family(ixty, fam_v)
    if not isinstance(code0, V.VDSigmaE):
        raise ElabError(
            "UnsupportedScrutinee",
            None,
            f"the type of '{scrut_name}' does not expose a choice of constructors",
        )
    tags = V.enum_tags(code0.enum)
    if tags is None:
        raise ElabError("UnsupportedScrutinee", None, "constructor enumeration is not canonical")
    probe = V.vapp(fam_v, V.fresh(d))
    if not (isinstance(probe, V.VDSigmaE) and V.enum_tags(probe.enum) == tags):
        raise ElabError(
            "UnsupportedScrutinee",
            None,
            "the choice of constructors varies with the index",
        )

    has_hyp = kind == "rec"

    motive_v = V.VLam("p", V.PyClo(lambda p: motive_at(V.vsnd(p))))

    def goal_of(v: Value, i: Value = i0) -> Value:
        return V.vapp(motive_v, V.VPair(i, v))

    def interp(code: Value) -> Value:
        return V.vinterp_i(code, xfam)

    def iall(code: Value, x: Value) -> Value:
        return V.viall(code, xfam, motive_v, x)

    subgoals = []
    shapes = []
    for k, tag in enumerate(tags):
        code_k = V.vapp(code0.fam, V.make_numeral(k))
        shape = _BranchShape(
            code_k, k, has_hyp, interp, iall, goal_of, motive_v
        )
        binders, arg_slots, hyp_slots, refined = shape.plan(d)
        bty = V.VPi(
            "as",
            interp(code_k),
            V.PyClo(
                lambda a, ck=code_k, kk=k: (
                    V.VPi(
                        "h",
                        iall(ck, a),
                        V.PyClo(
                            lambda _h, aa=a, k2=kk: goal_of(
                                V.VIn(V.VPair(V.make_numeral(k2), aa))
                            )
                        ),
                    )
                    if has_hyp
                    else goal_of(V.VIn(V.VPair(V.make_numeral(kk), a)))
                )
            ),
        )

        def wrap(outer_ctx: Context, body: Term, shape=shape, binders=binders, refined=refined, ck=code_k) -> Term:
            dd = outer_ctx.depth
            anns = [outer_ctx.quote(tyv, dd + i) for i, (_nm, tyv) in enumerate(binders)]
            bodylam = body
            for (nm, _tyv), ann in zip(reversed(binders), reversed(anns)):
                bodylam = T.Lam(nm, ann, bodylam)
            bodyfn_ty: Term = outer_ctx.quote(refined, dd + len(binders))
            for (nm, _tyv), ann in zip(reversed(binders), reversed(anns)):
                bodyfn_ty = T.Pi(nm, ann, bodyfn_ty)
            wrapper_v = V.VLam("bf", V.PyClo(lambda bf: shape.build(bf)))
            # the wrapper's leading lambdas sit in inference position
            spine_anns = [bodyfn_ty, outer_ctx.quote(interp(ck), dd + 1)]
            if has_hyp:
                spine_anns.append(outer_ctx.quote(iall(ck, V.fresh(dd + 1)), dd + 2))
            wrapper_t = _ann_lams(outer_ctx.quote(wrapper_v), spine_anns)
            return T.App(wrapper_t, bodylam)

        subgoals.append(
            EwmSubgoal(tag, k, has_hyp, binders, arg_slots, hyp_slots, refined, bty, wrap)
        )
        shapes.append(shape)

    def assemble(branches: List[Term]) -> Term:
        def mk(bvals: List[Value]) -> Value:
            def method_body(iv, xsv, hv):
                code_i = V.vapp(fam_v, iv)
                tfam = code_i.fam if isinstance(code_i, V.VDSigmaE) else code0.fam

                def pc(c2: Value) -> Value:
                    ck = V.vapp(tfam, c2)
                    if has_hyp:
                        return V.VPi(
                            "a2",
                            interp(ck),
                            V.PyClo(
                                lambda a2: V.VPi(
                                    "h2",
                                    iall(ck, a2),
                                    V.PyClo(
                                        lambda _h2, aa=a2: goal_of(
                                            V.VIn(V.VPair(c2, aa)), iv
                                        )
                                    ),
                                )
                            ),
                        )
                    return V.VPi(
                        "a2",
                        interp(ck),
                        V.PyClo(lambda a2: goal_of(V.VIn(V.VPair(c2, a2)), iv)),
                    )

                pcv = V.VLam("c2", V.PyClo(pc))
                cases: Value = V.VVoid()
                for b in reversed(bvals):
                    cases = V.VPair(b, cases)
                mstep = V.VLam(
                    "c",
                    V.PyClo(
                        lambda c: V.VLam(
                            "as",
                            V.PyClo(
                                lambda a, cc=c: V.vapp(
                                    V.vswitch(code0.enum, pcv, cases, cc), a
                                )
                            ),
                        )
                    ),
                )
                if has_hyp:
                    ms = V.VLam(
                        "q",
                        V.PyClo(
                            lambda q: V.VPi(
                                "hh",
                                iall(code_i, q),
                                V.PyClo(lambda _h, qq=q: goal_of(V.VIn(qq), iv)),
                            )
                        ),
                    )
                    return V.vapp(V.vsplit(ms, mstep, xsv), hv)
                ms = V.VLam("q", V.PyClo(lambda q: goal_of(V.VIn(q), iv)))
                return V.vsplit(ms, mstep, xsv)

            method = V.VLam(
                "i",
                V.PyClo(
                    lambda iv: V.VLam(
                        "xs",
                        V.PyClo(
                            lambda xs: V.VLam(
                                "h", V.PyClo(lambda h, ii=iv, xx=xs: method_body(ii, xx, h))
                            )
                        ),
                    )
                ),
            )
            return V.viinduction(ixty, fam_v, motive_v, method, i0, scrut_v)

        elim_v = _lam_chain(len(tags), mk)
        elim_t = ctx.quote(elim_v)
        anns = [ctx.quote(sg.branch_ty, d + i) for i, sg in enumerate(subgoals)]
        elim_t = _ann_lams(elim_t, anns)
        out = elim_t
        for b in branches:
            out = T.App(out, b)
        return out

    return EwmResult(subgoals, assemble)


def _walk_args(code: Value, cur: Value, out: List[Slot], interp) -> None:
    if isinstance(code, V.VDOne):
        return
    if isinstance(code, V.VDTimes):
        _walk_args(code.lhs, V.vfst(cur), out, interp)
        _walk_args(code.rhs, V.vsnd(cur), out, interp)
        return
    if isinstance(code, (V.VDVarI, V.VDPi)):
        out.append(Slot(interp(code), cur, recursive=not isinstance(code, V.VDPi)))
        return
    if isinstance(code, (V.VDSigma, V.VDSigmaE)):
        dom = V.VEnumT(code.enum) if isinstance(code, V.VDSigmaE) else code.dom
        out.append(Slot(dom, V.vfst(cur)))
        _walk_args(V.vapp(code.fam, V.vfst(cur)), V.vsnd(cur), out, interp)
        return
    raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")


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
        body = _elab_program(inner, el, decl.prog, goal, depth=0)
    finally:
        el.active = prev_active

    lcall = T.LCall(decl.name, args, argtys, ret_t, body)
    definiens: Term = lcall
    ty: Term = ret_t
    for nm, tyt in reversed(tel):
        definiens = T.Lam(nm, tyt, definiens)
        ty = T.Pi(nm, tyt, ty)
    return definiens, ty


def _elab_program(ctx: Context, el: Elaborator, prog, goal: V.VLabelTy, depth: int) -> Term:
    if depth > MAX_BY_DEPTH:
        raise ElabError("ByDepthExceeded", _pspan(prog), f"'by' nesting deeper than {MAX_BY_DEPTH}")
    with el.goal(lambda: f"realizing the programming goal {_print_value(ctx, goal)}"):
        ctx2 = _validate_prog_head(ctx, el, prog.head, goal)
        if isinstance(prog, S.PReturn):
            body = el.check(ctx2, prog.expr, goal.ty)
            body = _inline_defs(ctx2, ctx, body)
            return T.LRet(body)
        assert isinstance(prog, S.PBy)
        try:
            res = ewm_restricted(ctx2, prog.kind, prog.var, goal)
        except ElabError as e:
            if e.span is None:
                e.span = _pspan(prog)
            raise
        branches = _elab_branches(
            ctx2,
            el,
            res,
            list(prog.programs),
            lambda c, p, g: _elab_program(c, el, p, g, depth + 1),
            _prog_pattern_matcher,
        )
        out = res.assemble(branches)
        return _inline_defs(ctx2, ctx, out)


def _elab_branches(ctx: Context, el, res: EwmResult, programs: list, recurse, matcher) -> list:
    """Distribute nested programs over the subgoals in order and elaborate
    each branch, with constructor arguments bound as real variables."""
    branches = []
    remaining = list(programs)
    for sg in res.subgoals:
        inner = ctx
        for nm, tyv in sg.binders:
            inner = inner.extend(f"%{nm}", tyv)
        base_depth = inner.depth
        # hypotheses enter the context as definitions so label search finds them
        for j, slot in enumerate(sg.hyp_slots):
            inner = inner.extend(f"%ih{j}", slot.ty, slot.proj)
        matched = [p for p in remaining if matcher(inner, el, sg, p)]
        if len(matched) != 1:
            have = ", ".join(_phead_name(p) for p in remaining) or "none"
            raise ElabError(
                "PatternHeadMismatch",
                _pspan(remaining[0]) if remaining else None,
                f"expected exactly one branch for constructor '{sg.tag}' (have: {have})",
            )
        p = matched[0]
        remaining.remove(p)
        body = recurse(inner, p, sg.goal)
        body = _strip_defs(body, inner.depth - base_depth, base_depth, inner)
        branches.append(sg.wrap(ctx, body))
    if remaining:
        raise ElabError(
            "PatternHeadMismatch",
            _pspan(remaining[0]),
            f"branch '{_phead_name(remaining[0])}' matches no constructor of the scrutinee",
        )
    return branches


def _strip_defs(body: Term, ndefs: int, base_depth: int, inner: Context) -> Term:
    """Inline trailing definition entries into `body` (innermost first)."""
    for lvl in range(inner.depth - 1, inner.depth - 1 - ndefs, -1):
        dval = inner.entries[lvl].val
        assert dval is not None, "expected a definition entry"
        dterm = inner.quote(dval, lvl)
        body = T.subst_free(body, lambda j, dt=dterm: dt if j == 0 else T.Var(j - 1))
    return body


def _inline_defs(inner: Context, outer: Context, body: Term) -> Term:
    return _strip_defs(body, inner.depth - outer.depth, outer.depth, inner)


def _print_value(ctx: Context, v: Value) -> str:
    """Message text for a value: its normal form, definitions unfolded."""
    return pp.print_term(V.quote(v, ctx.depth), ctx.names())


def _pspan(p) -> Optional[tuple]:
    return getattr(getattr(p, "head", None), "span", None)


def _phead_name(p) -> str:
    return p.head.name


def _prog_pattern_matcher(ctx: Context, el, sg: EwmSubgoal, prog) -> bool:
    """A nested program belongs to a subgoal iff its head validates against
    the subgoal's refined goal."""
    try:
        _validate_prog_head(ctx, el, prog.head, sg.goal)
        return True
    except ElabError:
        return False


def _validate_prog_head(ctx: Context, el: Elaborator, head: S.ProgHead, goal: V.VLabelTy) -> Context:
    """Match a program head pattern against the computed label, binding
    constructor-pattern variables to payload projections."""
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
            f"clause head has {len(head.pats)} argument(s), the label has {len(goal.args)}",
        )
    inner = ctx
    for pos, (pat, argv, argty) in enumerate(zip(head.pats, goal.args, goal.argtys)):
        if isinstance(pat, S.ProgPatVar):
            hit = inner.lookup(pat.name)
            if hit is not None:
                ix, entry = hit
                if K.conv(inner, inner.env[inner.depth - 1 - ix], argv):
                    continue
            # a bare name may also be a nullary constructor or an enum tag
            if _matches_enum_tag(pat.name, argv, argty):
                continue
            if _match_con_pattern(inner, pat.name, (), argv, argty, pat.span, dry=True):
                inner = _match_con_pattern(inner, pat.name, (), argv, argty, pat.span)
                continue
            raise ElabError(
                "PatternHeadMismatch",
                pat.span,
                f"pattern variable '{pat.name}' does not match argument {pos} of the label",
            )
        assert isinstance(pat, S.ProgPatCon)
        res = _match_con_pattern(inner, pat.ctor, pat.vars, argv, argty, pat.span)
        if res is None:
            raise ElabError(
                "PatternHeadMismatch",
                pat.span,
                f"constructor pattern '({pat.ctor} ...)' does not match argument {pos}",
            )
        inner = res
    return inner


def _matches_enum_tag(name: str, val: Value, tyv: Value) -> bool:
    """A by-refined enumeration index matches the pattern naming its tag."""
    if not isinstance(tyv, V.VEnumT):
        return False
    tags = V.enum_tags(tyv.enum)
    k = V.numeral_of(val)
    return tags is not None and k is not None and k < len(tags) and tags[k] == name


def _match_con_pattern(ctx: Context, ctor: str, vars_: tuple, argv: Value, argty: Value, span, dry=False):
    """Match `ctor vars` against a by-refined label argument In (k, args)."""
    if not isinstance(argv, V.VIn):
        return None
    payload = argv.payload
    if not isinstance(payload, V.VPair):
        return None
    knum = V.numeral_of(payload.fst)
    if knum is None:
        return None
    if not isinstance(argty, V.VIMu):
        return None
    code0 = V.vapp(argty.fam, argty.index)
    xfam = V.imu_family(argty.ixty, argty.fam)
    interp = lambda c: V.vinterp_i(c, xfam)  # noqa: E731
    if not isinstance(code0, V.VDSigmaE):
        return None
    tags = V.enum_tags(code0.enum)
    if tags is None or knum >= len(tags) or tags[knum] != ctor:
        return None
    code_k = V.vapp(code0.fam, V.make_numeral(knum))
    slots: List[Slot] = []
    _walk_args(code_k, payload.snd, slots, interp)
    if len(slots) != len(vars_):
        if dry:
            return None
        raise ElabError(
            "PatternHeadMismatch",
            span,
            f"constructor '{ctor}' takes {len(slots)} argument(s), pattern binds {len(vars_)}",
        )
    if dry:
        return True
    inner = ctx
    for nm, slot in zip(vars_, slots):
        inner = inner.extend(nm, slot.ty, slot.proj)
    return inner
