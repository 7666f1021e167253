"""Reference constructions that `src/` replaced, kept as test oracles.

`ewm_restricted` is the by-gadget as it was built before it produced
beta-normal eliminators. Each eliminator is read back as a chain of
annotated lambdas, `\\b0:T0. \\b1:T1. elim ... (b0 , b1) ...`, applied to
the branches. Each `rec`/`case` branch over a datatype is an annotated
wrapper applied to the body function. The annotations let the kernel
synthesise those redexes; the value of the result is what the beta-normal
construction must match.
"""

from __future__ import annotations

from typing import Callable, List

from idt import labels as L
from idt import terms as T
from idt import values as V
from idt.elab import ElabError
from idt.kernel import Context
from idt.terms import Term
from idt.values import Value


def ewm_restricted(ctx: Context, kind: str, scrut_name: str, goal: Value) -> L.EwmResult:
    """`labels.ewm_restricted`, assembling the redex-building way."""
    hit = ctx.lookup(scrut_name)
    if hit is None:
        raise ElabError("UnsupportedScrutinee", None, f"unknown scrutinee '{scrut_name}'")
    ix, entry = hit
    scrut_v = ctx.env[ctx.depth - 1 - ix]
    goal_t = ctx.quote(goal)
    abstracted = T.abstract(goal_t, ctx.quote(scrut_v))
    if abstracted == T.shift(goal_t, 1):
        raise ElabError("ScrutineeNotFree", None, f"'{scrut_name}' does not occur in the goal")

    def motive_at(repl: Value) -> Value:
        return V.eval_term(abstracted, ctx.env + (repl,))

    sty = entry.ty
    if isinstance(sty, V.VEnumT):
        return _ewm_enum(ctx, kind, scrut_name, scrut_v, sty, motive_at)
    if isinstance(sty, V.VIMu):
        return _ewm_fix(ctx, kind, scrut_name, scrut_v, sty, motive_at)
    raise ElabError("UnsupportedScrutinee", None, f"cannot eliminate '{scrut_name}'")


def _lam_chain(n: int, mk: Callable[[List[Value]], Value]) -> Value:
    """n-ary host-level lambda value collecting its arguments."""

    def go(acc: List[Value]) -> Value:
        if len(acc) == n:
            return mk(acc)
        return V.VLam(f"b{len(acc)}", V.PyClo(lambda v, a=acc: go(a + [v])))

    return go([])


def _ann_lams(t: Term, anns: List[Term]) -> Term:
    """Re-annotate the first len(anns) lambda binders of a quoted value."""
    if not anns:
        return t
    assert isinstance(t, T.Lam), "expected a lambda spine"
    return T.Lam(t.nm, anns[0], _ann_lams(t.body, anns[1:]))


def _apply_annotated(ctx: Context, mk, branch_tys: List[Value], branches: List[Term]) -> Term:
    d = ctx.depth
    elim_t = ctx.quote(_lam_chain(len(branches), mk))
    anns = [ctx.quote(bty, d + i) for i, bty in enumerate(branch_tys)]
    out = _ann_lams(elim_t, anns)
    for b in branches:
        out = T.App(out, b)
    return out


def _ewm_enum(ctx, kind, scrut_name, scrut_v, sty, motive_at) -> L.EwmResult:
    if kind != "case":
        raise ElabError("UnsupportedScrutinee", None, "'rec' on an enumeration; use 'case'")
    tags = V.enum_tags(sty.enum)
    if tags is None:
        raise ElabError("UnsupportedScrutinee", None, "case on an open enumeration")
    subgoals, btys = [], []
    for k, tag in enumerate(tags):
        g = motive_at(V.make_numeral(k))
        subgoals.append(L.EwmSubgoal(tag, k, False, [], [], [], g, lambda _c, body: body))
        btys.append(g)
    motive_v = V.VLam(scrut_name, V.PyClo(motive_at))

    def mk(bvals: List[Value]) -> Value:
        cases: Value = V.VVoid()
        for b in reversed(bvals):
            cases = V.VPair(b, cases)
        return V.vswitch(sty.enum, motive_v, cases, scrut_v)

    return L.EwmResult(subgoals, lambda branches: _apply_annotated(ctx, mk, btys, branches))


def _ewm_fix(ctx, kind, scrut_name, scrut_v, sty, motive_at) -> L.EwmResult:
    d = ctx.depth
    ixty, fam_v, i0 = sty.ixty, sty.fam, sty.index
    code0 = V.vapp(fam_v, i0)
    xfam = V.imu_family(ixty, fam_v)
    if not isinstance(code0, V.VDSigmaE):
        raise ElabError("UnsupportedScrutinee", None, "no choice of constructors")
    tags = V.enum_tags(code0.enum)
    if tags is None:
        raise ElabError("UnsupportedScrutinee", None, "constructor enumeration is not canonical")
    probe = V.vapp(fam_v, V.fresh(d))
    if not (isinstance(probe, V.VDSigmaE) and V.enum_tags(probe.enum) == tags):
        raise ElabError("UnsupportedScrutinee", None, "the choice of constructors varies")

    has_hyp = kind == "rec"
    motive_v = V.VLam("p", V.PyClo(lambda p: motive_at(V.vsnd(p))))

    def goal_of(v: Value, i: Value = i0) -> Value:
        return V.vapp(motive_v, V.VPair(i, v))

    def interp(code: Value) -> Value:
        return V.vinterp_i(code, xfam)

    def iall(code: Value, x: Value) -> Value:
        return V.viall(code, xfam, motive_v, x)

    subgoals, btys = [], []
    for k, tag in enumerate(tags):
        code_k = V.vapp(code0.fam, V.make_numeral(k))
        shape = L._BranchShape(code_k, k, has_hyp, interp, iall, goal_of, motive_v)
        binders, arg_slots, hyp_slots, refined = shape.plan(d)

        def branch_cod(a, ck=code_k, kk=k):
            goal = goal_of(V.VIn(V.VPair(V.make_numeral(kk), a)))
            if has_hyp:
                return V.VPi("h", iall(ck, a), V.PyClo(lambda _h: goal))
            return goal

        btys.append(V.VPi("as", interp(code_k), V.PyClo(branch_cod)))

        def wrap(outer_ctx, body, shape=shape, binders=binders, refined=refined, ck=code_k):
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
            L.EwmSubgoal(tag, k, has_hyp, binders, arg_slots, hyp_slots, refined, wrap)
        )

    def mk(bvals: List[Value]) -> Value:
        def method_body(iv, xsv, hv):
            code_i = V.vapp(fam_v, iv)
            tfam = code_i.fam if isinstance(code_i, V.VDSigmaE) else code0.fam

            def pc(c2: Value) -> Value:
                ck = V.vapp(tfam, c2)

                def cod(a2):
                    goal = goal_of(V.VIn(V.VPair(c2, a2)), iv)
                    if has_hyp:
                        return V.VPi("h2", iall(ck, a2), V.PyClo(lambda _h2: goal))
                    return goal

                return V.VPi("a2", interp(ck), V.PyClo(cod))

            cases: Value = V.VVoid()
            for b in reversed(bvals):
                cases = V.VPair(b, cases)
            pcv = V.VLam("c2", V.PyClo(pc))
            mstep = V.VLam(
                "c",
                V.PyClo(
                    lambda c: V.VLam(
                        "as", V.PyClo(lambda a: V.vapp(V.vswitch(code0.enum, pcv, cases, c), a))
                    )
                ),
            )
            if has_hyp:
                ms = V.VLam(
                    "q",
                    V.PyClo(
                        lambda q: V.VPi(
                            "hh", iall(code_i, q), V.PyClo(lambda _h: goal_of(V.VIn(q), iv))
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
                    "xs", V.PyClo(lambda xs: V.VLam("h", V.PyClo(lambda h: method_body(iv, xs, h))))
                )
            ),
        )
        return V.viinduction(ixty, fam_v, motive_v, method, i0, scrut_v)

    return L.EwmResult(subgoals, lambda branches: _apply_annotated(ctx, mk, btys, branches))
