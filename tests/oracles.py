"""Reference constructions that `src/` replaced, kept as test oracles.

`eager_eliminations` evaluates `switch`, `split`, `EqElim` and label calls
by the rules the evaluator had before it read their scrutinee first: every
field is evaluated before the elimination is tried.

`ewm_restricted` is the by-gadget as it was built before it produced
beta-normal eliminators, with a frozen copy of the branch walk it used
(`_BranchShape`), so that the reference does not move with `labels`.
Each eliminator is read back as a chain of lambdas,
`\\b0. \\b1. elim ... (b0 , b1) ...`, applied to the branches.
Each `rec`/`case` branch over a datatype is a wrapper applied to the body
function. The result is evaluated, not checked: its value is what the
beta-normal construction must match.

`constructor_fields` binds a constructor's fields as `labels.bind_refined`
did before it read them off `values.payload_type`: by its own walk over the
constructor's code (`walk_args`).

`definiens_two_pass` builds a datatype's definiens as `dataelab` did
before it remapped the code in one pass: the code is moved to
`[ctx, params, j]`, wrapped in the label call and its lambda, and that
lambda and the index tuple type are shifted again under the index binders.

`sub_desc` is the declarative predicate of the decidable-equality
sub-universe: `generics.derive_eq` accepts exactly the codes it holds of.

`recursive_check` is `kernel.check` with the checking rules of the
introduction forms `In`, `Pair`, `IdxE` and `Void` as they were before they
ran as one loop over an explicit stack: each recursing through itself, one
Python frame or more per node, and an index `#k` one per entry of the
enumeration up to the k-th.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List

from idt import desc
from idt import kernel as K
from idt import labels as L
from idt import terms as T
from idt import values as V
from idt.elab import ElabError
from idt.kernel import Context
from idt.terms import Term
from idt.values import Value


def _ev(t: Term, env: tuple) -> Value:
    return V.eval_term(t, env)


EAGER_RULES = {
    T.Switch: lambda t, env: V.vswitch(_ev(t.enum, env), _ev(t.fam, env), _ev(t.cases, env), _ev(t.scrut, env)),
    T.EqElim: lambda t, env: V.veqelim(_ev(t.motive, env), _ev(t.base, env), _ev(t.proof, env)),
    T.Split: lambda t, env: V.vsplit(_ev(t.motive, env), _ev(t.method, env), _ev(t.scrut, env)),
    T.LCall: lambda t, env: V.vlcall(
        t.head, tuple(_ev(a, env) for a in t.args), tuple(_ev(a, env) for a in t.argtys),
        _ev(t.ty, env), _ev(t.body, env),
    ),
}


@contextmanager
def eager_eliminations():
    """Evaluate with `EAGER_RULES` inside the block. Closures evaluate their
    bodies when applied, so read values back inside the block too."""
    saved = {kind: V._EVAL_RULES[kind] for kind in EAGER_RULES}
    V._EVAL_RULES.update(EAGER_RULES)
    try:
        yield
    finally:
        V._EVAL_RULES.update(saved)


def ewm_restricted(ctx: Context, kind: str, scrut_name: str, goal: Value) -> L.EwmResult:
    """`labels.ewm_restricted`, assembling the redex-building way."""
    hit = ctx.lookup(scrut_name)
    if hit is None:
        raise ElabError("UnsupportedScrutinee", None, f"unknown scrutinee '{scrut_name}'")
    ix, entry = hit
    scrut_v = ctx.env[ctx.depth - 1 - ix]
    goal_t = ctx.quote(goal)
    abstracted, _ = T.abstract(goal_t, ctx.quote(scrut_v))
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
        return V.VLam(f"b{len(acc)}", lambda v, a=acc: go(a + [v]))

    return go([])


def _apply(ctx: Context, mk, branches: List[Term]) -> Term:
    out = ctx.quote(_lam_chain(len(branches), mk))
    for b in branches:
        out = T.App(out, b)
    return out


def _ewm_enum(ctx, kind, scrut_name, scrut_v, sty, motive_at) -> L.EwmResult:
    if kind != "case":
        raise ElabError("UnsupportedScrutinee", None, "'rec' on an enumeration; use 'case'")
    tags = V.enum_tags(sty.enum)
    if tags is None:
        raise ElabError("UnsupportedScrutinee", None, "case on an open enumeration")
    subgoals = []
    for k, tag in enumerate(tags):
        g = motive_at(V.VIdxE(k))
        subgoals.append(L.EwmSubgoal(tag, [], [], g, lambda body: body))
    motive_v = V.VLam(scrut_name, motive_at)

    def mk(bvals: List[Value]) -> Value:
        cases: Value = V.VVoid()
        for b in reversed(bvals):
            cases = V.VPair(b, cases)
        return V.vswitch(sty.enum, motive_v, cases, scrut_v)

    return L.EwmResult(subgoals, lambda branches: _apply(ctx, mk, branches))


def _is_leaf(code: Value) -> bool:
    return isinstance(code, (V.VDVarI, V.VDPi))


class _BranchShape:
    """The branch walk of `labels._ewm_fix`, then a class of its own, as it
    was before it built the branch wrapper in its binder walk: `plan`
    binds the variables (rebinding `h` at every level), and `build` walks
    the code again for the wrapper's value, applying a body function to
    the binder values in plan order."""

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
            lambda s: self._leaf_hyp_ty(V.vapp(code.fam, s), V.vapp(arg, s)),
        )

    def rebuild(self, parts: list, tail: Value) -> Value:
        v = tail
        for x in reversed(parts):
            v = V.VPair(x, v)
        return self.goal_of(V.VIn(V.VPair(V.VIdxE(self.knum), v)))

    def plan(self, d: int):
        """Fresh-variable walk: binder specs, pattern slots, refined goal."""
        binders: list = []
        hyp_slots: List[L.Slot] = []

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
                if self.has_hyp:
                    hyp_slots.append(L.Slot(self._leaf_hyp_ty(code, cursor), hv))
                break
            if isinstance(code, V.VDOne):
                break
            if isinstance(code, (V.VDSigma, V.VDSigmaE)):
                dom = V.VEnumT(code.enum) if isinstance(code, V.VDSigmaE) else code.dom
                x = bind(L._fam_name(code.fam, "x"), dom)
                nxt = V.vapp(code.fam, x)
                if not isinstance(nxt, (V.VDVarI, V.VDPi, V.VDOne, V.VDTimes, V.VDSigma, V.VDSigmaE)):
                    raise ElabError(
                        "UnsupportedScrutinee", None, "constructor code is not canonical"
                    )
                r = bind("r", self.interp(nxt))
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
                parts.append(x)
                if self.has_hyp:
                    hp = bind("hp", self.iall(code, V.VPair(x, r)))
                    hyp_slots.append(L.Slot(self._leaf_hyp_ty(code.lhs, x), V.vfst(hp)))
                cursor, code = r, code.rhs
                continue
            raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")
        goal = self.rebuild(parts, cursor)
        return binders, hyp_slots, goal

    def build(self, bf: Value) -> Value:
        """The branch value, applying the body function to the binder values
        in plan order."""

        def level(code, cursor, parts, acc):
            if self.has_hyp:
                return V.VLam(
                    "h",
                    lambda h: after(code, cursor, parts, acc + [h], h),
                )
            return after(code, cursor, parts, acc, None)

        def after(code, cursor, parts, acc, h):
            if _is_leaf(code) or isinstance(code, V.VDOne):
                return V.vapps(bf, *acc)
            if isinstance(code, (V.VDSigma, V.VDSigmaE)):
                meth = V.VLam(
                    L._fam_name(code.fam, "x"),
                    lambda x, code=code, parts=list(parts), acc=list(acc): V.VLam(
                        "r",
                        lambda r, x=x: level(
                            V.vapp(code.fam, x), r, parts + [x], acc + [x, r]
                        ),
                    ),
                )
                return self._split(code, parts, cursor, meth, h)
            if isinstance(code, V.VDTimes):
                def meth_body(x, r, code=code, parts=list(parts), acc=list(acc)):
                    if self.has_hyp:
                        return V.VLam(
                            "hp",
                            lambda hp, x=x, r=r: V.vapp(
                                level(code.rhs, r, parts + [x], acc + [x, r, hp]),
                                V.vsnd(hp),
                            ),
                        )
                    return level(code.rhs, r, parts + [x], acc + [x, r])

                meth = V.VLam(
                    "x",
                    lambda x: V.VLam("r", lambda r, x=x: meth_body(x, r)),
                )
                return self._split(code, parts, cursor, meth, h)
            raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")

        return V.VLam("as", lambda as_v: level(self.code0, as_v, [], [as_v]))

    def _split(self, code: Value, parts: list, cursor: Value, meth: Value, h) -> Value:
        """Split `cursor` at one level, with the motive rebuilding the goal
        from `parts`; for `rec` the motive also takes this level's hypothesis,
        and the split is applied to `h`."""

        def motive(p: Value) -> Value:
            if self.has_hyp:
                return V.VPi("h", self.iall(code, p), lambda _h: self.rebuild(parts, p))
            return self.rebuild(parts, p)

        split = V.vsplit(V.VLam("p", motive), meth, cursor)
        return V.vapp(split, h) if self.has_hyp else split



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
    motive_v = V.VLam("p", lambda p: motive_at(V.vsnd(p)))

    def goal_of(v: Value, i: Value = i0) -> Value:
        return V.vapp(motive_v, V.VPair(i, v))

    def interp(code: Value) -> Value:
        return V.vinterp_i(code, xfam)

    def iall(code: Value, x: Value) -> Value:
        return V.viall(code, xfam, motive_v, x)

    subgoals = []
    for k, tag in enumerate(tags):
        code_k = V.vapp(code0.fam, V.VIdxE(k))
        shape = _BranchShape(code_k, k, has_hyp, interp, iall, goal_of, motive_v)
        binders, hyp_slots, refined = shape.plan(d)

        def wrap(body, shape=shape, binders=binders):
            bodylam = body
            for nm, _tyv in reversed(binders):
                bodylam = T.Lam(nm, bodylam)
            wrapper_v = V.VLam("bf", lambda bf: shape.build(bf))
            return T.App(ctx.quote(wrapper_v), bodylam)

        subgoals.append(L.EwmSubgoal(tag, binders, hyp_slots, refined, wrap))

    def mk(bvals: List[Value]) -> Value:
        def method_body(iv, xsv, hv):
            code_i = V.vapp(fam_v, iv)
            tfam = code_i.fam if isinstance(code_i, V.VDSigmaE) else code0.fam

            def pc(c2: Value) -> Value:
                ck = V.vapp(tfam, c2)

                def cod(a2):
                    goal = goal_of(V.VIn(V.VPair(c2, a2)), iv)
                    if has_hyp:
                        return V.VPi("h2", iall(ck, a2), lambda _h2: goal)
                    return goal

                return V.VPi("a2", interp(ck), cod)

            cases: Value = V.VVoid()
            for b in reversed(bvals):
                cases = V.VPair(b, cases)
            pcv = V.VLam("c2", pc)
            mstep = V.VLam(
                "c",
                lambda c: V.VLam(
                    "as", lambda a: V.vapp(V.vswitch(code0.enum, pcv, cases, c), a)
                ),
            )
            if has_hyp:
                ms = V.VLam(
                    "q",
                    lambda q: V.VPi(
                        "hh", iall(code_i, q), lambda _h: goal_of(V.VIn(q), iv)
                    ),
                )
                return V.vapp(V.vsplit(ms, mstep, xsv), hv)
            ms = V.VLam("q", lambda q: goal_of(V.VIn(q), iv))
            return V.vsplit(ms, mstep, xsv)

        method = V.VLam(
            "i",
            lambda iv: V.VLam(
                "xs", lambda xs: V.VLam("h", lambda h: method_body(iv, xs, h))
            ),
        )
        return V.viinduction(ixty, fam_v, motive_v, method, i0, scrut_v)

    return L.EwmResult(subgoals, lambda branches: _apply(ctx, mk, branches))


def walk_args(code: Value, cur: Value, out: List[L.Slot], interp) -> None:
    """The fields of the payload `cur` of a constructor with code `code`,
    appended to `out` in order, each with its type and its projection."""
    if isinstance(code, V.VDOne):
        return
    if isinstance(code, V.VDTimes):
        walk_args(code.lhs, V.vfst(cur), out, interp)
        walk_args(code.rhs, V.vsnd(cur), out, interp)
        return
    if isinstance(code, (V.VDVarI, V.VDPi)):
        out.append(L.Slot(interp(code), cur))
        return
    if isinstance(code, (V.VDSigma, V.VDSigmaE)):
        dom = V.VEnumT(code.enum) if isinstance(code, V.VDSigmaE) else code.dom
        out.append(L.Slot(dom, V.vfst(cur)))
        walk_args(V.vapp(code.fam, V.vfst(cur)), V.vsnd(cur), out, interp)
        return
    raise ElabError("UnsupportedScrutinee", None, "constructor code is not canonical")


def constructor_fields(argv: Value, argty: V.VIMu) -> List[L.Slot]:
    """The fields of the constructor value `argv = In (k, args)` of type
    `argty`, walked off the code of its constructor `k`."""
    code0 = V.vapp(argty.fam, argty.index)
    xfam = V.imu_family(argty.ixty, argty.fam)
    code_k = V.vapp(code0.fam, argv.payload.fst)
    out: List[L.Slot] = []
    walk_args(code_k, argv.payload.snd, out, lambda c: V.vinterp_i(c, xfam))
    return out


def definiens_two_pass(decl, p_tys: List[Term], i_tys: List[Term], code: Term, k: int, m: int) -> Term:
    """The definiens of `decl` from its code at `[ctx, D, params, indices]`
    (the arguments `dataelab._build_definiens` receives), built in two passes."""

    def strengthen(t: Term, by: int) -> Term:
        return T.map_vars(t, lambda i, d: T.Var(i - by))

    idx_ty: Term = T.Unit()
    for pos, tyt in enumerate(i_tys):
        idx_ty = T.Sigma("_", idx_ty, T.shift(strengthen(tyt, pos), 1))

    def remap(old: int) -> Term:
        if old < m:
            t: Term = T.Var(0)
            for _ in range(old):
                t = T.Fst(t)
            return T.Snd(t)
        if old < m + k:
            return T.Var(old - m + 1)
        assert old > m + k, "recursive occurrence in the code"
        return T.Var(old - m)

    code_r = T.subst_free(code, remap)
    args, argtys = [], []
    for pos in range(k):
        args.append(T.Var(k - pos))
        argtys.append(T.shift(p_tys[pos], k + 1 - pos))
    for pos in range(m):
        proj: Term = T.Var(0)
        for _ in range(m - 1 - pos):
            proj = T.Fst(proj)
        args.append(T.Snd(proj))
        argtys.append(T.shift(strengthen(i_tys[pos], pos), 1))
    call = T.LCall(decl.name, tuple(args), tuple(argtys), T.IDesc(T.shift(idx_ty, 1)), code_r)
    r_term = T.Lam("j", call)
    pack: Term = T.Void()
    for pos in range(m):
        pack = T.Pair(pack, T.Var(m - 1 - pos))
    out: Term = T.IMu(T.shift(idx_ty, m), T.shift(r_term, m), pack)
    for pos in reversed(range(m)):
        out = T.Lam(decl.indices[pos][0], out)
    for pos in reversed(range(k)):
        out = T.Lam(decl.params[pos][0], out)
    return out


def sub_desc(code: Value) -> bool:
    """Declarative sub-universe predicate: products, finite sums, recursive
    positions and unit."""
    if isinstance(code, (V.VDOne, V.VDVarI)):
        return True
    if isinstance(code, V.VDTimes):
        return sub_desc(code.lhs) and sub_desc(code.rhs)
    if isinstance(code, V.VDSigmaE):
        view = desc.sigma_view(code)
        if view is None:
            return False
        return all(sub_desc(c) for c in view[1])
    if isinstance(code, V.VDSigma):
        dom = code.dom
        if not (isinstance(dom, V.VEnumT) and V.enum_tags(dom.enum) is not None):
            return False
        n = len(V.enum_tags(dom.enum))
        return all(sub_desc(V.vapp(code.fam, V.VIdxE(k))) for k in range(n))
    return False


def recursive_check(ctx: Context, t: Term, want: Value):
    """`kernel.check`, with the recursive rules of the introduction forms."""
    rule = _RECURSIVE_RULES.get(type(t))
    return K.check(ctx, t, want) if rule is None else rule(ctx, t, want)


def _check_pair(ctx: Context, t: T.Pair, want: Value):
    if not isinstance(want, V.VSigma):
        K._err("TypeMismatch", t, f"pair against {K.show(ctx, want)}")
    av = recursive_check(ctx, t.fst, want.dom)
    if av is None:
        av = ctx.eval(t.fst)
    bv = recursive_check(ctx, t.snd, want.cod(av))
    return None if bv is None else V.VPair(av, bv)


def _check_void(ctx: Context, t: T.Void, want: Value):
    if isinstance(want, V.VUnit):
        return V.VVoid()
    return K._check_by_synthesis(ctx, t, want)


def _check_index(ctx: Context, t: T.IdxE, want: Value, k: int = -1):
    """`#k` against `want` when `k` entries of the enumeration are left to
    pass (-1: all of them, `t.k`)."""
    if k < 0:
        k = t.k
    if not (isinstance(want, V.VEnumT) and isinstance(want.enum, V.VConsE)):
        K._err("TypeMismatch", t, f"enum index against {K.show(ctx, want)}")
    if k == 0:
        return V.VIdxE(t.k)
    return _check_index(ctx, t, V.VEnumT(want.enum.rest), k - 1)


def _check_in(ctx: Context, t: T.In, want: Value):
    if not isinstance(want, V.VIMu):
        K._err("TypeMismatch", t, f"constructor against {K.show(ctx, want)}")
    dv = recursive_check(ctx, t.payload, V.payload_type(want.ixty, want.fam, want.index))
    return None if dv is None else V.VIn(dv)


_RECURSIVE_RULES = {
    T.Pair: _check_pair,
    T.Void: _check_void,
    T.IdxE: _check_index,
    T.In: _check_in,
}
