"""Elaboration of inductive definitions down to description codes.

A declaration's clauses elaborate against its description label, the
programming label `<D ps is : IDesc I>` of its parameters and indices (`I`
pairs the index types), and return the `'sigma` code of their constructors.
The label is the kernel's label value, `values.VLabelTy`, as for a program:
its last arguments, one per component of `I`, are the indices and the rest
the parameters (`labels.param_count`). Clause heads match through
`labels.match_head` as program heads do, and a clause's index constraints,
which the match reads off its head, travel beside it as (position, surface
expression) pairs. Constructor argument telescopes become right-nested
'Sigma codes, recursive positions become 'varI codes carrying their
extracted indices, index constraints become trailing equality codes, and a
trailing `by` block elaborates through `labels.elab_by`, the `by` step
programs take too, into a `call` of the label. Declarations without indices run through the same
pipeline with the degenerate Unit index. A `by` clause head constrains no
index, so a label that is called has no constraint.

Each judgment (`ElabData`, `ElabDataPatts`, `ElabChoices`, `ElabConstr`,
`ElabArg`, `ElabRecArgs`, `ElabEqs`, `ElabEWM`) is a derivation step,
`Elaborator.goal`; a tracing elaborator records them as the derivation
that `--emit-trace` prints, and any other enters them as a no-op.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import kernel as K
from . import labels as L
from . import pp
from . import surface as S
from . import terms as T
from . import values as V
from .elab import ElabError, Elaborator, TraceNode, _span, _unapply
from .kernel import Context
from .terms import Term
from .values import Value


class DataResult:
    def __init__(self, name: str, definiens: Term, ty: Term, n_params: int, n_indices: int,
                 tel_names: list, trace: Optional[TraceNode]):
        self.name = name
        self.definiens = definiens  # at the outer context
        self.ty = ty
        self.n_params = n_params
        self.n_indices = n_indices
        self.tel_names = tel_names
        self.trace = trace


# --- the judgments -------------------------------------------------------------


class DataElab:
    def __init__(self, el: Elaborator, self_level: int):
        self.el = el
        self.self_level = self_level  # context level of the opaque self binding

    def _self_index(self, ctx: Context) -> int:
        return ctx.depth - 1 - self.self_level

    def _positivity(self, ctx: Context, t: Term, span):
        if T.occurs(t, self._self_index(ctx)):
            raise ElabError(
                "NonPositive",
                span,
                "recursive occurrence in a non-recursive position",
            )

    def describe(self, ctx: Context, goal: V.VLabelTy, constraints: tuple = ()) -> str:
        """The label as a clause head writes it: parameters in parentheses,
        indices in brackets, a constrained index as `[n = e]`."""
        names, constrained, n_params = ctx.names(), dict(constraints), L.param_count(goal)
        parts = [goal.head]
        for pos, argv in enumerate(goal.args):
            arg = pp.print_term(ctx.quote(argv), names)
            if pos < n_params:
                parts.append(f"({arg})")
            elif pos in constrained:
                parts.append(f"[{arg} = {S.print_expr(constrained[pos])}]")
            else:
                parts.append(f"[{arg}]")
        return " ".join(parts)

    # clause groups, with an optional trailing by-block; `match` is the head
    # match of the one clause a `by` step chose, which is not matched again.
    # Each constructor's code is elaborated under the binder `c` of the
    # family that `_assemble_ret` puts it in, so that it is built where it
    # lands: `%c`, which no clause can name, stands for that binder
    def elab_data_patts(self, ctx: Context, clauses: tuple, goal: V.VLabelTy, depth: int = 0,
                        match: Optional[tuple] = None) -> Term:
        with self.el.goal(lambda: self.describe(ctx, goal), "ElabDataPatts"):
            enum_v: Value = V.VNilE()
            for c in reversed(clauses):
                enum_v = V.VConsE(V.VTag(c.body.name if isinstance(c.body, S.CtorDecl) else "elim"), enum_v)
            ctx_c = ctx.extend("%c", V.VEnumT(enum_v))
            tag_codes: List[Tuple[str, Term]] = []
            by_clause = None
            for c in clauses:
                if by_clause is not None:
                    raise ElabError(
                        "PatternHeadMismatch",
                        c.head.span,
                        "clauses after a 'by' block are not supported",
                    )
                if isinstance(c.body, S.ByBlock):
                    by_clause = c
                    continue
                constraints, cctx = _under_binder(ctx, ctx_c, match) or L.match_head(ctx_c, c.head, goal)
                with self.el.goal(lambda: self.describe(cctx, goal, constraints), "ElabChoices"):
                    tag, code = self.elab_constructor(cctx, c.body, goal, constraints)
                code = L._inline_defs(cctx, ctx_c, code)
                if any(tag == t0 for t0, _ in tag_codes):
                    raise ElabError(
                        "DuplicateConstructor", c.body.span, f"duplicate constructor '{tag}'"
                    )
                tag_codes.append((tag, code))
            if by_clause is not None:
                tag_codes.append(self._elab_by(ctx, ctx_c, by_clause, goal, depth, match))
            return self._assemble_ret(ctx, goal, tag_codes)

    def _assemble_ret(self, ctx: Context, goal: V.VLabelTy, tag_codes: list) -> Term:
        """`return ('sigma E (\\c. switch E (\\_. IDesc I) CODES c))`, with the
        codes already under `c`."""
        enum_t: Term = T.NilE()
        for tag, _ in reversed(tag_codes):
            enum_t = T.ConsE(T.Tag(tag), enum_t)
        cases: Term = T.Void()
        for _, code in reversed(tag_codes):
            cases = T.Pair(code, cases)
        fam_body = T.Switch(
            enum_t,  # closed
            T.Lam("_", T.IDesc(ctx.quote(goal.ty.index, ctx.depth + 2))),
            cases,
            T.Var(0),
        )
        fam = T.Lam("c", fam_body)
        return T.LRet(T.DSigmaE(enum_t, fam))

    def _elab_by(self, ctx: Context, ctx_c: Context, clause: S.Clause, goal: V.VLabelTy, depth: int,
                 match: Optional[tuple]):
        constraints, cctx = _under_binder(ctx, ctx_c, match) or L.match_head(ctx_c, clause.head, goal)
        if constraints:
            raise ElabError(
                "PatternHeadMismatch", clause.head.span, "a 'by' clause head cannot constrain an index"
            )
        by = clause.body
        with self.el.goal(
            lambda: f"{by.kind} {by.var} with motive over {self.describe(cctx, goal)}", "ElabEWM"
        ):
            elim = L.elab_by(
                cctx,
                by,
                by.span,
                goal,
                depth,
                lambda c2, cl, g, m: self.elab_data_patts(c2, (cl,), g, depth + 1, m),
            )
        # the eliminated goal is label-typed; the call returns its code
        label = cctx.quote(goal)
        out = T.LCall(label.head, label.args, label.argtys, label.ty, elim)
        return "elim", L._inline_defs(cctx, ctx_c, out)

    # one constructor: its tag and its argument telescope's code
    def elab_constructor(self, ctx: Context, ctor: S.CtorDecl, goal: V.VLabelTy, constraints: tuple):
        if not T.valid_tag(ctor.name):
            raise ElabError("UnknownTag", ctor.span, f"invalid constructor name '{ctor.name}'")
        with self.el.goal(lambda: f"{ctor.name} under {self.describe(ctx, goal, constraints)}", "ElabConstr"):
            code = self.elab_args(ctx, list(ctor.args), goal, constraints)
        return ctor.name, code

    # the argument telescope: recursion-first, then exponentials, then fields
    def elab_args(self, ctx: Context, args: list, goal: V.VLabelTy, constraints: tuple) -> Term:
        if not args:
            return self.elab_constraints(ctx, goal, constraints)
        nm, tye = args[0]
        rest_args = args[1:]
        app_head, app_args = _unapply(tye)
        # recursion matching, attempted first
        if isinstance(app_head, S.EVar) and app_head.name == goal.head:
            with self.el.goal(lambda: f"({nm} : {S.print_expr(tye)}) recursive", "ElabArg"):
                is_tm = self.extract_indices(ctx, app_args, goal, constraints, tye)
                rest = self.elab_args(ctx, rest_args, goal, constraints)
            return T.DTimes(T.DVarI(is_tm), rest)
        # exponentials whose codomain is recursive
        if isinstance(tye, S.EPi):
            doms, cod = _unpi(tye)
            cod_head, cod_args = _unapply(cod)
            if isinstance(cod_head, S.EVar) and cod_head.name == goal.head:
                with self.el.goal(lambda: f"({nm} : {S.print_expr(tye)}) exponential", "ElabArg"):
                    inner_ctx = ctx
                    dom_terms = []
                    for dnm, dty in doms:
                        dt, dv, lvl = self.el.elab_type(inner_ctx, dty)
                        if lvl > 0:
                            raise ElabError(
                                "CheckMismatch", _span(dty), "argument domains must live in Set"
                            )
                        self._positivity(inner_ctx, dt, _span(dty))
                        dom_terms.append((dnm, dt))
                        inner_ctx = inner_ctx.extend(dnm, dv)
                    is_tm = self.extract_indices(inner_ctx, cod_args, goal, constraints, cod)
                    code: Term = T.DVarI(is_tm)
                    for dnm, dt in reversed(dom_terms):
                        code = T.DPi(dt, T.Lam(dnm, code))
                    rest = self.elab_args(ctx, rest_args, goal, constraints)
                return T.DTimes(code, rest)
        # ordinary argument
        with self.el.goal(lambda: f"({nm} : {S.print_expr(tye)})", "ElabArg"):
            tyt, tyv, lvl = self.el.elab_type(ctx, tye)
            if lvl > 0:
                raise ElabError(
                    "CheckMismatch",
                    _span(tye),
                    "constructor arguments must live in Set",
                )
            self._positivity(ctx, tyt, _span(tye))
            rest = self.elab_args(ctx.extend(nm, tyv), rest_args, goal, constraints)
        return T.DSigma(tyt, T.Lam(nm, rest))

    # trailing equality codes for the clause's constraints
    def elab_constraints(self, ctx: Context, goal: V.VLabelTy, constraints: tuple) -> Term:
        with self.el.goal(lambda: self.describe(ctx, goal, constraints), "ElabEqs"):
            return self._eqs(ctx, goal, constraints)

    def _eqs(self, ctx: Context, goal: V.VLabelTy, constraints: tuple) -> Term:
        if not constraints:
            return T.DOne()
        pos, raw = constraints[-1]
        t = self.el.check(ctx, raw, goal.argtys[pos])
        self._positivity(ctx, t, _span(raw))
        # the earlier constraints sit under the binder of this one's proof,
        # `%_`, which they cannot name
        proof_ty = V.VEq(goal.argtys[pos], goal.args[pos], ctx.eval(t))
        inner = self._eqs(ctx.extend("%_", proof_ty), goal, constraints[:-1])
        eq = T.Eq(ctx.quote(goal.argtys[pos]), ctx.quote(goal.args[pos]), t)
        return T.DSigma(eq, T.Lam("_", inner))

    # indices of a recursive call, paired left to right
    def extract_indices(self, ctx: Context, app_args: list, goal: V.VLabelTy, constraints: tuple, at) -> Term:
        with self.el.goal(lambda: self.describe(ctx, goal, constraints), "ElabRecArgs"):
            if len(app_args) != len(goal.args):
                raise ElabError(
                    "PatternHeadMismatch",
                    _span(at),
                    f"recursive call applies {len(app_args)} argument(s); "
                    f"the datatype takes {len(goal.args)}",
                )
            is_tm: Term = T.Void()
            n_params = L.param_count(goal)
            for pos, (arg, argv, tyv) in enumerate(zip(app_args, goal.args, goal.argtys)):
                at_ = self.el.check(ctx, arg, tyv)
                if pos < n_params:
                    if not K.conv(ctx, ctx.eval(at_), argv):
                        raise ElabError(
                            "PatternHeadMismatch",
                            _span(arg),
                            "parameters must be the same in recursive calls",
                        )
                else:
                    self._positivity(ctx, at_, _span(arg))
                    is_tm = T.Pair(is_tm, at_)
            return is_tm


def _under_binder(ctx: Context, ctx_c: Context, match: Optional[tuple]) -> Optional[tuple]:
    """`match`, a head match at `ctx`, moved onto `ctx_c`, which extends
    `ctx` by one binder: its definitions mention nothing of that binder."""
    if match is None:
        return None
    constraints, cctx = match
    for e in cctx.entries[ctx.depth:]:
        ctx_c = ctx_c.extend(e.name, e.ty, e.val)
    return constraints, ctx_c


def _unpi(e: S.ExtTerm):
    doms = []
    while isinstance(e, S.EPi):
        doms.append((e.name, e.dom))
        e = e.cod
    return doms, e


# --- whole declarations -----------------------------------------------------------


def elab_data(ctx: Context, decl: S.DataDecl, trace: bool = False) -> DataResult:
    el = Elaborator(trace)
    if ctx.lookup(decl.name) is not None:
        raise ElabError("DuplicateName", decl.span, f"'{decl.name}' is already defined")

    with el.goal(lambda: decl.name, "ElabData"):
        n0 = ctx.depth
        k = len(decl.params)
        m = len(decl.indices)

        # elaborate the telescope without the self binding
        p_tys: list = []
        inner = ctx
        for nm, tye in decl.params:
            tyt, tyv, lvl = el.elab_type(inner, tye)
            if lvl > 1:
                raise ElabError(
                    "CheckMismatch",
                    _span(tye),
                    "parameter types must live in Set or Set1",
                )
            p_tys.append(tyt)
            inner = inner.extend(nm, tyv)
        i_tys: list = []
        for pos, (nm, tye) in enumerate(decl.indices):
            tyt, tyv, lvl = el.elab_type(inner, tye)
            if lvl > 0:
                raise ElabError("CheckMismatch", _span(tye), "index types must live in Set")
            if T.occurs(tyt, 0, pos):
                raise ElabError(
                    "CheckMismatch",
                    _span(tye),
                    "an index type may not depend on earlier indices",
                )
            i_tys.append(tyt)
            inner = inner.extend(nm, tyv)

        # declared type and the opaque self binding
        d_ty: Term = T.Set_(0)
        for (nm, _), tyt in reversed(list(zip((*decl.params, *decl.indices), p_tys + i_tys))):
            d_ty = T.Pi(nm, tyt, d_ty)
        d_ty_v = ctx.eval(d_ty)
        ctx_d = ctx.extend(decl.name, d_ty_v)

        # the opaque self binding sits between the outer context and the
        # telescope, so context references cross it while telescope-internal
        # references do not: each type is evaluated without it
        tel_ctx = ctx_d
        for nm, tyt in zip((*(nm for nm, _ in decl.params), *(nm for nm, _ in decl.indices)), p_tys + i_tys):
            tel_ctx = tel_ctx.extend(nm, V.eval_term(tyt, ctx.env + tel_ctx.env[n0 + 1:]))

        # the description label <D ps is : IDesc I>: the telescope's
        # variables at their types, `I` pairing the index types on the left
        tel = tel_ctx.entries[n0 + 1:]
        index_ty: Value = V.VUnit()
        for e in tel[k:]:
            index_ty = V.VSigma("_", index_ty, lambda _v, ity=e.ty: ity)
        goal = V.VLabelTy(decl.name, tel_ctx.env[n0 + 1:], tuple(e.ty for e in tel), V.VIDesc(index_ty))

        de = DataElab(el, n0)
        code = de.elab_data_patts(tel_ctx, decl.clauses, goal)

        return DataResult(
            name=decl.name,
            definiens=_build_definiens(decl, p_tys, i_tys, code, k, m),
            ty=d_ty,
            n_params=k,
            n_indices=m,
            tel_names=[decl.name] + [nm for nm, _ in decl.params] + [nm for nm, _ in decl.indices],
            trace=el.root,
        )


def _build_definiens(decl, p_tys, i_tys, code, k: int, m: int) -> Term:
    """The datatype's definiens: under its parameters and indices, the
    fix-point of its family, a function of its own binder `j`, at the
    tuple of the indices."""
    # index tuple type at [ctx, params, indices]; each index type sits one
    # binder below them, there and as a type of the label's arguments. An
    # index type mentions no earlier index (`elab_data` rejects that), so it
    # moves down past them
    i_tys_j = [T.shift(tyt, m + 1 - pos) for pos, tyt in enumerate(i_tys)]
    idx_ty: Term = T.Unit()
    for tyt in i_tys_j:
        idx_ty = T.Sigma("_", idx_ty, tyt)

    # code lives at [ctx, D, params, indices]; move it to [ctx, params, indices, j]
    # in the one walk over it, an index becoming its projection of j.
    # `DataElab._positivity` has kept D (at m + k) out of it
    def remap(u: Term, d: int) -> Optional[Term]:
        if type(u) is not T.Var:
            return None
        old = u.ix - d
        if old < 0:
            return u
        if old < m:
            t: Term = T.Var(d)
            for _ in range(old):
                t = T.Fst(t)
            return T.Snd(t)
        return T.Var(u.ix + 1) if old < m + k else u

    code_r = T.map_term(code, remap)

    # the label under j: <D (p...) [proj j]...> at IDesc idx_ty
    args, argtys = [], []
    for pos in range(k):
        args.append(T.Var(m + k - pos))
        argtys.append(T.shift(p_tys[pos], m + k + 1 - pos))
    for pos in range(m):
        proj: Term = T.Var(0)
        for _ in range(m - 1 - pos):
            proj = T.Fst(proj)
        args.append(T.Snd(proj))
        argtys.append(i_tys_j[pos])

    call = T.LCall(decl.name, tuple(args), tuple(argtys), T.IDesc(T.shift(idx_ty, 1)), code_r)
    r_term = T.Lam("j", call)

    # pack the index variables into the tuple
    pack: Term = T.Void()
    for pos in range(m):
        pack = T.Pair(pack, T.Var(m - 1 - pos))

    out = T.IMu(idx_ty, r_term, pack)
    for pos in reversed(range(m)):
        out = T.Lam(decl.indices[pos][0], out)
    for pos in reversed(range(k)):
        out = T.Lam(decl.params[pos][0], out)
    return out
