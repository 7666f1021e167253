"""Elaboration of inductive definitions down to description codes.

A declaration's clauses elaborate against its description label, the
programming label `<D ps is : IDesc I>` of its parameters and indices (`I`
pairs the index types), and return the `'sigma` code of their constructors.
Constructor argument telescopes become right-nested 'Sigma codes, recursive
positions become 'varI codes carrying their extracted indices, index
constraints become trailing equality codes, and a trailing `by` block
elaborates through the restricted eliminator builder into a `call` of the
label. Declarations without indices run through the same pipeline with the
degenerate Unit index. The elaborator's own form of a label, `ELabel`, says
which arguments are parameters, indices or constraints; a `by` clause head
constrains no index, so a label that is called has no constraint.

Each judgment (`ElabData`, `ElabDataPatts`, `ElabChoices`, `ElabConstr`,
`ElabArg`, `ElabRecArgs`, `ElabEqs`, `ElabEWM`) is a derivation step on the
elaborator's goal stack; a tracing elaborator records them as the
derivation that `--emit-trace` prints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import kernel as K
from . import labels as L
from . import pp
from . import surface as S
from . import terms as T
from . import values as V
from .elab import ElabError, Elaborator, TraceNode, _span, _spine
from .kernel import Context
from .record import Record, field
from .terms import Term
from .values import Value


# --- elaborator-side description labels -------------------------------------


class LParam(Record):
    """A label's parameter entry: its term and type."""

    tm: Term
    ty: Term = field(compare=False)


class LIndex(Record):
    """A label's index entry: its term and type."""

    tm: Term
    ty: Term = field(compare=False)


class EConstr(Record):
    """A label's constraint entry: an index variable and the surface value
    a clause head constrains it to."""

    var: Term
    raw: S.ExtTerm  # elaborated late, under the constructor telescope
    ty: Term


class ELabel(Record):
    head: str
    entries: tuple

    def shift(self, by: int) -> "ELabel":
        return ELabel(self.head, tuple(_eshift(e, by) for e in self.entries))

    def kernel_label(self, ctx: Context) -> tuple:
        """The arguments, argument types and type `IDesc I` of this label as
        a kernel label, for a label without constraint entries."""
        assert not any(isinstance(e, EConstr) for e in self.entries)
        return (
            tuple(e.tm for e in self.entries),
            tuple(e.ty for e in self.entries),
            T.IDesc(ctx.quote(self.index_type_value(ctx))),
        )

    def refined(self, ctx: Context, goal: V.VLabelTy) -> "ELabel":
        """The by-branch goal `goal`, this label refined, read back with the
        kinds of this label's entries."""
        return ELabel(
            self.head,
            tuple(type(e)(ctx.quote(a), ctx.quote(aty)) for e, a, aty in zip(self.entries, goal.args, goal.argtys)),
        )

    def index_type_value(self, ctx: Context) -> Value:
        """`I`: `Unit` paired on the left with the type of each index and
        constraint entry in turn; parameters are skipped."""
        ty: Value = V.VUnit()
        for e in self.entries:
            if isinstance(e, LParam):
                continue
            ity = ctx.eval(e.ty)
            prev = ty
            ty = V.VSigma("_", prev, V.PyClo(lambda _v, it=ity: it))
        return ty

    def describe(self, ctx: Context) -> str:
        names = ctx.names()
        parts = [self.head]
        for e in self.entries:
            if isinstance(e, LParam):
                parts.append(f"({pp.print_term(e.tm, names)})")
            elif isinstance(e, LIndex):
                parts.append(f"[{pp.print_term(e.tm, names)}]")
            else:
                parts.append(f"[{pp.print_term(e.var, names)} = {S.print_expr(e.raw)}]")
        return " ".join(parts)


class DataResult:
    def __init__(self, name: str, definiens: Term, ty: Term, n_params: int, n_indices: int, code: Term,
                 tel_names: list, tags: list, trace: Optional[TraceNode]):
        self.name = name
        self.definiens = definiens  # at the outer context
        self.ty = ty
        self.n_params = n_params
        self.n_indices = n_indices
        self.code = code  # at the telescope context (with the opaque self binding)
        self.tel_names = tel_names
        self.tags = tags
        self.trace = trace


# --- pattern validation ---------------------------------------------------------


def validate_pattern(ctx: Context, label: ELabel, head: S.HeadPattern):
    """Match a clause head against the label; returns (refined label, context
    extended with any constructor-pattern bindings)."""
    if head.name != label.head:
        raise ElabError(
            "PatternHeadMismatch",
            head.span,
            f"clause head '{head.name}' does not match the datatype '{label.head}'",
        )
    if len(head.args) != len(label.entries):
        raise ElabError(
            "PatternHeadMismatch",
            head.span,
            f"clause head has {len(head.args)} argument(s); the label has {len(label.entries)}",
        )
    inner = ctx
    shifted = 0
    out = []
    for pos, (pat, entry) in enumerate(zip(head.args, label.entries)):
        entry = _eshift(entry, shifted)
        if isinstance(entry, LParam):
            if not isinstance(pat, S.PVar):
                raise ElabError(
                    "PatternHeadMismatch",
                    getattr(pat, "span", head.span),
                    f"position {pos} is a parameter and must repeat the declared variable",
                )
            if not _is_var_named(inner, entry.tm, pat.name):
                raise ElabError(
                    "PatternHeadMismatch",
                    pat.span,
                    f"parameter position {pos} must be '{_var_name(inner, entry.tm)}', got '{pat.name}'",
                )
            out.append(entry)
            continue
        if isinstance(entry, EConstr):
            raise ElabError(
                "PatternHeadMismatch",
                getattr(pat, "span", head.span),
                f"position {pos} is already constrained",
            )
        assert isinstance(entry, LIndex)
        if not isinstance(pat, S.PIndex):
            raise ElabError(
                "PatternHeadMismatch",
                getattr(pat, "span", head.span),
                f"index position {pos} must be written in brackets",
            )
        ip = pat.pat
        entry_v = inner.eval(entry.tm)
        if isinstance(ip, S.IVar):
            if _is_var_named(inner, entry.tm, ip.name):
                out.append(entry)
                continue
            # under a by-refinement a bare name can be a nullary constructor
            # or an enumeration tag
            if L._matches_enum_tag(ip.name, entry_v, inner.eval(entry.ty)):
                out.append(entry)
                continue
            got = L.bind_refined(inner, ip.name, (), entry_v, inner.eval(entry.ty))
            if got is None:
                raise ElabError(
                    "PatternHeadMismatch",
                    ip.span,
                    f"index position {pos} expects '{pp.print_term(entry.tm, inner.names())}', got '{ip.name}'",
                )
            inner = got
            out.append(entry)
            continue
        if isinstance(ip, S.IConstraint):
            if not _is_var_named(inner, entry.tm, ip.name):
                raise ElabError(
                    "PatternHeadMismatch",
                    ip.span,
                    f"constraint must name the index variable "
                    f"'{_var_name(inner, entry.tm)}', got '{ip.name}'",
                )
            out.append(EConstr(entry.tm, ip.value, entry.ty))
            continue
        assert isinstance(ip, S.IRefined)
        got = L.bind_refined(inner, ip.ctor, ip.vars, entry_v, inner.eval(entry.ty))
        if got is None:
            raise ElabError(
                "PatternHeadMismatch",
                ip.span,
                f"constructor pattern '{ip.ctor}' does not match index position {pos}",
            )
        newly = got.depth - inner.depth
        inner = got
        if newly:
            out = [_eshift(e, newly) for e in out]
            shifted += newly
        out.append(LIndex(V.quote(entry_v, inner.depth), T.shift(entry.ty, newly)))
    return ELabel(label.head, tuple(out)), inner


def _eshift(entry, by: int):
    if by == 0:
        return entry
    if not isinstance(entry, EConstr):
        return type(entry)(T.shift(entry.tm, by), T.shift(entry.ty, by))
    return EConstr(T.shift(entry.var, by), entry.raw, T.shift(entry.ty, by))


def _is_var_named(ctx: Context, tm: Term, name: str) -> bool:
    if not isinstance(tm, T.Var):
        return False
    return ctx.entry_at(tm.ix).name == name


def _var_name(ctx: Context, tm: Term) -> str:
    if isinstance(tm, T.Var):
        return ctx.entry_at(tm.ix).name
    return pp.print_term(tm, ctx.names())


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

    # clause groups, with an optional trailing by-block
    def elab_data_patts(self, ctx: Context, clauses: tuple, label: ELabel, depth: int = 0) -> Term:
        if depth > L.MAX_BY_DEPTH:
            raise ElabError("ByDepthExceeded", None, f"'by' nesting deeper than {L.MAX_BY_DEPTH}")
        with self.el.goal(lambda: label.describe(ctx), "ElabDataPatts"):
            tag_codes: List[Tuple[str, Term]] = []
            by_clause = None
            for c in clauses:
                if by_clause is not None:
                    raise ElabError(
                        "PatternHeadMismatch",
                        c.head.span,
                        "clauses after a 'by' block are not supported",
                    )
                if c.by is not None:
                    by_clause = c
                    continue
                rl, cctx = validate_pattern(ctx, label, c.head)
                with self.el.goal(lambda: rl.describe(cctx), "ElabChoices"):
                    tag, code = self.elab_constructor(cctx, c.ctor, rl)
                code = L._inline_defs(cctx, ctx, code)
                if any(tag == t0 for t0, _ in tag_codes):
                    raise ElabError(
                        "DuplicateConstructor", c.ctor.span, f"duplicate constructor '{tag}'"
                    )
                tag_codes.append((tag, code))
            if by_clause is not None:
                tag_codes.append(self._elab_by(ctx, by_clause, label, depth))
            return self._assemble_ret(ctx, label, tag_codes)

    def _assemble_ret(self, ctx: Context, label: ELabel, tag_codes: list) -> Term:
        enum_t: Term = T.NilE()
        for tag, _ in reversed(tag_codes):
            enum_t = T.ConsE(T.Tag(tag), enum_t)
        cases: Term = T.Void()
        for _, code in reversed(tag_codes):
            cases = T.Pair(code, cases)
        idx_ty = V.quote(label.index_type_value(ctx), ctx.depth)
        fam_body = T.Switch(
            T.shift(enum_t, 1),
            T.Lam("_", None, T.IDesc(T.shift(idx_ty, 2))),
            T.shift(cases, 1),
            T.Var(0),
        )
        fam = T.Lam("c", T.EnumT(enum_t), fam_body)
        return T.LRet(T.DSigmaE(enum_t, fam))

    def _elab_by(self, ctx: Context, clause: S.Clause, label: ELabel, depth: int):
        rl, cctx = validate_pattern(ctx, label, clause.head)
        if any(isinstance(e, EConstr) for e in rl.entries):
            raise ElabError(
                "PatternHeadMismatch", clause.head.span, "a 'by' clause head cannot constrain an index"
            )
        by = clause.by
        klabel = rl.kernel_label(cctx)
        goal = cctx.eval(T.LabelTy(rl.head, *klabel))
        try:
            res = L.ewm_restricted(cctx, by.kind, by.var, goal)
        except ElabError as e:
            if e.span is None:
                e.span = by.span
            raise
        with self.el.goal(
            lambda: f"{by.kind} {by.var} with motive over {rl.describe(cctx)}", "ElabEWM"
        ):
            branches = L._elab_branches(
                cctx,
                self.el,
                res,
                list(by.clauses),
                lambda c2, cl, g: self.elab_data_patts(c2, (cl,), rl.refined(c2, g), depth + 1),
                lambda c2, _el, sg, cl: _validates(c2, rl.refined(c2, sg.goal), cl.head),
            )
        # the eliminated goal is label-typed; the call returns its code
        out = T.LCall(rl.head, *klabel, res.assemble(branches))
        return "elim", L._inline_defs(cctx, ctx, out)

    # one constructor: its tag and its argument telescope's code
    def elab_constructor(self, ctx: Context, ctor: S.CtorDecl, label: ELabel):
        if not T.valid_tag(ctor.name):
            raise ElabError("UnknownTag", ctor.span, f"invalid constructor name '{ctor.name}'")
        with self.el.goal(lambda: f"{ctor.name} under {label.describe(ctx)}", "ElabConstr"):
            code = self.elab_args(ctx, list(ctor.args), label)
        return ctor.name, code

    # the argument telescope: recursion-first, then exponentials, then fields
    def elab_args(self, ctx: Context, args: list, label: ELabel) -> Term:
        if not args:
            return self.elab_constraints(ctx, label)
        nm, tye = args[0]
        rest_args = args[1:]
        spine_head, spine_args = _spine(tye)
        # recursion matching, attempted first
        if isinstance(spine_head, S.EVar) and spine_head.name == label.head:
            with self.el.goal(lambda: f"({nm} : {S.print_expr(tye)}) recursive", "ElabArg"):
                is_tm = self.extract_indices(ctx, spine_args, label, tye)
                rest = self.elab_args(ctx, rest_args, label)
            return T.DTimes(T.DVarI(is_tm), rest)
        # exponentials whose codomain is recursive
        if isinstance(tye, S.EPi):
            doms, cod = _pi_spine(tye)
            cod_head, cod_args = _spine(cod)
            if isinstance(cod_head, S.EVar) and cod_head.name == label.head:
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
                    shifted_label = label.shift(len(dom_terms))
                    is_tm = self.extract_indices(inner_ctx, cod_args, shifted_label, cod)
                    code: Term = T.DVarI(is_tm)
                    for dnm, dt in reversed(dom_terms):
                        code = T.DPi(dt, T.Lam(dnm, dt, code))
                    rest = self.elab_args(ctx, rest_args, label)
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
            rest = self.elab_args(ctx.extend(nm, tyv), rest_args, label.shift(1))
        return T.DSigma(tyt, T.Lam(nm, tyt, rest))

    # trailing equality codes for the label's constraints
    def elab_constraints(self, ctx: Context, label: ELabel) -> Term:
        with self.el.goal(lambda: label.describe(ctx), "ElabEqs"):
            return self._eqs(ctx, list(label.entries))

    def _eqs(self, ctx: Context, entries: list) -> Term:
        if not entries:
            return T.DOne()
        last = entries[-1]
        rest = entries[:-1]
        if not isinstance(last, EConstr):
            return self._eqs(ctx, rest)
        t = self.el.check(ctx, last.raw, ctx.eval(last.ty))
        self._positivity(ctx, t, _span(last.raw))
        inner = self._eqs(ctx, rest)
        return T.DSigma(
            T.Eq(last.ty, last.var, t),
            T.Lam("_", T.Eq(last.ty, last.var, t), T.shift(inner, 1)),
        )

    # indices of a recursive call, paired left to right
    def extract_indices(self, ctx: Context, spine_args: list, label: ELabel, at) -> Term:
        with self.el.goal(lambda: label.describe(ctx), "ElabRecArgs"):
            entries = list(label.entries)
            if len(spine_args) != len(entries):
                raise ElabError(
                    "PatternHeadMismatch",
                    _span(at),
                    f"recursive call applies {len(spine_args)} argument(s); "
                    f"the datatype takes {len(entries)}",
                )
            is_tm: Term = T.Void()
            for arg, entry in zip(spine_args, entries):
                tyv = ctx.eval(entry.ty)
                if isinstance(entry, LParam):
                    at_ = self.el.check(ctx, arg, tyv)
                    if not K.conv(ctx, ctx.eval(at_), ctx.eval(entry.tm)):
                        raise ElabError(
                            "PatternHeadMismatch",
                            _span(arg),
                            "parameters must be the same in recursive calls",
                        )
                else:
                    at_ = self.el.check(ctx, arg, tyv)
                    self._positivity(ctx, at_, _span(arg))
                    is_tm = T.Pair(is_tm, at_)
            return is_tm


def _validates(ctx: Context, label: ELabel, head: S.HeadPattern) -> bool:
    """Whether a by-branch's clause head matches the branch's label."""
    try:
        validate_pattern(ctx, label, head)
        return True
    except ElabError:
        return False


def _pi_spine(e: S.ExtTerm):
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
            for earlier in range(pos):
                if T.occurs(tyt, earlier):
                    raise ElabError(
                        "CheckMismatch",
                        _span(tye),
                        "an index type may not depend on earlier indices",
                    )
            i_tys.append(tyt)
            inner = inner.extend(nm, tyv)

        # declared type and the opaque self binding
        d_ty: Term = T.Set_(0)
        for tyt in reversed([T.shift(t, 0) for t in i_tys]):
            d_ty = T.Pi("_", tyt, d_ty)
        for pos in reversed(range(k)):
            d_ty = T.Pi(decl.params[pos][0], p_tys[pos], d_ty)
        # name binders properly
        d_ty = _pi_rename(d_ty, [nm for nm, _ in decl.params] + [nm for nm, _ in decl.indices])
        d_ty_v = ctx.eval(d_ty)
        ctx_d = ctx.extend(decl.name, d_ty_v)

        # the opaque self binding sits between the outer context and the
        # telescope, so context references cross it while telescope-internal
        # references do not
        tel_ctx = ctx_d
        for pos, (nm, _) in enumerate(decl.params):
            tyv = tel_ctx.eval(T.shift(p_tys[pos], 1, cutoff=pos))
            tel_ctx = tel_ctx.extend(nm, tyv)
        for pos, (nm, _) in enumerate(decl.indices):
            tyv = tel_ctx.eval(T.shift(i_tys[pos], 1, cutoff=k + pos))
            tel_ctx = tel_ctx.extend(nm, tyv)

        entries = []
        for pos, (nm, _) in enumerate(decl.params):
            ix = (k - 1 - pos) + m
            ty_t = T.shift(T.shift(p_tys[pos], (k - pos) + m), 1, cutoff=k + m)
            entries.append(LParam(T.Var(ix), ty_t))
        for pos, (nm, _) in enumerate(decl.indices):
            ix = m - 1 - pos
            ty_t = T.shift(T.shift(i_tys[pos], m - pos), 1, cutoff=k + m)
            entries.append(LIndex(T.Var(ix), ty_t))
        label = ELabel(decl.name, tuple(entries))

        de = DataElab(el, n0)
        code = de.elab_data_patts(tel_ctx, decl.clauses, label)

        definiens = _build_definiens(ctx, decl, p_tys, i_tys, code, n0, k, m)
        return DataResult(
            name=decl.name,
            definiens=definiens,
            ty=d_ty,
            n_params=k,
            n_indices=m,
            code=code,
            tel_names=[decl.name] + [nm for nm, _ in decl.params] + [nm for nm, _ in decl.indices],
            tags=pp._enum_tags(code.val.enum),  # the code is `return {tags} F`
            trace=el.root,
        )


def _pi_rename(ty: Term, names: list) -> Term:
    if not names or not isinstance(ty, T.Pi):
        return ty
    return T.Pi(names[0], ty.dom, _pi_rename(ty.cod, names[1:]))


def _strengthen(t: Term, by: int, what: str) -> Term:
    """Shift down by `by`, requiring that the dropped range is unused."""
    for j in range(by):
        if T.occurs(t, j):
            raise ElabError("CheckMismatch", None, f"{what} may not depend on local binders")
    return T.map_vars(t, lambda i, d: T.Var(i - by))


def _build_definiens(ctx, decl, p_tys, i_tys, code, n0: int, k: int, m: int) -> Term:
    # index tuple type at depth n0+k (below the index binders)
    idx_ty: Term = T.Unit()
    for pos, tyt in enumerate(i_tys):
        base = _strengthen(tyt, pos, "an index type")
        idx_ty = T.Sigma("_", idx_ty, T.shift(base, 1))

    # code lives at [ctx, D, params, indices]; move it to [ctx, params, j]
    def remap(old: int) -> Term:
        if old < m:
            t: Term = T.Var(0)
            for _ in range(old):
                t = T.Fst(t)
            return T.Snd(t)
        if old < m + k:
            return T.Var(old - m + 1)
        if old == m + k:
            raise ElabError(
                "NonPositive", decl.span, "recursive occurrence survived into the code"
            )
        return T.Var(old - m)

    code_r = T.subst_free(code, remap)

    # the label under R: <D (p...) [proj j]...> at IDesc idx_ty
    args, argtys = [], []
    for pos in range(k):
        args.append(T.Var(k - pos))
        argtys.append(T.shift(p_tys[pos], k + 1 - pos))
    for pos in range(m):
        proj: Term = T.Var(0)
        for _ in range(m - 1 - pos):
            proj = T.Fst(proj)
        args.append(T.Snd(proj))
        argtys.append(T.shift(_strengthen(i_tys[pos], pos, "an index type"), 1))

    call = T.LCall(decl.name, tuple(args), tuple(argtys), T.IDesc(T.shift(idx_ty, 1)), code_r)
    r_term = T.Lam("j", idx_ty, call)

    # pack the index variables into the tuple
    pack: Term = T.Void()
    for pos in range(m):
        pack = T.Pair(pack, T.Var(m - 1 - pos))

    body = T.IMu(T.shift(idx_ty, m), T.shift(r_term, m), pack)
    out = body
    for pos in reversed(range(m)):
        out = T.Lam(decl.indices[pos][0], i_tys[pos], out)
    for pos in reversed(range(k)):
        out = T.Lam(decl.params[pos][0], p_tys[pos], out)
    return out
