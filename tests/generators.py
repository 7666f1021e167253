"""Random generators: well-typed core terms and well-scoped declarations."""

import random

from idt import kernel as K
from idt import surface as S
from idt import terms as T
from idt import values as V


class TermGen:
    """Type-directed generation of well-typed core terms in a session context
    that provides Nat and plus."""

    def __init__(self, sess, seed: int):
        self.sess = sess
        self.rng = random.Random(seed)
        self.ctx = sess.ctx
        self.nat = sess.datatypes["Nat"].value
        ix, entry = self.ctx.lookup("plus")
        self.plus_ix = ix
        self.bool_enum = V.VConsE(V.VTag("tt"), V.VConsE(V.VTag("ff"), V.VNilE()))

    def type_palette(self, depth: int):
        opts = [
            lambda: V.VUnit(),
            lambda: self.nat,
            lambda: V.VEnumT(self.bool_enum),
        ]
        if depth > 0:
            opts += [
                lambda: V.VPi("x", self.pick_type(depth - 1), self._const(self.pick_type(depth - 1))),
                lambda: V.VSigma("x", self.pick_type(depth - 1), self._const(self.pick_type(depth - 1))),
            ]
        return opts

    def _const(self, v):
        return V.PyClo(lambda _x: v)

    def pick_type(self, depth: int) -> V.Value:
        return self.rng.choice(self.type_palette(depth))()

    def numeral(self, k: int) -> T.Term:
        t = T.In(T.Pair(T.ZeroE(), T.Void()))
        for _ in range(k):
            t = T.In(T.Pair(T.SucE(T.ZeroE()), T.Pair(t, T.Void())))
        return t

    def gen(self, ctx: K.Context, ty: V.Value, depth: int) -> T.Term:
        rng = self.rng
        # sometimes use a matching variable
        if depth > 0 and rng.random() < 0.25:
            cands = []
            for ix in range(min(ctx.depth - self.sess.ctx.depth, 8)):
                if K.conv(ctx, ctx.entry_at(ix).ty, ty):
                    cands.append(ix)
            if cands:
                return T.Var(rng.choice(cands))
        # sometimes wrap in an identity beta-redex (the body must stay
        # synthesizable for the checker's application rule)
        if depth > 0 and rng.random() < 0.2:
            inner = self.gen(ctx, ty, depth - 1)
            return T.App(T.Lam("r", V.quote(ty, ctx.depth), T.Var(0)), inner)
        if isinstance(ty, V.VUnit):
            return T.Void()
        if isinstance(ty, V.VEnumT):
            tags = V.enum_tags(ty.enum) or ["x"]
            k = rng.randrange(len(tags))
            t: T.Term = T.ZeroE()
            for _ in range(k):
                t = T.SucE(t)
            return t
        if isinstance(ty, V.VIMu):  # Nat
            if depth > 0 and rng.random() < 0.4:
                a = self.gen(ctx, ty, depth - 1)
                b = self.gen(ctx, ty, depth - 1)
                plus_ix = ctx.depth - 1 - (self.sess.ctx.depth - 1 - self.plus_ix)
                return T.App(T.App(T.Var(plus_ix), a), b)
            return self.numeral(rng.randrange(4))
        if isinstance(ty, V.VPi):
            inner = ctx.extend("x", ty.dom)
            body = self.gen(inner, ty.cod(V.fresh(ctx.depth)), depth - 1)
            return T.Lam("x", V.quote(ty.dom, ctx.depth), body)
        if isinstance(ty, V.VSigma):
            a = self.gen(ctx, ty.dom, depth - 1)
            b = self.gen(ctx, ty.cod(ctx.eval(a)), depth - 1)
            return T.Pair(a, b)
        return T.Void()

    def sample(self, depth: int = 3):
        ty = self.pick_type(2)
        t = self.gen(self.ctx, ty, depth)
        return t, ty


# --- random well-scoped data declarations ---------------------------------------


def gen_data_decl(rng: random.Random, name: str) -> S.DataDecl:
    """A random well-scoped declaration over the prelude's Nat and Bool."""
    n_params = rng.randrange(0, 2)
    params = tuple((f"P{i}", S.ESet(0)) for i in range(n_params))
    if n_params and rng.random() < 0.25:
        # a dependent telescope: an element of the first parameter
        params = params + (("pe", S.EVar("P0")),)
    indexed = rng.random() < 0.5
    indices = (("n", S.EVar("Nat")),) if indexed else ()

    def ref_self(ctx_args, idx_expr=None):
        e: S.ExtTerm = S.EVar(name)
        for p, _ in params:
            e = S.EApp(e, S.EVar(p))
        if indexed:
            e = S.EApp(e, idx_expr if idx_expr is not None else S.ENum(rng.randrange(3)))
        return e

    def arg_type(bound_nats, allow_rec=True, idx_expr=None):
        roll = rng.random()
        if n_params and roll < 0.3:
            return S.EVar(params[rng.randrange(n_params)][0])
        if roll < 0.55:
            return S.EVar("Nat")
        if allow_rec and roll < 0.8:
            return ref_self(None, idx_expr)
        if allow_rec and roll < 0.9:
            return S.EPi("t", S.EVar("Nat"), ref_self(None, idx_expr))
        return S.EUnit()

    clauses = []
    style_by = indexed and rng.random() < 0.5
    by_kind = "rec" if (style_by and rng.random() < 0.3) else "case"
    n_cons = rng.randrange(0 if not style_by else 1, 3)
    used = set()

    def fresh_tag(base):
        t = base
        k = 0
        while t in used:
            k += 1
            t = f"{base}{k}"
        used.add(t)
        return t

    if style_by:
        sub = []
        for variant, idx_vars in (("zero", ()), ("suc", ("m",))):
            tag = fresh_tag(f"c{variant}")
            args = []
            bound = list(idx_vars)
            for j in range(rng.randrange(0, 3)):
                idx = S.EVar(bound[0]) if bound and rng.random() < 0.7 else S.ENum(rng.randrange(2))
                args.append((f"a{j}", arg_type(bound, idx_expr=idx)))
            refined = (
                S.IRefined(variant, tuple(idx_vars)) if idx_vars else S.IVar(variant)
            )
            head = S.HeadPattern(
                name,
                tuple([S.PVar(p) for p, _ in params]) + (S.PIndex(refined),),
            )
            sub.append(S.Clause(head, S.CtorDecl(tag, tuple(args)), None))
        head = S.HeadPattern(
            name, tuple([S.PVar(p) for p, _ in params]) + (S.PIndex(S.IVar("n")),)
        )
        clauses.append(S.Clause(head, None, S.ByBlock(by_kind, "n", tuple(sub))))
    else:
        for i in range(n_cons):
            tag = fresh_tag(f"mk{i}")
            args = []
            arg_names = []
            for j in range(rng.randrange(0, 3)):
                nm = f"a{j}"
                prev_nats = [
                    an for an, at in args if isinstance(at, S.EVar) and at.name == "Nat"
                ]
                idx = (
                    S.EVar(prev_nats[-1])
                    if indexed and prev_nats and rng.random() < 0.5
                    else S.ENum(rng.randrange(2))
                )
                args.append((nm, arg_type(arg_names, idx_expr=idx)))
                arg_names.append(nm)
            pargs = [S.PVar(p) for p, _ in params]
            if indexed:
                prev_nats = [an for an, at in args if isinstance(at, S.EVar) and at.name == "Nat"]
                if prev_nats and rng.random() < 0.6:
                    val: S.ExtTerm = S.EApp(S.EVar("suc"), S.EVar(prev_nats[0]))
                else:
                    val = S.ENum(rng.randrange(3))
                pargs.append(S.PIndex(S.IConstraint("n", val)))
            head = S.HeadPattern(name, tuple(pargs))
            clauses.append(S.Clause(head, S.CtorDecl(tag, tuple(args)), None))
    return S.DataDecl(name, params, indices, tuple(clauses), ())


def gen_let_decl(rng: random.Random, name: str) -> S.LetDecl:
    """A random recursive program over Nat in one of a few shapes."""
    shape = rng.randrange(3)
    if shape == 0:
        # constant or projection
        body = S.ENum(rng.randrange(4)) if rng.random() < 0.5 else S.EVar("x")
        return S.LetDecl(
            name,
            (("x", S.EVar("Nat")),),
            S.EVar("Nat"),
            S.PReturn(S.ProgHead(name, (S.ProgPatVar("x"),)), body),
        )
    if shape == 1:
        # case analysis
        z_body = S.ENum(rng.randrange(3))
        s_body = S.EVar("m") if rng.random() < 0.5 else S.ENum(rng.randrange(3))
        return S.LetDecl(
            name,
            (("x", S.EVar("Nat")),),
            S.EVar("Nat"),
            S.PBy(
                S.ProgHead(name, (S.ProgPatVar("x"),)),
                "case",
                "x",
                (
                    S.PReturn(S.ProgHead(name, (S.ProgPatVar("zero"),)), z_body),
                    S.PReturn(S.ProgHead(name, (S.ProgPatCon("suc", ("m",)),)), s_body),
                ),
            ),
        )
    # structural recursion (plus-like)
    step = S.EApp(S.EVar("suc"), S.EApp(S.EApp(S.EVar(name), S.EVar("m")), S.EVar("y")))
    if rng.random() < 0.4:
        step = S.EApp(S.EApp(S.EVar(name), S.EVar("m")), S.EVar("y"))
    return S.LetDecl(
        name,
        (("x", S.EVar("Nat")), ("y", S.EVar("Nat"))),
        S.EVar("Nat"),
        S.PBy(
            S.ProgHead(name, (S.ProgPatVar("x"), S.ProgPatVar("y"))),
            "rec",
            "x",
            (
                S.PReturn(S.ProgHead(name, (S.ProgPatVar("zero"), S.ProgPatVar("y"))), S.EVar("y")),
                S.PReturn(
                    S.ProgHead(name, (S.ProgPatCon("suc", ("m",)), S.ProgPatVar("y"))), step
                ),
            ),
        ),
    )


# --- pairs of values for conversion ---------------------------------------------


class ConvPairGen:
    """Pairs of values for checking conversion against readback.

    Both sides evaluate twin terms in one environment of `n_free` free
    variables. The twins differ in what term equality ignores (binder names,
    lambda and pair annotations, the `ixty` of IMu and IInduction, label
    argument and entry types) and, with probability `p_diff` per node, in
    something it does not, so that both verdicts occur. Twins sometimes share
    one term object, which gives closures with the same body and environment.

    `pair(kind)` forces the outermost shape: `switch_suc` (stuck on a
    suc-wrapped neutral scrutinee), `switch_enum` (stuck on a neutral
    enumeration), `imu_unit` (a Unit-indexed IMu against a non-Unit one),
    `label_argtys` (label types that differ only in argument types) and
    `lam_names` (lambdas that differ only in binder names and annotations).
    """

    KINDS = ("any", "switch_suc", "switch_enum", "imu_unit", "label_argtys", "lam_names")

    def __init__(self, seed: int, n_free: int = 3, p_diff: float = 0.1):
        self.rng = random.Random(seed)
        self.n_free = n_free
        self.p_diff = p_diff
        self.env = tuple(V.fresh(i) for i in range(n_free))

    def pair(self, kind: str = "any", depth: int = 3):
        """Two values that evaluate and read back without error."""
        while True:
            t1, t2 = self._top(kind, depth)
            try:
                a, b = V.eval_term(t1, self.env), V.eval_term(t2, self.env)
                V.quote(a, self.n_free), V.quote(b, self.n_free)
            except V.EvalError:
                continue
            return a, b

    # -- helpers --

    def _var(self, scope: int) -> T.Term:
        return T.Var(self.rng.randrange(scope))

    def _name(self) -> str:
        return self.rng.choice("xyz")

    def _one(self, depth: int, scope: int) -> T.Term:
        return self.twin(depth, scope)[0]

    def _maybe(self, depth: int, scope: int):
        return None if self.rng.random() < 0.5 else self._one(depth, scope)

    def _ixty(self, scope: int) -> T.Term:
        return self.rng.choice([T.Unit(), T.UId(), T.EnumT(T.NilE()), self._var(scope)])

    def _node(self, build, depth: int, *scopes: int):
        """Twins of one constructor: shared twin children, and `build(kids)`
        drawing whatever may differ per side afresh for each side."""
        kids = [self.twin(depth, s) for s in scopes]
        return build([k[0] for k in kids]), build([k[1] for k in kids])

    def _scrut(self, scope: int, neutral: bool) -> T.Term:
        t = self._var(scope) if neutral else T.SucE(T.ZeroE())
        for _ in range(self.rng.randrange(3)):
            t = T.SucE(t)
        return t

    def _args(self, depth: int, scope: int):
        n = self.rng.randrange(3)
        kids = [self.twin(depth, scope) for _ in range(n)]
        a1, a2 = tuple(k[0] for k in kids), tuple(k[1] for k in kids)
        if self.rng.random() < self.p_diff:
            a2 = a2[:-1] if a2 else (T.Void(),)
        return a1, a2

    def _argtys(self, depth: int, scope: int) -> tuple:
        return tuple(self._one(depth, scope) for _ in range(self.rng.randrange(3)))

    def _pair_ann(self, scope: int):
        return None if self.rng.random() < 0.5 else (self._name(), self._one(0, scope + 1))

    def _label(self, kinds: list, tms: list, var: T.Term, scope: int) -> T.DLabel:
        """A description label; entry types are drawn afresh for each side."""
        out = []
        for kind, tm in zip(kinds, tms):
            ty = self._one(0, scope)
            if kind == "param":
                out.append(T.LParam(tm, ty))
            elif kind == "index":
                out.append(T.LIndex(tm, ty))
            else:
                out.append(T.LConstraint(var, tm, ty))
        return T.DLabel("D", tuple(out))

    # -- twins --

    def _top(self, kind: str, depth: int):
        s = self.n_free
        r = self.rng
        if kind == "switch_suc":
            return self._switch(depth - 1, s, neutral=True)
        if kind == "switch_enum":
            return self._switch(depth - 1, s, neutral=False)
        if kind == "imu_unit":
            fam, idx = self.twin(depth - 1, s), self.twin(depth - 1, s)
            if r.random() < 0.5:
                idx = (T.Void(), T.Void()) if r.random() < 0.5 else idx
            return (
                T.IMu(T.Unit(), fam[0], idx[0]),
                T.IMu(r.choice([T.UId(), T.EnumT(T.NilE()), self._var(s)]), fam[1], idx[1]),
            )
        if kind == "label_argtys":
            args = [self._alike(depth - 1, s) for _ in range(r.randrange(3))]
            ty = self._alike(depth - 1, s)
            return tuple(
                T.LabelTy("f", tuple(a[side] for a in args), self._argtys(depth - 1, s), ty[side])
                for side in (0, 1)
            )
        if kind == "lam_names":
            body = self._alike(depth - 1, s + 1)
            return tuple(T.Lam(self._name(), self._maybe(1, s), body[side]) for side in (0, 1))
        return self.twin(depth, s)

    def _alike(self, depth: int, scope: int):
        """Twins that differ only in what term equality ignores."""
        saved, self.p_diff = self.p_diff, 0.0
        try:
            return self.twin(depth, scope)
        finally:
            self.p_diff = saved

    def _switch(self, depth: int, scope: int, neutral: bool):
        """A switch stuck on its scrutinee (`neutral`) or on its enumeration."""
        enum = self._var(scope) if not neutral or self.rng.random() < 0.5 else T.ConsE(
            T.Tag("a"), T.ConsE(T.Tag("b"), T.ConsE(T.Tag("c"), self._var(scope)))
        )
        cases = T.Pair(T.Void(), T.Pair(T.Unit(), T.Pair(T.UId(), self._var(scope))))
        fam = self.twin(depth, scope + 1)
        s1, s2 = self._scrut(scope, neutral), self._scrut(scope, neutral)
        if self.rng.random() > self.p_diff * 3:
            s2 = s1
        return (
            T.Switch(enum, T.Lam(self._name(), None, fam[0]), cases, s1),
            T.Switch(enum, T.Lam(self._name(), None, fam[1]), cases, s2),
        )

    def twin(self, depth: int, scope: int):
        r = self.rng
        if r.random() < 0.1:
            t = self._one(depth, scope)
            return t, t
        if depth <= 0 or r.random() < 0.15:
            t1 = self._leaf(scope)
            return t1, (self._leaf(scope) if r.random() < self.p_diff else t1)
        d, s = depth - 1, scope
        v = self._var(s)  # the neutral an elimination is stuck on
        # constructors whose fields all take part in term equality
        plain = [
            (lambda *k: T.App(v, *k), 1),
            (T.ConsE, 2),
            (T.EnumT, 1),
            (T.SucE, 1),
            (T.Eq, 3),
            (r.choice([T.IDesc, T.DVarI, T.In, T.LRet, T.Mu]), 1),
            (r.choice([T.DTimes, T.DPi, T.DSigma, T.DSigmaE, T.DRet]), 2),
            (lambda *k: T.EqElim(*k, v), 2),
            (lambda *k: T.Split(*k, v), 2),
            (lambda *k: T.Induction(*k, v), 3),
            (lambda *k: T.PiE(v, *k), 1),
            (lambda *k, c=r.choice([T.InterpDesc, T.InterpIDesc]): c(v, *k), 1),
            (lambda *k, c=r.choice([T.AllD, T.IAllD]): c(v, *k), 3),
            (lambda *k, c=r.choice([T.AllMap, T.IAllMap]): c(v, *k), 4),
        ]
        form = r.randrange(14 + len(plain))
        if form == 0:
            return self._node(lambda k: T.Pi(self._name(), k[0], k[1]), d, s, s + 1)
        if form == 1:
            return self._node(lambda k: T.Sigma(self._name(), k[0], k[1]), d, s, s + 1)
        if form == 2:
            return self._node(lambda k: T.Lam(self._name(), self._maybe(0, s), k[0]), d, s + 1)
        if form == 3:
            return self._node(lambda k: T.App(T.Lam(self._name(), None, k[0]), k[1]), d, s + 1, s)
        if form == 4:
            return self._node(lambda k: T.Pair(k[0], k[1], self._pair_ann(s)), d, s, s)
        if form == 5:
            proj = r.choice([T.Fst, T.Snd])
            return proj(v), proj(v)
        if form == 6:
            return self._node(lambda k: T.IMu(self._ixty(s), k[0], k[1]), d, s, s)
        if form == 7:
            return self._switch(d, s, neutral=r.random() < 0.5)
        if form == 8:
            args, ty = self._args(d, s), self.twin(d, s)
            return tuple(T.LabelTy("f", args[i], self._argtys(d, s), ty[i]) for i in (0, 1))
        if form == 9:
            args, ty = self._args(d, s), self.twin(d, s)
            return tuple(T.LCall("f", args[i], self._argtys(d, s), ty[i], v) for i in (0, 1))
        if form == 10:
            kids = [self.twin(d, s) for _ in range(3)]
            kids = [(self._scrut(s, True),) * 2 if r.random() < 0.3 else k for k in kids]
            return tuple(T.DecEqEnum(*(k[i] for k in kids)) for i in (0, 1))
        if form == 11:
            return self._node(lambda k: T.IInduction(self._ixty(s), k[0], k[1], k[2], k[3], v), d, s, s, s, s)
        if form == 12:
            # interpreting a concrete code builds host-side closures
            code = lambda k: T.DTimes(T.DVarI(k[0]), T.DSigma(k[1], T.Lam("_", None, T.DOne())))  # noqa: E731
            return self._node(lambda k: T.InterpIDesc(code(k), v), d, s, s)
        if form == 13:
            entry = lambda: r.choice(("param", "index", "constraint"))  # noqa: E731
            kinds = [entry() for _ in range(r.randrange(3))]
            kinds = (kinds, [entry() if r.random() < self.p_diff else k for k in kinds])
            tms = [self.twin(d, s) for _ in kinds[0]]
            labels = [self._label(kinds[i], [t[i] for t in tms], v, s) for i in (0, 1)]
            if r.random() < 0.5:
                return T.DLabelTy(labels[0]), T.DLabelTy(labels[1])
            return T.DCall(labels[0], v), T.DCall(labels[1], v)
        ctor, arity = plain[form - 14]
        return self._node(lambda k: ctor(*k), d, *([s] * arity))

    def _leaf(self, scope: int) -> T.Term:
        r = self.rng
        k = r.randrange(14)
        if k < 4:
            return self._var(scope)
        return [
            lambda: T.Set_(r.randrange(2)),
            lambda: T.Tag(r.choice("ab")),
            T.Unit, T.Void, T.ZeroE, lambda: T.SucE(T.ZeroE()), T.NilE, T.UId, T.Refl, T.DOne,
        ][k - 4]()
