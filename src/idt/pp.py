"""Core-term printing for diagnostics, traces and code dumps."""

from __future__ import annotations

from . import terms as T
from .terms import Term

ATOM, APP, TIMES, ARROW = 4, 3, 2, 1


def _freshen(nm: str, names: list) -> str:
    if nm == "_" or nm == "":
        return "_"
    base = nm
    k = 0
    while nm in names:
        k += 1
        nm = f"{base}{k}"
    return nm


def _paren(s: str, have: int, need: int) -> str:
    return f"({s})" if have < need else s


def _enum_tags(e: Term):
    tags = []
    while isinstance(e, T.ConsE):
        if not isinstance(e.tag, T.Tag):
            return None
        tags.append(e.tag.name)
        e = e.rest
    return tags if isinstance(e, T.NilE) else None


def _numeral(t: Term):
    n = 0
    while isinstance(t, T.SucE):
        n += 1
        t = t.pred
    return n if isinstance(t, T.ZeroE) else None


def _tuple_items(t: Term):
    items = []
    while isinstance(t, T.Pair):
        items.append(t.fst)
        t = t.snd
    return items, t


def _closed_numeral(t: Term):
    """Decimal view of canonical zero/suc-shaped fix-point values."""
    n = 0
    while True:
        if not (isinstance(t, T.In) and isinstance(t.payload, T.Pair)):
            return None
        c = _numeral(t.payload.fst)
        if c == 0 and isinstance(t.payload.snd, T.Void):
            return n
        if c == 1 and isinstance(t.payload.snd, T.Pair) and isinstance(t.payload.snd.snd, T.Void):
            n += 1
            t = t.payload.snd.fst
            continue
        return None


class Notation(Term):
    """A print-only atom shown as its text, for notations such as the Desc
    view of code dumps; it is never evaluated."""

    text: str


def print_term(t: Term, names: list, prec: int = ARROW) -> str:
    """`t` under `names`, in parentheses unless it binds at least as tightly
    as `prec` (`ATOM` for an argument, `ARROW`, the default, for none)."""
    return _pt(t, list(names), prec)


def _index_count(ty: Term):
    """How many components the index type `I` of `ty = IDesc I` has (`Unit`
    has none, `I * J` one more than `I`), or None for another `ty`."""
    if not isinstance(ty, T.IDesc):
        return None
    i, n = ty.index, 0
    while isinstance(i, T.Sigma):
        i, n = i.dom, n + 1
    return n if isinstance(i, T.Unit) else None


def _label(head: str, args: tuple, ty: Term, names: list) -> str:
    """A label at `IDesc I`, a datatype's description label, shows its
    parameters in parentheses and its last arguments, one per component of
    `I`, in brackets: `<D (A) [n]>`. Any other label shows `<f a : T>`."""
    n = _index_count(ty)
    if n is None or n > len(args):
        call = " ".join([head] + [_pt(a, names, ATOM) for a in args])
        return f"<{call} : {_pt(ty, names, ARROW)}>"
    k = len(args) - n
    parts = [f"({_pt(a, names, ARROW)})" for a in args[:k]] + [f"[{_pt(a, names, ARROW)}]" for a in args[k:]]
    return "<" + " ".join([head] + parts) + ">"


def _pt(t: Term, names: list, prec: int) -> str:
    match t:
        case T.Var(ix):
            if 0 <= ix < len(names):
                return names[len(names) - 1 - ix]
            return f"!{ix}"
        case T.Set_(0):
            return "Set"
        case T.Set_(level):
            return f"Set{level}"
        case T.Pi(nm, dom, cod):
            if not T.occurs(cod, 0):
                s = f"{_pt(dom, names, TIMES)} -> {_pt(cod, names + ['_'], ARROW)}"
            else:
                nm = _freshen(nm, names)
                s = f"({nm} : {_pt(dom, names, ARROW)}) -> {_pt(cod, names + [nm], ARROW)}"
            return _paren(s, ARROW, prec)
        case T.Sigma(nm, dom, cod):
            if not T.occurs(cod, 0):
                s = f"{_pt(dom, names, APP)} * {_pt(cod, names + ['_'], TIMES)}"
            else:
                nm = _freshen(nm, names)
                s = f"({nm} : {_pt(dom, names, ARROW)}) * {_pt(cod, names + [nm], TIMES)}"
            return _paren(s, TIMES, prec)
        case T.Lam(nm, body):
            nm = _freshen(nm, names)
            s = f"\\{nm}. {_pt(body, names + [nm], ARROW)}"
            return _paren(s, ARROW, prec)
        case T.App(_, _):
            rev_args = []
            while isinstance(t, T.App):
                rev_args.append(t.arg)
                t = t.fn
            head = _pt(t, names, ATOM)
            args = " ".join(_pt(a, names, ATOM) for a in reversed(rev_args))
            return _paren(f"{head} {args}", APP, prec)
        case T.Ann(u, ty):
            return f"({_pt(u, names, ARROW)} : {_pt(ty, names, ARROW)})"
        case T.Pair(_, _):
            items, tail = _tuple_items(t)
            parts = [_pt(x, names, APP) for x in items]
            if isinstance(tail, T.Void):
                return "(" + " ".join(parts) + ")"
            return "(" + " , ".join(parts + [_pt(tail, names, APP)]) + ")"
        case T.Fst(p):
            return _paren(f"fst {_pt(p, names, ATOM)}", APP, prec)
        case T.Snd(p):
            return _paren(f"snd {_pt(p, names, ATOM)}", APP, prec)
        case T.Unit():
            return "Unit"
        case T.Void():
            return "()"
        case T.UId():
            return "UId"
        case T.Tag(name):
            return f"'{name}"
        case T.EnumU():
            return "EnumU"
        case T.NilE() | T.ConsE(_, _):
            tags = _enum_tags(t)
            if tags is not None:
                return "{" + ", ".join(f"'{x}" for x in tags) + "}"
            if isinstance(t, T.NilE):
                return "{}"
            return _paren(
                f"consE {_pt(t.tag, names, ATOM)} {_pt(t.rest, names, ATOM)}", APP, prec
            )
        case T.EnumT(e):
            return _paren(f"Enum {_pt(e, names, ATOM)}", APP, prec)
        case T.ZeroE() | T.SucE(_):
            n = _numeral(t)
            if n is not None:
                return f"#{n}"
            inner = t
            k = 0
            while isinstance(inner, T.SucE):
                k += 1
                inner = inner.pred
            return _paren(f"#{k}+{_pt(inner, names, ATOM)}", APP, prec)
        case T.Switch(e, p, cs, x):
            s = " ".join(
                ["switch"] + [_pt(u, names, ATOM) for u in (e, p, cs, x)]
            )
            return _paren(s, APP, prec)
        case T.Eq(_, l, r):
            return _paren(f"{_pt(l, names, APP)} == {_pt(r, names, APP)}", TIMES, prec)
        case T.Refl():
            return "refl"
        case T.EqElim(m, b, q):
            s = " ".join(["J"] + [_pt(u, names, ATOM) for u in (m, b, q)])
            return _paren(s, APP, prec)
        case T.IDesc(i):
            return _paren(f"IDesc {_pt(i, names, ATOM)}", APP, prec)
        case T.DVarI(i):
            return _paren(f"'varI {_pt(i, names, ATOM)}", APP, prec)
        case T.DOne():
            return "'1"
        case T.DTimes(a, b):
            s = f"{_pt(a, names, APP)} '* {_pt(b, names, TIMES)}"
            return _paren(s, TIMES, prec)
        case T.DPi(s_, f):
            return _paren(f"'Pi {_pt(s_, names, ATOM)} {_pt(f, names, ATOM)}", APP, prec)
        case T.DSigma(s_, f):
            return _paren(f"'Sigma {_pt(s_, names, ATOM)} {_pt(f, names, ATOM)}", APP, prec)
        case T.DSigmaE(e, f):
            return _paren(f"'sigma {_pt(e, names, ATOM)} {_pt(f, names, ATOM)}", APP, prec)
        case T.InterpIDesc(c, x):
            return _paren(f"interpI {_pt(c, names, ATOM)} {_pt(x, names, ATOM)}", APP, prec)
        case T.IAllD(c, x, p, d):
            s = " ".join(["IAll"] + [_pt(u, names, ATOM) for u in (c, x, p, d)])
            return _paren(s, APP, prec)
        case T.IAllMap(c, x, p, r, d):
            s = " ".join(["iallmap"] + [_pt(u, names, ATOM) for u in (c, x, p, r, d)])
            return _paren(s, APP, prec)
        case T.IMu(_, r, i):
            return _paren(f"IMu {_pt(r, names, ATOM)} {_pt(i, names, ATOM)}", APP, prec)
        case T.In(d):
            n = _closed_numeral(t)
            if n is not None:
                return str(n)
            return _paren(f"In {_pt(d, names, ATOM)}", APP, prec)
        case T.IInduction(_, r, p, m, i, x):
            s = " ".join(["iinduction"] + [_pt(u, names, ATOM) for u in (r, p, m, i, x)])
            return _paren(s, APP, prec)
        case T.Split(p, m, x):
            s = " ".join(["split"] + [_pt(u, names, ATOM) for u in (p, m, x)])
            return _paren(s, APP, prec)
        case T.LabelTy(head, args, _, ty):
            return _label(head, args, ty, names)
        case T.LRet(T.DSigmaE(e, f)):
            return _paren(f"return {_pt(e, names, ATOM)} {_pt(f, names, ATOM)}", APP, prec)
        case T.LRet(v):
            return _paren(f"return {_pt(v, names, ATOM)}", APP, prec)
        case T.LCall(head, args, _, ty, body):
            return _paren(f"call {_label(head, args, ty, names)} {_pt(body, names, ATOM)}", APP, prec)
        case Notation(text):
            return text
    return f"<{type(t).__name__}>"
