"""Description-universe helpers: the tagged-code tuple view and the code
dump printer used by `--show-codes` and golden files.

There is one universe, of indexed descriptions; a datatype without indices
is its instance at index type `Unit`. The dump of such a datatype shows the
`Desc` view of those codes, a notation only.
"""

from __future__ import annotations

from typing import Optional

from . import kernel as K
from . import pp
from . import terms as T
from . import values as V
from .terms import Term
from .values import Value


def sigma_view(code: Value) -> Optional[tuple]:
    """Tuple view of a canonical tagged code: (tags, [branch code values])."""
    if not isinstance(code, V.VDSigmaE):
        return None
    tags = V.enum_tags(code.enum)
    if tags is None:
        return None
    return tags, [V.vapp(code.fam, V.make_numeral(k)) for k in range(len(tags))]


def print_code(ctx: K.Context, code: Term, names: Optional[list] = None, unindexed: bool = False) -> str:
    """Dump grammar: '1, A '* B, 'Pi S (\\x. T), 'Sigma S (\\x. T),
    'sigma {t0,...,tk} [t0 -> D0, ..., tk -> Dk], 'varI i.

    `unindexed` selects the Desc view for the code of a datatype without
    indices: in its codes at index type `Unit`, the recursive positions
    `'varI ()` print as `'var` and `IDesc Unit` prints as `Desc`. Codes at
    other index types, such as a nested `Vec`, keep their indexed form."""
    if names is None:
        names = ctx.names()
    return _pc(ctx.eval(code), ctx.depth, list(names), 1, unindexed)


def _pc(v: Value, depth: int, names: list, prec: int, unindexed: bool) -> str:
    # precedence: 2 = atom, 1 = '* chain
    if isinstance(v, V.VDOne):
        return "'1"
    if isinstance(v, V.VDVarI):
        if unindexed and isinstance(v.index, V.VVoid):
            return "'var"
        s = f"'varI {_term(v.index, depth, names, unindexed)}"
        return s if prec >= 1 else f"({s})"
    if isinstance(v, V.VDTimes):
        s = f"{_pc(v.lhs, depth, names, 2, unindexed)} '* {_pc(v.rhs, depth, names, 1, unindexed)}"
        return f"({s})" if prec >= 2 else s
    if isinstance(v, (V.VDPi, V.VDSigma)):
        kw = "'Pi" if isinstance(v, V.VDPi) else "'Sigma"
        s = f"{kw} {_term(v.dom, depth, names, unindexed)} {_fam(v.fam, depth, names, unindexed)}"
        return f"({s})" if prec >= 2 else s
    if isinstance(v, V.VDSigmaE):
        view = sigma_view(v)
        if view is not None:
            tags, codes = view
            alts = ", ".join(f"{t} -> {_pc(c, depth, names, 1, unindexed)}" for t, c in zip(tags, codes))
            s = "'sigma {" + ",".join(tags) + "} [" + alts + "]"
            return f"({s})" if prec >= 2 else s
        s = f"'sigma {_term(v.enum, depth, names, unindexed)} {_fam(v.fam, depth, names, unindexed)}"
        return f"({s})" if prec >= 2 else s
    # neutral or exotic: fall back to the generic term printer
    return _term(v, depth, names, unindexed)


def _fam(fam: Value, depth: int, names: list, unindexed: bool) -> str:
    if isinstance(fam, V.VLam):
        nm = fam.nm or "_"
        if nm != "_":
            while nm in names:
                nm = nm + "'"
        body = _pc(fam.body(V.fresh(depth)), depth + 1, names + [nm], 1, unindexed)
        return f"(\\{nm}. {body})"
    return _term(fam, depth, names, unindexed)


def _term(v: Value, depth: int, names: list, unindexed: bool) -> str:
    """A value inside a code, printed as an atom."""
    t = V.quote(v, depth)
    return pp.print_term(_desc_view(t) if unindexed else t, names, pp.ATOM)


_DESC = pp.Notation("Desc")
_VAR = pp.Notation("'var")


def _desc_view(t: Term) -> Term:
    def visit(u: Term, d: int) -> Optional[Term]:
        if isinstance(u, T.IDesc) and isinstance(u.index, T.Unit):
            return _DESC
        if isinstance(u, T.DVarI) and isinstance(u.index, T.Void):
            return _VAR
        # a label's `IDesc Unit` stays: `pp` prints the label by its shape
        if isinstance(u, T.LabelTy):
            return T.LabelTy(u.head, T.map_term(u.args, visit, d), u.argtys, u.ty)
        if isinstance(u, T.LCall):
            return T.LCall(u.head, T.map_term(u.args, visit, d), u.argtys, u.ty, T.map_term(u.body, visit, d))
        return None

    return T.map_term(t, visit)

