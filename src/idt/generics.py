"""The deriving mechanism over elaborated codes.

`deriving Eq` walks a datatype's code once. A code in the decidable-equality
sub-universe ('1, 'varI, '*, and finite choices: 'sigma, or 'Sigma over an
enumeration) gives a comparison procedure for its canonical inhabitants;
any other code is refused with the first reason met, depth-first.
"""

from __future__ import annotations

from typing import Callable

from . import desc
from . import values as V
from .values import Value

Compare = Callable[[Value, Value], bool]


class GenericsError(Exception):
    def __init__(self, kind: str, msg: str):
        self.kind = kind
        self.msg = msg
        super().__init__(f"{kind}: {msg}")


def derive_eq(code: Value) -> Compare:
    """Total comparison of the canonical inhabitants of the datatype whose
    code is `code`; raises `DerivingUnsupported` for a code outside the
    decidable-equality sub-universe."""

    def eq_top(x: Value, y: Value) -> bool:
        assert isinstance(x, V.VIn) and isinstance(y, V.VIn), "comparison needs canonical values"
        return eq_payload(x.payload, y.payload)

    def refuse(reason: str):
        raise GenericsError("DerivingUnsupported", f"cannot derive Eq: {reason}")

    def walk(c: Value) -> Compare:
        if isinstance(c, V.VDOne):
            return lambda _x, _y: True
        if isinstance(c, V.VDVarI):
            return eq_top
        if isinstance(c, V.VDTimes):
            lhs, rhs = walk(c.lhs), walk(c.rhs)
            return lambda x, y: lhs(V.vfst(x), V.vfst(y)) and rhs(V.vsnd(x), V.vsnd(y))
        if isinstance(c, V.VDSigmaE):
            view = desc.sigma_view(c)
            if view is None:
                refuse("constructor choice over a non-canonical enumeration")
            return branches([walk(b) for b in view[1]])
        if isinstance(c, V.VDSigma):
            tags = V.enum_tags(c.dom.enum) if isinstance(c.dom, V.VEnumT) else None
            if tags is None:
                refuse("'Sigma over a non-enumeration domain")
            return branches([walk(V.vapp(c.fam, V.make_numeral(k))) for k in range(len(tags))])
        if isinstance(c, V.VDPi):
            refuse("'Pi codes admit no decidable equality")
        refuse("the code is not canonical")

    def branches(subs: list) -> Compare:
        def eq(x: Value, y: Value) -> bool:
            cx, cy = V.numeral_of(V.vfst(x)), V.numeral_of(V.vfst(y))
            assert cx is not None and cy is not None, "comparison needs canonical values"
            return cx == cy and subs[cx](V.vsnd(x), V.vsnd(y))

        return eq

    eq_payload = walk(code)
    return eq_top


class DerivingRegistry:
    """The properties `deriving` names: `Eq` alone."""

    def derive_for(self, name: str, code: Value) -> Compare:
        if name != "Eq":
            raise GenericsError("UnknownProperty", f"no derivable property '{name}'")
        return derive_eq(code)
