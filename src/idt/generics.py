"""The deriving mechanism over elaborated codes.

`deriving Eq` walks a datatype's code once, to decide whether it lies in the
decidable-equality sub-universe ('1, 'varI, '*, and finite choices: 'sigma,
or 'Sigma over an enumeration); any other code is refused with the first
reason met, depth-first. Nothing is built for a member: on the closed
canonical inhabitants of such a datatype, equality is conversion, which is
what `:eq` decides.
"""

from __future__ import annotations

from . import desc
from . import values as V
from .values import Value


class GenericsError(Exception):
    def __init__(self, kind: str, msg: str):
        self.kind = kind
        self.msg = msg
        super().__init__(f"{kind}: {msg}")


def derive_eq(code: Value) -> None:
    """Accept `code` when it lies in the decidable-equality sub-universe;
    otherwise raise `DerivingUnsupported` with the first reason met."""

    def refuse(reason: str):
        raise GenericsError("DerivingUnsupported", f"cannot derive Eq: {reason}")

    def walk(c: Value):
        if isinstance(c, V.VDTimes):
            walk(c.lhs)
            walk(c.rhs)
        elif isinstance(c, V.VDSigmaE):
            view = desc.sigma_view(c)
            if view is None:
                refuse("constructor choice over a non-canonical enumeration")
            for b in view[1]:
                walk(b)
        elif isinstance(c, V.VDSigma):
            tags = V.enum_tags(c.dom.enum) if isinstance(c.dom, V.VEnumT) else None
            if tags is None:
                refuse("'Sigma over a non-enumeration domain")
            for k in range(len(tags)):
                walk(V.vapp(c.fam, V.VIdxE(k)))
        elif isinstance(c, V.VDPi):
            refuse("'Pi codes admit no decidable equality")
        elif not isinstance(c, (V.VDOne, V.VDVarI)):
            refuse("the code is not canonical")

    walk(code)


class DerivingRegistry:
    """The properties `deriving` names: `Eq` alone."""

    def derive_for(self, name: str, code: Value) -> None:
        if name != "Eq":
            raise GenericsError("UnknownProperty", f"no derivable property '{name}'")
        derive_eq(code)
