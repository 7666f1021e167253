"""Core internal-language syntax.

Terms use de Bruijn indices; binder name hints are kept for printing only
and are excluded from structural equality, so `==` on terms is exactly
alpha-equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union


TAG_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


# every `Tag` validates its name, and readback builds one per tag it meets,
# so the few names a program uses are checked over and over
@lru_cache(maxsize=1024)
def valid_tag(name: str) -> bool:
    return bool(name) and all(c in TAG_CHARS for c in name)


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    ix: int


@dataclass(frozen=True)
class Set_(Term):
    level: int  # 0, 1 or 2

    def __post_init__(self):
        assert self.level in (0, 1, 2), f"bad universe level {self.level}"


@dataclass(frozen=True)
class Pi(Term):
    nm: str = field(compare=False)
    dom: Term
    cod: Term  # binds one


@dataclass(frozen=True)
class Lam(Term):
    nm: str = field(compare=False)
    ann: Optional[Term]  # optional domain annotation, ignored by equality
    body: Term  # binds one

    # annotations are a synthesis convenience, not part of the term identity
    def __eq__(self, other):
        return isinstance(other, Lam) and self.body == other.body

    def __hash__(self):
        return hash(("Lam", self.body))


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Sigma(Term):
    nm: str = field(compare=False)
    dom: Term
    cod: Term  # binds one


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term
    ann: Optional[tuple] = None  # optional (nm, family-term) annotation

    def __eq__(self, other):
        return isinstance(other, Pair) and self.fst == other.fst and self.snd == other.snd

    def __hash__(self):
        return hash(("Pair", self.fst, self.snd))


@dataclass(frozen=True)
class Fst(Term):
    pair: Term


@dataclass(frozen=True)
class Snd(Term):
    pair: Term


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class Void(Term):
    """The unit inhabitant (the diamond)."""


@dataclass(frozen=True)
class UId(Term):
    pass


@dataclass(frozen=True)
class Tag(Term):
    name: str

    def __post_init__(self):
        assert valid_tag(self.name), f"bad tag name {self.name!r}"


@dataclass(frozen=True)
class EnumU(Term):
    pass


@dataclass(frozen=True)
class NilE(Term):
    pass


@dataclass(frozen=True)
class ConsE(Term):
    tag: Term
    rest: Term


@dataclass(frozen=True)
class EnumT(Term):
    enum: Term


@dataclass(frozen=True)
class ZeroE(Term):
    pass


@dataclass(frozen=True)
class SucE(Term):
    pred: Term


@dataclass(frozen=True)
class PiE(Term):
    """The small pi type of lookup tuples over an enumeration."""

    enum: Term
    fam: Term


@dataclass(frozen=True)
class Switch(Term):
    enum: Term
    fam: Term
    cases: Term
    scrut: Term


@dataclass(frozen=True)
class Eq(Term):
    ty: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Refl(Term):
    pass


@dataclass(frozen=True)
class EqElim(Term):
    """J eliminator; the equation's endpoints are synthesized from `proof`."""

    motive: Term  # (y' : A) -> lhs == y' -> Set k
    base: Term
    proof: Term


# --- descriptions -----------------------------------------------------------


@dataclass(frozen=True)
class IDesc(Term):
    index: Term


@dataclass(frozen=True)
class DVarI(Term):
    index: Term


@dataclass(frozen=True)
class DOne(Term):
    pass


@dataclass(frozen=True)
class DTimes(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class DPi(Term):
    dom: Term
    fam: Term  # a function from dom into the description universe


@dataclass(frozen=True)
class DSigma(Term):
    dom: Term
    fam: Term


@dataclass(frozen=True)
class DSigmaE(Term):
    enum: Term
    fam: Term  # a function from EnumT enum into the description universe


@dataclass(frozen=True)
class InterpIDesc(Term):
    code: Term
    arg: Term  # an index-family of types


@dataclass(frozen=True)
class IAllD(Term):
    """Inductive-hypothesis type over a description payload."""

    code: Term
    fam: Term
    motive: Term
    payload: Term


@dataclass(frozen=True)
class IAllMap(Term):
    """Builds the IAllD inhabitant from a recursor; backs induction's ι-rule."""

    code: Term
    fam: Term
    motive: Term
    rec: Term
    payload: Term


@dataclass(frozen=True)
class IMu(Term):
    """Fix-point of an index-to-description function.

    `ixty` is a type annotation for bidirectional reconstruction; it is
    determined by `fam` and excluded from term identity.
    """

    ixty: Term = field(compare=False)
    fam: Term  # I -> IDesc I
    index: Term


@dataclass(frozen=True)
class In(Term):
    payload: Term


@dataclass(frozen=True)
class IInduction(Term):
    ixty: Term = field(compare=False)
    fam: Term
    motive: Term
    method: Term
    index: Term
    scrut: Term


@dataclass(frozen=True)
class Split(Term):
    """Dependent pair eliminator (needed in the absence of surjective pairing)."""

    motive: Term
    method: Term
    scrut: Term


@dataclass(frozen=True)
class DecEqEnum(Term):
    """Builtin decision of equality of enumeration indices."""

    enum: Term
    lhs: Term
    rhs: Term


# --- labels -----------------------------------------------------------------


@dataclass(frozen=True)
class LabelTy(Term):
    """Programming label: a phantom type recording a definition goal.

    `argtys` annotates the spine for reconstruction; label identity is the
    head plus the argument terms.
    """

    head: str
    args: tuple  # tuple[Term, ...]
    argtys: tuple = field(compare=False)
    ty: Term


@dataclass(frozen=True)
class LRet(Term):
    val: Term


@dataclass(frozen=True)
class LCall(Term):
    head: str
    args: tuple
    argtys: tuple = field(compare=False)
    ty: Term
    body: Term


@dataclass(frozen=True)
class LParam:
    tm: Term
    ty: Term = field(compare=False)


@dataclass(frozen=True)
class LIndex:
    tm: Term
    ty: Term = field(compare=False)


@dataclass(frozen=True)
class LConstraint:
    var: Term
    tm: Term
    ty: Term = field(compare=False)


LabelEntry = Union[LParam, LIndex, LConstraint]


@dataclass(frozen=True)
class DLabel:
    head: str
    entries: tuple  # tuple[LabelEntry, ...]


@dataclass(frozen=True)
class DLabelTy(Term):
    """Description label: a phantom type around an indexed description."""

    label: DLabel


@dataclass(frozen=True)
class DRet(Term):
    enum: Term
    fam: Term


@dataclass(frozen=True)
class DCall(Term):
    label: DLabel
    body: Term


# --- de Bruijn utilities -----------------------------------------------------
#
# `map_term` is the one structural rebuild of a core term; shifting,
# substitution, abstraction and the description notation view are visits
# over it.

# the field of each binding node whose terms sit under one more binder
# (`Pair.ann` is a (name, family) pair whose family binds)
_BINDERS = {Pi: "cod", Lam: "body", Sigma: "cod", Pair: "ann"}


def map_term(t: Term, visit: Callable[[Term, int], Optional[Term]], depth: int = 0) -> Term:
    """Rebuild `t` through `visit`, the one structural traversal of core terms.

    visit(u, d) sees each subterm `u` and its binder depth `d` before the
    children of `u`. A term it returns replaces `u`. When it returns None,
    the children are rebuilt, and a node whose children did not change is
    kept as is. Children include the terms inside tuples (label spines,
    `Pair.ann`) and inside description-label entries.
    """

    def go(x, d: int):
        if isinstance(x, Term):
            u = visit(x, d)
            if u is not None:
                return u
        elif isinstance(x, tuple):
            y = tuple(go(a, d) for a in x)
            return x if all(a is b for a, b in zip(x, y)) else y
        fields_ = getattr(x, "__dataclass_fields__", None)
        if not fields_:
            return x
        binder = _BINDERS.get(type(x))
        kwargs = {}
        changed = False
        for name in fields_:
            a = getattr(x, name)
            b = go(a, d + 1 if name == binder else d)
            changed = changed or b is not a
            kwargs[name] = b
        return type(x)(**kwargs) if changed else x

    return go(t, depth)


def map_vars(t: Term, on_var: Callable[[int, int], Term], depth: int = 0) -> Term:
    """Rebuild `t`, replacing each free Var(i) (i >= depth) by on_var(i, depth).

    on_var receives the raw index and the binder depth at the occurrence and
    must return a term valid at that depth.
    """

    def visit(u: Term, d: int) -> Optional[Term]:
        if isinstance(u, Var):
            return on_var(u.ix, d) if u.ix >= d else u
        return None

    return map_term(t, visit, depth)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Shift free variables at or above `cutoff` by `by`."""
    if by == 0:
        return t
    return map_vars(t, lambda i, d: Var(i + by), cutoff)


def subst_free(t: Term, mapping: Callable[[int], Term]) -> Term:
    """Replace every free Var (outer index j, at depth 0) by mapping(j).

    mapping returns a term in the new outer context; it is shifted under
    binders automatically.
    """
    return map_vars(t, lambda i, d: shift(mapping(i - d), d))


def abstract(t: Term, needle: Term) -> Term:
    """Body of a new binder replacing every occurrence of `needle` (a term in
    the same context as `t`) by the bound variable.

    Every other free variable is shifted up by one to make room for the
    binder; with a variable needle this is variable abstraction.
    """
    needles: dict = {}  # `needle` shifted to each binder depth met

    def visit(u: Term, d: int) -> Optional[Term]:
        n = needles.get(d)
        if n is None:
            n = needles[d] = shift(needle, d)
        if u == n:
            return Var(d)
        if isinstance(u, Var):
            return Var(u.ix + 1) if u.ix >= d else u
        return None

    return map_term(t, visit)


def free_vars(t: Term) -> set:
    """Outer indices of the free variables of `t`."""
    out: set = set()

    def collect(i: int, d: int) -> Term:
        out.add(i - d)
        return Var(i)

    map_vars(t, collect)
    return out


def occurs(t: Term, target: int) -> bool:
    return target in free_vars(t)
