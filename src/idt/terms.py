"""Core internal-language syntax.

Terms use de Bruijn indices; binder name hints are kept for printing only
and are excluded from structural equality, so `==` on terms is exactly
alpha-equality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from .record import Record, field


TAG_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


# every `Tag` validates its name, and readback builds one per tag it meets,
# so the few names a program uses are checked over and over
@lru_cache(maxsize=1024)
def valid_tag(name: str) -> bool:
    return bool(name) and all(c in TAG_CHARS for c in name)


class Term(Record):
    __slots__ = ("reads_bound",)  # set by `values._reads_bound` on binder bodies


class Var(Term):
    ix: int


class Set_(Term):
    level: int  # 0, 1 or 2

    def __post_init__(self):
        assert self.level in (0, 1, 2), f"bad universe level {self.level}"


class Pi(Term):
    nm: str = field(compare=False)
    dom: Term
    cod: Term  # binds one


class Lam(Term):
    nm: str = field(compare=False)
    ann: Optional[Term]  # optional domain annotation, ignored by equality
    body: Term  # binds one

    # annotations are a synthesis convenience, not part of the term identity
    def __eq__(self, other):
        return isinstance(other, Lam) and self.body == other.body

    def __hash__(self):
        return hash(("Lam", self.body))


class App(Term):
    fn: Term
    arg: Term


class Sigma(Term):
    nm: str = field(compare=False)
    dom: Term
    cod: Term  # binds one


class Pair(Term):
    fst: Term
    snd: Term


class Fst(Term):
    pair: Term


class Snd(Term):
    pair: Term


class Unit(Term):
    pass


class Void(Term):
    """The unit inhabitant (the diamond)."""


class UId(Term):
    pass


class Tag(Term):
    name: str

    def __post_init__(self):
        assert valid_tag(self.name), f"bad tag name {self.name!r}"


class EnumU(Term):
    pass


class NilE(Term):
    pass


class ConsE(Term):
    tag: Term
    rest: Term


class EnumT(Term):
    enum: Term


class ZeroE(Term):
    pass


class SucE(Term):
    pred: Term


class PiE(Term):
    """The small pi type of lookup tuples over an enumeration."""

    enum: Term
    fam: Term


class Switch(Term):
    enum: Term
    fam: Term
    cases: Term
    scrut: Term


class Eq(Term):
    ty: Term
    lhs: Term
    rhs: Term


class Refl(Term):
    pass


class EqElim(Term):
    """J eliminator; the equation's endpoints are synthesized from `proof`."""

    motive: Term  # (y' : A) -> lhs == y' -> Set k
    base: Term
    proof: Term


# --- descriptions -----------------------------------------------------------


class IDesc(Term):
    index: Term


class DVarI(Term):
    index: Term


class DOne(Term):
    pass


class DTimes(Term):
    lhs: Term
    rhs: Term


class DPi(Term):
    dom: Term
    fam: Term  # a function from dom into the description universe


class DSigma(Term):
    dom: Term
    fam: Term


class DSigmaE(Term):
    enum: Term
    fam: Term  # a function from EnumT enum into the description universe


class InterpIDesc(Term):
    code: Term
    arg: Term  # an index-family of types


class IAllD(Term):
    """Inductive-hypothesis type over a description payload."""

    code: Term
    fam: Term
    motive: Term
    payload: Term


class IAllMap(Term):
    """Builds the IAllD inhabitant from a recursor; backs induction's ι-rule."""

    code: Term
    fam: Term
    motive: Term
    rec: Term
    payload: Term


class IMu(Term):
    """Fix-point of an index-to-description function.

    `ixty` is a type annotation for bidirectional reconstruction; it is
    determined by `fam` and excluded from term identity.
    """

    ixty: Term = field(compare=False)
    fam: Term  # I -> IDesc I
    index: Term


class In(Term):
    payload: Term


class IInduction(Term):
    ixty: Term = field(compare=False)
    fam: Term
    motive: Term
    method: Term
    index: Term
    scrut: Term


class Split(Term):
    """Dependent pair eliminator (needed in the absence of surjective pairing)."""

    motive: Term
    method: Term
    scrut: Term


# --- labels -----------------------------------------------------------------


class LabelTy(Term):
    """Programming label: a phantom type recording a definition goal.

    `argtys` annotates the arguments for reconstruction; label identity is the
    head plus the argument terms and the type. The goal of a datatype's
    clauses is a label at `IDesc I` whose arguments are the parameters and
    then the indices, and its return value is a `'sigma` code.
    """

    head: str
    args: tuple  # tuple[Term, ...]
    argtys: tuple = field(compare=False)
    ty: Term


class LRet(Term):
    val: Term


class LCall(Term):
    head: str
    args: tuple
    argtys: tuple = field(compare=False)
    ty: Term
    body: Term


# --- de Bruijn utilities -----------------------------------------------------
#
# `map_term` is the one structural rebuild of a core term; shifting,
# substitution, abstraction and the description notation view are visits
# over it.

# the field of each binding node whose terms sit under one more binder
_BINDERS = {Pi: "cod", Lam: "body", Sigma: "cod"}


def map_term(t: Term, visit: Callable[[Term, int], Optional[Term]], depth: int = 0) -> Term:
    """Rebuild `t` through `visit`, the one structural traversal of core terms.

    visit(u, d) sees each subterm `u` and its binder depth `d` before the
    children of `u`. A term it returns replaces `u`. When it returns None,
    the children are rebuilt, and a node whose children did not change is
    kept as is. Children include the terms inside tuples (label arguments).
    """

    def go(x, d: int):
        if isinstance(x, tuple):
            y = tuple(go(a, d) for a in x)
            return x if all(a is b for a, b in zip(x, y)) else y
        if not isinstance(x, Term):
            return x
        u = visit(x, d)
        if u is not None:
            return u
        binder = _BINDERS.get(type(x))
        args = []
        changed = False
        for name in x._fields:
            a = getattr(x, name)
            b = go(a, d + 1 if name == binder else d)
            changed = changed or b is not a
            args.append(b)
        return type(x)(*args) if changed else x

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

    def collect(u: Term, d: int) -> Optional[Term]:
        if isinstance(u, Var):
            if u.ix >= d:
                out.add(u.ix - d)
            return u  # the node itself, so that nothing is rebuilt
        return None

    map_term(t, collect)
    return out


def occurs(t: Term, target: int) -> bool:
    return target in free_vars(t)
