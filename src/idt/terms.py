"""Core internal-language syntax.

Terms use de Bruijn indices; binder name hints are kept for printing only
and are excluded from structural equality, so `==` on terms is exactly
alpha-equality.

A lambda carries no domain: it only checks, against a Pi type. The one
place a lambda needs a type of its own is the head of an application that
the source program writes, `(\\x. b : A -> B) a`, and there the elaborator
wraps it in `Ann`, the annotation form. Readback never builds `Ann`.
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
    # set on binder bodies by `values._reads_bound` and `values.own_binder_only`
    __slots__ = ("reads_bound", "reads_outer")


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
    body: Term  # binds one


class App(Term):
    fn: Term
    arg: Term


class Ann(Term):
    """`(term : ty)`: a term that only checks, given the type it is
    inferred at."""

    term: Term
    ty: Term


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


class IdxE(Term):
    """`#k`, the k-th position of an enumeration, counting from 0."""

    k: int


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
# over it. `occurs` is the one read-only scan.

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


def map_vars(t: Term, on_var: Callable[[int, int], Term]) -> Term:
    """Rebuild `t`, replacing each free Var(i) under d binders (i >= d) by
    on_var(i, d).

    on_var receives the raw index and the binder depth at the occurrence and
    must return a term valid at that depth.
    """

    def visit(u: Term, d: int) -> Optional[Term]:
        if isinstance(u, Var):
            return on_var(u.ix, d) if u.ix >= d else u
        return None

    return map_term(t, visit)


def shift(t: Term, by: int) -> Term:
    """Shift the free variables of `t` by `by`."""
    if by == 0:
        return t
    return map_vars(t, lambda i, d: Var(i + by))


def subst_free(t: Term, mapping: Callable[[int], Term]) -> Term:
    """Replace every free Var (outer index j, at depth 0) by mapping(j).

    mapping returns a term in the new outer context; it is shifted under
    binders automatically, once per outer index and binder depth met.
    """
    images: dict = {}

    def on_var(i: int, d: int) -> Term:
        got = images.get((i - d, d))
        if got is None:
            got = images[i - d, d] = shift(mapping(i - d), d)
        return got

    return map_vars(t, on_var)


def abstract(t: Term, needle: Term) -> tuple:
    """(the body of a new binder replacing every occurrence of `needle`, a
    term in the same context as `t`, by the bound variable; whether there
    was one).

    Every other free variable is shifted up by one to make room for the
    binder; with a variable needle this is variable abstraction. Without an
    occurrence the body is `t` shifted by one.
    """
    needles: dict = {}  # `needle` shifted to each binder depth met
    found = False

    def visit(u: Term, d: int) -> Optional[Term]:
        nonlocal found
        n = needles.get(d)
        if n is None:
            n = needles[d] = shift(needle, d)
        if u == n:
            found = True
            return Var(d)
        if isinstance(u, Var):
            return Var(u.ix + 1) if u.ix >= d else u
        return None

    body = map_term(t, visit)
    return body, found


def _term_fields(cls) -> tuple:
    """(name, whether it binds) of each field of `cls` that may hold a term
    or a tuple of terms: every field not declared a `str` or an `int`."""
    declared: dict = {}
    for base in reversed(cls.__mro__):
        declared.update(getattr(base, "__annotations__", {}))
    binder = _BINDERS.get(cls)
    return tuple((n, n == binder) for n in cls._fields if declared.get(n) not in ("str", "int"))


_TERM_FIELDS: dict = {}


def occurs(t: Term, lo: int, hi: Optional[float] = None) -> bool:
    """Whether `t` reads a free variable whose outer index is `lo`, or, with
    `hi`, at least `lo` and below `hi`. A read-only scan that stops at the
    first such variable."""
    if hi is None:
        hi = lo + 1

    def go(x, d: int) -> bool:
        cls = type(x)
        if cls is Var:
            return lo <= x.ix - d < hi
        if cls is tuple:
            for a in x:
                if go(a, d):
                    return True
            return False
        kids = _TERM_FIELDS.get(cls)
        if kids is None:
            kids = _TERM_FIELDS[cls] = _term_fields(cls)
        for name, binds in kids:
            a = getattr(x, name)
            if a is not None and go(a, d + 1 if binds else d):
                return True
        return False

    return go(t, 0)
