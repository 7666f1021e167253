"""Work that elaboration does not repeat: it builds each term once, where it
lands, and finds a name without scanning the context."""

import pytest

from conftest import read_corpus

from idt import kernel as K
from idt import terms as T
from idt import values as V
from idt.cli import Session

NAT = read_corpus("prelude.idt").split("let Bool")[0]
BOOL = "let Bool : Set => Enum {'true, 'false}\n"
PLUS = "let plus" + read_corpus("prelude.idt").split("let plus")[1]
# the `vect` template of the benchmark's `check_decls` workload
VECT = (
    "data Vect1x0 (A : Set) [n : Nat] : Set where\n"
    "  Vect1x0 A [n] by case n {\n"
    "    Vect1x0 A [zero] => vnil1x0\n"
    "    Vect1x0 A [suc m] => vcons1x0 (a : A) (vs : Vect1x0 A m)\n"
    "  }\n"
)


def visits(monkeypatch, text: str, preamble: str = "") -> int:
    """The subterms that `terms.map_term` visits while a session loads
    `text` after `preamble`."""
    sess = Session()
    sess.load_text(preamble)
    real, count = T.map_term, [0]

    def counted(t, visit, depth=0):
        def counting(u, d):
            count[0] += 1
            return visit(u, d)

        return real(t, counting, depth)

    monkeypatch.setattr(T, "map_term", counted)
    sess.load_text(text)
    monkeypatch.undo()
    return count[0]


# (text, preamble, visits when constructor codes were shifted under their
# family's binder and then re-mapped, branches shifted under the method's
# binders, and families scanned through a rebuilding walk; for `vect`, 567
# of its 594 were in walks that elaboration started, the rest in walks
# nested in them)
LOADS = {
    "prelude": (read_corpus("prelude.idt"), "", 195),
    "nat_tree_vec": (read_corpus("nat_tree_vec.idt"), "", 913),
    "vec_computed": (read_corpus("vec_computed.idt"), "", 671),
    "Nat": (NAT, "", 77),
    "plus": (PLUS, NAT + BOOL, 118),
    "vect": (VECT, NAT + BOOL, 594),
}


@pytest.mark.parametrize("name", sorted(LOADS))
def test_a_load_walks_at_most_three_fifths_of_the_old_subterms(monkeypatch, name):
    text, preamble, before = LOADS[name]
    got = visits(monkeypatch, text, preamble)
    assert got <= 0.6 * before, (name, got)


class Name(str):
    """A name that counts the comparisons made with it."""

    compared = 0

    def __eq__(self, other):
        Name.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def examined(n: int) -> int:
    """Comparisons with entry names made by four lookups in a context of n
    definitions."""
    ctx = K.Context()
    for i in range(n):
        ctx = ctx.extend(Name(f"x{i}"), V.VUnit(), V.VVoid())
    Name.compared = 0
    for i in (0, n // 2, n - 1):
        assert ctx.lookup(f"x{i}") == (n - 1 - i, ctx.entries[i])
    assert ctx.lookup("absent") is None
    return Name.compared


def test_lookup_examines_as_many_entries_at_6400_definitions_as_at_200():
    # a scan from the innermost entry compares 1 + 3,201 + 6,400 names
    assert examined(6400) <= examined(200) <= 8


def test_lookup_finds_the_innermost_binding_of_each_extension():
    base = K.Context().extend("x", V.VUnit()).extend("y", V.VUnit())
    shadowed = base.extend("x", V.VUnit())
    sibling = base.extend("z", V.VUnit())  # the level where `shadowed` binds x
    assert shadowed.lookup("x") == (0, shadowed.entries[2])
    assert sibling.lookup("x") == (2, sibling.entries[0])
    assert sibling.lookup("z") == (0, sibling.entries[2]) and shadowed.lookup("z") is None
    assert base.lookup("x") == (1, base.entries[0]) and base.lookup("z") is None
    deeper = sibling.extend("w", V.VUnit()).extend("x", V.VUnit())
    assert deeper.lookup("x") == (0, deeper.entries[4]) and deeper.lookup("y") == (3, deeper.entries[1])


PRED = "let pred (m : Nat) : Nat where\n  pred m by case m {\n    pred zero => zero\n    pred (suc m') => m'\n  }\n"
# (text, preamble, `eval_term` calls when the by-gadget computed the types
# of the method's binders `%xs`, `%h` and `%as` for every `by` block: 32 of
# the calls for each block over `Nat`)
BY_LOADS = {
    "plus": (PLUS, NAT + BOOL, 836),
    "pred": (PRED, NAT + BOOL, 391),
}


@pytest.mark.parametrize("name", sorted(BY_LOADS))
def test_no_branch_reads_the_types_of_the_method_binders(monkeypatch, name):
    text, preamble, before = BY_LOADS[name]
    sess = Session()
    sess.load_text(preamble)
    forced, calls = [], [0]
    ty = K.LazyEntry.ty
    monkeypatch.setattr(K.LazyEntry, "ty", property(lambda e: forced.append(e.name) or ty.fget(e)))
    real = V.eval_term

    def counting(t, env):
        calls[0] += 1
        return real(t, env)

    monkeypatch.setattr(V, "eval_term", counting)
    sess.load_text(text)
    assert forced == []
    assert calls[0] <= before - 32, calls[0]


def test_a_lazy_type_is_computed_once_when_read():
    made = []
    ctx = K.Context().extend("x", lambda: made.append(1) or V.VUnit())
    assert made == []
    assert ctx.lookup("x")[1].ty == V.VUnit() and ctx.entry_at(0).ty == V.VUnit()
    assert made == [1] and ctx.entry_at(0).val is None
