"""The dispatch tables of the evaluator, readback and kernel.

`eval_term`, `quote`, `infer` and `check` look their rule up by the exact
class of the node, so a subclass matches no rule of its base class: every
class needs its own entry. Each rule recurses through the module-global entry
point, so wrapping that name sees every node exactly once.
"""

import pytest

from conftest import nat_value, num_term

from idt import kernel as K
from idt import pp
from idt import terms as T
from idt import values as V

# value classes that `convertible` compares inline instead of through a rule
CONV_INLINE = {V.VIn, V.VPair}


def idt_subclasses(base):
    """Every subclass of `base` that the idt package defines."""
    out, todo = set(), [base]
    while todo:
        for c in todo.pop().__subclasses__():
            todo.append(c)
            if c.__module__.startswith("idt."):
                out.add(c)
    return out


def term_classes():
    # `pp.Notation` is a print-only atom of code dumps, never evaluated
    return idt_subclasses(T.Term) - {pp.Notation}


def test_every_term_class_has_an_eval_and_an_infer_rule():
    classes = term_classes()
    assert len(classes) == 40
    assert classes - V._EVAL_RULES.keys() == set()
    assert classes - K._INFER_RULES.keys() == set()
    assert K._CHECK_RULES.keys() <= classes


def test_every_value_class_has_a_quote_and_a_conv_rule():
    # `VNeutral` is the field-less base of `VVar` and `VStuck`, never built
    classes = idt_subclasses(V.Value) - {V.VNeutral}
    assert classes - V._QUOTE_RULES.keys() == set()
    assert classes - V._CONV_RULES.keys() - CONV_INLINE == set()
    assert CONV_INLINE <= classes


def test_conversion_compares_the_inline_classes():
    zero, one = V.VIdxE(0), V.VIdxE(1)
    assert V.convertible(V.VIn(V.VPair(one, V.VVoid())), V.VIn(V.VPair(V.VIdxE(1), V.VVoid())), 0)
    assert not V.convertible(V.VIn(V.VPair(one, V.VVoid())), V.VIn(V.VPair(zero, V.VVoid())), 0)


def count_nodes(t) -> int:
    if isinstance(t, tuple):
        return sum(count_nodes(x) for x in t)
    if not isinstance(t, T.Term):
        return 0
    return 1 + sum(count_nodes(getattr(t, f)) for f in t._fields)


def counting(monkeypatch, owner, *attrs) -> list:
    """Wrap `owner.attr` for each attribute; the list grows by one per call."""
    calls = []
    for attr in attrs:
        real = getattr(owner, attr)

        def wrapped(*args, _real=real, **kwargs):
            calls.append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapped)
    return calls


@pytest.mark.parametrize("k", [0, 1, 7])
def test_eval_and_quote_visit_each_node_once(monkeypatch, k):
    t = num_term(k)
    assert count_nodes(t) == 4 + 5 * k
    evals = counting(monkeypatch, V, "eval_term")
    v = V.eval_term(t, ())
    assert len(evals) == count_nodes(t)
    quotes = counting(monkeypatch, V, "quote")
    assert V.quote(v, 0) == t
    assert len(quotes) == count_nodes(t)


@pytest.mark.parametrize("k", [0, 1, 7])
def test_kernel_checks_a_literal_in_one_call_and_each_node_once(monkeypatch, prelude, k):
    # the checking rules of the introduction forms run as one loop: one
    # call for the whole literal, one payload type per constructor, no node
    # evaluated, and the value built from the parts
    t, nat = num_term(k), nat_value(prelude)
    want = V.eval_term(t, ())
    calls = counting(monkeypatch, K, "check", "infer")
    payloads = counting(monkeypatch, V, "payload_type")
    evals = counting(monkeypatch, V, "eval_term")
    got = K.check(prelude.ctx, t, nat)
    assert (len(calls), len(payloads), evals) == (1, k + 1, [])
    assert got == want


class Alien(T.Term):
    pass


class SubVar(T.Var):
    pass


class VAlien(V.Value):
    pass


@pytest.mark.parametrize("node", [Alien(), SubVar(0)], ids=["new", "subclass"])
def test_unknown_term_class_errors(node):
    name = type(node).__name__
    with pytest.raises(V.EvalError, match=f"^cannot evaluate {name}$"):
        V.eval_term(node, (V.VVoid(),))
    ctx = K.Context().extend("x", V.VUnit())
    for judge in (lambda: K.infer(ctx, node), lambda: K.check(ctx, node, V.VUnit())):
        with pytest.raises(K.KernelError) as e:
            judge()
        assert str(e.value) == f"CannotInfer: no synthesis rule for {name}"


def test_unknown_value_class_errors():
    with pytest.raises(V.EvalError, match="^cannot quote VAlien$"):
        V.quote(VAlien(), 0)
