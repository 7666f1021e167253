"""Constructor literals: linear elaboration and re-checking, goal text that is
formatted only for errors, and the error texts themselves."""

import io
import os

import pytest

from conftest import CORPUS, load_session

from idt import kernel as K
from idt import labels as L
from idt import pp
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import run_check
from idt.elab import ElabError, elab_check, elab_synth


@pytest.fixture(scope="module")
def sess():
    return load_session("prelude.idt")


def eval_calls(monkeypatch, f) -> int:
    real = V.eval_term
    calls = [0]

    def counting(t, env):
        calls[0] += 1
        return real(t, env)

    monkeypatch.setattr(V, "eval_term", counting)
    f()
    monkeypatch.setattr(V, "eval_term", real)
    return calls[0]


def test_numeral_elaboration_and_recheck_are_linear(sess, monkeypatch):
    # elaboration plus the kernel re-check; quadratic growth gives a ratio near 4
    small = eval_calls(monkeypatch, lambda: sess.synth_expr("plus 40 40"))
    large = eval_calls(monkeypatch, lambda: sess.synth_expr("plus 80 80"))
    assert large / small <= 2.5, (small, large)


def test_successful_elaboration_formats_no_goal_text(sess, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("goal text formatted on a successful elaboration")

    monkeypatch.setattr(pp, "print_term", refuse)
    monkeypatch.setattr(S, "print_expr", refuse)
    sess.synth_expr("plus (plus 3 4) 12")
    nat = sess.datatypes["Nat"].value
    elab_check(sess.ctx, S.parse_expr("suc (suc 5)"), nat)


def test_kernel_check_returns_the_value_of_a_literal(sess):
    nat = sess.datatypes["Nat"].value
    t = elab_check(sess.ctx, S.parse_expr("7"), nat)
    v = K.check(sess.ctx, t, nat)
    assert v is not None
    assert V.quote(v, sess.ctx.depth) == V.quote(sess.ctx.eval(t), sess.ctx.depth)
    # a variable is not built from parts
    ix, _ = sess.ctx.lookup("plus")
    assert K.check(sess.ctx, T.Var(ix), sess.ctx.entry_at(ix).ty) is None


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt")))
def test_corpus_values_from_parts_agree_with_eval(value_oracle, name):
    code = run_check([os.path.join(CORPUS, name)], show_codes=True, stdout=io.StringIO())
    assert code == (1 if name == "bad.idt" else 0)
    if name != "bad.idt":
        assert value_oracle


# --- error texts, byte for byte as before goal text became lazy ----------------------

NAT = "IMu (\\j. 'sigma {'zero, 'suc} (\\c. switch {'zero, 'suc} (\\_. IDesc Unit) ('1 ('varI () '* '1)) c)) ()"


def _elab_nat(text):
    return lambda s: elab_check(s.ctx, S.parse_expr(text), s.datatypes["Nat"].value)


ERRORS = {
    "function_argument": (
        _elab_nat("plus (\\x. x) 1"),
        f"1:8: CheckMismatch: function against {NAT}\n"
        f"  while checking \\x. x against {NAT}\n"
        "  while synthesizing plus (\\x. x) 1\n"
        f"  while checking plus (\\x. x) 1 against {NAT}",
    ),
    "constructor_arity": (
        _elab_nat("suc 1 2"),
        "1:1: BadTupleArity: constructor applied to 1 too many argument(s)\n"
        f"  while checking suc 1 2 against {NAT}",
    ),
    "refl_sides": (
        lambda s: elab_synth(s.ctx, S.parse_expr("(refl : plus 1 1 == 3)")),
        "1:2: CheckMismatch: refl between non-convertible sides 2 and 3\n"
        "  while checking refl against 2 == 3\n"
        "  while synthesizing (refl : plus 1 1 == 3)",
    ),
    "label_return": (
        lambda s: L.elab_define(s.ctx, S.parse_file("let f (x : Nat) : Nat where\n  f x => ()\n")[0]),
        f"2:10: CheckMismatch: '()' against {NAT}\n"
        f"  while checking () against {NAT}\n"
        f"  while realizing the programming goal <f x : {NAT}>",
    ),
    "nested_constructor": (
        _elab_nat("suc (suc 'true)"),
        f"1:10: CheckMismatch: tag against {NAT}\n"
        f"  while checking 'true against {NAT}\n"
        f"  while checking suc 'true against {NAT}\n"
        f"  while checking suc (suc 'true) against {NAT}",
    ),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_text_is_unchanged(sess, case):
    run, text = ERRORS[case]
    with pytest.raises(ElabError) as e:
        run(sess)
    assert e.value.render() == text
    trail = e.value.trail
    assert trail and all(isinstance(g, str) for g in trail)
    assert e.value.render() == text
