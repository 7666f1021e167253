"""Constructor literals: linear elaboration and re-checking, goal text that is
formatted only for errors, and the error texts themselves."""

import io
import os

import pytest

from conftest import CORPUS, elab_check, elab_synth, load_session

from idt import kernel as K
from idt import labels as L
from idt import pp
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import run_check
from idt.elab import ElabError, Elaborator


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


# --- error texts, byte for byte as before goal text became lazy, with types named -----

NAT = "Nat"


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


# --- numerals built in one loop ----------------------------------------------------


def constructor_calls(monkeypatch, f) -> int:
    real = Elaborator._constructor
    calls = [0]

    def counting(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(Elaborator, "_constructor", counting)
    f()
    monkeypatch.setattr(Elaborator, "_constructor", real)
    return calls[0]


def test_numerals_skip_the_constructor_rule(sess, monkeypatch):
    # the expansion through `suc`/`zero` entered it 162 times here
    assert constructor_calls(monkeypatch, lambda: sess.synth_expr("plus 80 80")) == 0


NAT_SHAPED = (
    "let N : Set => Nat\n"
    "data PNat (A : Set) : Set where\n"
    "  PNat A => zero\n"
    "  PNat A => suc (n : PNat A)\n"
    "data TNat : Set where\n"
    "  TNat => top\n"
    "  TNat => zero\n"
    "  TNat => suc (n : TNat)\n"
)


def _expansion(n: int) -> S.ExtTerm:
    e: S.ExtTerm = S.EVar("zero")
    for _ in range(n):
        e = S.EApp(S.EVar("suc"), e)
    return e


@pytest.mark.parametrize("ty", ["Nat", "N", "PNat Bool", "TNat"])
def test_numeral_loop_equals_the_expansion(monkeypatch, ty):
    s = load_session("prelude.idt")
    s.load_text(NAT_SHAPED)
    _, want, _ = Elaborator().elab_type(s.ctx, S.parse_expr(ty))
    for n in (0, 1, 2, 3, 12, 64, 199, 200):
        got: list = []
        calls = constructor_calls(
            monkeypatch, lambda: got.append(Elaborator()._check_value(s.ctx, S.ENum(n), want))
        )
        assert calls == 0, "the numeral took the expansion"
        loop = got[0]
        expanded = Elaborator()._check_value(s.ctx, _expansion(n), want)
        assert loop == expanded
        assert repr(loop) == repr(expanded)
        assert V.convertible(loop[1], expanded[1], s.ctx.depth)
        assert K.check(s.ctx, loop[0], want) == loop[1]


BOUND_SUC = "let suc (n : Nat) : Nat => n\n"
INAT = (
    "data INat [n : Nat] : Set where\n"
    "  INat [n = zero] => zero\n"
    "  INat [n = suc m] => suc (m : Nat) (k : INat m)\n"
)
# inputs the loop refuses: the expansion elaborates them, errors byte for byte
REFUSED = {
    "bound_suc": (
        BOUND_SUC,
        "(2 : Bool)",
        f"1:2: CheckMismatch: expected Bool, got {NAT}\n"
        "  while checking 2 against Bool\n"
        "  while synthesizing (2 : Bool)",
    ),
    "bound_suc_zero": (
        BOUND_SUC,
        "(0 : Bool)",
        "1:2: CannotSynthesize: unbound name 'zero'; a constructor is checking-only, "
        "annotate with '(e : T)'\n"
        "  while synthesizing zero\n"
        "  while checking 0 against Bool\n"
        "  while synthesizing (0 : Bool)",
    ),
    "let_suc": (
        "let suc (n : Nat) : Nat where\n  suc n => 1\n",
        None,
        "2:12: NoMatchingHypothesis: recursive call to 'suc' does not match any hypothesis "
        "in scope (no hypothesis with this arity)\n"
        "  while synthesizing suc zero\n"
        f"  while checking 1 against {NAT}\n"
        f"  while realizing the programming goal <suc n : {NAT}>",
    ),
    "let_zero": (
        "let zero (n : Nat) : Nat where\n  zero n => 2\n",
        None,
        "2:13: NoMatchingHypothesis: recursive call to 'zero' does not match any hypothesis "
        "in scope (no hypothesis with this arity)\n"
        "  while synthesizing zero\n"
        f"  while checking zero against {NAT}\n"
        f"  while checking suc zero against {NAT}\n"
        f"  while checking 2 against {NAT}\n"
        f"  while realizing the programming goal <zero n : {NAT}>",
    ),
    "indexed": (
        INAT,
        "(1 : INat 1)",
        "1:2: BadTupleArity: constructor is missing arguments\n"
        "  while checking 1 against INat 1\n"
        "  while synthesizing (1 : INat 1)",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_numeral_errors_are_unchanged(case):
    setup, expr, text = REFUSED[case]
    s = load_session("prelude.idt")
    with pytest.raises(ElabError) as e:
        s.load_text(setup)
        s.eval_expr(expr)
    assert e.value.render() == text


def test_refused_numerals_elaborate_as_expanded():
    s = load_session("prelude.idt")
    s.load_text(BOUND_SUC)
    # `suc` is the function now, and `zero` still the constructor
    assert s.eval_expr("(2 : Nat)") == "0"
    s = load_session("prelude.idt")
    s.load_text(INAT)
    assert s.eval_expr("(0 : INat 0)") == "In (#0 refl)"


ODD = (
    "data Odd : Set where\n"
    "  Odd => zero\n"
    "  Odd => suc (n : Odd) (b : Bool)\n"
)


@pytest.mark.parametrize("ty", ["Nat", "N", "PNat Bool", "TNat"])
def test_values_print_as_the_numerals_that_elaborate_to_them(ty):
    s = load_session("prelude.idt")
    s.load_text(NAT_SHAPED)
    for n in (0, 1, 2, 17):
        expanded = "zero"
        for _ in range(n):
            expanded = f"suc ({expanded})"
        assert s.eval_expr(f"({expanded} : {ty})") == s.eval_expr(f"({n} : {ty})") == str(n)


def test_only_the_numeral_rule_makes_a_numeral():
    s = load_session("prelude.idt")
    s.load_text(NAT_SHAPED)
    # a value with a constructor the numeral loop never builds
    assert not s.eval_expr("(suc top : TNat)").isdigit()
    # `zero` and `suc` by name, but `suc` has a field beside the recursive one
    s.load_text(ODD)
    assert not s.eval_expr("(suc (suc zero 'true) 'false : Odd)").isdigit()
    with pytest.raises(ElabError):
        s.eval_expr("(2 : Odd)")
