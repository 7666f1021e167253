"""Constructor literals: linear elaboration and re-checking, goal text that is
formatted only for errors, and the error texts themselves."""

import io
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from conftest import CORPUS, datatype, elab_check, elab_synth, load_session, num_term, read_corpus

from idt import kernel as K
from idt import labels as L
from idt import pp
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import run_check
from idt.elab import ElabError, Elaborator, _enum_index


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
    nat = datatype(sess, "Nat").val
    elab_check(sess.ctx, S.parse_expr("suc (suc 5)"), nat)


def test_kernel_check_returns_the_value_of_a_literal(sess):
    nat = datatype(sess, "Nat").val
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
    return lambda s: elab_check(s.ctx, S.parse_expr(text), datatype(s, "Nat").val)


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


# --- the checking rules of the introduction forms as one loop ----------------------

# the literals of the last two are rejected: `vnil`'s equation is false at 2,
# and so is `1 == 2`
LOOP_TYPES = ("Nat", "Tree Bool", "Vect Bool 2", "Ord", "Nat * Bool", "Unit", "plus 1 1 == 2", "Vec Bool 2", "(1 : Nat) == 2")
# one-node replacements of a subterm `u`
REPLACEMENTS = (
    lambda u: T.IdxE(0),
    lambda u: T.IdxE(1),
    lambda u: T.Void(),
    lambda u: T.Pair(T.Void(), T.Void()),
    lambda u: T.In(T.Void()),
    lambda u: T.Refl(),
    lambda u: T.Tag("a"),
    lambda u: T.Lam("y", T.Void()),
    lambda u: T.In(u),
    lambda u: T.Pair(u, T.Void()),
    lambda u: next((getattr(u, f) for f in u._fields if isinstance(getattr(u, f), T.Term)), T.Void()),
)


@pytest.fixture(scope="module")
def loop_sess():
    s = load_session("nat_tree_vec.idt")
    s.load_text("let Bool : Set => Enum {'true, 'false}")
    s.load_text("let plus" + read_corpus("prelude.idt").split("let plus")[1])
    s.load_text("data Ord : Set where\n  Ord => oz\n  Ord => olim (g : Nat -> Ord)\n")
    return s


def gen_intro(rng, ctx, want, budget: list) -> T.Term:
    """A closed term of the introduction forms against the closed type
    `want`, typed as far as the type allows (an equation gets `refl`,
    convertible or not); `budget` bounds its constructors."""
    if isinstance(want, V.VIMu):
        budget[0] -= 1
        payload = V.payload_type(want.ixty, want.fam, want.index)
        tags = V.enum_tags(payload.dom.enum)
        k = 0 if budget[0] <= 0 else rng.randrange(len(tags))
        tag = _enum_index(k)[0]
        return T.In(T.Pair(tag, gen_intro(rng, ctx, payload.cod(ctx.eval(tag)), budget)))
    if isinstance(want, V.VSigma):
        a = gen_intro(rng, ctx, want.dom, budget)
        return T.Pair(a, gen_intro(rng, ctx, want.cod(ctx.eval(a)), budget))
    if isinstance(want, V.VEnumT):
        tags = V.enum_tags(want.enum)
        return _enum_index(rng.randrange(len(tags)) if tags else 0)[0]
    if isinstance(want, V.VPi):
        return T.Lam("x", gen_intro(rng, ctx, want.cod(V.fresh(ctx.depth)), budget))
    if isinstance(want, V.VEq):
        return T.Refl()
    return T.Void()


def subterms(t, path=()):
    yield path, t
    for f in t._fields:
        u = getattr(t, f)
        if isinstance(u, T.Term):
            yield from subterms(u, path + (f,))


def replaced(t, path, new):
    if not path:
        return new
    f = path[0]
    return type(t)(*(replaced(getattr(t, g), path[1:], new) if g == f else getattr(t, g) for g in t._fields))


def verdict(ctx, check, t, want):
    try:
        v = check(ctx, t, want)
    except K.KernelError as e:
        return ("rejected", e.kind, e.msg)
    except V.EvalError as e:
        return ("evaluation error", str(e))
    return ("accepted", None if v is None else V.quote(v, ctx.depth))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ty=st.sampled_from(LOOP_TYPES), size=st.integers(1, 12))
def test_the_loop_judges_literals_as_the_recursive_rules(loop_sess, seed, ty, size):
    # the kernel's loop accepts and rejects the same literals and one-node
    # mutations of them as the recursive rules, with the same message, and
    # builds the same value
    rng = random.Random(seed)
    ctx = loop_sess.ctx
    want = ctx.eval(loop_sess.synth_expr(f"({ty} : Set)")[0])
    t = gen_intro(rng, ctx, want, [size])
    assert verdict(ctx, K.check, t, want) == verdict(ctx, oracles.recursive_check, t, want)
    if ty not in LOOP_TYPES[-2:]:
        assert verdict(ctx, K.check, t, want)[0] == "accepted"
    for _ in range(8):
        path, u = rng.choice(list(subterms(t)))
        bad = replaced(t, path, rng.choice(REPLACEMENTS)(u))
        assert verdict(ctx, K.check, bad, want) == verdict(ctx, oracles.recursive_check, bad, want)


def test_a_deep_literal_checks_without_the_python_stack(loop_sess):
    nat = datatype(loop_sess, "Nat").val
    t = num_term(50_000)
    v = K.check(loop_sess.ctx, t, nat)
    n = 0
    while V.numeral_of(v.payload.fst) == 1:
        v, n = v.payload.snd.fst, n + 1
    assert n == 50_000
