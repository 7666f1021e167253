"""Eliminations evaluated scrutinee first, against the eager rules.

The evaluator reads the scrutinee of `switch` and `split`, the proof of
`EqElim` and the body of a label call first, and their enumeration, motive
or label only when the elimination is stuck. Every value must read back as
it does under the eager rules of `oracles.eager_eliminations`: the values of
corpus definitions, and those of generated programs applied to numerals.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, load_session, read_corpus
from generators import gen_let_decl
from oracles import eager_eliminations

from idt import dataelab as D
from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import Session
from idt.elab import ElabError, Elaborator

NUMERALS = range(13)


def applied(ctx, v, ty, k: int):
    """The readback of `v` applied to the numeral `k` wherever its type takes
    one and to a fresh variable elsewhere, or of `v` itself when `k` is None."""
    d = ctx.depth
    while k is not None and isinstance(ty, V.VPi):
        try:
            _, a = Elaborator()._check_value(ctx, S.ENum(k), ty.dom)
        except ElabError:
            a = None
        if a is None:
            a, d = V.fresh(d), d + 1
        v, ty = V.vapp(v, a), ty.cod(a)
    return V.quote(v, d)


def readbacks(ctx, t, ty_t) -> list:
    ty = ctx.eval(ty_t)
    v = ctx.eval(t)
    return [applied(ctx, v, ty, k) for k in (None, *NUMERALS)]


def assert_agrees_with_eager(ctx, t, ty_t):
    lazy = readbacks(ctx, t, ty_t)
    with eager_eliminations():
        eager = readbacks(ctx, t, ty_t)
    assert lazy == eager


CORPUS_FILES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt") and f != "bad.idt")


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_definitions_agree_with_the_eager_rules(monkeypatch, name):
    elaborated = []
    real_let, real_data = L.elab_define, D.elab_data

    def elab_define(ctx, d):
        definiens, ty_t = real_let(ctx, d)
        elaborated.append((ctx, definiens, ty_t))
        return definiens, ty_t

    def elab_data(ctx, d, **kw):
        res = real_data(ctx, d, **kw)
        elaborated.append((ctx, res.definiens, res.ty))
        return res

    monkeypatch.setattr(L, "elab_define", elab_define)
    monkeypatch.setattr(D, "elab_data", elab_data)
    Session().load_text(read_corpus(name))
    assert elaborated
    for ctx, t, ty_t in elaborated:
        assert_agrees_with_eager(ctx, t, ty_t)


@pytest.fixture(scope="module")
def prelude_ctx():
    return load_session("prelude.idt").ctx


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_programs_agree_with_the_eager_rules(prelude_ctx, seed):
    decl = gen_let_decl(random.Random(seed), "g")
    definiens, ty_t = L.elab_define(prelude_ctx, decl)
    assert_agrees_with_eager(prelude_ctx, definiens, ty_t)


def test_iota_reduction_reads_no_motive(monkeypatch, prelude_ctx):
    # the eager rules evaluate every motive and enumeration on the way
    term, _ = Elaborator().synth(prelude_ctx, S.parse_expr("plus 12 12"))
    real = V.eval_term
    calls = [0]

    def counting(t, env):
        calls[0] += 1
        return real(t, env)

    monkeypatch.setattr(V, "eval_term", counting)

    def evaluations() -> int:
        calls[0] = 0
        prelude_ctx.eval(term)
        return calls[0]

    lazy = evaluations()
    with eager_eliminations():
        eager = evaluations()
    assert lazy < eager, (lazy, eager)


TWO = T.ConsE(T.Tag("a"), T.ConsE(T.Tag("b"), T.NilE()))
CASES = T.Pair(T.Tag("x"), T.Pair(T.Tag("y"), T.Void()))
PAIR_METHOD = T.Lam("x", T.Lam("y", T.Var(1)))

# each rule's reducing and stuck branch, among three free variables
ELIMINATIONS = {
    "switch_zero": T.Switch(TWO, T.Var(1), CASES, T.IdxE(0)),
    "switch_one": T.Switch(TWO, T.Var(1), CASES, T.IdxE(1)),
    "switch_stuck": T.Switch(TWO, T.Var(1), CASES, T.Var(0)),
    "switch_open_enum": T.Switch(T.Var(2), T.Var(1), T.Var(0), T.IdxE(1)),
    "eqelim_refl": T.EqElim(T.Var(1), T.Tag("b"), T.Refl()),
    "eqelim_stuck": T.EqElim(T.Var(1), T.Tag("b"), T.Var(0)),
    "split_pair": T.Split(T.Var(1), PAIR_METHOD, T.Pair(T.Tag("p"), T.Tag("q"))),
    "split_stuck": T.Split(T.Var(1), PAIR_METHOD, T.Var(0)),
    "lcall_ret": T.LCall("f", (T.Var(2),), (T.Unit(),), T.Unit(), T.LRet(T.Tag("r"))),
    "lcall_stuck": T.LCall("f", (T.Var(2),), (T.Unit(),), T.Unit(), T.Var(0)),
}


@pytest.mark.parametrize("case", sorted(ELIMINATIONS))
def test_each_elimination_agrees_with_the_eager_rule(case):
    env = (V.fresh(0), V.fresh(1), V.fresh(2))
    t = ELIMINATIONS[case]
    lazy = V.quote(V.eval_term(t, env), 3)
    with eager_eliminations():
        eager = V.quote(V.eval_term(t, env), 3)
    assert lazy == eager


# --- values reused from the re-check, arguments left unevaluated ----------------------

PRED = "let pred (m : Nat) : Nat where\n  pred m by case m {\n    pred zero => zero\n    pred (suc m') => m'\n  }\n"


def gen_nat(rng, depth: int) -> str:
    """A closed expression that checks against `Nat`."""
    if depth == 0:
        return rng.choice(["zero", str(rng.randrange(9)), str(rng.randrange(9))])
    a = lambda: f"({gen_nat(rng, depth - 1)})"  # noqa: E731
    forms = [
        lambda: f"plus {a()} {a()}",
        lambda: f"pred {a()}",
        lambda: f"suc {a()}",
        lambda: f"(\\x. plus x {a()} : Nat -> Nat) {a()}",
        # an annotated lambda whose body only checks, and one taking a lambda
        lambda: f"(\\x. suc x : Nat -> Nat) {a()}",
        lambda: f"(\\f. f {a()} : (Nat -> Nat) -> Nat) (\\x. suc x)",
    ]
    return rng.choice(forms)()


def gen_expr(rng, depth: int) -> str:
    """A closed expression after the prelude, `pred` and `same` that
    synthesises its type; one in ten is ill-typed."""
    n = lambda: f"({gen_nat(rng, depth - 1)})"  # noqa: E731
    forms = [
        lambda: f"plus {n()} {n()}",
        lambda: f"pred {n()}",
        lambda: f"({gen_nat(rng, depth)} : Nat)",
        lambda: f"(\\x. plus x {n()} : Nat -> Nat) {n()}",
        lambda: f"({n()} {n()} : Nat * Nat)",
        lambda: f"(pred {n()} : (Nat -> Nat) * Nat)",
        lambda: "(\\x. x : Nat -> Nat)",
        lambda: f"(refl : plus {n()} {n()} == plus {n()} {n()})",
        lambda: "('true : Bool)",
        lambda: f"same {n()}",  # a codomain that reads its argument
        lambda: f"(\\x. refl : (x : Nat) -> x == x) {n()}",
        lambda: f"(\\x. (x x) : Nat -> Nat * Nat) {n()}",
    ]
    if rng.random() < 0.1:
        return rng.choice([f"plus {n()} 'true", f"pred {n()} {n()}", f"({n()} : Bool)"])
    return rng.choice(forms)()


def outcome(f) -> str:
    try:
        return f()
    except (ElabError, K.KernelError) as err:
        return f"{type(err).__name__}: {err}"


def evaluated(sess, text: str) -> str:
    """The evaluation of `text`'s elaborated term, printed as `eval` prints."""
    t, ty = sess.synth_expr(text)
    return sess.render_term(sess.ctx.eval(t), ty)


@pytest.fixture(scope="module")
def pred_session():
    s = load_session("prelude.idt")
    s.load_text(PRED)
    s.load_text("let same (n : Nat) : n == n => refl")
    return s


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 4))
def test_values_from_the_recheck_print_as_evaluation(pred_session, seed, depth):
    # `eval_expr` prints the value the kernel's re-check built as the
    # evaluation of the elaborated term prints; the types inferred without
    # evaluating the arguments that no codomain reads are those inferred
    # with every argument evaluated
    sess = pred_session
    text = gen_expr(random.Random(seed), depth)
    got = outcome(lambda: sess.eval_expr(text))
    assert got == outcome(lambda: evaluated(sess, text))
    assert got == outcome(lambda: Session(recheck=False, ctx=sess.ctx).eval_expr(text))
    typed = outcome(lambda: sess.type_of(text))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "reads_arg", lambda cod: True)
        assert typed == outcome(lambda: sess.type_of(text))


def test_an_unread_argument_is_not_evaluated(pred_session, monkeypatch):
    # `plus`'s codomain does not read `m`, so neither the elaborator nor the
    # kernel evaluates `pred 9`; the re-check builds the value from the
    # values its checks gave, so neither literal is evaluated either
    elaborated, evaluated = [], []
    real_synth, real_eval = Elaborator.synth, V.eval_term
    monkeypatch.setattr(Elaborator, "synth", lambda el, ctx, e: elaborated.append(real_synth(el, ctx, e)) or elaborated[-1])
    monkeypatch.setattr(V, "eval_term", lambda t, env: evaluated.append(t) or real_eval(t, env))
    assert pred_session.eval_expr("plus (pred 9) 9") == "17"
    t, _ = elaborated[-1]  # the outermost synthesis returns last
    args = (t.fn.arg, t.fn.arg.arg, t.arg)  # pred 9, and the two literals
    assert not any(u is a for u in evaluated for a in args)
