"""Induction that drops unread hypotheses, and codes remembered at ground
arguments, each checked against the plain evaluation it replaces."""

import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, datatype, load_session, num_term
from test_elim_shape import ORD
from test_generics import imu_inhabitants

from idt import terms as T
from idt import values as V
from idt.cli import run_check


def eager_viinduction(ixty, fam, p, m, i, x):
    """The evaluator's induction rule before hypotheses could be dropped:
    every hypothesis is built, then the method is applied to it."""
    if isinstance(x, V.VIn):
        rec = V.VLam(
            "i",
            lambda i2: V.VLam("x", lambda v: eager_viinduction(ixty, fam, p, m, i2, v)),
        )
        hyp = V.viallmap(V.vapp(fam, i), V.imu_family(ixty, fam), p, rec, x.payload)
        return V.vapps(m, i, x.payload, hyp)
    assert isinstance(x, V.VNeutral)
    return V.VStuck(T.IInduction, (ixty, fam, p, m, i, x))


def method(body: T.Term) -> T.Term:
    """`\\i. \\xs. \\h. body`."""
    return T.Lam("i", T.Lam("xs", T.Lam("h", body)))


# methods as terms, under the binders i (Var 2), xs (Var 1) and h (Var 0)
IGNORING = {
    "payload": method(T.Var(1)),
    "index_and_payload": method(T.Pair(T.Var(2), T.Var(1))),
    "lambda_over_payload": method(T.Lam("y", T.Pair(T.Var(0), T.Var(2)))),
}
READING = {
    "payload_and_hyps": method(T.Pair(T.Var(1), T.Var(0))),
    "hyps_under_a_lambda": method(T.Lam("y", T.Pair(T.Var(0), T.Var(1)))),
    "hyps_projected": method(T.Fst(T.Pair(T.Var(0), T.Var(1)))),
}
# methods that are not a written `\i. \xs. \h.`: applied to the index and
# the payload, each is the step `\h. ...`
IGNORING["not_written"] = T.Lam("i", T.App(method(T.Var(1)), T.Var(0)))
READING["not_written"] = T.Lam("i", T.App(method(T.Pair(T.Var(1), T.Var(0))), T.Var(0)))
METHODS = {**IGNORING, **READING}
DATATYPES = ("Nat", "Tree Bool", "BTree")
BTREE = (
    "data BTree : Set where\n"
    "  BTree => bleaf\n"
    "  BTree => bnode (l : BTree) (b : Bool) (r : BTree)"
)


@pytest.fixture(scope="module")
def sess():
    s = load_session("nat_tree_vec.idt")
    s.load_text("let Bool : Set => Enum {'true, 'false}")
    s.load_text(BTREE)
    return s


_INHABITANTS: dict = {}


def inhabitants(sess, name: str, depth: int):
    """`imu_inhabitants` of a datatype instance, computed once per depth."""
    key = (name, depth)
    if key not in _INHABITANTS:
        applied = sess.ctx.eval(sess.synth_expr(name)[0])
        _INHABITANTS[key] = (applied, imu_inhabitants(applied, depth, sess.ctx))
    return _INHABITANTS[key]


def induction_args(sess, name: str, m, x: V.Value) -> tuple:
    """The arguments of an induction over `x` with method `m`, a term or a value."""
    applied, _ = inhabitants(sess, name, 0)
    ctx = sess.ctx
    mv = ctx.eval(m) if isinstance(m, T.Term) else m
    return applied.ixty, applied.fam, ctx.eval(T.Lam("p", T.Unit())), mv, applied.index, x


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(DATATYPES),
    m=st.sampled_from(sorted(METHODS)),
    depth=st.integers(0, 3),
    pick=st.integers(0, 10**6),
)
def test_induction_agrees_with_eager_hypotheses(sess, name, m, depth, pick):
    _, xs = inhabitants(sess, name, depth)
    args = induction_args(sess, name, METHODS[m], xs[pick % len(xs)])
    d = sess.ctx.depth
    assert V.quote(V.viinduction(*args), d) == V.quote(eager_viinduction(*args), d)


# a host-language method is opaque, so its hypotheses are built even unread
PY_IGNORING = V.VLam(
    "i", lambda _i: V.VLam("xs", lambda xs: V.VLam("h", lambda _h, xs=xs: xs))
)


@pytest.mark.parametrize("name", DATATYPES)
def test_hypotheses_are_built_exactly_when_read(sess, monkeypatch, name):
    real = V.viallmap
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(V, "viallmap", counting)
    _, xs = inhabitants(sess, name, 3)
    cases = [(m, False) for m in IGNORING.values()] + [(m, True) for m in READING.values()]
    for m, built in cases + [(PY_IGNORING, True)]:
        calls[0] = 0
        for x in xs:
            V.quote(V.viinduction(*induction_args(sess, name, m, x)), sess.ctx.depth)
        assert (calls[0] > 0) == built, (name, m, calls[0])


def test_a_neutral_method_is_applied_to_the_hypotheses(sess):
    d = sess.ctx.depth
    for name in DATATYPES:
        for x in inhabitants(sess, name, 2)[1]:
            args = induction_args(sess, name, V.fresh(d), x)
            assert V.quote(V.viinduction(*args), d + 1) == V.quote(eager_viinduction(*args), d + 1)


def test_an_unread_hypothesis_is_found_once_per_term(sess, monkeypatch):
    real = T.occurs
    asked = []
    monkeypatch.setattr(T, "occurs", lambda t, i: asked.append(t) or real(t, i))
    m = method(T.Var(1))
    _, xs = inhabitants(sess, "Nat", 3)
    for x in xs:
        V.viinduction(*induction_args(sess, "Nat", m, x))
    assert asked == [T.Var(1)]


# --- codes remembered at ground arguments -------------------------------------------


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt")))
def test_corpus_ground_codes_agree_with_vapp(ground_oracle, name):
    code = run_check([os.path.join(CORPUS, name)], show_codes=True, stdout=io.StringIO())
    assert code == (1 if name == "bad.idt" else 0)
    assert ground_oracle or name == "bad.idt"


def test_ground_values_are_remembered_on_the_closure(sess):
    nat = datatype(sess, "Nat").val
    code = V.vapp_ground(nat.fam, nat.index)
    assert V.vapp_ground(nat.fam, V.VVoid()) is code
    assert V.vapp_ground(code.fam, V.VIdxE(1)) is V.vapp_ground(code.fam, V.VIdxE(1))
    assert V.vapp_ground(code.fam, V.VIdxE(0)) is not V.vapp_ground(code.fam, V.VIdxE(1))
    # an open argument is applied afresh
    open_arg = V.fresh(sess.ctx.depth)
    assert V.vapp_ground(code.fam, open_arg) is not V.vapp_ground(code.fam, open_arg)


# --- work and stack per numeral level --------------------------------------------------

PRED = """let pred (m : Nat) : Nat where
  pred m by case m {
    pred zero => zero
    pred (suc m') => m'
  }"""


def numeral(n: int) -> V.Value:
    v = V.VIn(V.VPair(V.VIdxE(0), V.VVoid()))
    for _ in range(n):
        v = V.VIn(V.VPair(V.VIdxE(1), V.VPair(v, V.VVoid())))
    return v


def eval_calls(monkeypatch, f) -> int:
    real = V.eval_term
    calls = [0]

    def counting(t, env):
        calls[0] += 1
        return real(t, env)

    monkeypatch.setattr(V, "eval_term", counting)
    try:
        f()
    finally:
        monkeypatch.setattr(V, "eval_term", real)
    return calls[0]


@pytest.fixture(scope="module")
def prelude_with_pred():
    s = load_session("prelude.idt")
    s.load_text(PRED)
    return s


def test_case_analysis_does_the_same_work_at_every_size(prelude_with_pred, monkeypatch):
    ctx = prelude_with_pred.ctx
    pred = ctx.eval(T.Var(ctx.lookup("pred")[0]))
    small, large = numeral(10), numeral(100_000)
    got = []
    calls = [eval_calls(monkeypatch, lambda x=x: got.append(V.vapp(pred, x))) for x in (small, large)]
    assert calls[0] == calls[1], calls
    assert got[0] is small.payload.snd.fst and got[1] is large.payload.snd.fst


def test_numeral_elaboration_work_per_level_is_bounded(prelude_with_pred, monkeypatch):
    # the codes of Nat and of its constructors are evaluated once, not per
    # level; evaluating them per level took about 97 eval_term calls
    sess = prelude_with_pred
    small = eval_calls(monkeypatch, lambda: sess.synth_expr("plus 40 40"))
    large = eval_calls(monkeypatch, lambda: sess.synth_expr("plus 80 80"))
    assert large - small <= 4 * 80, (small, large)


# --- pointwise hypotheses -------------------------------------------------------------

# \i. \xs. \h. switch {'oz, 'olim} (\_. Unit) (xs , ((fst h) 2 , (fst h) 0) , ()) (fst xs):
# at `olim g` the hypothesis is the pair of the pointwise `\s. rec (g s)` and
# void, and the method applies the first at two arguments
ORD_ENUM = T.ConsE(T.Tag("oz"), T.ConsE(T.Tag("olim"), T.NilE()))
APPLYING = method(
    T.Switch(
        ORD_ENUM,
        T.Lam("_", T.Unit()),
        T.Pair(
            T.Var(1),
            T.Pair(T.Pair(T.App(T.Fst(T.Var(0)), num_term(2)), T.App(T.Fst(T.Var(0)), num_term(0))), T.Void()),
        ),
        T.Fst(T.Var(1)),
    )
)
ORDINALS = (
    "oz",
    "olim (\\n. oz)",
    "olim (\\n. olim (\\m. oz))",
    "olim (\\n. olim (\\m. olim (\\k. oz)))",
)


@pytest.fixture(scope="module")
def ord_sess():
    s = load_session("prelude.idt")
    s.load_text(ORD)
    return s


def ord_values(sess):
    """Closed ordinals, and `olim g` for a variable `g : Nat -> Ord`, whose
    pointwise hypotheses are stuck."""
    ctx = sess.ctx
    out = []
    for text in ORDINALS:
        t, _ = sess.synth_expr(f"({text} : Ord)")
        out.append(ctx.eval(t))
    g = V.fresh(ctx.depth)
    out.append(V.VIn(V.VPair(V.VIdxE(1), V.VPair(g, V.VVoid()))))
    return out


def test_pointwise_hypotheses_agree_with_eager_induction(ord_sess):
    ctx = ord_sess.ctx
    ord_v = datatype(ord_sess, "Ord").val
    d = ctx.depth + 1  # one more for `g`
    for x in ord_values(ord_sess):
        for m in (APPLYING, READING["payload_and_hyps"], IGNORING["payload"]):
            args = (ord_v.ixty, ord_v.fam, ctx.eval(T.Lam("p", T.Unit())), ctx.eval(m), ord_v.index, x)
            assert V.quote(V.viinduction(*args), d) == V.quote(eager_viinduction(*args), d)


def nat_int(v: V.Value) -> int:
    """The Python integer of a closed `Nat` value."""
    n = 0
    while V.numeral_of(v.payload.fst) == 1:
        v, n = v.payload.snd.fst, n + 1
    return n


def test_pointwise_hypotheses_are_built_when_applied(ord_sess):
    # host-level functions record where they are applied: each application of
    # the pointwise hypothesis applies `g` there and nowhere else, inner
    # inductions first, as the method's pair is evaluated left to right
    ctx = ord_sess.ctx
    ord_v = datatype(ord_sess, "Ord").val
    seen = []

    def olim(name: str, g) -> V.Value:
        fn = V.VLam("n", lambda n: seen.append((name, nat_int(n))) or g(n))
        return V.VIn(V.VPair(V.VIdxE(1), V.VPair(fn, V.VVoid())))

    oz = V.VIn(V.VPair(V.VIdxE(0), V.VVoid()))
    inner = olim("inner", lambda n: oz)
    outer = olim("outer", lambda n: inner)
    args = (ord_v.ixty, ord_v.fam, ctx.eval(T.Lam("p", T.Unit())), ctx.eval(APPLYING), ord_v.index, outer)
    got = V.viinduction(*args)
    assert seen == [("outer", 2), ("inner", 2), ("inner", 0), ("outer", 0), ("inner", 2), ("inner", 0)]
    assert V.quote(got, ctx.depth) == V.quote(eager_viinduction(*args), ctx.depth)
