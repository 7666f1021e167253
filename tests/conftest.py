import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from idt import kernel as K  # noqa: E402
from idt import terms as T  # noqa: E402
from idt import values as V  # noqa: E402
from idt.cli import Session  # noqa: E402
from idt.elab import Elaborator  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


def read_corpus(name: str) -> str:
    with open(corpus_path(name), "r", encoding="utf-8") as f:
        return f.read()


def load_session(*names: str, **kw) -> Session:
    sess = Session(**kw)
    for n in names:
        sess.load_text(read_corpus(n))
    return sess


def elab_synth(ctx: K.Context, e):
    """Synthesize a core term and its type from an external term."""
    return Elaborator().synth(ctx, e)


def elab_check(ctx: K.Context, e, want: V.Value) -> T.Term:
    """Check an external term against a type, producing a core term."""
    return Elaborator().check(ctx, e, want)


def context_valid(ctx: K.Context) -> bool:
    """Re-check the whole context from scratch (validity invariant)."""
    acc = K.Context()
    for e in ctx.entries:
        ty_term = V.quote(e.ty, acc.depth)
        tv = K.check_entry_type(acc, ty_term)
        if e.val is not None:
            K.check(acc, V.quote(e.val, acc.depth), tv)
            acc = acc.extend(e.name, tv, acc.eval(V.quote(e.val, acc.depth)))
        else:
            acc = acc.extend(e.name, tv)
    return True


@pytest.fixture
def conv_oracle(monkeypatch):
    """Check every `kernel.conv` verdict against reading both sides back and
    comparing the terms; the list holds the verdicts checked so far."""
    real = K.conv
    verdicts = []

    def conv(ctx, a, b):
        got = real(ctx, a, b)
        want = V.quote(a, ctx.depth) == V.quote(b, ctx.depth)
        assert got == want, f"conv says {got}, readback says {want}"
        verdicts.append(got)
        return got

    monkeypatch.setattr(K, "conv", conv)
    return verdicts


@pytest.fixture
def value_oracle(monkeypatch):
    """Check every value that `kernel.check` or the elaborator's checking
    judgment builds from the parts of a term against evaluating the term;
    the list holds the terms checked so far."""
    real_check, real_check_value = K.check, Elaborator._check_value
    checked = []

    def agree(ctx, t, got):
        if got is not None:
            want = V.quote(ctx.eval(t), ctx.depth)
            assert V.quote(got, ctx.depth) == want, f"value built from parts differs for {t}"
            checked.append(t)

    def check(ctx, t, want):
        got = real_check(ctx, t, want)
        agree(ctx, t, got)
        return got

    def check_value(self, ctx, e, want):
        t, got = real_check_value(self, ctx, e, want)
        agree(ctx, t, got)
        return t, got

    monkeypatch.setattr(K, "check", check)
    monkeypatch.setattr(Elaborator, "_check_value", check_value)
    return checked


@pytest.fixture
def naming_oracle(monkeypatch):
    """Check every term that `Context.quote` builds with definitions named:
    evaluated in the context and read back with definitions unfolded, it
    gives the unfolded readback of the value it was built from. The list
    holds the terms that name a definition."""
    real = K.Context.quote
    named = []

    def quote(ctx, v, d=None):
        t = real(ctx, v, d)
        d = ctx.depth if d is None else d
        want = V.quote(v, d)
        env = ctx.env[:d] + tuple(V.fresh(lvl) for lvl in range(ctx.depth, d))
        assert V.quote(V.eval_term(t, env), d) == want, f"named readback {t} is not {want}"
        if t != want:
            named.append(t)
        return t

    monkeypatch.setattr(K.Context, "quote", quote)
    return named


@pytest.fixture
def ground_oracle(monkeypatch):
    """Check every value `values.vapp_ground` returns, possibly remembered
    from an earlier call, against applying the function afresh with `vapp`;
    the list holds the arguments checked so far."""
    real = V.vapp_ground
    checked = []

    def vapp_ground(f, a):
        got = real(f, a)
        # compared at a level above every variable a test context binds
        assert V.convertible(got, V.vapp(f, a), 1 << 16), f"remembered value differs at {a}"
        checked.append(a)
        return got

    monkeypatch.setattr(V, "vapp_ground", vapp_ground)
    return checked


@pytest.fixture(scope="session")
def prelude():
    return load_session("prelude.idt")


@pytest.fixture(scope="session")
def corpus_session():
    return load_session("nat_tree_vec.idt")


# --- small term-building helpers ------------------------------------------------


def enum(*tags):
    e = T.NilE()
    for t in reversed(tags):
        e = T.ConsE(T.Tag(t), e)
    return e


def tup(*xs):
    t = T.Void()
    for x in reversed(xs):
        t = T.Pair(x, t)
    return t


def switch_fam(en, cases, target):
    """The eliminator-literal shape: \\c. switch en (\\_. target) cases c."""
    return T.Lam(
        "c",
        T.Switch(T.shift(en, 1), T.Lam("_", T.shift(target, 2)), T.shift(cases, 1), T.Var(0)),
    )


UNIT_DESC = T.IDesc(T.Unit())
VAR = T.DVarI(T.Void())  # a recursive position at index type Unit


def bare_nat_code():
    """A hand-built naturals code without trailing unit terminators."""
    en = enum("zero", "suc")
    return T.DSigmaE(en, switch_fam(en, tup(T.DOne(), VAR), UNIT_DESC))


def elaborated_nat_code():
    """The naturals code as the argument-telescope rules produce it."""
    en = enum("zero", "suc")
    return T.DSigmaE(en, switch_fam(en, tup(T.DOne(), T.DTimes(VAR, T.DOne())), UNIT_DESC))


def unit_fam(code):
    """The constant family \\_. code over index type Unit."""
    return T.Lam("_", T.shift(code, 1))


def unit_mu(code):
    """The fix-point of `code` at index type Unit: IMu Unit (\\_. code) ()."""
    return T.IMu(T.Unit(), unit_fam(code), T.Void())


def datatype(sess: Session, name: str) -> K.Entry:
    """The context entry of the datatype `name` declared in `sess`: its type
    `.ty` and its value `.val`."""
    _, entry = sess.ctx.lookup(name)
    return entry


def nat_value(sess: Session):
    return datatype(sess, "Nat").val


def num_term(k: int) -> T.Term:
    t = T.In(T.Pair(T.IdxE(0), T.Void()))
    for _ in range(k):
        t = T.In(T.Pair(T.IdxE(1), T.Pair(t, T.Void())))
    return t
