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
        sess.load_text(read_corpus(n), n)
    return sess


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
        T.EnumT(en),
        T.Switch(T.shift(en, 1), T.Lam("_", None, T.shift(target, 2)), T.shift(cases, 1), T.Var(0)),
    )


def bare_nat_code():
    """A hand-built naturals code without trailing unit terminators."""
    en = enum("zero", "suc")
    return T.DSigmaE(en, switch_fam(en, tup(T.DOne(), T.DVar()), T.Desc()))


def elaborated_nat_code():
    """The naturals code as the argument-telescope rules produce it."""
    en = enum("zero", "suc")
    return T.DSigmaE(
        en, switch_fam(en, tup(T.DOne(), T.DTimes(T.DVar(), T.DOne())), T.Desc())
    )


def nat_value(sess: Session):
    return sess.datatypes["Nat"].value


def num_term(k: int) -> T.Term:
    t = T.In(T.Pair(T.ZeroE(), T.Void()))
    for _ in range(k):
        t = T.In(T.Pair(T.SucE(T.ZeroE()), T.Pair(t, T.Void())))
    return t
