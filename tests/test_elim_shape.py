"""The by-gadget builds beta-normal eliminators.

`labels` builds each branch wrapper, its lambdas and splits, in the walk
that binds the branch's variables, puts it around the branch body, and
builds the eliminator around the branches. The reference is the
redex-building construction in `oracles.py`: the new definiens must
re-check, introduce no lambda-headed application, and have the
reference's value.
"""

import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CORPUS, load_session, read_corpus
from generators import gen_let_decl

from idt import dataelab as D
from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import Session


def lam_redexes(t) -> int:
    """The number of applications in `t` whose head is a lambda."""
    n = 0

    def visit(u, d):
        nonlocal n
        if isinstance(u, T.App) and isinstance(u.fn, T.Lam):
            n += 1
        return None

    T.map_term(t, visit)
    return n


def audited(ewm):
    """`ewm` with every branch it wraps and every eliminator it assembles
    checked to contain no more lambda-headed applications than its parts."""

    def run(ctx, kind, scrut_name, goal):
        res = ewm(ctx, kind, scrut_name, goal)
        for sg in res.subgoals:
            def wrap(body, real=sg.wrap):
                out = real(body)
                assert lam_redexes(out) == lam_redexes(body), "wrap built a redex"
                return out

            sg.wrap = wrap
        real_assemble = res.assemble

        def assemble(branches):
            out = real_assemble(branches)
            assert lam_redexes(out) == sum(map(lam_redexes, branches)), "assemble built a redex"
            return out

        res.assemble = assemble
        return res

    return run


def elaborate(monkeypatch, ctx, decl, ewm):
    """The definiens of `decl` in `ctx`, built with `ewm` as the by-gadget."""
    with monkeypatch.context() as m:
        m.setattr(L, "ewm_restricted", ewm)
        if isinstance(decl, S.DataDecl):
            return D.elab_data(ctx, decl).definiens
        return L.elab_define(ctx, decl)[0]


def assert_agrees_with_oracle(monkeypatch, ctx, decl):
    """The three properties of the beta-normal construction on one declaration."""
    new = elaborate(monkeypatch, ctx, decl, audited(L.ewm_restricted))
    old = elaborate(monkeypatch, ctx, decl, oracles.ewm_restricted)
    if isinstance(decl, S.DataDecl):
        ty = D.elab_data(ctx, decl).ty
    else:
        ty = L.elab_define(ctx, decl)[1]
    K.check(ctx, new, K.check_entry_type(ctx, ty))
    assert V.convertible(ctx.eval(new), ctx.eval(old), ctx.depth)
    return new, old


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt") and f != "bad.idt")
)
def test_corpus_declarations_agree_with_the_redex_construction(monkeypatch, name):
    sess = Session()
    by_programs = 0
    for decl in S.parse_file(read_corpus(name)):
        new, old = assert_agrees_with_oracle(monkeypatch, sess.ctx, decl)
        by_programs += new != old
        sess.process_decl(decl)
    # every `by` program in the file was built differently from the oracle
    assert by_programs == len(re.findall(r"\bby (?:case|rec)\b", read_corpus(name)))


PLUS = (
    "let plus{k} (m : Nat) (n : Nat) : Nat where\n"
    "  plus{k} m n by rec m {{\n"
    "    plus{k} zero n => n\n"
    "    plus{k} (suc m') n => suc (plus{k} m' n)\n"
    "  }}\n"
)
PRED = (
    "let pred{k} (m : Nat) : Nat where\n"
    "  pred{k} m by case m {{\n"
    "    pred{k} zero => zero\n"
    "    pred{k} (suc m') => m'\n"
    "  }}\n"
)
VECT = (
    "data Vect{k} (A : Set) [n : Nat] : Set where\n"
    "  Vect{k} A [n] by case n {{\n"
    "    Vect{k} A [zero] => vnil{k}\n"
    "    Vect{k} A [suc m] => vcons{k} (a : A) (vs : Vect{k} A m)\n"
    "  }}\n"
)
NOT = (
    "let not{k} (b : Bool) : Bool where\n"
    "  not{k} b by case b {{\n"
    "    not{k} true => 'false\n"
    "    not{k} false => 'true\n"
    "  }}\n"
)


@pytest.fixture(scope="module")
def prelude_ctx():
    return load_session("prelude.idt").ctx


@pytest.mark.parametrize("template", [PLUS, PRED, VECT, NOT], ids=["plus", "pred", "vect", "not"])
def test_benchmark_shapes_agree_with_the_redex_construction(monkeypatch, prelude_ctx, template):
    (decl,) = S.parse_file(template.format(k=1))
    new, old = assert_agrees_with_oracle(monkeypatch, prelude_ctx, decl)
    assert lam_redexes(new) == 0 < lam_redexes(old)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_lets_agree_with_the_redex_construction(prelude_ctx, seed):
    decl = gen_let_decl(random.Random(seed), "g")
    with pytest.MonkeyPatch.context() as mp:
        new, _ = assert_agrees_with_oracle(mp, prelude_ctx, decl)
    if isinstance(decl.prog.body, S.ByBlock):
        assert lam_redexes(new) == 0


def test_nested_by_programs_agree_with_the_redex_construction(monkeypatch, prelude_ctx):
    (decl,) = S.parse_file(
        "let f (m : Nat) (n : Nat) : Nat where\n"
        "  f m n by rec m {\n"
        "    f zero n by case n {\n"
        "      f zero zero => zero\n"
        "      f zero (suc n') => n'\n"
        "    }\n"
        "    f (suc m') n => suc (f m' n)\n"
        "  }\n"
    )
    new, old = assert_agrees_with_oracle(monkeypatch, prelude_ctx, decl)
    assert lam_redexes(new) == 0 < lam_redexes(old)


SIZE = (
    "let size (t : Tree Nat) : Nat where\n"
    "  size t by rec t {\n"
    "    size leaf => zero\n"
    "    size (node l a r) => suc (plus (size l) (plus a (size r)))\n"
    "  }\n"
)


def test_rec_after_a_product_agrees_with_the_redex_construction(monkeypatch):
    # in `node (l) (a) (r)` a field follows the recursive `l`, so the split
    # of the rest of the payload is applied to the second component of the
    # product's hypothesis
    sess = load_session("nat_tree_vec.idt")
    sess.load_text(PLUS.format(k=""))
    (decl,) = S.parse_file(SIZE)
    new, old = assert_agrees_with_oracle(monkeypatch, sess.ctx, decl)
    assert lam_redexes(new) == 0 < lam_redexes(old)
    sess.process_decl(decl)
    assert sess.eval_expr("size (node (node leaf 3 leaf) 2 leaf)") == "7"
