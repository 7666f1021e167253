"""Elaborated terms name the datatypes and enumerations defined in the
context instead of unfolding their codes; messages still print normal forms."""

import io
import os

import pytest

from conftest import CORPUS, context_valid, load_session, read_corpus

from idt import kernel as K
from idt import labels as L
from idt import pp
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import Session, run_check
from idt.elab import ElabError

# kernel.check plus kernel.infer calls of the prelude's `plus` re-check when
# every readback unfolded Nat's code
UNFOLDED_PLUS_RECHECK_CALLS = 3014

PRED = (
    "let pred (m : Nat) : Nat where\n"
    "  pred m by case m {\n"
    "    pred zero => zero\n"
    "    pred (suc m') => m'\n"
    "  }\n"
)


def term_nodes(t: T.Term):
    """Every term node of `t`, `t` first."""
    out = [t]
    for name in t._fields:
        x = getattr(t, name)
        for y in x if isinstance(x, tuple) else (x,):
            if isinstance(y, T.Term):
                out.extend(term_nodes(y))
    return out


def names_entry(sess: Session, t: T.Term, name: str) -> bool:
    """Whether `t`, a term in the session's context, mentions the entry
    `name` as a variable."""
    ix, _ = sess.ctx.lookup(name)
    return ix in T.free_vars(t)


def elab_last(text: str, preamble=("prelude.idt",)):
    """The session before the last declaration of `text`, and that
    declaration's (definiens, type)."""
    sess = load_session(*preamble)
    decls = S.parse_file(text)
    for d in decls[:-1]:
        sess.process_decl(d)
    return sess, L.elab_define(sess.ctx, decls[-1])


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt")))
def test_corpus_named_readbacks_are_sound(naming_oracle, name):
    code = run_check([os.path.join(CORPUS, name)], show_codes=True, stdout=io.StringIO())
    assert code == (1 if name == "bad.idt" else 0)
    # the by-gadget's eliminators and binder types name Nat and Bool
    assert bool(naming_oracle) == (" by " in read_corpus(name))


def recheck_calls(monkeypatch, sess, definiens, ty) -> int:
    """kernel.check plus kernel.infer calls of re-checking `definiens`."""
    tyv = K.check_entry_type(sess.ctx, ty)
    calls = [0]
    real_check, real_infer = K.check, K.infer

    def check(*args):
        calls[0] += 1
        return real_check(*args)

    def infer(*args):
        calls[0] += 1
        return real_infer(*args)

    monkeypatch.setattr(K, "check", check)
    monkeypatch.setattr(K, "infer", infer)
    K.check(sess.ctx, definiens, tyv)
    monkeypatch.undo()
    return calls[0]


def test_plus_names_nat():
    sess, (definiens, ty) = elab_last(read_corpus("prelude.idt"), preamble=())
    nodes = term_nodes(definiens)
    # 2,153 with Nat unfolded; 389 with the by-gadget's annotated redexes
    assert len(nodes) <= 250, len(nodes)
    assert names_entry(sess, definiens, "Nat")
    assert not any(isinstance(n, T.IMu) for n in nodes)


def test_plus_recheck_makes_a_third_of_the_kernel_calls(monkeypatch):
    sess, (definiens, ty) = elab_last(read_corpus("prelude.idt"), preamble=())
    # 557 calls when the by-gadget built annotated redexes
    calls = recheck_calls(monkeypatch, sess, definiens, ty)
    assert calls <= UNFOLDED_PLUS_RECHECK_CALLS // 3 and calls <= 320, calls


def test_pred_term_and_recheck_counts(monkeypatch):
    sess, (definiens, ty) = elab_last(PRED)
    # 201 nodes and 271 calls when the by-gadget built annotated redexes
    assert len(term_nodes(definiens)) <= 125, len(term_nodes(definiens))
    calls = recheck_calls(monkeypatch, sess, definiens, ty)
    assert calls <= 160, calls


def test_loading_the_prelude_prints_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term was printed while loading the prelude")

    monkeypatch.setattr(pp, "print_term", refuse)
    monkeypatch.setattr(S, "print_expr", refuse)
    load_session("prelude.idt")


def test_rec_over_an_alias(naming_oracle):
    sess = load_session("prelude.idt")
    sess.load_text(
        "let N : Set => Nat\n"
        "let double (n : N) : N where\n"
        "  double n by rec n {\n"
        "    double zero => zero\n"
        "    double (suc m) => suc (suc (double m))\n"
        "  }\n"
    )
    assert sess.eval_expr("double 3") == "6"
    assert context_valid(sess.ctx)
    assert naming_oracle


def test_parameterised_datatypes_unfold(naming_oracle):
    text = (
        "data Tree (A : Set) : Set where\n"
        "  Tree A => leaf\n"
        "  Tree A => node (l : Tree A) (a : A) (r : Tree A)\n"
        "let size (A : Set) (t : Tree A) : Nat where\n"
        "  size A t by rec t {\n"
        "    size A leaf => zero\n"
        "    size A (node l a r) => suc (plus (size A l) (size A r))\n"
        "  }\n"
    )
    sess, (definiens, _) = elab_last(text)
    assert names_entry(sess, definiens, "Nat")
    assert any(isinstance(n, T.IMu) for n in term_nodes(definiens))  # Tree A
    full = load_session("prelude.idt")
    full.load_text(text)
    full.load_text(
        "data Vec (A : Set) [n : Nat] : Set where\n"
        "  Vec A [n = zero] => vnil\n"
        "  Vec A [n = suc m] => vcons (m : Nat) (a : A) (vs : Vec A m)\n"
        "let pair (A : Set) (a : A) (b : A) : Vec A 2 => vcons 1 a (vcons 0 b vnil)\n"
    )
    assert full.eval_expr("size Nat (node leaf 1 (node leaf 2 leaf))") == "2"
    assert full.eval_expr("pair Bool true false") == "In (#1 1 #0 In (#1 0 #1 In (#0 refl) refl) refl)"
    assert context_valid(full.ctx)


def test_a_defined_instance_names_only_itself(naming_oracle):
    # `Tree Nat` and `Tree Bool` have families built from one closure body
    sess = load_session("prelude.idt")
    sess.load_text(
        "data Tree (A : Set) : Set where\n"
        "  Tree A => leaf\n"
        "  Tree A => node (l : Tree A) (a : A) (r : Tree A)\n"
        "let TN : Set => Tree Nat\n"
        "let mirror (t : Tree Bool) : Tree Bool where\n"
        "  mirror t by rec t {\n"
        "    mirror leaf => leaf\n"
        "    mirror (node l a r) => node (mirror r) a (mirror l)\n"
        "  }\n"
        "let grow (t : TN) : TN => node t 0 t\n"
    )
    assert sess.eval_expr("mirror (node leaf true (node leaf false leaf))") == (
        "In (#1 In (#1 0 #1 0) #0 0)"
    )
    assert sess.eval_expr("grow leaf") == "In (#1 0 0 0)"
    assert context_valid(sess.ctx)
    assert naming_oracle


def test_naming_rule():
    sess = load_session("prelude.idt")
    ctx, nat = sess.ctx, sess.datatypes["Nat"].value
    ix, _ = ctx.lookup("Nat")
    assert ctx.quote(nat) == T.Var(ix)
    assert ctx.quote(nat, ctx.depth + 2) == T.Var(ix + 2)
    # a structurally equal datatype is not the definition's object
    again = ctx.eval(V.quote(nat, ctx.depth))
    assert ctx.quote(again) == V.quote(nat, ctx.depth)
    # a definition at or above the readback depth is unfolded
    alias = ctx.extend("M", V.VSet(0), nat)
    assert alias.quote(nat) == T.Var(0)
    for d in (ctx.depth - 1, ctx.depth):
        t = alias.quote(nat, d)
        assert V.quote(V.eval_term(t, alias.env[:d]), d) == V.quote(nat, d)
    # only definitions in `Set 0`: their variables infer the unfolded universe
    assert ctx.extend("L", V.VSet(1), nat).quote(nat) == T.Var(ix + 1)


def test_case_over_bool_names_bool():
    sess, (definiens, _) = elab_last(
        "let not (b : Bool) : Bool where\n"
        "  not b by case b {\n"
        "    not true => false\n"
        "    not false => true\n"
        "  }\n"
    )
    assert names_entry(sess, definiens, "Bool")
    assert not any(isinstance(n, T.EnumT) for n in term_nodes(definiens))


def test_messages_print_normal_forms():
    sess = load_session("prelude.idt")
    d = S.parse_file("let f (b : Bool) : Nat where\n  f b => b\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    text = e.value.render()
    assert "{'true, 'false}" in text and "'sigma {'zero, 'suc}" in text
