"""Readback names the datatypes and enumerations defined in the context
instead of unfolding their codes, an instance of a parameterised or indexed
datatype as `D ps is`; elaborated terms, messages and `:t` all use it."""

import io
import os
import re

import pytest

from conftest import CORPUS, context_valid, datatype, load_session, nat_value, num_term, read_corpus

from idt import dataelab as D
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
    return T.occurs(t, ix)


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
    # the by-gadget's eliminators and binder types name Nat and Bool, and so
    # does the index type of a constraint's equality code
    text = read_corpus(name)
    assert bool(naming_oracle) == (" by " in text or re.search(r"\[\w+ = ", text) is not None)


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


@pytest.mark.parametrize("name", ["Vec", "Vect"])
def test_a_data_index_type_names_nat(name):
    # the label's index type `Unit * Nat` reads back naming Nat: Vect's
    # definiens inlined Nat's code three times, Vec's once
    sess = Session()
    for d in S.parse_file(read_corpus("nat_tree_vec.idt")):
        if d.name == name:
            break
        sess.process_decl(d)
    definiens = D.elab_data(sess.ctx, d).definiens
    mus = [n for n in term_nodes(definiens) if isinstance(n, T.IMu)]
    # the datatype's own fix-point, under its parameter and its index
    assert len(mus) == 1 and mus[0] is definiens.body.body
    assert names_entry(sess, definiens, "Nat")


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


def test_parameterised_datatypes_are_named(naming_oracle):
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
    assert names_entry(sess, definiens, "Nat") and names_entry(sess, definiens, "Tree")
    assert not any(isinstance(n, T.IMu) for n in term_nodes(definiens))
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
    assert full.type_of("pair") == "(A : Set) -> A -> A -> Vec A 2"
    assert context_valid(full.ctx)


@pytest.mark.parametrize(
    "query, shown",
    [("(leaf : Tree Nat)", "Tree Nat"), ("(leaf : Tree (Tree Bool))", "Tree (Tree Bool)"),
     ("(\\t. \\u. zero : Tree Nat -> Tree Bool -> Nat)", "Tree Nat -> Tree Bool -> Nat")],
)
def test_instances_of_a_parameterised_datatype_are_named(naming_oracle, corpus_session, query, shown):
    sess = Session(ctx=corpus_session.ctx)
    sess.load_text("let Bool : Set => Enum {'true, 'false}\n")
    assert sess.type_of(query) == shown
    assert naming_oracle


@pytest.mark.parametrize("style", ["vec_constrained.idt", "vec_computed.idt"])
def test_instances_of_an_indexed_datatype_are_named(naming_oracle, style):
    sess = load_session(style)
    sess.load_text("let TB : Set => Enum {'tt, 'ff}\n")
    assert sess.type_of("(vnil : Vec TB 0)") == "Vec TB 0"
    assert sess.type_of("(vnil : Vec TB zero)") == "Vec TB 0"
    assert sess.type_of("Vec TB") == "Nat -> Set"
    assert naming_oracle


def test_indices_read_back_in_order(naming_oracle):
    sess = load_session("vec_constrained.idt")
    sess.load_text(
        "data Two (A : Set) [i : Nat] [b : Bool] : Set where\n"
        "  Two A [i = zero] [b = 'true] => t0\n"
        "  Two A [i = suc k] [b = 'false] => t1 (k : Nat) (x : A) (r : Two A k 'true)\n"
    )
    # an enumeration index prints as its position
    assert sess.type_of("(t0 : Two Nat 0 'true)") == "Two Nat 0 #0"
    assert sess.type_of("(t1 0 zero t0 : Two Nat 1 'false)") == "Two Nat 1 #1"
    assert naming_oracle


def vcons_argument_types(sess: Session):
    """The context `A : Set, n : Nat, m : Nat` after `sess`, and the types of
    the arguments of `vcons` in `Vec A n`, applied to `m` for its first."""
    ctx = sess.ctx
    ctx = ctx.extend("A", V.VSet(0)).extend("n", nat_value(sess)).extend("m", nat_value(sess))
    a, n, m = (V.fresh(ctx.depth - k) for k in (3, 2, 1))
    vec = V.vapps(datatype(sess, "Vec").val, a, n)
    code = V.vapp(vec.fam, vec.index)
    args = V.vinterp_i(V.vapp(code.fam, V.VIdxE(1)), V.imu_family(vec.ixty, vec.fam))
    tys = []
    while isinstance(args, V.VSigma):
        tys.append(args.dom)
        args = args.cod(m)
    return ctx, tys


def test_a_definition_over_an_instance_names_only_its_own_objects(naming_oracle):
    # `W n` builds `Vec`'s family from Bool and n: W is no datatype
    # definition, so `Vec TB 0` keeps its name, and `W 0` reads as `Vec Bool 0`
    sess = load_session("vec_constrained.idt")
    sess.load_text(
        "let W (n : Nat) : Set => Vec Bool n\n"
        "let V0 : Set => Vec Bool 0\n"
        "let TB : Set => Enum {'tt, 'ff}\n"
    )
    assert sess.type_of("(vnil : Vec TB 0)") == "Vec TB 0"
    assert sess.type_of("(vnil : W 0)") == "Vec Bool 0"
    assert sess.type_of("(vnil : V0)") == "Vec Bool 0"  # an alias at a non-Unit index is not named
    assert sess.type_of("W") == "Nat -> Set"
    assert naming_oracle


def test_a_recursive_position_reads_back_at_its_own_index(naming_oracle):
    # `vs : Vec A m` shares the family object of `Vec A n`; its index is m
    sess = load_session("vec_constrained.idt")
    ctx, tys = vcons_argument_types(sess)
    assert [K.show(ctx, ty) for ty in tys[:3]] == ["Nat", "A", "Vec A m"]
    assert naming_oracle
    # the same in a real branch, whose constructor arguments are binders named `%m`, ...
    with pytest.raises(ElabError) as e:
        sess.load_text(
            "let isNil (A : Set) (n : Nat) (v : Vec A n) : Bool where\n"
            "  isNil A n v by case v {\n"
            "    isNil A n (vnil q) => 'true\n"
            "    isNil A n (vcons m a vs q) => vs\n"
            "  }\n"
        )
    assert e.value.msg == "expected Bool, got Vec A %m"


def test_an_index_that_is_not_a_pair_unfolds(naming_oracle):
    sess = load_session("vec_constrained.idt")
    ctx = sess.ctx.extend("A", V.VSet(0))
    vec = V.vapps(datatype(sess, "Vec").val, V.fresh(ctx.depth - 1), ctx.eval(num_term(0)))
    pty = V.VSigma("_", vec.ixty, lambda _: nat_value(sess))
    ctx = ctx.extend("p", pty)
    stuck = V.VIMu(vec.ixty, vec.fam, V.vfst(V.fresh(ctx.depth - 1)))
    t = ctx.quote(stuck)
    assert isinstance(t, T.IMu) and t.index == T.Fst(T.Var(0))
    assert K.show(ctx, stuck).endswith(" (fst p)")
    assert ctx.quote(V.VIMu(vec.ixty, vec.fam, vec.index)) == T.App(T.App(T.Var(2), T.Var(1)), num_term(0))
    assert naming_oracle


def test_a_mismatch_against_nat_names_nat():
    sess = load_session("prelude.idt")
    with pytest.raises(ElabError) as e:
        sess.load_text("let bad : Nat => 'true\n")
    text = e.value.render()
    assert text == (
        "1:18: CheckMismatch: tag against Nat\n"
        "  while checking 'true against Nat\n"
        "  while realizing the programming goal <bad : Nat>"
    )
    assert all(len(line.encode()) < 200 for line in text.splitlines())


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
    ctx, nat = sess.ctx, datatype(sess, "Nat").val
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


def test_messages_name_definitions():
    sess = load_session("prelude.idt")
    d = S.parse_file("let f (b : Bool) : Nat where\n  f b => b\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.render() == (
        "2:10: CheckMismatch: expected Nat, got Bool\n"
        "  while checking b against Nat\n"
        "  while realizing the programming goal <f b : Nat>"
    )
