"""Programming labels, the restricted by-gadget, and label index types."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import context_valid, datatype, enum, load_session, num_term, read_corpus, switch_fam, tup
from generators import gen_data_decl

from idt import dataelab as D
from idt import kernel as K
from idt import labels as L
from idt import surface as S
from idt import terms as T
from idt import values as V
from idt.cli import Session
from idt.elab import ElabError


@pytest.fixture(scope="module")
def sess():
    return load_session("prelude.idt")


def ctx0():
    return K.Context()


# --- call/return computation ---------------------------------------------------


def test_lcall_lret_iota():
    # call <f : T> (return t) reduces to t
    t = T.LCall("f", (), (), T.Unit(), T.LRet(T.Void()))
    assert K.normalize(ctx0(), t) == T.Void()


def desc_call(en, fam):
    """A description label's call/return: `call <D : IDesc Unit> (return ('sigma E F))`."""
    return T.LCall("D", (), (), T.IDesc(T.Unit()), T.LRet(T.DSigmaE(en, fam)))


def test_dcall_dret_iota():
    en = enum("a", "b")
    fam = switch_fam(en, tup(T.DOne(), T.DOne()), T.IDesc(T.Unit()))
    got = K.normalize(ctx0(), desc_call(en, fam))
    want = K.normalize(ctx0(), T.DSigmaE(en, fam))
    assert got == want


def test_call_return_iota_as_defeq_property():
    for tags in (("a",), ("a", "b"), ("x", "y", "z")):
        en = enum(*tags)
        fam = switch_fam(en, tup(*(T.DOne() for _ in tags)), T.IDesc(T.Unit()))
        assert K.def_eq(ctx0(), desc_call(en, fam), T.DSigmaE(en, fam))


# --- label index types -----------------------------------------------------------


def index_type(sess, decl) -> T.Term:
    """`I`, the index type of the label that `elab_data` elaborates the
    clauses of `decl` (a declaration or its text) against, read back."""
    if isinstance(decl, str):
        (decl,) = S.parse_file(decl)
    seen = []
    elab_data_patts = D.DataElab.elab_data_patts

    def record(de, ctx, clauses, goal, depth=0, match=None):
        seen.append(V.quote(goal.ty.index, ctx.depth))
        return elab_data_patts(de, ctx, clauses, goal, depth, match)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D.DataElab, "elab_data_patts", record)
        D.elab_data(sess.ctx, decl)
    return seen[0]


def nat_pair(sess) -> T.Term:
    """`Unit * Nat` with Nat unfolded, a closed term."""
    nat_t = V.quote(datatype(sess, "Nat").val, 0)
    return T.Sigma("_", T.Unit(), nat_t)


def test_label_index_type_base(sess):
    assert index_type(sess, "data D : Set where\n  D => d\n") == T.Unit()


def test_label_index_type_param_skipped_index_contributes(sess):
    got = index_type(sess, "data V (A : Set) [n : Nat] : Set where\n  V A [n] => mk (a : A)\n")
    assert got == nat_pair(sess)


def test_label_index_type_constraint_contributes(sess):
    got = index_type(sess, "data V (A : Set) [n : Nat] : Set where\n  V A [n = suc m] => mk (m : Nat)\n")
    assert got == nat_pair(sess)


def test_label_index_type_against_oracle(sess):
    # property: the index type is the left-nested product of the declared
    # index types, elaborated on their own and built by an independent
    # recursion
    from idt.elab import Elaborator

    def oracle(decl):
        ty = T.Unit()
        for _, tye in decl.indices:
            tyt, _, _ = Elaborator().elab_type(sess.ctx, tye)
            ty = T.Sigma("_", ty, T.shift(tyt, 1))
        return K.normalize(sess.ctx, ty)

    kinds = set()
    for seed in range(40):
        decl = gen_data_decl(random.Random(seed), f"G{seed}")
        kinds.add((len(decl.params) > 0, len(decl.indices) > 0))
        assert index_type(sess, decl) == oracle(decl)
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


# --- program elaboration -----------------------------------------------------------


def test_plus_computes(sess):
    from idt.elab import Elaborator

    el = Elaborator()
    for m in range(5):
        for n in range(5):
            t, _ = el.synth(sess.ctx, S.parse_expr(f"plus {m} {n}"))
            assert K.normalize(sess.ctx, t) == K.normalize(sess.ctx, num_term(m + n))


def test_ill_typed_return_reports_label_goal(sess):
    d = S.parse_file("let f (x : Nat) : Nat where\n  f x => ()\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "CheckMismatch"
    assert any("f" in g or "Nat" in g for g in e.value.trail)


def test_pattern_head_argument_order_mismatch(sess):
    d = S.parse_file("let f (m : Nat) (n : Nat) : Nat where\n  f n m => m\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "PatternHeadMismatch"


def test_pattern_head_wrong_name(sess):
    d = S.parse_file("let f (m : Nat) : Nat where\n  g m => m\n")[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "PatternHeadMismatch"


def test_define_extends_context_with_checked_entry(sess):
    d = S.parse_file(
        "let double (x : Nat) : Nat where\n"
        "  double x by rec x {\n"
        "    double zero => zero\n"
        "    double (suc m) => suc (suc (double m))\n"
        "  }\n"
    )[0]
    definiens, ty = L.elab_define(sess.ctx, d)
    tyv = K.check_entry_type(sess.ctx, ty)
    K.check(sess.ctx, definiens, tyv)  # soundness of program elaboration
    ctx = sess.ctx.extend("double", tyv, sess.ctx.eval(definiens))
    from idt.elab import Elaborator

    el = Elaborator()
    for k in range(4):
        t, _ = el.synth(ctx, S.parse_expr(f"double {k}"))
        assert K.normalize(ctx, t) == K.normalize(ctx, num_term(2 * k))


# --- restricted elimination with a motive --------------------------------------------


def test_ewm_rec_on_nat_two_subgoals_with_hypothesis(sess):
    ctx = sess.ctx.extend("m", datatype(sess, "Nat").val)
    ctx = ctx.extend("n", datatype(sess, "Nat").val)
    nat = datatype(sess, "Nat").val
    goal = V.VLabelTy(
        "plus",
        (ctx.env[ctx.depth - 2], ctx.env[ctx.depth - 1]),
        (nat, nat),
        nat,
    )
    res = L.ewm_restricted(ctx, "rec", "m", goal)
    assert [sg.tag for sg in res.subgoals] == ["zero", "suc"]
    assert not res.subgoals[0].hyp_slots
    assert len(res.subgoals[1].hyp_slots) == 1
    hyp = res.subgoals[1].hyp_slots[0]
    assert isinstance(hyp.ty, V.VLabelTy) and hyp.ty.head == "plus"


def test_ewm_case_on_enum(sess):
    ev = sess.ctx.eval(enum("l", "r"))
    ctx = sess.ctx.extend("b", V.VEnumT(ev))
    goal = V.VLabelTy("f", (ctx.env[-1],), (V.VEnumT(ev),), V.VUnit())
    res = L.ewm_restricted(ctx, "case", "b", goal)
    assert [sg.tag for sg in res.subgoals] == ["l", "r"]
    out = res.assemble([T.LRet(T.Void()), T.LRet(T.Void())])
    K.check(ctx, out, goal)


def test_ewm_unsupported_scrutinee(sess):
    ctx = sess.ctx.extend("g", ctx0().eval(T.Pi("x", T.Unit(), T.Unit())))
    goal = V.VLabelTy("f", (ctx.env[-1],), (ctx.eval(T.Pi("x", T.Unit(), T.Unit())),), V.VUnit())
    with pytest.raises(ElabError) as e:
        L.ewm_restricted(ctx, "case", "g", goal)
    assert e.value.kind == "UnsupportedScrutinee"


def test_ewm_scrutinee_not_free(sess):
    ctx = sess.ctx.extend("m", datatype(sess, "Nat").val)
    goal = V.VLabelTy("f", (), (), V.VUnit())
    with pytest.raises(ElabError) as e:
        L.ewm_restricted(ctx, "rec", "m", goal)
    assert e.value.kind == "ScrutineeNotFree"


def test_ewm_rec_on_enum_rejected(sess):
    ev = sess.ctx.eval(enum("l", "r"))
    ctx = sess.ctx.extend("b", V.VEnumT(ev))
    goal = V.VLabelTy("f", (ctx.env[-1],), (V.VEnumT(ev),), V.VUnit())
    with pytest.raises(ElabError) as e:
        L.ewm_restricted(ctx, "rec", "b", goal)
    assert e.value.kind == "UnsupportedScrutinee"


def test_ewm_assembled_checks_at_goal(sess):
    # every corpus use site re-checks; exercise a fresh one directly
    ctx = sess.ctx.extend("m", datatype(sess, "Nat").val)
    nat = datatype(sess, "Nat").val
    goal = V.VLabelTy("pred", (ctx.env[-1],), (nat,), nat)
    res = L.ewm_restricted(ctx, "case", "m", goal)
    branches = []
    for sg in res.subgoals:
        inner = ctx
        for nm, tyv in sg.binders:
            inner = inner.extend(nm, tyv)
        if sg.tag == "zero":
            from conftest import num_term

            body = T.LRet(num_term(0))
        else:
            body = T.LRet(T.Var(inner.lookup("x")[0]))  # the predecessor
        branches.append(sg.wrap(body))
    out = res.assemble(branches)
    K.check(ctx, out, goal)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_constructor_patterns_bind_the_fields_of_the_code_walk(sess, seed):
    # property: matching `c vs` against an argument that `by case` refined
    # to the constructor `c` binds each field, with its type and its value,
    # as a walk over the constructor's code does
    decl = gen_data_decl(random.Random(seed), "G")
    assume(not decl.indices)
    s = Session(ctx=sess.ctx)
    s.process_decl(decl)
    info = datatype(s, "G")
    ctx, tyv, applied = s.ctx, info.ty, info.val
    for nm, _ in decl.params:
        ctx = ctx.extend(nm, tyv.dom)
        x = V.fresh(ctx.depth - 1)
        tyv, applied = tyv.cod(x), V.vapp(applied, x)
    ctx = ctx.extend("x", applied)
    goal = V.VLabelTy("f", (ctx.env[-1],), (applied,), V.VUnit())
    for sg in L.ewm_restricted(ctx, "case", "x", goal).subgoals:
        inner = ctx
        for nm, ty in sg.binders:
            inner = inner.extend(nm, ty)
        (argv,), (argty,) = sg.goal.args, sg.goal.argtys
        want = oracles.constructor_fields(argv, argty)
        names = tuple(f"v{j}" for j in range(len(want)))
        with pytest.raises(ElabError) as e:
            L.bind_refined(inner, sg.tag, names + ("extra",), argv, argty, None)
        assert e.value.msg == f"constructor '{sg.tag}' takes {len(want)} argument(s)"
        got = L.bind_refined(inner, sg.tag, names, argv, argty, None)
        assert got.entries[: inner.depth] == inner.entries
        bound = got.entries[inner.depth :]
        assert [e.name for e in bound] == list(names)
        for e, slot in zip(bound, want):
            assert got.quote(e.ty) == got.quote(slot.ty)
            assert got.quote(e.val) == got.quote(slot.proj)


def test_abstract_subterm():
    t = T.App(T.Var(2), T.Lam("x", None, T.App(T.Var(3), T.Var(0))))
    assert T.abstract(t, T.Var(2)) == (T.App(T.Var(0), T.Lam("x", None, T.App(T.Var(1), T.Var(0)))), True)
    # without an occurrence the body is the term shifted, and abstract says so
    assert T.abstract(t, T.Var(5)) == (T.shift(t, 1), False)


def test_nested_by_blocks_in_programs(sess):
    # casing on a second argument inside a rec branch; the recursive call is
    # justified by the hypothesis of the outer rec
    from idt.cli import Session

    s = Session()
    from conftest import read_corpus

    s.load_text(read_corpus("prelude.idt"))
    s.load_text(
        "let bothZero (a : Nat) (b : Nat) : Bool where\n"
        "  bothZero a b by case a {\n"
        "    bothZero zero b by case b {\n"
        "      bothZero zero zero => true\n"
        "      bothZero zero (suc b') => false\n"
        "    }\n"
        "    bothZero (suc a') b => false\n"
        "  }\n"
    )
    for a in range(3):
        for b in range(3):
            want = "'true" if a == b == 0 else "'false"
            assert s.eval_expr(f"bothZero {a} {b}") == want
    assert context_valid(s.ctx)


def test_unjustified_recursive_call_rejected(sess):
    # a recursive call whose arguments do not match any hypothesis label is a
    # NoMatchingHypothesis error rather than unchecked recursion
    d = S.parse_file(
        "let bad (a : Nat) (b : Nat) : Nat where\n"
        "  bad a b by rec a {\n"
        "    bad zero b => zero\n"
        "    bad (suc a') b => bad a' (suc b)\n"
        "  }\n"
    )[0]
    with pytest.raises(ElabError) as e:
        L.elab_define(sess.ctx, d)
    assert e.value.kind == "NoMatchingHypothesis"


def test_program_case_on_enum_argument(sess):
    from idt.cli import Session
    from conftest import read_corpus

    s = Session()
    s.load_text(read_corpus("prelude.idt"))
    s.load_text(
        "let toNat (b : Bool) : Nat where\n"
        "  toNat b by case b {\n"
        "    toNat true => 1\n"
        "    toNat false => 0\n"
        "  }\n"
    )
    assert s.eval_expr("toNat true") == "1"
    assert s.eval_expr("toNat false") == "0"
    assert context_valid(s.ctx)


def test_program_case_on_enum_matches_unbound_tag_names():
    # no name `t` or `u` is in scope, so each head matches the subgoal whose
    # refined argument is the tag it names
    from idt.cli import Session

    s = Session()
    s.load_text(
        "let flip (b : Enum {'t, 'u}) : Enum {'t, 'u} where\n"
        "  flip b by case b {\n"
        "    flip u => 't\n"
        "    flip t => 'u\n"
        "  }\n"
    )
    assert s.eval_expr("flip 't") == "'u"
    assert s.eval_expr("flip 'u") == "'t"
    assert context_valid(s.ctx)


# --- one clause form for `data` and `let` -------------------------------------------


def elab_verdict(sess, text: str):
    """The ElabError that elaborating the one declaration of `text` after
    the session raises, or None when it is accepted."""
    (decl,) = S.parse_file(text)
    try:
        if isinstance(decl, S.DataDecl):
            D.elab_data(sess.ctx, decl)
        else:
            L.elab_define(sess.ctx, decl)
    except ElabError as e:
        return e
    return None


@pytest.mark.parametrize(
    "zero_k, suc, suc_k, accepted",
    [
        ("k", "m", "k", True),
        # the second `k` is the one the first pattern binds, not the index
        ("k", "k", "k", False),
        ("k", "m", "m", False),
        ("j", "m", "k", False),
    ],
)
def test_data_and_let_heads_read_names_by_scope(sess, zero_k, suc, suc_k, accepted):
    data = (
        "data D [j k : Nat] : Set where\n"
        "  D [j] [k] by case j {\n"
        f"    D [zero] [{zero_k}] => a\n"
        f"    D [suc {suc}] [{suc_k}] => b\n"
        "  }\n"
    )
    let = (
        "let g (j : Nat) (k : Nat) : Nat where\n"
        "  g j k by case j {\n"
        f"    g zero {zero_k} => zero\n"
        f"    g (suc {suc}) {suc_k} => k\n"
        "  }\n"
    )
    verdicts = [elab_verdict(sess, text) for text in (data, let)]
    assert [v is None for v in verdicts] == [accepted, accepted]
    if not accepted:
        assert [v.kind for v in verdicts] == ["PatternHeadMismatch"] * 2


@pytest.mark.parametrize(
    "text",
    [
        "let f (x : Nat) : Nat where\n  f x by case x { f zero => zero }\n",
        "data W [n : Nat] : Set where\n  W [n] by case n { W [zero] => a }\n",
    ],
    ids=["let", "data"],
)
def test_by_block_missing_a_constructor_is_located(sess, text):
    e = elab_verdict(sess, text)
    assert e.kind == "PatternHeadMismatch"
    assert e.msg == "expected exactly one branch for constructor 'suc' (have: none)"
    # the head of the `by` clause in a program, the `case` of its block in a datatype
    assert e.span[:2] == ((2, 3) if text.startswith("let") else (2, 12))


def nested_by(form: str, levels: int) -> tuple:
    """A declaration whose zero branches case on the next of `levels` Nat
    arguments, `levels` `by` blocks deep, and the (line, column) of its
    innermost branch's head."""
    lines = [
        f"data W [n0 : Nat]{''.join(f' [n{i} : Nat]' for i in range(1, levels))} : Set where"
        if form == "data"
        else f"let w{''.join(f' (n{i} : Nat)' for i in range(levels))} : Nat where"
    ]

    def pat(p: str) -> str:
        if form == "data":
            return f"[{p}]"
        return f"({p})" if " " in p else p

    def head(level: int, at: str) -> str:
        ps = ["zero" if i < level else at if i == level else f"n{i}" for i in range(levels)]
        return " ".join(["W" if form == "data" else "w"] + [pat(p) for p in ps])

    def block(level: int, h: str, pad: str):
        if level == levels:
            lines.append(f"{pad}{h} => {'leaf' if form == 'data' else 'zero'}")
            return
        lines.append(f"{pad}{h} by case n{level} {{")
        block(level + 1, head(level, "zero"), pad + "  ")
        lines.append(f"{pad}  {head(level, f'suc m{level}')} => {f'c{level}' if form == 'data' else 'zero'}")
        lines.append(f"{pad}}}")

    block(0, head(0, "n0"), "  ")
    leaf = next(i for i, ln in enumerate(lines) if ln.endswith(("=> leaf", "=> zero")))
    return "\n".join(lines) + "\n", (leaf + 1, len(lines[leaf]) - len(lines[leaf].lstrip()) + 1)


@pytest.mark.parametrize("form", ["data", "let"])
def test_by_depth_limit_is_located(sess, form):
    text, _ = nested_by(form, L.MAX_BY_DEPTH)
    assert elab_verdict(sess, text) is None
    text, leaf = nested_by(form, L.MAX_BY_DEPTH + 1)
    e = elab_verdict(sess, text)
    assert e.kind == "ByDepthExceeded"
    assert e.span[:2] == leaf


@pytest.mark.parametrize("levels", [4, L.MAX_BY_DEPTH])
def test_a_constructor_under_nested_by_blocks_is_found(levels):
    # each `by` block is one more `elim` layer of the code above the
    # constructors of its branches; the search descends all of them
    text, _ = nested_by("data", levels)
    s = load_session("prelude.idt")
    s.load_text(text)
    s.load_text(f"let x : W{' 0' * levels} => leaf\nlet y : W{' 0' * (levels - 1)} 1 => c{levels - 1}\n")
    assert s.type_of("x") == "W" + " 0" * levels


@pytest.mark.parametrize(
    "clause, span, msg",
    [
        ("P B [n] => p", (2, 5), "pattern variable 'B' does not match argument 0 of the label"),
        ("P A [m] => p", (2, 8), "pattern variable 'm' does not match argument 1 of the label"),
        ("P A [m = zero] => p", (2, 8), "pattern variable 'm' does not match argument 1 of the label"),
        ("P A [suc m] => p", (2, 8), "constructor pattern 'suc' does not match argument 1"),
    ],
    ids=["parameter", "index", "constraint", "constructor"],
)
def test_data_head_mismatches_use_the_shared_messages(sess, clause, span, msg):
    e = elab_verdict(sess, f"data P (A : Set) [n : Nat] : Set where\n  {clause}\n")
    assert (e.kind, e.span[:2], e.msg) == ("PatternHeadMismatch", span, msg)


def test_let_constructor_pattern_message(sess):
    e = elab_verdict(sess, "let f (x : Nat) : Nat where\n  f (suc m) => m\n")
    assert (e.span[:2], e.msg) == ((2, 6), "constructor pattern 'suc' does not match argument 0")


def test_a_refined_index_cannot_be_constrained(sess):
    # `zero` names the refined index as a nullary constructor, not a variable
    e = elab_verdict(
        sess,
        "data W [n : Nat] : Set where\n"
        "  W [n] by case n {\n"
        "    W [zero = zero] => a\n"
        "    W [suc m] => b\n"
        "  }\n",
    )
    assert e.kind == "PatternHeadMismatch"


def by_block(head: str, first: str, rest: str) -> str:
    """A one-`by`-block declaration after the prelude: `data W [n : Nat]`
    when `head` is `W`, `let f (n : Nat) : Nat` when it is `f`."""
    decl = "data W [n : Nat] : Set where" if head == "W" else "let f (n : Nat) : Nat where"
    return f"{decl}\n  {head} {'[n]' if head == 'W' else 'n'} by case n {{\n    {first}\n    {rest}\n  }}\n"


@pytest.mark.parametrize(
    "text, msg",
    [
        (
            by_block("W", "W [zero] [n] => a", "W [suc m] => b"),
            "3:5: PatternHeadMismatch: expected exactly one branch for constructor 'zero' (have: W, W); "
            "first clause: clause head has 2 argument(s); the label has 1",
        ),
        (
            by_block("W", "W [zero = zero] => a", "W [suc m] => b"),
            "3:5: PatternHeadMismatch: expected exactly one branch for constructor 'zero' (have: W, W); "
            "first clause: refined index position 0 cannot be constrained",
        ),
        (
            by_block("f", "f zero zero => zero", "f (suc m) => m"),
            "3:5: PatternHeadMismatch: expected exactly one branch for constructor 'zero' (have: f, f); "
            "first clause: clause head has 2 argument(s); the label has 1",
        ),
        (
            # two clauses match: ambiguous, with no first-clause reason
            by_block("W", "W [zero] => a", "W [zero] => b\n    W [suc m] => c"),
            "3:5: PatternHeadMismatch: expected exactly one branch for constructor 'zero' (have: W, W, W)",
        ),
    ],
    ids=["data-arity", "data-refined-constraint", "let-arity", "ambiguous"],
)
def test_an_unmatched_branch_says_why_its_first_clause_failed(sess, text, msg):
    assert elab_verdict(sess, text).render() == msg


@pytest.mark.parametrize(
    "head, pat",
    [("W", "[suc]"), ("W", "[suc m k]"), ("f", "suc"), ("f", "(suc)"), ("f", "(suc m k)")],
    ids=["data-bare", "data-bracketed", "let-bare", "let-parenthesised", "let-too-many"],
)
def test_a_refined_constructor_with_the_wrong_arity_says_so(sess, head, pat):
    # the pattern names the constructor the index is refined to, with a
    # number of variables other than its fields
    first = "W [zero] => a" if head == "W" else "f zero => zero"
    e = elab_verdict(sess, by_block(head, first, f"{head} {pat} => {'b' if head == 'W' else 'zero'}"))
    assert e.render() == (
        f"4:5: PatternHeadMismatch: expected exactly one branch for constructor 'suc' (have: {head}); "
        "first clause: constructor 'suc' takes 1 argument(s)"
    )


NESTED = "let f (m : Nat) (n : Nat) : Nat where\n  f m n by case m {\n    f zero n => n\n    f (suc k) n by case n {\n"


@pytest.mark.parametrize(
    "text, msg",
    [
        (
            # no argument of the label is the scrutinee `k`
            "let f (m : Nat) : Nat where\n  f m by rec m {\n    f zero => zero\n"
            "    f (suc k) by case k {\n      f (suc k) => k\n    }\n  }\n",
            "4:5: PatternHeadMismatch: expected exactly one branch for constructor 'suc' (have: none)",
        ),
        (
            # the first head stops before the split position
            "let f (m : Nat) (n : Nat) : Nat where\n  f m n by case n {\n    f m => zero\n    f m (suc k) => k\n  }\n",
            "3:5: PatternHeadMismatch: expected exactly one branch for constructor 'zero' (have: f, f); "
            "first clause: clause head has 1 argument(s); the label has 2",
        ),
        (
            # at the split position `k` is the variable the first pattern binds
            NESTED + "      f (suc k) k => k\n      f (suc k) (suc j) => j\n    }\n  }\n",
            "5:7: PatternHeadMismatch: expected exactly one branch for constructor 'zero' (have: f, f); "
            "first clause: pattern variable 'k' does not match argument 1 of the label",
        ),
        (
            # `zero` names the constructor at the split position; a name in
            # scope, `true`, names no constructor there
            NESTED + "      f (suc k) zero => k\n      f (suc k) (suc j) => j\n    }\n  }\n"
            "let g (b : Bool) : Bool where\n  g b by case b {\n    g false => true\n    g true => false\n  }\n",
            None,
        ),
    ],
    ids=["scrutinee-not-an-argument", "head-too-short", "bound-by-an-earlier-pattern", "accepted"],
)
def test_heads_that_name_no_constructor_at_the_split_are_tried_on_every_subgoal(text, msg):
    sess = load_session("prelude.idt")
    if msg is None:
        sess.load_text(text)
        assert [sess.eval_expr(e) for e in ("f 3 0", "f 3 5", "g true")] == ["2", "4", "'false"]
        return
    with pytest.raises(ElabError) as e:
        sess.load_text(text)
    assert e.value.render() == msg


def count_match_head(monkeypatch) -> list:
    calls = [0]
    real = L.match_head

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(L, "match_head", counted)
    return calls


def test_by_step_matches_each_chosen_head_once(monkeypatch):
    # each subgoal of a block matches only the heads that name its
    # constructor, and hands the chosen head's match to its branch, which
    # does not match it again
    from idt.cli import Session

    calls = count_match_head(monkeypatch)
    Session().load_text(read_corpus("nat_tree_vec.idt"))
    # 10 when each subgoal matched every head left, 12 when each branch
    # also re-matched its head
    assert calls[0] == 9
    calls[0] = 0
    Session().load_text(read_corpus("prelude.idt"))
    assert calls[0] == 8  # 9, and 11


@pytest.mark.parametrize("k", [64, 128])
@pytest.mark.parametrize("form", ["fields", "nullary"])
def test_a_wide_by_case_matches_at_most_two_heads_per_constructor(monkeypatch, k, form):
    # k(k+1)/2 + 1 matches when every subgoal tried every clause left
    from idt.cli import Session

    sess = Session()
    sess.load_text(read_corpus("prelude.idt"))
    field = " (b : Bool)" if form == "fields" else ""
    sess.load_text("data W : Set where\n" + "".join(f"  W => c{i}{field}\n" for i in range(k)))
    pat = "(c{i} b)" if form == "fields" else "c{i}"
    branches = "".join(f"    f {pat.format(i=i)} => 'true\n" for i in reversed(range(k)))
    calls = count_match_head(monkeypatch)
    sess.load_text(f"let f (w : W) : Bool where\n  f w by case w {{\n{branches}  }}\n")
    assert calls[0] <= 2 * k, calls[0]
    monkeypatch.undo()
    assert sess.eval_expr(f"f c{k // 2}" if form == "nullary" else f"f (c{k // 2} true)") == "'true"
