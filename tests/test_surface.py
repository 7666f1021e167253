"""Concrete syntax: parsing, printing, spans."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, read_corpus
from decl_printer import print_decl, print_file
from generators import gen_data_decl, gen_let_decl
from oracles import lex_reference

from idt import surface as S


def test_parse_nat_decl_structure():
    decls = S.parse_file(
        "data Nat : Set where\n  Nat => zero\n  Nat => suc (n : Nat)\n"
    )
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, S.DataDecl)
    assert d.name == "Nat" and len(d.clauses) == 2
    assert d.clauses[0].body.name == "zero"
    assert d.clauses[1].body.args[0][0] == "n"


def test_parse_constrained_vec():
    decls = S.parse_file(
        "data Vec (A : Set) [n : Nat] : Set where\n"
        "  Vec A [n = zero] => vnil\n"
        "  Vec A [n = suc m] => vcons (m : Nat) (a : A) (vs : Vec A m)\n"
    )
    d = decls[0]
    assert d.params == (("A", S.ESet(0)),)
    assert len(d.indices) == 1
    con = d.clauses[1]
    pat = con.head.pats[1].pat
    assert isinstance(pat, S.PConstraint) and pat.name == "n"
    assert len(con.body.args) == 3


def test_parse_empty_file():
    assert S.parse_file("") == []
    assert S.parse_file("\n\n-- just a comment\n") == []


def test_parse_print_roundtrip_corpus():
    for name in ("prelude.idt", "nat_tree_vec.idt", "bad.idt", "vec_computed.idt"):
        text = read_corpus(name)
        decls = S.parse_file(text)
        printed = print_file(decls)
        assert S.parse_file(printed) == decls


def test_print_is_right_inverse_on_exprs():
    for src in [
        "\\x. \\y. x",
        "(x : Set) -> (y : x) -> x",
        "(a : Set) * a",
        "{'l, 'r}",
        "[l -> (), r -> ()]",
        "f (g x) y",
        "(pair fst snd)",
        "suc zero == plus m n",
        "(e : Enum {'a})",
        "3",
    ]:
        e = S.parse_expr(src)
        assert S.parse_expr(S.print_expr(e)) == e


def test_syntax_error_span_within_input():
    text = "data Nat : Set where\n  Nat => \n"
    with pytest.raises(S.ParseError) as err:
        S.parse_file(text)
    line, col = err.value.span[0], err.value.span[1]
    lines = text.splitlines() + [""]
    assert 1 <= line <= len(lines) + 1
    assert col >= 1


def test_error_has_expected_tokens():
    with pytest.raises(S.ParseError) as err:
        S.parse_file("data Nat Set where")
    assert err.value.expected


# malformed `data` and `let` declarations: a missing `case`/`rec` or name
# after `by`, a missing `{` or `}`, a bad binder group; (input, message,
# span, expected tokens)
MALFORMED = [
    ('data D : Set where\n  D by x { }\n', "expected 'case' or 'rec'", (2, 8, 2, 9), ['case', 'rec']),
    ('data D : Set where\n  D by\n', "expected 'case' or 'rec'", (2, 7, 2, 7), ['case', 'rec']),
    ('data D : Set where\n  D by rec\n', "expected a name, found '\\n'", (2, 11, 2, 11), ['NAME']),
    ('data D : Set where\n  D by case x\n  D => c\n', "expected '{', found '\\n'", (2, 14, 2, 14), ['{']),
    ('data D : Set where\n  D by case x {\n    D => c\n', "expected a name, found ''", (4, 1, 4, 1), ['NAME']),
    ('data D : Set where\n  D by case x { D => c ; D by elim y { } }\n', "expected 'case' or 'rec'", (2, 31, 2, 35), ['case', 'rec']),
    ('data D (A Set) : Set where\n  D A => c\n', "expected ':', found 'Set'", (1, 11, 1, 14), [':']),
    ('data D (: Set) : Set where\n', "expected a name, found ':'", (1, 9, 1, 10), ['NAME']),
    ('data D (A : Set : Set where\n', "expected ')', found ':'", (1, 17, 1, 18), [')']),
    ('data D [n : Nat : Set where\n', "expected ']', found ':'", (1, 17, 1, 18), [']']),
    ('data D [n Nat] : Set where\n', "expected ':', found ']'", (1, 14, 1, 15), [':']),
    ('data D : Set where\n  D => c (x : A\n', "expected ')', found ''", (3, 1, 3, 1), [')']),
    ('data D : Set where\n  D => c (x A)\n', "expected ':', found ')'", (2, 14, 2, 15), [':']),
    ('data D : Set where\n  D => c [x : A]\n', "expected a name, found '['", (2, 10, 2, 11), ['NAME']),
    ('let f (n : Nat) : Nat where\n  f n by x { }\n', "expected 'case' or 'rec'", (2, 10, 2, 11), ['case', 'rec']),
    ('let f (n : Nat) : Nat where\n  f n by\n', "expected 'case' or 'rec'", (2, 9, 2, 9), ['case', 'rec']),
    ('let f (n : Nat) : Nat where\n  f n by case n\n  f zero => zero\n', "expected '{', found '\\n'", (2, 16, 2, 16), ['{']),
    ('let f (n : Nat) : Nat where\n  f n by case n {\n    f zero => zero\n', "expected a name, found ''", (4, 1, 4, 1), ['NAME']),
    ('let f (n : Nat) : Nat where\n  f n by case n { f zero => zero ; f (suc m) by x { } }\n', "expected 'case' or 'rec'", (2, 49, 2, 50), ['case', 'rec']),
    ('let f (n Nat) : Nat => n\n', "expected ':', found ')'", (1, 13, 1, 14), [':']),
    ('let f (n : Nat : Nat => n\n', "expected ')', found ':'", (1, 16, 1, 17), [')']),
    ('let f ( : Nat) : Nat => n\n', "expected a name, found ':'", (1, 9, 1, 10), ['NAME']),
    ('let f [n : Nat] : Nat => n\n', "expected ':', found '['", (1, 7, 1, 8), [':']),
    ("let x : Nat => '\n", "empty tag", (1, 16, 1, 17), []),
    ('let x : Nat => @\n', "unexpected character '@'", (1, 16, 1, 17), []),
    ('data D : Set\n  D => c\n', "expected 'where', found '\\n'", (1, 13, 1, 13), ['where']),
    ('let x : Nat => where\n', "unexpected keyword 'where'", (1, 16, 1, 21), []),
    ("let x : Enum {'a, ->} => 'a\n", "expected a tag", (1, 19, 1, 21), ['TAG']),
    ("let f : Bool -> Bool => ['a -> x, 3 -> y]\n", "expected a tag", (1, 35, 1, 36), ['TAG']),
    ('let x : Nat => )\n', "unexpected token ')'", (1, 16, 1, 17), []),
    ('foo\n', "expected a declaration, found 'foo'", (1, 1, 1, 4), ['data', 'let']),
]


@pytest.mark.parametrize("text, msg, span, expected", MALFORMED)
def test_malformed_declaration_errors_are_pinned(text, msg, span, expected):
    with pytest.raises(S.ParseError) as err:
        S.parse_file(text)
    assert (err.value.msg, err.value.span, err.value.expected) == (msg, span, expected)
    assert str(err.value) == f"{span[0]}:{span[1]}: {msg}"


def test_trailing_input_after_an_expression_is_pinned():
    with pytest.raises(S.ParseError) as err:
        S.parse_expr("x )")
    assert (err.value.msg, err.value.span, str(err.value)) == ("trailing input ')'", (1, 3, 1, 4), "1:3: trailing input ')'")


def test_duplicate_tags_rejected_at_elaboration():
    # surface invariant: tag names unique within one enum literal
    from idt.elab import ElabError, Elaborator
    from idt import kernel as K
    from idt import values as V

    with pytest.raises(ElabError) as err:
        Elaborator().check(K.Context(), S.parse_expr("{'a, 'a}"), V.VEnumU())
    assert err.value.kind == "DuplicateTag"


# --- random declaration roundtrip ---------------------------------------------------


names = st.sampled_from(["x", "y", "zz", "foo", "A", "B"])


def expr_strategy():
    leaf = st.one_of(
        st.builds(lambda n: S.EVar(n), names),
        st.just(S.ESet(0)),
        st.just(S.EUnit()),
        st.builds(lambda n: S.ETag(n), st.sampled_from(["t", "u"])),
        st.builds(lambda k: S.ENum(k), st.integers(min_value=0, max_value=9)),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(lambda a, b: S.EApp(a, b), sub, sub),
            st.builds(lambda n, b: S.ELam(n, b), names, sub),
            st.builds(lambda n, a, b: S.EPi(n, a, b), st.one_of(names, st.just("_")), sub, sub),
            st.builds(lambda a, b: S.EEq(a, b), sub, sub),
            st.builds(lambda ts: S.EEnumLit(tuple(dict.fromkeys(ts))), st.lists(st.sampled_from(["p", "q", "r"]), max_size=3)),
        ),
        max_leaves=10,
    )


@given(expr_strategy())
def test_expr_print_parse_roundtrip_generated(e):
    assert S.parse_expr(S.print_expr(e)) == e


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), expr_strategy()), min_size=0, max_size=3
    )
)
def test_data_decl_roundtrip_generated(argspecs):
    # unique argument names to keep the telescope well-formed
    args = tuple((f"x{i}", ty) for i, (_, ty) in enumerate(argspecs))
    d = S.DataDecl(
        "D",
        (("A", S.ESet(0)),),
        (),
        (
            S.Clause(S.Head("D", (S.PVar("A"),)), S.CtorDecl("mk", args)),
        ),
        (),
    )
    printed = print_decl(d)
    assert S.parse_file(printed) == [d]


def test_missing_clause_body_is_a_parse_error_in_both_forms():
    for text, at in [
        ("let f (x : Nat) : Nat where\n  f x\n", (2, 6)),
        ("data D : Set where\n  D D\n", (2, 6)),
    ]:
        with pytest.raises(S.ParseError) as e:
            S.parse_file(text)
        assert e.value.msg.startswith("expected '=>' or 'by' in clause, found ")
        assert e.value.span[:2] == at


# --- the lexer against its reference ---------------------------------------------------

# fragments that stress the lexer: every punctuation token, prefixes of the
# two-character ones, comments, tags, non-ASCII letters and digits (`é`,
# `²`, `½`), tabs, carriage returns, unbalanced brackets and characters no
# token starts with
LEX_PIECES = S.PUNCT + [
    "-", "--", "--\n", "-- note\n", "-- note", "--(", "=>=", "->-", "'", "'a-b", "'x1", "_", "x'", "n1", "é", "²", "½", "٣", "αβ",
    "7", "42", "0x", "\t", "\r", "\r\n", "\n", " ", "((", "]]", "[(", ")]", "@", "#", "$", "!", "\x00", "~",
    "Set", "Set1", "data", "where", "let", "by", "case", "rec", "deriving",
]
CORPUS_TEXTS = [read_corpus(n) for n in sorted(os.listdir(CORPUS)) if n.endswith(".idt")]


def lexed(lex, src: str):
    """The tokens `lex` gives `src`, or the text and span of its error."""
    try:
        return [(t.kind, t.text, t.span) for t in lex(src)]
    except S.ParseError as e:
        return ("ParseError", e.msg, e.span, str(e))


def assert_lexes_as_reference(src: str):
    assert lexed(S.lex, src) == lexed(lex_reference, src)


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_lex_matches_reference_on_the_corpus(text):
    assert_lexes_as_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lex_matches_reference_on_edited_corpus_text(data):
    text = data.draw(st.sampled_from(CORPUS_TEXTS))
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 400)))
    piece = "".join(data.draw(st.lists(st.sampled_from(LEX_PIECES), max_size=4)))
    k = data.draw(st.integers(0, j - i))
    assert_lexes_as_reference(text[i : i + k] + piece + text[i + k : j])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(LEX_PIECES)), max_size=3))
def test_lex_matches_reference_on_generated_declarations(seed, edits):
    # files of data and let blocks, as `idt check` is given them
    rng = random.Random(seed)
    decls = [gen_data_decl(rng, f"D{k}") if k % 2 else gen_let_decl(rng, f"f{k}") for k in range(rng.randint(1, 4))]
    text = print_file(decls)
    assert_lexes_as_reference(text)
    for at, piece in edits:
        cut = int(at * len(text))
        text = text[:cut] + piece + text[cut:]
    assert_lexes_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=30).map("".join) | st.text(max_size=60))
def test_lex_matches_reference_on_awkward_text(src):
    assert_lexes_as_reference(src)
