"""`idt` on mutated inputs, in-process: no exception leaves `cli.main`, the
exit code is one the CLI documents, no run reports a broken internal
invariant, and a failing `check` or `eval` run prints a located first line.

The inputs are corpus files and expressions edited by inserting, deleting
or copying a slice, or inserting a token, a keyword or a character that
the front end must refuse (non-ASCII letters and digits, `\\r`, NUL, tabs).
Deep input is one string, run in this process like any other.
"""

import io
import os
import random
import re
import sys
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, corpus_path, read_corpus

from idt.cli import main

FILES = [read_corpus(n) for n in sorted(os.listdir(CORPUS)) if n.endswith(".idt")]
EXPRS = [
    "plus 2 3",
    "(suc zero : Nat)",
    "('a : Enum {a, b})",
    "([a -> zero, b -> 1] : Enum {a, b} -> Nat)",
    "(\\x. suc x : Nat -> Nat) 1",
    "(zero zero : Nat * Nat)",
    "(refl : plus 1 1 == 2)",
    "true",
]
TOKENS = [
    "data", "let", "where", "by", "case", "rec", "deriving", "Set", "Set1", "Unit", "Enum", "refl",
    "=>", "->", "==", "(", ")", "[", "]", "{", "}", ":", ";", ",", ".", "\\", "=", "*",
    "'a", "'true", "a", "zero", "suc", "Nat", "plus", "n'", "0", "7", "-- c\n", "\n", " ",
]
# what the front end must refuse or skip, inserted twice as often as all the tokens
FOREIGN = ["é", "'é", "²", "٣", "½", "αβ", "\t", "\r", "\x00", "(" * 5000]  # the last nests past the stack
# how a report names where it went wrong: `path:line:col: error: …`, or an
# elaboration error's `path: error: line:col: …`
LOCATED = re.compile(r"\S+:\d+:\d+: error: |\S+: error: \d+:\d+: ")
INTERNAL = ("internal evaluation error", "internal invariant violated")
LIMITS = ("input nested too deeply", "out of memory")


def mutated(rng: random.Random, texts: list) -> str:
    """One of `texts` after one or two edits: insert a piece, between two
    tokens as often as anywhere, put one in place of a word, or delete or
    copy a slice."""
    text = rng.choice(texts)
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 40))
        edit = rng.choice(("insert", "replace", "delete", "copy"))
        piece = rng.choice(rng.choice((TOKENS, FOREIGN, FOREIGN)))
        if edit == "insert":
            spaces = [m.end() for m in re.finditer(r"\s", text)]
            if spaces and rng.random() < 0.5:
                i = rng.choice(spaces)
            text = text[:i] + piece + rng.choice(("", " ")) + text[i:]
        elif edit == "replace":
            word = rng.choice(list(re.finditer(r"'?\w+", text)) or [re.match("", text)])
            text = text[: word.start()] + piece + text[word.end() :]
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            k = rng.randint(0, len(text))
            text = text[:k] + text[i:j] + text[k:]
    return text


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.idt"


def run(argv, stdin: str = "") -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = main(argv)
    return code, out.getvalue()


def assert_documented(code: int, out: str, located: bool):
    assert code in (0, 1, 2, 3), (code, out)
    if code == 3:
        assert any(m in out.splitlines()[-1] for m in LIMITS), out
    assert not any(m in out for m in INTERNAL), out
    if located and code in (1, 2):
        assert LOCATED.match(out), out


# seeds drawn by Hypothesis, the same ones on every run; a failure names its seed
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=SEEDS)
def test_check_of_a_mutated_file(source, seed):
    rng = random.Random(seed)
    source.write_text(mutated(rng, FILES), encoding="utf-8")
    assert_documented(*run([rng.choice(("check", "elab")), str(source)]), located=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_eval_of_a_mutated_expression(seed):
    expr = mutated(random.Random(seed), EXPRS)
    assert_documented(*run(["eval", "-e", expr, corpus_path("prelude.idt")]), located=True)


def repl_line(rng: random.Random) -> str:
    """An expression to evaluate, or a `:t` or `:eq` command."""
    e = mutated(rng, EXPRS)
    line = rng.choice((e, ":t " + e, f":eq {e} {mutated(rng, EXPRS)}"))
    return line.replace("\n", " ")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_repl_on_mutated_lines(seed):
    rng = random.Random(seed)
    script = "".join(repl_line(rng) + "\n" for _ in range(rng.randint(1, 4)))
    code, out = run(["repl", corpus_path("prelude.idt")], script)
    assert code in (0, 3)
    assert_documented(code, out, located=False)
