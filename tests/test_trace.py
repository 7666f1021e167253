"""Derivation traces and error goal trails, pinned byte for byte."""

import contextlib
import io
import os

import pytest

from conftest import CORPUS, GOLDEN, ROOT, load_session

from idt.cli import main, run_repl
from idt import surface as S
from idt.elab import ElabError, Elaborator

CORPUS_FILES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".idt"))


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_emit_trace_matches_golden(monkeypatch, name):
    # run from the repository root so the file's path in messages is relative
    monkeypatch.chdir(ROOT)
    code, out = run_main(["check", "--emit-trace", f"corpus/{name}"])
    assert code == (1 if name == "bad.idt" else 0)
    stem = name[: -len(".idt")]
    with open(os.path.join(GOLDEN, f"{stem}.trace.txt"), "r", encoding="utf-8") as f:
        assert out == f.read()


@pytest.mark.parametrize("flags", [[], ["--emit-trace"]], ids=["plain", "traced"])
def test_data_error_trail_has_goals_but_no_derivation_steps(tmp_path, flags):
    p = tmp_path / "foo.idt"
    p.write_text(
        "data Nat : Set where\n"
        "  Nat => zero\n"
        "  Nat => suc (n : Nat)\n"
        "data Foo : Set where\n"
        "  Foo => mk (x : Nat) (p : x == suc ())\n",
        encoding="utf-8",
    )
    code, out = run_main(["check"] + flags + [str(p)])
    assert code == 1
    assert out == (
        f"{p}: error: 5:37: CheckMismatch: '()' against Nat\n"
        "  while checking () against Nat\n"
        "  while checking suc () against Nat\n"
        "  while synthesizing x == suc ()\n"
    )


# --- trails through the handlers that catch an ElabError ----------------------------

# `idt check` after the prelude: one declaration and the report it prints. A
# trail lists the goals between where the error was raised and the outermost
# judgment; a handler that catches an error and raises it again, or raises
# another, must leave it so
CAUGHT_AND_RAISED = {
    # the one hypothesis of arity 2 is tried, and checking 'x fails inside it
    "recursive-call-after-a-rejected-attempt": (
        "let bad (a : Nat) (b : Nat) : Nat where\n"
        "  bad a b by rec a {\n    bad zero b => zero\n    bad (suc a') b => bad a' 'x\n  }\n",
        "4:23: NoMatchingHypothesis: recursive call to 'bad' does not match any hypothesis in scope\n"
        "  while synthesizing bad a' 'x\n"
        "  while checking bad a' 'x against Nat\n"
        "  while realizing the programming goal <bad (In (#1 , %x , %r)) b : Nat>\n"
        "  while realizing the programming goal <bad a b : Nat>",
    ),
    # `elab_by` locates the errors of the by-gadget at the clause head, and
    # they keep no trail (test_cli.py pins an `UnsupportedScrutinee`)
    "scrutinee-not-free": (
        "let f (n : Nat) : Nat where\n  f n by case true {\n    f n => zero\n  }\n",
        "2:3: ScrutineeNotFree: 'true' does not occur in the goal; the motive would be degenerate",
    ),
    "one-by-block-deep": (
        "let f (n : Nat) : Nat where\n  f n by case n {\n    f zero => 'x\n    f (suc k) => k\n  }\n",
        "3:15: CheckMismatch: tag against Nat\n"
        "  while checking 'x against Nat\n"
        "  while realizing the programming goal <f (In (#0 , %as)) : Nat>\n"
        "  while realizing the programming goal <f n : Nat>",
    ),
    "two-by-blocks-deep": (
        "let f (n : Nat) (m : Nat) : Nat where\n  f n m by case n {\n    f zero m => zero\n"
        "    f (suc k) m by case m {\n      f (suc k) zero => 'x\n      f (suc k) (suc j) => j\n    }\n  }\n",
        "5:25: CheckMismatch: tag against Nat\n"
        "  while checking 'x against Nat\n"
        "  while realizing the programming goal <f (In (#1 , %x , %r)) (In (#0 , %as)) : Nat>\n"
        "  while realizing the programming goal <f (In (#1 , %x , %r)) m : Nat>\n"
        "  while realizing the programming goal <f n m : Nat>",
    ),
    # `dataelab`'s derivation steps stay out of the trail of a field's type
    "bad-field-type-in-data": (
        "data D : Set where\n  D => c (x : plus 'a zero)\n",
        "2:20: CheckMismatch: tag against Nat\n"
        "  while checking 'a against Nat\n"
        "  while synthesizing plus 'a zero",
    ),
}


@pytest.mark.parametrize("src, msg", CAUGHT_AND_RAISED.values(), ids=CAUGHT_AND_RAISED.keys())
def test_trail_through_a_handler(tmp_path, src, msg):
    p = tmp_path / "d.idt"
    p.write_text(src, encoding="utf-8")
    code, out = run_main(["check", os.path.join(CORPUS, "prelude.idt"), str(p)])
    assert (code, out) == (1, f"{p}: error: {msg}\n")


def test_eq_command_trail_after_the_fallback_to_checking():
    # `zero` does not synthesise and checks at Nat, so 'x is checked there
    out = io.StringIO()
    assert run_repl([os.path.join(CORPUS, "prelude.idt")], stdin=io.StringIO(":eq zero 'x\n"), stdout=out) == 0
    assert out.getvalue().splitlines()[1:] == [
        "<repl>: error: 1:1: CheckMismatch: tag against Nat",
        "  while checking 'x against Nat",
    ]


# --- trails built on unwind and steps recorded only when tracing ---------------------


def test_trail_lists_the_goals_the_error_crossed():
    # checking `zero` was entered and left before 'x failed, and the
    # derivation step around the call is no goal: neither is in the trail
    sess = load_session("prelude.idt")
    el = Elaborator(trace=True)
    with el.goal(lambda: "d", "ElabData"):
        with pytest.raises(ElabError) as e:
            el.synth(sess.ctx, S.parse_expr("plus zero 'x"))
    assert e.value.trail == ["synthesizing plus zero 'x", "checking 'x against Nat"]
    assert el.root.render() == "ElabData: d" and el.steps == []


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_step_descriptions_are_called_only_when_tracing(monkeypatch, trace):
    entered, described = [], []
    goal = Elaborator.goal

    def probe(self, desc, rule):
        entered.append(rule)

        def counted():
            described.append(rule)
            return desc()

        return goal(self, counted, rule)

    monkeypatch.setattr(Elaborator, "goal", probe)
    for name in CORPUS_FILES:
        if name != "bad.idt":
            load_session(name, trace=trace)
    assert len(entered) > 100
    assert described == (entered if trace else [])


def test_goals_are_not_formatted_unless_read():
    def unformattable():
        raise AssertionError("formatted")

    el = Elaborator()
    with el.goal(unformattable, "ElabData"):
        with pytest.raises(ElabError) as e:
            el.err("CheckMismatch", None, unformattable)
    e.value.add_goal(unformattable)
    assert el.root is None and e.value.kind == "CheckMismatch"
