"""Derivation traces and error goal trails, pinned byte for byte."""

import contextlib
import io
import os

import pytest

from conftest import CORPUS, GOLDEN, ROOT

from idt.cli import main
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


NAT_TYPE = (
    "IMu (\\j. 'sigma {'zero, 'suc} (\\c. switch {'zero, 'suc} (\\_. IDesc Unit) "
    "('1 ('varI () '* '1)) c)) ()"
)


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
        f"{p}: error: 5:37: CheckMismatch: '()' against {NAT_TYPE}\n"
        f"  while checking () against {NAT_TYPE}\n"
        f"  while checking suc () against {NAT_TYPE}\n"
        "  while synthesizing x == suc ()\n"
    )


# --- the goal stack -------------------------------------------------------------------


def test_error_trails_leave_derivation_steps_out():
    el = Elaborator(trace=True)
    with el.goal("outer"), el.goal(lambda: "a step", "ElabData"), el.goal(lambda: "inner"):
        with pytest.raises(ElabError) as e:
            el.err("CheckMismatch", None, "msg")
    assert e.value.trail == ["outer", "inner"]
    assert el.goals == []


def test_tracing_records_derivation_steps_only():
    el = Elaborator(trace=True)
    with el.goal(lambda: "d", "ElabData"):
        with el.goal("plain"), el.goal(lambda: "c", "ElabConstr"):
            pass
        with el.goal(lambda: "e", "ElabEqs"):
            pass
    assert el.root.render() == "ElabData: d\n  ElabConstr: c\n  ElabEqs: e"


def test_goals_are_not_formatted_unless_read():
    def unformattable():
        raise AssertionError("formatted")

    el = Elaborator()
    with el.goal(unformattable, "ElabData"), el.goal(unformattable):
        pass
    assert el.root is None
