"""Driver behavior: exit codes, golden dumps, evaluation, the REPL."""

import io
import os
import subprocess
import sys
import time

import pytest

from conftest import GOLDEN, ROOT, context_valid, corpus_path, load_session, read_corpus

from idt import cli
from idt.cli import Session, main, run_check, run_eval, run_repl


def run_main(argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_check_corpus_exit_zero():
    code, out = run_main(["check", corpus_path("nat_tree_vec.idt")])
    assert code == 0
    assert "checked 1 file(s)" in out


def test_check_bad_exit_one_nonpositive(capsys):
    buf = io.StringIO()
    code = run_check([corpus_path("bad.idt")], stdout=buf)
    assert code == 1
    assert "NonPositive" in buf.getvalue()


class TtyIO(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize(
    "stdout_tty, stderr_tty, env, colored",
    [
        (True, False, {}, True),
        (False, True, {}, False),
        (True, True, {"NO_COLOR": "1"}, False),
        (True, False, {"IDT_NO_COLOR": "1"}, True),
    ],
    ids=["stdout-tty", "stderr-tty", "no-color", "old-alias-ignored"],
)
def test_error_colour_follows_stdout(monkeypatch, stdout_tty, stderr_tty, env, colored):
    # reports are printed to stdout, so whether stdout is a terminal decides
    monkeypatch.setattr(cli, "_USE_COLOR", None)
    for name in ("NO_COLOR", "IDT_NO_COLOR"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = TtyIO() if stdout_tty else io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", TtyIO() if stderr_tty else io.StringIO())
    assert main(["check", corpus_path("bad.idt")]) == 1
    assert (": \x1b[31;1merror\x1b[0m: " in out.getvalue()) == colored
    assert ("\x1b[" in out.getvalue()) == colored


def test_check_missing_file_exit_two():
    buf = io.StringIO()
    code = run_check([corpus_path("no_such_file.idt")], stdout=buf)
    assert code == 2


@pytest.mark.parametrize(
    "argv", [["check"], ["eval", "-e", "zero"], ["repl"]], ids=["check", "eval", "repl"]
)
def test_invalid_utf8_is_an_io_error(tmp_path, argv):
    p = tmp_path / "latin1.idt"
    p.write_bytes(b"let x : Set => Unit -- \xff\n")
    code, out = run_main(argv + [str(p)])
    assert code == 2
    assert out.count("\n") == 1
    assert out.startswith(f"{p}: error: ") and "can't decode byte 0xff" in out


@pytest.mark.parametrize(
    "argv", [["check"], ["eval", "-e", "zero"], ["repl"]], ids=["check", "eval", "repl"]
)
def test_parse_error_in_a_file_exits_two(tmp_path, argv):
    p = tmp_path / "broken.idt"
    p.write_text("data Nat : Set where\n  Nat => (\n")
    code, out = run_main(argv + [str(p)])
    assert code == 2
    assert out == f"{p}:2:10: error: expected a name, found '('\n"


def test_too_deep_input_exit_three():
    code, out = run_main(["eval", "-e", "plus 8000 8000", corpus_path("prelude.idt")])
    assert code == 3
    assert out.count("\n") == 1 and "nested too deeply" in out
    assert "Traceback" not in out


PRED = "let pred (m : Nat) : Nat where\n  pred m by case m {\n    pred zero => zero\n    pred (suc m') => m'\n  }\n"


def test_huge_numeral_is_refused_before_it_is_built(tmp_path):
    # no literal deeper than the recursion limit gets through the kernel's
    # check, so it is refused before its billion levels fill the memory
    p = tmp_path / "pred.idt"
    p.write_text(PRED)
    start = time.monotonic()
    code, out = run_main(["eval", "-e", "pred 1000000000", corpus_path("prelude.idt"), str(p)])
    assert time.monotonic() - start < 2
    assert (code, out) == (3, "idt: error: input nested too deeply for the Python stack\n")


def test_out_of_memory_exit_three(monkeypatch):
    def exhausted(self, text):
        raise MemoryError()

    monkeypatch.setattr(Session, "eval_expr", exhausted)
    code, out = run_main(["eval", "-e", "zero", corpus_path("prelude.idt")])
    assert (code, out) == (3, "idt: error: out of memory\n")
    assert "Traceback" not in out


def test_case_analysis_of_a_deep_numeral_does_not_recurse(tmp_path):
    # `pred` drops the hypotheses it never reads, so the stack does not grow
    # with the numeral; building them exhausted the stack here
    p = tmp_path / "pred.idt"
    p.write_text(PRED)
    code, out = run_main(["eval", "-e", "pred 2500", corpus_path("prelude.idt"), str(p)])
    assert (code, out) == (0, "2499\n")


def test_recursion_over_a_large_numeral_still_fits_the_stack():
    code, out = run_main(["eval", "-e", "plus 1000 1000", corpus_path("prelude.idt")])
    assert (code, out) == (0, "2000\n")


@pytest.mark.parametrize("msg", ["a broken invariant\nspanning lines", ""])
def test_internal_assertion_exit_three(monkeypatch, msg):
    def broken(self, text):
        raise AssertionError(msg)

    monkeypatch.setattr(Session, "eval_expr", broken)
    code, out = run_main(["eval", "-e", "zero", corpus_path("prelude.idt")])
    assert code == 3
    assert out.count("\n") == 1 and "internal invariant violated" in out
    assert "Traceback" not in out


def test_parse_error_exit_two(tmp_path):
    p = tmp_path / "broken.idt"
    p.write_text("data : where\n")
    buf = io.StringIO()
    code = run_check([str(p)], stdout=buf)
    assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 2),
        (["eval", corpus_path("prelude.idt")], 2),
        (["prove", corpus_path("prelude.idt")], 2),
        (["--help"], 0),
    ],
    ids=["no-subcommand", "eval-without-expr", "unknown-subcommand", "help"],
)
def test_usage_paths_leave_main_as_on_a_first_call(capsys, argv, code):
    # every call of main parses with the same parser; a usage error or
    # --help on the way prints the same text each time and changes nothing
    # for a later call
    def check_prelude():
        assert main(["check", corpus_path("prelude.idt")]) == 0
        return capsys.readouterr()

    first = check_prelude()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == code
        texts.append(capsys.readouterr())
    assert texts[0] == texts[1]
    shown, silent = (texts[0].out, texts[0].err) if code == 0 else (texts[0].err, texts[0].out)
    assert shown.startswith("usage: idt") and silent == ""
    assert check_prelude() == first


def test_main_builds_its_parser_once_per_process():
    # the parser is one ArgumentParser and one per subcommand: built at the
    # first call of main, not at import and not again
    script = """if True:
        import argparse, contextlib, io, sys
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import idt.cli
        on_import = len(built)
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()):
                assert idt.cli.main(["check", sys.argv[1]]) == 0
        print(on_import, len(built))
    """
    r = subprocess.run(
        [sys.executable, "-c", script, corpus_path("prelude.idt")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "5"]


def test_reader_closing_the_pipe_exits_two_quietly(tmp_path):
    # 2,000 datatypes dump ~110 KB, more than a pipe buffer holds, so idt is
    # still writing when the reader goes away
    p = tmp_path / "many.idt"
    p.write_text("".join(f"data D{i} : Set where\n  D{i} => a{i}\n  D{i} => b{i}\n\n" for i in range(2000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idt.cli", "elab", str(p)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.stdout.read(100).startswith(b"D0 = ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == b""


def test_show_codes_byte_matches_golden():
    buf = io.StringIO()
    code = run_check([corpus_path("nat_tree_vec.idt")], show_codes=True, stdout=buf)
    assert code == 0
    with open(os.path.join(GOLDEN, "nat_tree_vec.codes.txt"), "r", encoding="utf-8") as f:
        golden = f.read()
    assert buf.getvalue() == golden


def test_elab_alias_matches_show_codes():
    c1, o1 = run_main(["elab", corpus_path("nat_tree_vec.idt")])
    c2, o2 = run_main(["check", "--show-codes", corpus_path("nat_tree_vec.idt")])
    assert c1 == c2 == 0
    assert o1 == o2


def test_show_codes_prints_nested_indexed_codes_indexed(tmp_path):
    # a datatype without indices whose field is a constrained Vec: the dump
    # shows the Desc view of the codes at index type Unit (L's own and the
    # nested Nat's), while the nested Vec keeps its recursive position
    # 'varI (() , m) and its index type
    p = tmp_path / "vec_list.idt"
    p.write_text(
        read_corpus("vec_constrained.idt")
        + "\ndata L : Set where\n  L => nil\n  L => cons (n : Nat) (v : Vec Nat n) (xs : L)\n",
        encoding="utf-8",
    )
    code, out = run_main(["check", "--show-codes", str(p)])
    assert code == 0
    nat = "IMu (\\j{0}. 'sigma {{'zero, 'suc}} (\\c{0}. switch {{'zero, 'suc}} (\\_. Desc) ('1 ('var '* '1)) c{0})) ()"
    vec = (
        "IMu (\\j. 'sigma {'vnil, 'vcons} (\\c. switch {'vnil, 'vcons} "
        f"(\\_. IDesc (Unit * {nat.format(1)})) ('Sigma (snd j == 0) (\\_. '1) "
        f"'Sigma ({nat.format(1)}) (\\m. 'Sigma ({nat.format(1)}) "
        "(\\a. 'varI (() , m) '* 'Sigma (snd j == In (#1 m)) (\\_. '1)))) c)) (() , n)"
    )
    want = (
        f"L = 'sigma {{nil,cons}} [nil -> '1, cons -> 'Sigma ({nat.format('')}) "
        f"(\\n. 'Sigma ({vec}) (\\v. 'var '* '1))]"
    )
    assert out.splitlines()[-2:] == [want, "checked 1 file(s), context has 6 entries"]


BY_LABELS = (
    "\ndata M (A : Set) (B : Set) [n : Nat] [b : Bool] : Set where\n"
    "  M A B [n] [b] by case b {\n"
    "    M A B [n] [true] => mt (a : A)\n"
    "    M A B [n] [false] => mf (x : B) (k : Nat)\n"
    "  }\n"
    "data Q [b : Bool] [n : Nat] : Set where\n"
    "  Q [b] [n] by rec n {\n"
    "    Q [b] [zero] => qz\n"
    "    Q [b] [suc m] => qs (q : Q b m)\n"
    "  }\n"
    "data T (e : Enum {}) : Set where\n"
    "  T e by case e { }\n"
)


def test_show_codes_prints_by_labels_with_parameters_and_indices(tmp_path):
    # the label of a `by` block prints its parameters in parentheses and its
    # indices in brackets, in declaration order, in the call and the motives
    p = tmp_path / "by_labels.idt"
    p.write_text(read_corpus("prelude.idt") + BY_LABELS, encoding="utf-8")
    code, out = run_main(["check", "--show-codes", str(p)])
    assert code == 0
    with open(os.path.join(GOLDEN, "by_labels.codes.txt"), "r", encoding="utf-8") as f:
        assert out == f.read()
    m, q, t = out.splitlines()[1:4]
    assert m.startswith("M (A) (B) [n] [b] = 'sigma {elim} [elim -> (call <M (A) (B) [n] [b]> (switch ")
    assert "(\\b1. <M (A) (B) [n] [b1]>)" in m
    assert q.startswith("Q [b] [n] = 'sigma {elim} [elim -> (call <Q [b] [n]> (iinduction ")
    assert "(\\p. <Q [b] [snd p]>)" in q
    assert t == "T (e) = 'sigma {elim} [elim -> (call <T (e)> (switch {} (\\e1. <T (e1)>) () e))]"
    assert run_main(["elab", str(p)]) == (code, out)


def test_determinism_byte_identical():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        run_check(
            [corpus_path("nat_tree_vec.idt")], show_codes=True, trace=True, stdout=buf
        )
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_eval_plus():
    buf = io.StringIO()
    code = run_eval([corpus_path("prelude.idt")], "plus 2 3", stdout=buf)
    assert code == 0
    assert buf.getvalue().strip() == "5"


def test_eval_type_error_exit_one():
    buf = io.StringIO()
    code = run_eval([corpus_path("prelude.idt")], "plus plus", stdout=buf)
    assert code == 1


def test_no_recheck_flag():
    buf = io.StringIO()
    code = run_check([corpus_path("nat_tree_vec.idt")], recheck=False, stdout=buf)
    assert code == 0


ISNIL = (
    "\nlet isNil (A : Set) (n : Nat) (v : Vec A n) : Bool where\n"
    "  isNil A n v by case v {\n"
    "    isNil A n (vnil q) => 'true\n"
    "    isNil A n (vcons m a vs q) => 'false\n"
    "  }\n"
)


def test_recheck_rejects_case_over_a_constrained_index(tmp_path):
    # `by case` over a constraint-style Vec elaborates to an ill-typed branch;
    # only the kernel's re-check stops it
    p = tmp_path / "isnil.idt"
    p.write_text(read_corpus("vec_constrained.idt") + ISNIL, encoding="utf-8")
    code, out = run_main(["check", "--no-recheck", str(p)])
    assert code == 0, out
    code, out = run_main(["check", str(p)])
    assert code == 1
    assert out.count("\n") == 1
    # located at the `let isNil` declaration, as a parse error is
    line = read_corpus("vec_constrained.idt").count("\n") + 2
    assert out.startswith(f"{p}:{line}:1: error: TypeMismatch: expected ")
    assert "Traceback" not in out


def test_kernel_message_prints_terms(tmp_path):
    # the re-check's rejection of the same program prints its terms as the
    # printer does, with the context's names, on one short line
    p = tmp_path / "isnil.idt"
    p.write_text(read_corpus("vec_constrained.idt") + ISNIL, encoding="utf-8")
    code, out = run_main(["check", str(p)])
    assert code == 1
    assert out.count("\n") == 1 and len(out.encode()) < 1000
    assert "IMu(" not in out
    # the expected type names Vec; the index `fst p` is not a pair, so the
    # type found unfolds
    assert ": TypeMismatch: expected Vec A n, got IMu (" in out
    assert out.rstrip().endswith("'Sigma (snd j == In (#1 m)) (\\_. '1)))) c)) (fst p)")


@pytest.mark.parametrize(
    "enum, branches",
    [("{}", "{ }"), ("{'t}", "{\n    W e [n] => w\n  }")],
    ids=["no-branches", "branches"],
)
def test_by_clause_head_constraint_rejected(tmp_path, enum, branches):
    p = tmp_path / "w.idt"
    p.write_text(
        read_corpus("prelude.idt")
        + f"\ndata W (e : Enum {enum}) [n : Nat] : Set where\n  W e [n = zero] by case e {branches}\n",
        encoding="utf-8",
    )
    code, out = run_main(["check", str(p)])
    assert code == 1
    assert out == f"{p}: error: 21:3: PatternHeadMismatch: a 'by' clause head cannot constrain an index\n"


# declarations that no corpus file gets wrong, each checked after the prelude
# as a file of its own, with the one located line `idt check` prints
UNREACHED_ERRORS = {
    "parameter-level": (
        "data D (F : Set1 -> Set1) : Set where\n  D F => c\n",
        "1:13: CheckMismatch: parameter types must live in Set or Set1",
    ),
    "index-level": (
        "data D [A : Set] : Set where\n  D [A] => c\n",
        "1:13: CheckMismatch: index types must live in Set",
    ),
    "dependent-index": (
        "data D [n : Nat] [p : n == n] : Set where\n  D [n] [p] => c\n",
        "1:23: CheckMismatch: an index type may not depend on earlier indices",
    ),
    "argument-level": (
        "data D : Set where\n  D => c (A : Set)\n",
        "2:15: CheckMismatch: constructor arguments must live in Set",
    ),
    "argument-domain-level": (
        "data D : Set where\n  D => c (f : Set -> D)\n",
        "2:15: CheckMismatch: argument domains must live in Set",
    ),
    "index-without-brackets": (
        "data D (A : Set) [n : Nat] : Set where\n  D A n => c\n",
        "2:7: PatternHeadMismatch: index position 1 must be written in brackets",
    ),
    "parameter-in-brackets": (
        "data D (A : Set) [n : Nat] : Set where\n  D [A] [n] => c\n",
        "2:5: PatternHeadMismatch: position 0 is a parameter and must repeat the declared variable",
    ),
    "invalid-constructor-name": (
        "data T : Set where\n  T => c'\n",
        "2:8: UnknownTag: invalid constructor name 'c''",
    ),
    "unknown-scrutinee": (
        "let f (n : Nat) : Nat where\n  f n by case zz {\n    f zero => zero\n  }\n",
        "2:3: UnsupportedScrutinee: unknown scrutinee 'zz'",
    ),
    "branch-of-no-constructor": (
        "let f (n : Nat) : Nat where\n  f n by case n {\n"
        "    f zero => zero\n    f (suc m) => m\n    f (foo m) => m\n  }\n",
        "5:5: PatternHeadMismatch: branch 'f' matches no constructor of the scrutinee",
    ),
}


@pytest.mark.parametrize("src, msg", UNREACHED_ERRORS.values(), ids=UNREACHED_ERRORS.keys())
def test_located_error_after_the_prelude(tmp_path, src, msg):
    p = tmp_path / "d.idt"
    p.write_text(src, encoding="utf-8")
    code, out = run_main(["check", corpus_path("prelude.idt"), str(p)])
    assert code == 1
    assert out == f"{p}: error: {msg}\n"


# `idt eval -e` after the prelude: what it prints for expressions that
# synthesise a tag or an enumeration, and its located message for ones that
# do not elaborate
EVAL_AFTER_PRELUDE = {
    "tag": ("'a", 0, "'a"),
    "enumeration": ("{'a, 'b}", 0, "{'a, 'b}"),
    "equality-of-types": (
        "Nat == Nat",
        1,
        "1:1: CannotSynthesize: propositional equality is between values\n  while synthesizing Nat == Nat",
    ),
    "enumeration-at-a-datatype": (
        "({'a} : Nat)",
        1,
        "1:2: CheckMismatch: enumeration against Nat\n"
        "  while checking {'a} against Nat\n  while synthesizing ({'a} : Nat)",
    ),
    "refl-at-a-datatype": (
        "(refl : Nat)",
        1,
        "1:2: CheckMismatch: refl against Nat\n  while checking refl against Nat\n  while synthesizing (refl : Nat)",
    ),
    "eliminator-at-a-datatype": (
        "([a -> zero] : Nat)",
        1,
        "1:2: CheckMismatch: eliminator literal against Nat\n"
        "  while checking [a -> zero] against Nat\n  while synthesizing ([a -> zero] : Nat)",
    ),
    "empty-tuple-at-a-pair": (
        "(() : Nat * Nat)",
        1,
        "1:2: BadTupleArity: missing components against a pair type\n"
        "  while checking () against Nat * Nat\n  while synthesizing (() : Nat * Nat)",
    ),
    "tuple-missing-a-component": (
        "(zero zero : Nat * Nat * Nat)",
        1,
        "1:2: BadTupleArity: missing component against a pair type\n"
        "  while checking zero zero against Nat * Nat * Nat\n  while synthesizing (zero zero : Nat * Nat * Nat)",
    ),
    "tuple-with-too-many-components": (
        "(zero zero zero : Nat * Nat)",
        1,
        "1:2: BadTupleArity: too many components\n"
        "  while checking zero zero zero against Nat * Nat\n  while synthesizing (zero zero zero : Nat * Nat)",
    ),
    "annotation-not-a-type": (
        "(zero : plus)",
        1,
        "1:9: CheckMismatch: expected a type, got something of type Nat -> Nat -> Nat\n"
        "  while synthesizing (zero : plus)",
    ),
}


@pytest.mark.parametrize("expr, code, text", EVAL_AFTER_PRELUDE.values(), ids=EVAL_AFTER_PRELUDE.keys())
def test_eval_after_the_prelude(expr, code, text):
    got = run_main(["eval", "-e", expr, corpus_path("prelude.idt")])
    assert got == (code, (f"<expr>: error: {text}" if code else text) + "\n")


def test_code_dump_primes_a_binder_that_shadows_a_definition(tmp_path):
    p = tmp_path / "t.idt"
    p.write_text("data T : Set where\n  T => mk (Nat : Enum {'a})\n", encoding="utf-8")
    code, out = run_main(["elab", corpus_path("prelude.idt"), str(p)])
    assert code == 0
    assert "T = 'sigma {mk} [mk -> 'Sigma (Enum {'a}) (\\Nat'. '1)]\n" in out


# programs over `Vec` of corpus/vec_computed.idt, whose code at an index
# `n` is stuck on `n` below its one constructor `elim`: the first line
# `idt check` prints, cut where it would print that code
COMPUTED_INDEX_ERRORS = {
    "case-on-a-stuck-code": (
        "let isNil (A : Set) (n : Nat) (v : Vec A n) : Bool where\n"
        "  isNil A n v by case v {\n    isNil A n vnil => 'true\n    isNil A n (vcons a vs) => 'false\n  }\n",
        "2:3: UnsupportedScrutinee: constructor code is not canonical",
    ),
    "elim-at-a-stuck-index": (
        "let f (A : Set) (n : Nat) : Vec A n => elim\n",
        "1:40: BadTupleArity: constructor arity mismatch (0 argument(s) left for interpI (call <Vec (A) [n]> ",
    ),
    "elim-applied-at-a-stuck-index": (
        "let f (A : Set) (n : Nat) (y : Nat) : Vec A n => elim y\n",
        "1:55: CheckMismatch: expected interpI (call <Vec (A) [n]> ",
    ),
}


@pytest.mark.parametrize("src, msg", COMPUTED_INDEX_ERRORS.values(), ids=COMPUTED_INDEX_ERRORS.keys())
def test_located_error_over_a_computed_index(tmp_path, src, msg):
    p = tmp_path / "d.idt"
    p.write_text(src, encoding="utf-8")
    code, out = run_main(["check", corpus_path("vec_computed.idt"), str(p)])
    assert code == 1
    assert out.splitlines()[0].startswith(f"{p}: error: {msg}")


def test_eval_parse_error_exit_two():
    code, out = run_main(["eval", "-e", "plus (", corpus_path("prelude.idt")])
    assert (code, out) == (2, "<expr>:1:7: error: unexpected token ''\n")


def test_repl_skips_blank_lines_and_pins_eq_usage():
    buf = io.StringIO()
    assert run_repl([corpus_path("prelude.idt")], stdin=io.StringIO("\n:eq zero\n:q\n"), stdout=buf) == 0
    assert buf.getvalue().splitlines()[1:] == ["usage: :eq <t1> <t2>"]


def test_repl_eq_errors():
    src = io.StringIO(":eq (\\x. x) (\\x. x)\n:eq true true\n")
    buf = io.StringIO()
    assert run_repl([corpus_path("prelude.idt")], stdin=src, stdout=buf) == 0
    assert buf.getvalue().splitlines()[1:] == [
        "<repl>: error: CannotSynthesize: cannot determine a type; annotate with (e : T)",
        "<repl>: error: DerivingUnsupported: no derived equality registered for this type",
    ]


def test_repl_commands():
    src = io.StringIO(
        ":t plus\n"
        "plus 4 4\n"
        ":eq (suc zero) (suc zero)\n"
        ":eq 2 3\n"
        ":t vnil\n"
        "let three : Nat => 3\n"
        "three\n"
        ":q\n"
    )
    buf = io.StringIO()
    code = run_repl([corpus_path("prelude.idt")], stdin=src, stdout=buf)
    assert code == 0
    lines = buf.getvalue().splitlines()
    assert "Nat -> Nat -> Nat" in lines
    assert "8" in lines
    assert "equal" in lines
    assert "not-equal" in lines
    assert any("CannotSynthesize" in l and "annotate" in l for l in lines)
    assert "3" in lines


def test_repl_type_folds_definitions_into_names(tmp_path):
    # `:t` prints a type with the context's definitions named: an instance of
    # a parameterised or indexed datatype as `D ps is`, an alias by its name
    p = tmp_path / "tree_vec.idt"
    p.write_text(
        "data Tree (A : Set) : Set where\n"
        "  Tree A => leaf\n"
        "  Tree A => node (l : Tree A) (a : A) (r : Tree A)\n"
        "data Vec (A : Set) [n : Nat] : Set where\n"
        "  Vec A [n = zero] => vnil\n"
        "  Vec A [n = suc m] => vcons (m : Nat) (a : A) (vs : Vec A m)\n"
        "let TN : Set => Tree Nat\n",
        encoding="utf-8",
    )
    src = io.StringIO(":t (leaf : Tree Nat)\n:t (vnil : Vec Bool 0)\n:t (leaf : TN)\n:q\n")
    buf = io.StringIO()
    code = run_repl([corpus_path("prelude.idt"), str(p)], stdin=src, stdout=buf)
    assert code == 0
    assert buf.getvalue().splitlines()[1:] == ["Tree Nat", "Vec Bool 0", "TN"]


def test_repl_type_folds_an_alias_before_a_later_alias_of_its_part():
    # a name goes with an object: a later alias of Nat does not break TN up,
    # and names the Nat inside a `Tree Nat` built afresh
    sess = load_session("nat_tree_vec.idt")
    sess.load_text("let TN : Set => Tree Nat\nlet N2 : Set => Nat\n")
    assert sess.type_of("(leaf : TN)") == "TN"
    assert sess.type_of("(zero : Nat)") == "N2"
    assert sess.type_of("(leaf : Tree Nat)") == "Tree N2"


def test_repl_display_matches_golden():
    # the golden is a transcript: each `> command` line is followed by the
    # one line the REPL prints for it, over corpus/nat_tree_vec.idt
    with open(os.path.join(GOLDEN, "nat_tree_vec.repl.txt"), encoding="utf-8") as f:
        golden = f.read()
    cmds = [l[2:] for l in golden.splitlines() if l.startswith("> ")]
    buf = io.StringIO()
    code = run_repl([corpus_path("nat_tree_vec.idt")], stdin=io.StringIO("\n".join(cmds) + "\n"), stdout=buf)
    assert code == 0
    answers = buf.getvalue().splitlines()[1:]
    assert len(answers) == len(cmds)
    assert "".join(f"> {c}\n{a}\n" for c, a in zip(cmds, answers)) == golden


def test_session_context_rechecks_from_scratch():
    sess = load_session("prelude.idt")
    assert context_valid(sess.ctx)


def test_emit_trace_output():
    buf = io.StringIO()
    code = run_check([corpus_path("vec_computed.idt")], trace=True, stdout=buf)
    assert code == 0
    out = buf.getvalue()
    assert "ElabData" in out and "ElabEWM" in out


def test_files_processed_in_order_no_forward_refs(tmp_path):
    p = tmp_path / "fwd.idt"
    p.write_text("let x : Nat => 0\n\ndata Nat : Set where\n  Nat => zero\n")
    buf = io.StringIO()
    code = run_check([str(p)], stdout=buf)
    assert code == 1  # Nat is not yet defined when x is elaborated


def test_multiple_files_share_one_context(tmp_path):
    p = tmp_path / "uses_plus.idt"
    p.write_text("let six : Nat => plus 4 2\n")
    buf = io.StringIO()
    code = run_check([corpus_path("prelude.idt"), str(p)], stdout=buf)
    assert code == 0
    buf2 = io.StringIO()
    assert run_eval([corpus_path("prelude.idt"), str(p)], "six", stdout=buf2) == 0
    assert buf2.getvalue().strip() == "6"
