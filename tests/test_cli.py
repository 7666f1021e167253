"""Driver behavior: exit codes, golden dumps, evaluation, the REPL."""

import io
import os

import pytest

from conftest import GOLDEN, corpus_path, load_session

from idt import kernel as K
from idt.cli import main, run_check, run_eval, run_repl


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


def test_too_deep_input_exit_three():
    code, out = run_main(["eval", "-e", "plus 3000 3000", corpus_path("prelude.idt")])
    assert code == 3
    assert out.count("\n") == 1 and "nested too deeply" in out
    assert "Traceback" not in out


def test_parse_error_exit_two(tmp_path):
    p = tmp_path / "broken.idt"
    p.write_text("data : where\n")
    buf = io.StringIO()
    code = run_check([str(p)], stdout=buf)
    assert code == 2


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


def test_session_context_rechecks_from_scratch():
    sess = load_session("prelude.idt")
    assert K.context_valid(sess.ctx)


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
