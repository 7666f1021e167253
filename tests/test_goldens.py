"""Byte-for-byte goldens of what elaboration builds.

Each corpus file that checks has its code dump (`idt elab`) pinned, and the
core term of every `data` and `let` definiens it elaborates, printed by
`pp.print_term` in the context where it is declared. Regenerate a golden by
running `python tests/test_goldens.py` from the repository root (it
rewrites the files, so review the diff).
"""

import contextlib
import io
import os
import sys

import pytest

from conftest import CORPUS, GOLDEN, corpus_path

from idt import cli
from idt import pp

# the corpus files that check: `bad.idt` is rejected
CHECKED = ("prelude.idt", "nat_tree_vec.idt", "vec_computed.idt", "vec_constrained.idt")
DEFINIENS = "corpus.definiens.txt"


def code_dump(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["elab", corpus_path(name)]) == 0
    return out.getvalue()


def definiens_dump() -> str:
    """`# <file>` and then `<name> = <definiens>` for each declaration of
    each checked corpus file, in order."""
    lines = []
    real_data, real_let = cli.D.elab_data, cli.L.elab_define

    def data(ctx, decl, trace=False):
        res = real_data(ctx, decl, trace)
        lines.append(f"{res.name} = {pp.print_term(res.definiens, ctx.names())}")
        return res

    def let(ctx, decl):
        definiens, ty = real_let(ctx, decl)
        lines.append(f"{decl.name} = {pp.print_term(definiens, ctx.names())}")
        return definiens, ty

    cli.D.elab_data, cli.L.elab_define = data, let
    try:
        for name in CHECKED:
            lines.append(f"# {name}")
            with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
                cli.Session().load_text(f.read())
    finally:
        cli.D.elab_data, cli.L.elab_define = real_data, real_let
    return "\n".join(lines) + "\n"


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("name", ["vec_computed.idt", "vec_constrained.idt"])
def test_code_dump_byte_matches_golden(name):
    assert code_dump(name) == _golden(name.replace(".idt", ".codes.txt"))


def test_every_corpus_definiens_byte_matches_golden():
    assert definiens_dump() == _golden(DEFINIENS)


if __name__ == "__main__":
    goldens = {n.replace(".idt", ".codes.txt"): code_dump(n) for n in ("vec_computed.idt", "vec_constrained.idt")}
    goldens[DEFINIENS] = definiens_dump()
    for fn, text in goldens.items():
        with open(os.path.join(GOLDEN, fn), "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote tests/golden/{fn}", file=sys.stderr)
