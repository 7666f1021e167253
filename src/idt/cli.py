"""Driver: file checking, the declaration pipeline, evaluation and the REPL.

A `Session` keeps what it declares only in its context. `:eq` compares two
closed values of a datatype with a derived `Eq` by conversion.

`main` may be called any number of times in one process; it builds its
command-line parser at the first call and reuses it after that.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import dataelab as D
from . import desc
from . import generics as G
from . import kernel as K
from . import labels as L
from . import pp
from . import surface as S
from . import terms as T
from . import values as V
from .elab import ElabError, Elaborator, _nat_paths
from .kernel import Context, KernelError


class Session:
    def __init__(self, recheck: bool = True, trace: bool = False, show_codes: bool = False,
                 ctx: Optional[Context] = None):
        self.recheck = recheck
        self.trace = trace
        self.show_codes = show_codes
        self.ctx = Context() if ctx is None else ctx
        self.registry = G.DerivingRegistry()
        self.eq_procs = []  # the types with a derived `Eq`
        self.out = []

    def emit(self, line: str):
        self.out.append(line)

    def load_text(self, text: str):
        decls = S.parse_file(text)
        for d in decls:
            self.process_decl(d)

    def process_decl(self, d):
        if isinstance(d, S.DataDecl):
            self._declare_data(d)
        else:
            self._declare_let(d)

    def _declare_data(self, d: S.DataDecl):
        res = D.elab_data(self.ctx, d, trace=self.trace)
        tyv = self._recheck(res.definiens, res.ty, d.span)
        value = self.ctx.eval(res.definiens)
        if isinstance(value, V.VIMu) and res.closed:
            # a closed family: the value closes over its normal form, the
            # term that `by` blocks over the datatype share
            value = self.ctx.eval(self.ctx.quote(value))
        self.ctx = self.ctx.extend(res.name, tyv, value)
        if self.show_codes:
            self.emit(self._code_dump(res))
        if self.trace and res.trace is not None:
            self.emit(res.trace.render())
        for prop in d.deriving:
            self._derive(d, res, prop)

    def _opened_code(self, res: D.DataResult):
        """The context extended with the parameters and indices of `res`'s
        datatype, and its code there: the datatype's type and its value are
        opened at the same fresh variables."""
        _, entry = self.ctx.lookup(res.name)
        tel, tyv, applied = self.ctx, entry.ty, entry.val
        for nm in res.tel_names[1:]:
            assert isinstance(tyv, V.VPi)
            tel = tel.extend(nm, tyv.dom)
            x = V.fresh(tel.depth - 1)
            tyv, applied = tyv.cod(x), V.vapp(applied, x)
        assert isinstance(applied, V.VIMu)
        return tel, V.vapp(applied.fam, applied.index)

    def _code_dump(self, res: D.DataResult) -> str:
        tel, code = self._opened_code(res)
        binders = "".join(
            f" ({nm})" if i < res.n_params else f" [{nm}]"
            for i, nm in enumerate(res.tel_names[1:])
        )
        return f"{res.name}{binders} = {desc.print_code(tel, code, unindexed=res.n_indices == 0)}"

    def _derive(self, d: S.DataDecl, res: D.DataResult, prop: str):
        if res.n_indices > 0:
            raise ElabError(
                "DerivingUnsupported",
                d.span,
                f"deriving {prop} is restricted to datatypes without indices",
            )
        _, code = self._opened_code(res)
        try:
            self.registry.derive_for(prop, code)
        except G.GenericsError as e:
            raise ElabError("DerivingUnsupported", d.span, f"{res.name}: {e.msg}") from None
        if prop == "Eq" and res.n_params == 0:
            # a zero-parameter datatype's value is itself the type to compare at
            self.eq_procs.append(self.ctx.lookup(res.name)[1].val)

    def _declare_let(self, d: S.LetDecl):
        if self.ctx.lookup(d.name) is not None:
            raise ElabError("DuplicateName", d.span, f"'{d.name}' is already defined")
        definiens, tyt = L.elab_define(self.ctx, d)
        tyv = self._recheck(definiens, tyt, d.span)
        self.ctx = self.ctx.extend(d.name, tyv, self.ctx.eval(definiens))

    def _recheck(self, definiens: T.Term, ty: T.Term, span) -> V.Value:
        """The value of a declaration's type `ty` once the kernel has checked
        it and, when re-checking, `definiens` against it. A kernel error is
        located at the declaration, `span`."""
        try:
            tyv = K.check_entry_type(self.ctx, ty)
            if self.recheck:
                K.check(self.ctx, definiens, tyv)
        except KernelError as e:
            e.span = span
            raise
        return tyv

    # -- evaluation -------------------------------------------------------------

    def synth_expr(self, text: str):
        e = S.parse_expr(text)
        el = Elaborator()
        t, ty = el.synth(self.ctx, e)
        if self.recheck:
            K.check(self.ctx, t, ty)  # synthesis soundness, checked whenever re-checking is on
        return t, ty

    def eval_expr(self, text: str) -> str:
        t, ty = self.synth_expr(text)
        return self.render_term(t, ty)

    def type_of(self, text: str) -> str:
        _, ty = self.synth_expr(text)
        return pp.print_term(self.resugar(ty), self.ctx.names())

    def resugar(self, v: V.Value) -> T.Term:
        """`v` read back for display, naming the context's definitions."""
        return self.ctx.quote(v)

    def render_term(self, t: T.Term, ty: Optional[V.Value] = None) -> str:
        """The value of `t`: a numeral or a tag when it is one, else its
        normal form, printed with the context's definitions named."""
        v = self.ctx.eval(t)
        n = self._as_numeral(v, ty)
        if n is not None:
            return str(n)
        if isinstance(ty, V.VEnumT):
            tags = V.enum_tags(ty.enum)
            k = V.numeral_of(v)
            if tags is not None and k is not None and k < len(tags):
                return f"'{tags[k]}"
        return pp.print_term(self.resugar(v), self.ctx.names())

    def _as_numeral(self, v: V.Value, ty: Optional[V.Value]) -> Optional[int]:
        """The decimal literal that elaborates to `v`, a canonical value of
        a datatype whose `zero` and `suc` the elaborator's numerals build."""
        paths = _nat_paths(ty) if isinstance(v, V.VIn) else None
        if paths is None:
            return None
        zero, suc = paths
        n = 0
        while isinstance(v, V.VIn):
            fields = _after_tags(v.payload, suc)
            if not isinstance(fields, V.VPair):
                return n if _after_tags(v.payload, zero) is not None else None
            n += 1
            v = fields.fst
        return None

    def eq_command(self, t1: str, t2: str) -> str:
        """Decide whether two closed values of a type with a derived `Eq`
        are equal: they are when they are convertible. An expression that
        does not synthesise its type is tried at each such type in turn."""
        el = Elaborator()
        e1, e2 = S.parse_expr(t1), S.parse_expr(t2)
        try:
            tm1, ty = el.synth(self.ctx, e1)
        except ElabError:
            ty = None
        for tyv in self.eq_procs:
            if ty is None:
                try:
                    tm1, ty = el.check(self.ctx, e1, tyv), tyv
                except ElabError:
                    continue
            if K.conv(self.ctx, tyv, ty):
                break
        else:
            if ty is None:
                raise ElabError("CannotSynthesize", None, "cannot determine a type; annotate with (e : T)")
            raise ElabError("DerivingUnsupported", None, "no derived equality registered for this type")
        tm2 = el.check(self.ctx, e2, ty)
        a, b = self.ctx.eval(tm1), self.ctx.eval(tm2)
        return "equal" if K.conv(self.ctx, a, b) else "not-equal"


def _after_tags(payload: V.Value, path: list) -> Optional[V.Value]:
    """The fields of `payload` when its tags are the positions `path`."""
    for k in path:
        if not isinstance(payload, V.VPair) or V.numeral_of(payload.fst) != k:
            return None
        payload = payload.snd
    return payload


_USE_COLOR = None


def _color(s: str, code: str) -> str:
    """`s` in the colour `code` when reports go to a terminal (they are
    printed to stdout) and `NO_COLOR` is unset."""
    global _USE_COLOR
    if _USE_COLOR is None:
        _USE_COLOR = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    return f"\x1b[{code}m{s}\x1b[0m" if _USE_COLOR else s


def _report(path: str, err) -> str:
    head = _color("error", "31;1")
    if isinstance(err, ElabError):
        return f"{path}: {head}: {err.render()}"
    if isinstance(err, S.ParseError):
        return f"{path}:{err.span[0]}:{err.span[1]}: {head}: {err.msg}"
    if isinstance(err, KernelError) and err.span:
        return f"{path}:{err.span[0]}:{err.span[1]}: {head}: {err}"
    return f"{path}: {head}: {err}"


def _read_source(path: str) -> str:
    """The text of a UTF-8 source file; raises OSError or UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_files(sess: Session, paths, out) -> Optional[int]:
    """Load the source files `paths` into `sess` in order. On the first
    error, report it and return the exit code: 2 for a file that cannot be
    read or parsed, 1 for a declaration that does not check."""
    for path in paths:
        try:
            text = _read_source(path)
        except (OSError, UnicodeDecodeError) as e:
            print(_report(path, e), file=out)
            return 2
        try:
            sess.load_text(text)
        except S.ParseError as e:
            print(_report(path, e), file=out)
            return 2
        except (ElabError, KernelError) as e:
            print(_report(path, e), file=out)
            return 1
    return None


def run_check(paths, show_codes=False, trace=False, recheck=True, stdout=None) -> int:
    out = stdout or sys.stdout
    sess = Session(recheck=recheck, trace=trace, show_codes=show_codes)
    code = _load_files(sess, paths, out)
    if code is not None:
        return code
    for line in sess.out:
        print(line, file=out)
    print(f"checked {len(paths)} file(s), context has {sess.ctx.depth} entries", file=out)
    return 0


def run_eval(paths, expr: str, stdout=None) -> int:
    out = stdout or sys.stdout
    sess = Session()
    code = _load_files(sess, paths, out)
    if code is not None:
        return code
    try:
        print(sess.eval_expr(expr), file=out)
    except S.ParseError as e:
        print(_report("<expr>", e), file=out)
        return 2
    except (ElabError, KernelError) as e:
        print(_report("<expr>", e), file=out)
        return 1
    return 0


def run_repl(paths, stdin=None, stdout=None) -> int:
    out = stdout or sys.stdout
    sess = Session()
    code = _load_files(sess, paths, out)
    if code is not None:
        return code
    source = stdin or sys.stdin
    print("idt repl; :q quits, :t <e> types, :eq <a> <b> compares", file=out)
    for line in source:
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit"):
            break
        try:
            if line.startswith(":t "):
                print(sess.type_of(line[3:]), file=out)
            elif line.startswith(":eq "):
                parts = _split_two(line[4:])
                if parts is None:
                    print("usage: :eq <t1> <t2>", file=out)
                else:
                    print(sess.eq_command(*parts), file=out)
            elif line.startswith("data ") or line.startswith("let "):
                sess.load_text(line)
                print("ok", file=out)
            else:
                print(sess.eval_expr(line), file=out)
        except (S.ParseError, ElabError, KernelError) as e:
            print(_report("<repl>", e), file=out)
    return 0


def _split_two(s: str):
    """Split ':eq a b' arguments respecting parentheses."""
    depth = 0
    for i, c in enumerate(s):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == " " and depth == 0:
            a, b = s[:i].strip(), s[i:].strip()
            if a and b:
                return a, b
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The `idt` command line, built once: at the first `main` call, not at
    import, so that a process which never calls `main` never pays for it."""
    ap = argparse.ArgumentParser(prog="idt", description="small dependently-typed language")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="elaborate and check files")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--show-codes", action="store_true")
    p_check.add_argument("--emit-trace", action="store_true")
    p_check.add_argument("--no-recheck", action="store_true")

    p_elab = sub.add_parser("elab", help="check and dump datatype codes")
    p_elab.add_argument("files", nargs="+")
    p_elab.add_argument("--emit-trace", action="store_true")
    p_elab.add_argument("--no-recheck", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("-e", "--expr", required=True)
    p_eval.add_argument("files", nargs="*")

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("files", nargs="*")
    return ap


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        code = _run(ns)
        sys.stdout.flush()  # a reader that closed the pipe early fails it here
    except BrokenPipeError:
        # exit quietly; stdout now points at devnull, so that the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def _run(ns) -> int:
    try:
        if ns.cmd == "check":
            return run_check(ns.files, ns.show_codes, ns.emit_trace, not ns.no_recheck)
        if ns.cmd == "elab":
            return run_check(ns.files, True, ns.emit_trace, not ns.no_recheck)
        if ns.cmd == "eval":
            return run_eval(ns.files, ns.expr)
        if ns.cmd == "repl":
            return run_repl(ns.files)
    except RecursionError:
        # internal limits, not errors in the program: exit 3
        print(_report("idt", "input nested too deeply for the Python stack"))
        return 3
    except MemoryError:
        print(_report("idt", "out of memory"))
        return 3
    except V.EvalError as e:
        print(_report("idt", f"internal evaluation error: {e}"))
        return 3
    except AssertionError as e:
        detail = str(e).split("\n", 1)[0] or "assertion failed"
        print(_report("idt", f"internal invariant violated: {detail}"))
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
