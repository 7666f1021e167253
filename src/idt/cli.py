"""Driver: file checking, the declaration pipeline, evaluation and the REPL."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
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
from .elab import ElabError, Elaborator
from .kernel import Context, KernelError


@dataclass
class DataInfo:
    name: str
    n_params: int
    n_indices: int
    tags: list
    ty_value: V.Value
    value: V.Value


@dataclass
class Session:
    recheck: bool = True
    trace: bool = False
    show_codes: bool = False
    ctx: Context = field(default_factory=Context)
    datatypes: dict = field(default_factory=dict)
    registry: G.DerivingRegistry = field(default_factory=G.DerivingRegistry)
    eq_procs: dict = field(default_factory=dict)
    out: list = field(default_factory=list)

    def emit(self, line: str):
        self.out.append(line)

    def load_text(self, text: str, path: str = "<input>"):
        decls = S.parse_file(text)
        for d in decls:
            self.process_decl(d, path)

    def process_decl(self, d, path: str = "<input>"):
        if isinstance(d, S.DataDecl):
            self._declare_data(d)
        else:
            self._declare_let(d)

    def _declare_data(self, d: S.DataDecl):
        res = D.elab_data(self.ctx, d, trace=self.trace)
        tyv = K.check_entry_type(self.ctx, res.ty)
        if self.recheck:
            K.check(self.ctx, res.definiens, tyv)
        value = self.ctx.eval(res.definiens)
        self.ctx = self.ctx.extend(res.name, tyv, value)
        self.datatypes[res.name] = DataInfo(
            res.name, res.n_params, res.n_indices, res.tags, tyv, value
        )
        if self.show_codes:
            self.emit(self._code_dump(res))
        if self.trace and res.trace is not None:
            self.emit(res.trace.render())
        for prop in d.deriving:
            self._derive(d, res, prop)

    def _code_dump(self, res: D.DataResult) -> str:
        # rebuild the telescope context for printing
        ctx = self.ctx
        info = self.datatypes[res.name]
        head = res.name
        tel = ctx
        names = res.tel_names[1:]
        # reconstruct binders from the registered type
        tyv = info.ty_value
        shown = []
        for nm in names:
            assert isinstance(tyv, V.VPi)
            tel = tel.extend(nm, tyv.dom)
            tyv = tyv.cod(V.fresh(tel.depth - 1))
            shown.append(nm)
        applied = info.value
        for k in range(res.n_params + res.n_indices):
            lvl = ctx.depth + k
            applied = V.vapp(applied, V.fresh(lvl))
        assert isinstance(applied, V.VIMu)
        code_v = V.vapp(applied.fam, applied.index)
        code_t = V.quote(code_v, tel.depth)
        if res.n_indices == 0:
            code_t = desc.to_desc_code(code_t)
        binders = "".join(
            f" ({nm})" if i < res.n_params else f" [{nm}]"
            for i, nm in enumerate(shown)
        )
        return f"{head}{binders} = {desc.print_code(tel, code_t)}"

    def _derive(self, d: S.DataDecl, res: D.DataResult, prop: str):
        info = self.datatypes[res.name]
        if res.n_indices > 0:
            raise ElabError(
                "DerivingUnsupported",
                d.span,
                f"deriving {prop} is restricted to datatypes without indices",
            )
        applied = info.value
        for k in range(res.n_params):
            applied = V.vapp(applied, V.fresh(self.ctx.depth + k))
        assert isinstance(applied, V.VIMu)
        code_v = V.vapp(applied.fam, applied.index)
        try:
            artifact = self.registry.derive_for(prop, code_v)
        except G.GenericsError as e:
            raise ElabError("DerivingUnsupported", d.span, f"{res.name}: {e.msg}") from None
        if prop == "Eq" and res.n_params == 0:
            # a zero-parameter datatype's value is itself the type to compare at
            self.eq_procs[res.name] = (info.value, artifact)

    def _declare_let(self, d: S.LetDecl):
        if self.ctx.lookup(d.name) is not None:
            raise ElabError("DuplicateName", d.span, f"'{d.name}' is already defined")
        definiens, tyt = L.elab_define(self.ctx, d)
        tyv = K.check_entry_type(self.ctx, tyt)
        if self.recheck:
            K.check(self.ctx, definiens, tyv)
        self.ctx = self.ctx.extend(d.name, tyv, self.ctx.eval(definiens))

    # -- evaluation -------------------------------------------------------------

    def synth_expr(self, text: str):
        e = S.parse_expr(text)
        el = Elaborator()
        t, ty = el.synth(self.ctx, e)
        if self.recheck:
            K.check(self.ctx, t, ty)  # synthesis soundness, enforced in debug
        return t, ty

    def eval_expr(self, text: str) -> str:
        t, ty = self.synth_expr(text)
        nf = K.normalize(self.ctx, t)
        return self.render_term(nf, ty)

    def type_of(self, text: str) -> str:
        _, ty = self.synth_expr(text)
        t = self.resugar(V.quote(ty, self.ctx.depth))
        return pp.print_term(t, self.ctx.names())

    def resugar(self, t: T.Term) -> T.Term:
        """Fold context definitions back into names for display."""
        for ix in range(self.ctx.depth):
            entry = self.ctx.entry_at(ix)
            if entry.val is None or isinstance(entry.val, V.VNeutral):
                continue
            if isinstance(entry.val, (V.VIMu, V.VEnumT, V.VMu)):
                needle = V.quote(entry.val, self.ctx.depth)
                t = _replace_subterm(t, needle, T.Var(ix))
        return t

    def render_term(self, t: T.Term, ty: Optional[V.Value] = None) -> str:
        v = self.ctx.eval(t)
        n = self._as_numeral(v, ty)
        if n is not None:
            return str(n)
        if isinstance(ty, V.VEnumT):
            tags = V.enum_tags(ty.enum)
            k = V.numeral_of(v)
            if tags is not None and k is not None and k < len(tags):
                return f"'{tags[k]}"
        return pp.print_term(self.resugar(t), self.ctx.names())

    def _as_numeral(self, v: V.Value, ty: Optional[V.Value]) -> Optional[int]:
        """Decimal rendering for canonical values of a Nat-shaped datatype."""
        if not (isinstance(ty, V.VIMu) and isinstance(v, V.VIn)):
            return None
        code = V.vapp(ty.fam, ty.index)
        view = desc.sigma_view(code)
        if view is None or view[0] != ["zero", "suc"]:
            return None
        n = 0
        while True:
            if not isinstance(v, V.VIn) or not isinstance(v.payload, V.VPair):
                return None
            c = V.numeral_of(v.payload.fst)
            if c == 0 and isinstance(v.payload.snd, V.VVoid):
                return n
            if c == 1 and isinstance(v.payload.snd, V.VPair):
                n += 1
                v = v.payload.snd.fst
                continue
            return None

    def eq_command(self, t1: str, t2: str) -> str:
        el = Elaborator()
        e1, e2 = S.parse_expr(t1), S.parse_expr(t2)
        ty = None
        try:
            tm1, ty = el.synth(self.ctx, e1)
        except ElabError:
            tm1 = None
        if ty is None:
            for name, (tyv, _) in self.eq_procs.items():
                try:
                    tm1 = el.check(self.ctx, e1, tyv)
                    ty = tyv
                    break
                except ElabError:
                    continue
        if ty is None:
            raise ElabError("CannotSynthesize", None, "cannot determine a type; annotate with (e : T)")
        proc = None
        for name, (tyv, p) in self.eq_procs.items():
            if K.conv(self.ctx, tyv, ty):
                proc = p
                break
        if proc is None:
            raise ElabError(
                "DerivingUnsupported", None, "no derived equality registered for this type"
            )
        tm2 = el.check(self.ctx, e2, ty)
        a, b = self.ctx.eval(tm1), self.ctx.eval(tm2)
        return "equal" if proc(a, b) else "not-equal"


def _replace_subterm(t: T.Term, needle: T.Term, repl: T.Term) -> T.Term:
    body = L.abstract_subterm(t, needle)
    return T.subst_free(body, lambda j: repl if j == 0 else T.Var(j - 1))


_USE_COLOR = None


def _color(s: str, code: str) -> str:
    global _USE_COLOR
    if _USE_COLOR is None:
        _USE_COLOR = sys.stderr.isatty() and not os.environ.get("NO_COLOR") and not os.environ.get(
            "IDT_NO_COLOR"
        )
    return f"\x1b[{code}m{s}\x1b[0m" if _USE_COLOR else s


def _report(path: str, err) -> str:
    head = _color("error", "31;1")
    if isinstance(err, ElabError):
        return f"{path}: {head}: {err.render()}"
    if isinstance(err, S.ParseError):
        return f"{path}:{err.span[0]}:{err.span[1]}: {head}: {err.msg}"
    return f"{path}: {head}: {err}"


def _read_source(path: str) -> str:
    """The text of a UTF-8 source file; raises OSError or UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def run_check(paths, show_codes=False, trace=False, recheck=True, stdout=None) -> int:
    out = stdout or sys.stdout
    sess = Session(recheck=recheck, trace=trace, show_codes=show_codes)
    for path in paths:
        try:
            text = _read_source(path)
        except (OSError, UnicodeDecodeError) as e:
            print(_report(path, e), file=out)
            return 2
        try:
            sess.load_text(text, path)
        except S.ParseError as e:
            print(_report(path, e), file=out)
            return 2
        except ElabError as e:
            print(_report(path, e), file=out)
            return 1
        except (KernelError, G.GenericsError) as e:
            print(_report(path, e), file=out)
            return 1
    for line in sess.out:
        print(line, file=out)
    print(f"checked {len(paths)} file(s), context has {sess.ctx.depth} entries", file=out)
    return 0


def run_eval(paths, expr: str, stdout=None) -> int:
    out = stdout or sys.stdout
    sess = Session()
    for path in paths:
        try:
            text = _read_source(path)
        except (OSError, UnicodeDecodeError) as e:
            print(_report(path, e), file=out)
            return 2
        try:
            sess.load_text(text, path)
        except S.ParseError as e:
            print(_report(path, e), file=out)
            return 2
        except (ElabError, KernelError, G.GenericsError) as e:
            print(_report(path, e), file=out)
            return 1
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
    for path in paths:
        try:
            text = _read_source(path)
        except (OSError, UnicodeDecodeError) as e:
            print(_report(path, e), file=out)
            return 2
        try:
            sess.load_text(text, path)
        except (S.ParseError, ElabError, KernelError, G.GenericsError) as e:
            print(_report(path, e), file=out)
            return 1
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
        except (S.ParseError, ElabError, KernelError, G.GenericsError) as e:
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


def main(argv=None) -> int:
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

    ns = ap.parse_args(argv)
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
    except V.EvalError as e:
        print(_report("idt", f"internal evaluation error: {e}"))
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
