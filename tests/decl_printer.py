"""Printer of surface declarations, the right inverse of `surface.parse_file`
that the round-trip properties check."""

from idt import surface as S


def _print_tele_parens(tele: tuple) -> str:
    return "".join(f" ({nm} : {S.print_expr(ty)})" for nm, ty in tele)


def _print_head(h: S.HeadPattern) -> str:
    parts = [h.name]
    for a in h.args:
        if isinstance(a, S.PVar):
            parts.append(a.name)
        else:
            p = a.pat
            if isinstance(p, S.IVar):
                parts.append(f"[{p.name}]")
            elif isinstance(p, S.IConstraint):
                parts.append(f"[{p.name} = {S.print_expr(p.value)}]")
            else:
                parts.append("[" + " ".join((p.ctor,) + p.vars) + "]")
    return " ".join(parts)


def _print_clause(c: S.Clause, indent: int) -> str:
    pad = " " * indent
    head = _print_head(c.head)
    if c.ctor is not None:
        args = "".join(f" ({nm} : {S.print_expr(ty)})" for nm, ty in c.ctor.args)
        return f"{pad}{head} => {c.ctor.name}{args}"
    b = c.by
    sub = "\n".join(_print_clause(s, indent + 2) for s in b.clauses)
    return f"{pad}{head} by {b.kind} {b.var} {{\n{sub}\n{pad}}}"


def _print_prog(p: S.Program, indent: int) -> str:
    pad = " " * indent
    parts = [p.head.name]
    for pat in p.head.pats:
        if isinstance(pat, S.ProgPatVar):
            parts.append(pat.name)
        else:
            parts.append("(" + " ".join((pat.ctor,) + pat.vars) + ")")
    head = " ".join(parts)
    if isinstance(p, S.PReturn):
        return f"{pad}{head} => {S.print_expr(p.expr)}"
    sub = "\n".join(_print_prog(s, indent + 2) for s in p.programs)
    return f"{pad}{head} by {p.kind} {p.var} {{\n{sub}\n{pad}}}"


def print_decl(d: S.Decl) -> str:
    if isinstance(d, S.DataDecl):
        idx = "".join(f" [{nm} : {S.print_expr(ty)}]" for nm, ty in d.indices)
        lines = [f"data {d.name}{_print_tele_parens(d.params)}{idx} : Set where"]
        for c in d.clauses:
            lines.append(_print_clause(c, 2))
        for prop in d.deriving:
            lines.append(f"deriving {prop}")
        return "\n".join(lines)
    if isinstance(d, S.LetDecl):
        lines = [f"let {d.name}{_print_tele_parens(d.params)} : {S.print_expr(d.ret)} where"]
        lines.append(_print_prog(d.prog, 2))
        return "\n".join(lines)
    raise TypeError(f"cannot print {type(d).__name__}")


def print_file(decls: list) -> str:
    return "\n\n".join(print_decl(d) for d in decls) + "\n"
