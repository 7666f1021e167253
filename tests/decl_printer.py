"""Printer of surface declarations, the right inverse of `surface.parse_file`
that the round-trip properties check."""

from idt import surface as S


def _print_tele_parens(tele: tuple) -> str:
    return "".join(f" ({nm} : {S.print_expr(ty)})" for nm, ty in tele)


def _words(p) -> str:
    return p.name if isinstance(p, S.PVar) else " ".join((p.ctor,) + p.vars)


def _print_pat(p) -> str:
    if isinstance(p, S.PIndex):
        q = p.pat
        return f"[{q.name} = {S.print_expr(q.value)}]" if isinstance(q, S.PConstraint) else f"[{_words(q)}]"
    return p.name if isinstance(p, S.PVar) else f"({_words(p)})"


def _print_clause(c: S.Clause, indent: int) -> str:
    pad = " " * indent
    head = " ".join([c.head.name] + [_print_pat(p) for p in c.head.pats])
    b = c.body
    if isinstance(b, S.CtorDecl):
        return f"{pad}{head} => {b.name}{_print_tele_parens(b.args)}"
    if not isinstance(b, S.ByBlock):
        return f"{pad}{head} => {S.print_expr(b)}"
    sub = "\n".join(_print_clause(s, indent + 2) for s in b.clauses)
    return f"{pad}{head} by {b.kind} {b.var} {{\n{sub}\n{pad}}}"


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
        lines.append(_print_clause(d.prog, 2))
        return "\n".join(lines)
    raise TypeError(f"cannot print {type(d).__name__}")


def print_file(decls: list) -> str:
    return "\n\n".join(print_decl(d) for d in decls) + "\n"
