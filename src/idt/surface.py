"""Concrete syntax: lexer, parser and printer for the external language.

Layout is line-oriented: declarations and clauses are separated by newlines
(or semicolons); newlines inside parentheses and square brackets are
ignored. `by` bodies are brace-delimited.
"""

from __future__ import annotations

from typing import Optional, Union

from .record import Record, field


Span = tuple  # (line, col, end_line, end_col), 1-based


class ParseError(Exception):
    def __init__(self, msg: str, span: Span, expected=None):
        self.msg = msg
        self.span = span
        self.expected = expected or []
        super().__init__(f"{span[0]}:{span[1]}: {msg}")


# --- tokens -------------------------------------------------------------------

KEYWORDS = {
    "data", "where", "let", "by", "case", "rec", "deriving",
    "Set", "Set1", "Unit", "Enum", "refl",
}

PUNCT = ["=>", "->", "==", "(", ")", "[", "]", "{", "}", ":", ";", ",", ".", "\\", "=", "*"]


class Token(Record):
    kind: str  # NAME KW TAG NUM PUNCT SEP EOF
    text: str
    span: Span


def lex(src: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    depth = 0  # ( ) and [ ] nesting: newlines there are not separators

    def push(kind, text, l0, c0):
        toks.append(Token(kind, text, (l0, c0, line, col)))

    while i < n:
        c = src[i]
        if c == "\n":
            if depth == 0:
                if toks and toks[-1].kind not in ("SEP",):
                    push("SEP", "\n", line, col)
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
                col += 1
            continue
        l0, c0 = line, col
        if c == "'":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] in "_-"):
                j += 1
            if j == i + 1:
                raise ParseError("empty tag", (line, col, line, col + 1))
            text = src[i + 1 : j]
            col += j - i
            i = j
            push("TAG", text, l0, c0)
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            text = src[i:j]
            col += j - i
            i = j
            push("NUM", text, l0, c0)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            col += j - i
            i = j
            push("KW" if text in KEYWORDS else "NAME", text, l0, c0)
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                i += len(p)
                col += len(p)
                if p in "([":
                    depth += 1
                elif p in ")]":
                    depth = max(0, depth - 1)
                push("PUNCT", p, l0, c0)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", (line, col, line, col + 1))
    push("EOF", "", line, col)
    return toks


# --- external terms -----------------------------------------------------------


class ExtTerm(Record):
    pass


def _span_field():
    return field(default=None, compare=False)


class EVar(ExtTerm):
    name: str
    span: Span = _span_field()


class EApp(ExtTerm):
    fn: ExtTerm
    arg: ExtTerm
    span: Span = _span_field()


class ELam(ExtTerm):
    name: str
    body: ExtTerm
    span: Span = _span_field()


class EPi(ExtTerm):
    name: str
    dom: ExtTerm
    cod: ExtTerm
    span: Span = _span_field()


class ESigma(ExtTerm):
    name: str
    dom: ExtTerm
    cod: ExtTerm
    span: Span = _span_field()


class ESet(ExtTerm):
    level: int
    span: Span = _span_field()


class EUnit(ExtTerm):
    span: Span = _span_field()


class EParen(ExtTerm):
    """The empty tuple '()'. Non-empty parentheses are pure grouping; the
    tuple reading of an application spine is type-directed."""

    span: Span = _span_field()


class EEnumLit(ExtTerm):
    tags: tuple
    span: Span = _span_field()


class EAltsLit(ExtTerm):
    alts: tuple  # ((tag, expr), ...)
    span: Span = _span_field()


class ETag(ExtTerm):
    name: str
    span: Span = _span_field()


class EEnumT(ExtTerm):
    arg: ExtTerm
    span: Span = _span_field()


class EEq(ExtTerm):
    lhs: ExtTerm
    rhs: ExtTerm
    span: Span = _span_field()


class ERefl(ExtTerm):
    span: Span = _span_field()


class EAnn(ExtTerm):
    expr: ExtTerm
    ty: ExtTerm
    span: Span = _span_field()


class ENum(ExtTerm):
    value: int
    span: Span = _span_field()


# --- declarations ---------------------------------------------------------------


class IVar(Record):
    name: str
    span: Span = _span_field()


class IConstraint(Record):
    name: str
    value: ExtTerm
    span: Span = _span_field()


class IRefined(Record):
    ctor: str
    vars: tuple
    span: Span = _span_field()


class PVar(Record):
    name: str
    span: Span = _span_field()


class PIndex(Record):
    pat: Union[IVar, IConstraint, IRefined]
    span: Span = _span_field()


class HeadPattern(Record):
    name: str
    args: tuple  # PVar | PIndex
    span: Span = _span_field()


class CtorDecl(Record):
    name: str
    args: tuple  # ((name, ExtTerm), ...)
    span: Span = _span_field()


class Clause(Record):
    head: HeadPattern
    ctor: Optional[CtorDecl]
    by: Optional["ByBlock"]
    span: Span = _span_field()


class ByBlock(Record):
    kind: str  # "case" | "rec"
    var: str
    clauses: tuple
    span: Span = _span_field()


class DataDecl(Record):
    name: str
    params: tuple  # ((name, ExtTerm), ...)
    indices: tuple
    clauses: tuple
    deriving: tuple = ()
    span: Span = _span_field()


class ProgPatVar(Record):
    name: str
    span: Span = _span_field()


class ProgPatCon(Record):
    ctor: str
    vars: tuple
    span: Span = _span_field()


class ProgHead(Record):
    name: str
    pats: tuple
    span: Span = _span_field()


class PReturn(Record):
    head: ProgHead
    expr: ExtTerm
    span: Span = _span_field()


class PBy(Record):
    head: ProgHead
    kind: str
    var: str
    programs: tuple
    span: Span = _span_field()


Program = Union[PReturn, PBy]


class LetDecl(Record):
    name: str
    params: tuple  # ((name, ExtTerm), ...)
    ret: ExtTerm
    prog: Program
    span: Span = _span_field()


Decl = Union[DataDecl, LetDecl]


# --- parser ---------------------------------------------------------------------


class Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        j = self.pos + ahead
        return self.toks[j] if j < len(self.toks) else self.toks[-1]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "EOF":
            self.pos += 1
        return t

    def save(self) -> int:
        return self.pos

    def restore(self, p: int):
        self.pos = p

    def skip_seps(self):
        while self.peek().kind == "SEP":
            self.next()

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.text == text

    def expect_punct(self, text: str) -> Token:
        t = self.peek()
        if not self.at_punct(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span, [text])
        return self.next()

    def expect_kw(self, text: str) -> Token:
        t = self.peek()
        if not self.at_kw(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span, [text])
        return self.next()

    def expect_name(self) -> Token:
        t = self.peek()
        if t.kind != "NAME":
            raise ParseError(f"expected a name, found {t.text!r}", t.span, ["NAME"])
        return self.next()

    # -- expressions --

    def expr(self) -> ExtTerm:
        t = self.peek()
        if t.kind == "PUNCT" and t.text == "\\":
            self.next()
            names = [self.expect_name()]
            while self.peek().kind == "NAME":
                names.append(self.next())
            self.expect_punct(".")
            body = self.expr()
            for nt in reversed(names):
                body = ELam(nt.text, body, span=nt.span)
            return body
        # binder telescopes: ( x : A ) ... -> B   or   ( x : A ) * B
        if self.at_punct("("):
            p = self.save()
            groups = self._try_binder_groups()
            if groups is not None:
                if self.at_punct("->"):
                    self.next()
                    cod = self.expr()
                    for nm, dom, sp in reversed(groups):
                        cod = EPi(nm, dom, cod, span=sp)
                    return cod
                if self.at_punct("*") and len(groups) == 1:
                    self.next()
                    cod = self.expr()
                    nm, dom, sp = groups[0]
                    return ESigma(nm, dom, cod, span=sp)
            self.restore(p)
        return self.arrow()

    def _try_binder_groups(self):
        groups = []
        while self.at_punct("("):
            p = self.save()
            self.next()
            if self.peek().kind != "NAME" and self.peek().text != "_":
                self.restore(p)
                break
            names = []
            while self.peek().kind == "NAME":
                names.append(self.next())
            if not names or not self.at_punct(":"):
                self.restore(p)
                break
            self.next()
            dom = self.expr()
            if not self.at_punct(")"):
                self.restore(p)
                break
            self.next()
            for nt in names:
                groups.append((nt.text, dom, nt.span))
        if groups and (self.at_punct("->") or self.at_punct("*")):
            return groups
        return None

    def arrow(self) -> ExtTerm:
        lhs = self.times()
        if self.at_punct("=="):
            self.next()
            rhs = self.times()
            lhs = EEq(lhs, rhs, span=_espan(lhs))
        if self.at_punct("->"):
            self.next()
            cod = self.expr()
            return EPi("_", lhs, cod, span=_espan(lhs))
        return lhs

    def times(self) -> ExtTerm:
        lhs = self.app()
        if self.at_punct("*"):
            self.next()
            rhs = self.times()
            return ESigma("_", lhs, rhs, span=_espan(lhs))
        return lhs

    def app(self) -> ExtTerm:
        head = self.atom()
        while True:
            t = self.peek()
            if t.kind in ("NAME", "TAG", "NUM") or (
                t.kind == "PUNCT" and t.text in ("(", "{", "[")
            ) or (t.kind == "KW" and t.text in ("Set", "Set1", "Unit", "refl", "Enum")):
                arg = self.atom()
                head = EApp(head, arg, span=_espan(head))
            else:
                return head

    def atom(self) -> ExtTerm:
        t = self.peek()
        if t.kind == "NAME":
            self.next()
            return EVar(t.text, span=t.span)
        if t.kind == "TAG":
            self.next()
            return ETag(t.text, span=t.span)
        if t.kind == "NUM":
            self.next()
            return ENum(int(t.text), span=t.span)
        if t.kind == "KW":
            if t.text == "Set":
                self.next()
                return ESet(0, span=t.span)
            if t.text == "Set1":
                self.next()
                return ESet(1, span=t.span)
            if t.text == "Unit":
                self.next()
                return EUnit(span=t.span)
            if t.text == "refl":
                self.next()
                return ERefl(span=t.span)
            if t.text == "Enum":
                self.next()
                arg = self.atom()
                return EEnumT(arg, span=t.span)
            raise ParseError(f"unexpected keyword {t.text!r}", t.span)
        if self.at_punct("("):
            self.next()
            if self.at_punct(")"):
                close = self.next()
                return EParen(span=(t.span[0], t.span[1], close.span[2], close.span[3]))
            inner = self.expr()
            if self.at_punct(":"):
                self.next()
                ty = self.expr()
                close = self.expect_punct(")")
                return EAnn(inner, ty, span=(t.span[0], t.span[1], close.span[2], close.span[3]))
            self.expect_punct(")")
            return inner
        if self.at_punct("{"):
            self.next()
            tags = []
            self.skip_seps()
            if not self.at_punct("}"):
                while True:
                    self.skip_seps()
                    tt = self.peek()
                    if tt.kind == "TAG" or tt.kind == "NAME":
                        tags.append(self.next().text)
                    else:
                        raise ParseError("expected a tag", tt.span, ["TAG"])
                    self.skip_seps()
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
            self.skip_seps()
            close = self.expect_punct("}")
            return EEnumLit(tuple(tags), span=(t.span[0], t.span[1], close.span[2], close.span[3]))
        if self.at_punct("["):
            self.next()
            alts = []
            if not self.at_punct("]"):
                while True:
                    tt = self.peek()
                    if tt.kind in ("TAG", "NAME"):
                        tag = self.next().text
                    else:
                        raise ParseError("expected a tag", tt.span, ["TAG"])
                    self.expect_punct("->")
                    e = self.expr()
                    alts.append((tag, e))
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
            close = self.expect_punct("]")
            return EAltsLit(tuple(alts), span=(t.span[0], t.span[1], close.span[2], close.span[3]))
        raise ParseError(f"unexpected token {t.text!r}", t.span)

    # -- declarations --

    def file(self) -> list:
        decls = []
        self.skip_seps()
        while self.peek().kind != "EOF":
            decls.append(self.decl())
            self.skip_seps()
        return decls

    def decl(self) -> Decl:
        if self.at_kw("data"):
            return self.data_decl()
        if self.at_kw("let"):
            return self.let_decl()
        t = self.peek()
        raise ParseError(f"expected a declaration, found {t.text!r}", t.span, ["data", "let"])

    def _telescope(self, open_: str, close: str) -> tuple:
        """Binder groups `open_ x y : A close ...` as ((name, type), ...)."""
        out = []
        while self.at_punct(open_):
            self.next()
            names = [self.expect_name()]
            while self.peek().kind == "NAME":
                names.append(self.next())
            self.expect_punct(":")
            ty = self.expr()
            self.expect_punct(close)
            out.extend((nt.text, ty) for nt in names)
        return tuple(out)

    def data_decl(self) -> DataDecl:
        kw = self.expect_kw("data")
        name = self.expect_name()
        params = self._telescope("(", ")")
        indices = self._telescope("[", "]")
        self.expect_punct(":")
        self.expect_kw("Set")
        self.expect_kw("where")
        clauses = []
        while True:
            self.skip_seps()
            if self.peek().kind == "EOF" or self.at_kw("data") or self.at_kw("let") or self.at_kw("deriving"):
                break
            clauses.append(self.clause())
        deriving = []
        while self.at_kw("deriving"):
            self.next()
            deriving.append(self.expect_name().text)
            self.skip_seps()
        return DataDecl(
            name.text, params, indices, tuple(clauses), tuple(deriving), span=kw.span
        )

    def _by_block(self, item) -> tuple:
        """`by (case|rec) x { item ; ... }`, from `by`: (kind token, variable
        token, items)."""
        self.expect_kw("by")
        kindt = self.peek()
        if kindt.kind == "KW" and kindt.text in ("case", "rec"):
            self.next()
        else:
            raise ParseError("expected 'case' or 'rec'", kindt.span, ["case", "rec"])
        var = self.expect_name()
        items = []
        self.expect_punct("{")
        while True:
            self.skip_seps()
            if self.at_punct("}"):
                self.next()
                break
            items.append(item())
            self.skip_seps()
            if self.at_punct(";"):
                self.next()
        return kindt, var, tuple(items)

    def clause(self) -> Clause:
        head = self.head_pattern()
        if self.at_punct("=>"):
            self.next()
            ctor = self.ctor_decl()
            return Clause(head, ctor, None, span=head.span)
        if self.at_kw("by"):
            kindt, var, subs = self._by_block(self.clause)
            return Clause(head, None, ByBlock(kindt.text, var.text, subs, span=kindt.span), span=head.span)
        t = self.peek()
        raise ParseError(f"expected '=>' or 'by' in clause, found {t.text!r}", t.span, ["=>", "by"])

    def head_pattern(self) -> HeadPattern:
        name = self.expect_name()
        args = []
        while True:
            t = self.peek()
            if t.kind == "NAME":
                self.next()
                args.append(PVar(t.text, span=t.span))
            elif self.at_punct("["):
                self.next()
                first = self.expect_name()
                if self.at_punct("="):
                    self.next()
                    value = self.expr()
                    close = self.expect_punct("]")
                    args.append(PIndex(IConstraint(first.text, value, span=first.span), span=t.span))
                else:
                    vars_ = []
                    while self.peek().kind == "NAME":
                        vars_.append(self.next().text)
                    self.expect_punct("]")
                    if vars_:
                        args.append(PIndex(IRefined(first.text, tuple(vars_), span=first.span), span=t.span))
                    else:
                        args.append(PIndex(IVar(first.text, span=first.span), span=t.span))
            else:
                break
        return HeadPattern(name.text, tuple(args), span=name.span)

    def ctor_decl(self) -> CtorDecl:
        name = self.expect_name()
        return CtorDecl(name.text, self._telescope("(", ")"), span=name.span)

    def let_decl(self) -> LetDecl:
        kw = self.expect_kw("let")
        name = self.expect_name()
        params = self._telescope("(", ")")
        self.expect_punct(":")
        ret = self.expr()
        if self.at_punct("=>"):
            self.next()
            body = self.expr()
            head = ProgHead(name.text, tuple(ProgPatVar(nm) for nm, _ in params), span=name.span)
            return LetDecl(name.text, params, ret, PReturn(head, body, span=name.span), span=kw.span)
        self.expect_kw("where")
        self.skip_seps()
        prog = self.program()
        return LetDecl(name.text, params, ret, prog, span=kw.span)

    def program(self) -> Program:
        head = self.prog_head()
        if self.at_punct("=>"):
            self.next()
            body = self.expr()
            return PReturn(head, body, span=head.span)
        if self.at_kw("by"):
            kindt, var, progs = self._by_block(self.program)
            return PBy(head, kindt.text, var.text, progs, span=head.span)
        t = self.peek()
        raise ParseError(f"expected '=>' or 'by' in program, found {t.text!r}", t.span, ["=>", "by"])

    def prog_head(self) -> ProgHead:
        name = self.expect_name()
        pats = []
        while True:
            t = self.peek()
            if t.kind == "NAME":
                self.next()
                pats.append(ProgPatVar(t.text, span=t.span))
            elif self.at_punct("("):
                self.next()
                ctor = self.expect_name()
                vars_ = []
                while self.peek().kind == "NAME":
                    vars_.append(self.next().text)
                self.expect_punct(")")
                pats.append(ProgPatCon(ctor.text, tuple(vars_), span=ctor.span))
            else:
                break
        return ProgHead(name.text, tuple(pats), span=name.span)


def _espan(e: ExtTerm) -> Optional[Span]:
    return getattr(e, "span", None)


def parse_file(text: str) -> list:
    """Parse a source file into declarations."""
    return Parser(lex(text)).file()


def parse_expr(text: str) -> ExtTerm:
    p = Parser(lex(text))
    p.skip_seps()
    e = p.expr()
    p.skip_seps()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return e


# --- printer --------------------------------------------------------------------

_ATOM, _APP, _TIMES, _ARROW = 4, 3, 2, 1


def _p(e: ExtTerm, prec: int) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, ETag):
        return f"'{e.name}"
    if isinstance(e, ENum):
        return str(e.value)
    if isinstance(e, ESet):
        return "Set" if e.level == 0 else f"Set{e.level}"
    if isinstance(e, EUnit):
        return "Unit"
    if isinstance(e, ERefl):
        return "refl"
    if isinstance(e, EParen):
        return "()"
    if isinstance(e, EAnn):
        return f"({_p(e.expr, _ARROW)} : {_p(e.ty, _ARROW)})"
    if isinstance(e, EApp):
        s = f"{_p(e.fn, _APP)} {_p(e.arg, _ATOM)}"
        return f"({s})" if prec > _APP else s
    if isinstance(e, ELam):
        s = f"\\{e.name}. {_p(e.body, _ARROW)}"
        return f"({s})" if prec > _ARROW else s
    if isinstance(e, EPi):
        if e.name == "_":
            s = f"{_p(e.dom, _TIMES)} -> {_p(e.cod, _ARROW)}"
        else:
            s = f"({e.name} : {_p(e.dom, _ARROW)}) -> {_p(e.cod, _ARROW)}"
        return f"({s})" if prec > _ARROW else s
    if isinstance(e, ESigma):
        if e.name == "_":
            s = f"{_p(e.dom, _APP)} * {_p(e.cod, _TIMES)}"
        else:
            s = f"({e.name} : {_p(e.dom, _ARROW)}) * {_p(e.cod, _TIMES)}"
        return f"({s})" if prec > _TIMES else s
    if isinstance(e, EEq):
        s = f"{_p(e.lhs, _TIMES)} == {_p(e.rhs, _TIMES)}"
        return f"({s})" if prec > _ARROW else s
    if isinstance(e, EEnumT):
        s = f"Enum {_p(e.arg, _ATOM)}"
        return f"({s})" if prec > _APP else s
    if isinstance(e, EEnumLit):
        return "{" + ", ".join(f"'{t}" for t in e.tags) + "}"
    if isinstance(e, EAltsLit):
        return "[" + ", ".join(f"{t} -> {_p(x, _ARROW)}" for t, x in e.alts) + "]"
    raise TypeError(f"cannot print {type(e).__name__}")


def print_expr(e: ExtTerm) -> str:
    return _p(e, _ARROW)
