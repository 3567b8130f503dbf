"""A small Prolog reader.

Supports the subset the examples and benches need:

- facts and rules: ``parent(tom, bob).``, ``anc(X,Z) :- parent(X,Y), anc(Y,Z).``
- queries: ``?- anc(tom, Who).`` (the ``?-`` is optional in
  :func:`parse_query`)
- atoms, integers/floats, variables (leading uppercase or ``_``),
  compound terms, lists ``[a, b | T]``
- operators: ``:-``, ``,``, ``;``, ``\\+``, comparison/arithmetic
  (``= \\= == \\== < > =< >= is =:= =\\= + - * / // mod``)
- ``%`` line comments
"""

from __future__ import annotations

import re
from typing import Iterator

from apps.prolog.database import Clause
from apps.prolog.terms import Atom, NIL, Num, Struct, Term, Var, make_list
from apps.errors import PrologSyntaxError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<num>\d+\.\d+|\d+)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<punct>\?-|:-|=\\=|=:=|\\==|=<|>=|\\=|==|is\b|mod\b|//|\\\+|[()\[\],|.;=<>+\-*/])
    """,
    re.VERBOSE,
)

#: infix operators: symbol -> (precedence, right_associative)
_INFIX: dict[str, tuple[int, bool]] = {
    ":-": (1200, False),
    ";": (1100, True),
    ",": (1000, True),
    "=": (700, False),
    "\\=": (700, False),
    "==": (700, False),
    "\\==": (700, False),
    "<": (700, False),
    ">": (700, False),
    "=<": (700, False),
    ">=": (700, False),
    "is": (700, False),
    "=:=": (700, False),
    "=\\=": (700, False),
    "+": (500, False),
    "-": (500, False),
    "*": (400, False),
    "/": (400, False),
    "//": (400, False),
    "mod": (400, False),
}

_ARG_PRECEDENCE = 999  # arguments and list items bind tighter than ','


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PrologSyntaxError(f"unexpected character {text[pos]!r}", column=pos)
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        token_text = match.group()
        if kind == "name" and token_text in ("is", "mod"):
            kind = "punct"  # word operators
        yield _Token(kind, token_text, match.start())
    yield _Token("eof", "", pos)


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.index = 0

    # -- token plumbing ------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise PrologSyntaxError(
                f"expected {text!r}, found {token.text!r}", column=token.pos
            )
        return token

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # -- expressions ------------------------------------------------------
    def parse(self, max_prec: int = 1200) -> Term:
        left = self.parse_primary()
        while True:
            token = self.peek()
            op = _INFIX.get(token.text) if token.kind == "punct" else None
            if op is None:
                return left
            prec, right_assoc = op
            if prec > max_prec:
                return left
            self.next()
            right = self.parse(prec if right_assoc else prec - 1)
            left = Struct(token.text, (left, right))

    def parse_primary(self) -> Term:
        token = self.next()
        if token.kind == "num":
            return Num(float(token.text) if "." in token.text else int(token.text))
        if token.kind == "var":
            if token.text == "_":
                # each _ is a distinct anonymous variable
                return Var(f"_G{token.pos}")
            return Var(token.text)
        if token.kind == "name":
            if self.peek().text == "(":
                self.next()
                args = self.parse_arguments(")")
                return Struct(token.text, tuple(args))
            return Atom(token.text)
        if token.text == "(":
            inner = self.parse(1200)
            self.expect(")")
            return inner
        if token.text == "[":
            return self.parse_list()
        if token.text == "-":
            operand = self.parse(200)
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Struct("-", (Num(0), operand))
        if token.text == "\\+":
            operand = self.parse(900)
            return Struct("\\+", (operand,))
        raise PrologSyntaxError(f"unexpected token {token.text!r}", column=token.pos)

    def parse_arguments(self, closing: str) -> list[Term]:
        args = [self.parse(_ARG_PRECEDENCE)]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse(_ARG_PRECEDENCE))
        self.expect(closing)
        return args

    def parse_list(self) -> Term:
        if self.peek().text == "]":
            self.next()
            return NIL
        items = [self.parse(_ARG_PRECEDENCE)]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse(_ARG_PRECEDENCE))
        tail: Term = NIL
        if self.peek().text == "|":
            self.next()
            tail = self.parse(_ARG_PRECEDENCE)
        self.expect("]")
        return make_list(items, tail)


def flatten_conjunction(term: Term) -> tuple[Term, ...]:
    """Split nested ``','``-structures into a flat goal tuple."""
    if isinstance(term, Struct) and term.functor == "," and term.arity == 2:
        return flatten_conjunction(term.args[0]) + flatten_conjunction(term.args[1])
    return (term,)


def parse_term(text: str) -> Term:
    """Parse a single term (no trailing ``.`` required)."""
    parser = _Parser(text)
    term = parser.parse(1200)
    if parser.peek().text == ".":
        parser.next()
    if not parser.at_end():
        bad = parser.peek()
        raise PrologSyntaxError(f"trailing input {bad.text!r}", column=bad.pos)
    return term


def parse_clause(term: Term) -> Clause:
    """Interpret a parsed term as a fact or a rule."""
    if isinstance(term, Struct) and term.functor == ":-" and term.arity == 2:
        head, body = term.args
        return Clause(head, flatten_conjunction(body))
    return Clause(term, ())


def parse_program(text: str) -> list[Clause]:
    """Parse a whole program: ``.``-terminated facts and rules."""
    parser = _Parser(text)
    clauses = []
    while not parser.at_end():
        term = parser.parse(1200)
        parser.expect(".")
        clauses.append(parse_clause(term))
    return clauses


def parse_query(text: str) -> tuple[Term, ...]:
    """Parse a query: optional ``?-`` prefix, optional trailing ``.``."""
    parser = _Parser(text)
    if parser.peek().text == "?-":
        parser.next()
    term = parser.parse(1200)
    if parser.peek().text == ".":
        parser.next()
    if not parser.at_end():
        bad = parser.peek()
        raise PrologSyntaxError(f"trailing input {bad.text!r}", column=bad.pos)
    return flatten_conjunction(term)
