"""Reference implementations that tests compare the package against.

:class:`RecursiveParser` is the expression parser ``exprlang`` used before
its one-pass parser: a generator of tokens with their offsets, and one
method per grammar rule, which builds each node and then shares it.  It
differs from that parser in two places, where the grammar was wrong there:
numbers are ASCII digits only, and a number literal that overflows a double
is a syntax error.  It folds with the package's own smart constructors, so
the two parsers agree on every graph and every error.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

from contactcurv import exprlang as el
from contactcurv.exprlang import (FUNCTION_NAMES, MAX_DEPTH, MAX_NESTING, Const, Expr,
                                  ExprSyntaxError, Fn, Sym, _share, add, div, mul, neg,
                                  pow_, sub)

_TOKEN_RE = re.compile(
    r"""
    (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokens(source: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(), pos
        pos = m.end()
    yield "end", "", len(source)


class RecursiveParser:
    def __init__(self, source: str, table: dict):
        self.source = source
        self.stream = list(_tokens(source))
        self.index = 0
        self.nesting = 0
        self.table = table

    @property
    def current(self) -> tuple[str, str, int]:
        return self.stream[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.stream[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.current
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", offset)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        if len(self.stream) > MAX_DEPTH and el._height(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree higher than {MAX_DEPTH} levels", 0)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.current[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = _share(add(e, rhs) if op == "+" else sub(e, rhs), self.table)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.current[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            e = _share(mul(e, rhs) if op == "*" else div(e, rhs), self.table)
        return e

    def factor(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                  self.current[2])
        if self.current[:2] == ("op", "-"):
            self.advance()
            e = _share(neg(self.factor()), self.table)
        else:
            e = self.power()
        self.nesting -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.current[:2] == ("op", "^"):
            _, _, offset = self.advance()
            exponent = self.factor()
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent must be a constant expression", offset)
            return _share(pow_(base, exponent), self.table)
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.current
        if kind == "number":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is out of range", offset)
            return _share(Const(value), self.table)
        if kind == "name":
            self.advance()
            if self.current[:2] == ("op", "("):
                if text not in FUNCTION_NAMES:
                    raise ExprSyntaxError(f"unknown function '{text}'", offset)
                self.advance()
                arg = self.expr()
                k, t, o = self.current
                if (k, t) != ("op", ")"):
                    raise ExprSyntaxError(
                        f"function '{text}' takes one argument; expected ')'", o)
                self.advance()
                return _share(Fn(text, arg), self.table)
            return _share(Sym(text), self.table)
        if (kind, text) == ("op", "("):
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("expected a number, name or '('", offset)


def reference_parse(source: str, table: dict | None = None) -> Expr:
    """:func:`exprlang.parse` by the recursive reference parser."""
    return RecursiveParser(source, {} if table is None else table).parse()
