"""Closed-form scalar expressions over chart coordinates.

Grammar (ASCII source)::

    expr    := term   (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?        right associative
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Functions are ``sin cos tan exp log sqrt``, one argument each.  ``pi`` is a
built-in named constant.  Exponents must fold to a numeric constant; this
keeps symbolic differentiation of powers single-branch.  A literal power
folds only to a finite real value; any other (``10^400``, ``0^(-1)``,
``(-8)^(1/3)``) stays unfolded and fails at evaluation.

Expressions evaluate over any scalar algebra that supports the arithmetic
operators and, for the named functions, either a method of the same name
(jets) or the ``math`` module fallback (plain floats).  The evaluation walk
is the same in both cases, so the value slot of a jet evaluation is
bit-for-bit the plain evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt")

BUILTIN_PARAMS = {"pi": math.pi}


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Domain error or unknown name during evaluation; carries the subexpression."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{to_source(subexpr)}'")
        self.subexpr = subexpr


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Sym:
    """Coordinate or parameter reference; the environment decides which."""

    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Fn:
    name: str
    arg: "Expr"


Expr = Union[Const, Sym, Neg, Bin, Fn]

ZERO = Const(0.0)
ONE = Const(1.0)


# --- smart constructors (constant folding only, no CAS ambitions) ----------

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return ZERO
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Bin("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if not isinstance(b, Const):
        raise ExprSyntaxError("exponent must be a constant expression", 0)
    if isinstance(a, Const):
        try:
            value = a.value ** b.value
        except (OverflowError, ZeroDivisionError):
            value = None
        # an overflow, a division by zero or a complex power stays
        # unfolded, so that evaluation reports it with the subexpression
        if isinstance(value, float) and math.isfinite(value):
            return Const(value)
        return Bin("^", a, b)
    if b.value == 1.0:
        return a
    if b.value == 0.0:
        return ONE
    return Bin("^", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def fn(name: str, arg: Expr) -> Expr:
    if name not in FUNCTION_NAMES:
        raise ExprSyntaxError(f"unknown function '{name}'", 0)
    return Fn(name, arg)


# --- tokenizer and parser --------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
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


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.stream = list(_tokens(source))
        self.index = 0

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
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.current[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.current[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.current[:2] == ("op", "-"):
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.current[:2] == ("op", "^"):
            _, _, offset = self.advance()
            exponent = self.factor()
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent must be a constant expression", offset)
            return pow_(base, exponent)
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.current
        if kind == "number":
            self.advance()
            return Const(float(text))
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
                return Fn(text, arg)
            return Sym(text)
        if (kind, text) == ("op", "("):
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("expected a number, name or '('", offset)


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree, folding literal arithmetic."""
    return _Parser(source).parse()


def as_expr(value: Union[Expr, str, float, int]) -> Expr:
    if isinstance(value, (Const, Sym, Neg, Bin, Fn)):
        return value
    if isinstance(value, str):
        return parse(value)
    return Const(float(value))


# --- evaluation ------------------------------------------------------------

def _call(name: str, x):
    method = getattr(x, name, None)
    if method is not None:
        return method()
    return getattr(math, name)(x)


def evaluate(e: Expr, env: Mapping[str, object]):
    """Evaluate over the scalar algebra of the environment values.

    ``env`` maps every free name to a scalar (plain number or jet); ``pi``
    is supplied when not shadowed.  Domain failures (log of a non-positive
    value, sqrt of a negative value, division by zero) and overflow are
    reported with the offending subexpression.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            if e.name in BUILTIN_PARAMS:
                return BUILTIN_PARAMS[e.name]
            raise ExprEvalError(f"unknown name '{e.name}'", e) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Bin):
        a = evaluate(e.lhs, env)
        b = evaluate(e.rhs, env)
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return a / b
            # constant exponent by construction
            if isinstance(a, float) and a < 0.0 and b != int(b):
                raise ValueError("fractional power of a negative value")
            return a ** b
        except ZeroDivisionError:
            raise ExprEvalError("division by zero", e) from None
        except OverflowError:
            raise ExprEvalError("overflow", e) from None
        except ValueError as exc:
            raise ExprEvalError(str(exc), e) from None
    if isinstance(e, Fn):
        x = evaluate(e.arg, env)
        try:
            return _call(e.name, x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ExprEvalError(f"{e.name}: {exc}", e) from None
    raise TypeError(f"not an expression node: {e!r}")


# --- symbolic differentiation ----------------------------------------------

def derive(e: Expr, name: str) -> Expr:
    """Partial derivative with respect to ``name``; parameters and other
    coordinates differentiate to zero.  Only constant folding is applied."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Neg):
        return neg(derive(e.arg, name))
    if isinstance(e, Bin):
        da = derive(e.lhs, name)
        db = derive(e.rhs, name)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.rhs), mul(e.lhs, db))
        if e.op == "/":
            return div(sub(mul(da, e.rhs), mul(e.lhs, db)), pow_(e.rhs, Const(2.0)))
        c = e.rhs  # Const by invariant
        return mul(mul(c, pow_(e.lhs, Const(c.value - 1.0))), da)
    if isinstance(e, Fn):
        u = e.arg
        du = derive(u, name)
        if e.name == "sin":
            return mul(Fn("cos", u), du)
        if e.name == "cos":
            return neg(mul(Fn("sin", u), du))
        if e.name == "tan":
            return div(du, pow_(Fn("cos", u), Const(2.0)))
        if e.name == "exp":
            return mul(Fn("exp", u), du)
        if e.name == "log":
            return div(du, u)
        if e.name == "sqrt":
            return div(du, mul(Const(2.0), Fn("sqrt", u)))
    raise TypeError(f"not an expression node: {e!r}")


def free_names(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_names(e.arg)
    if isinstance(e, Bin):
        return free_names(e.lhs) | free_names(e.rhs)
    if isinstance(e, Fn):
        return free_names(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# --- pretty printer ---------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[e.op]
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Const) and e.value < 0:
        return 2
    return 5


def _render(e: Expr, min_prec: int) -> str:
    if isinstance(e, Const):
        s = repr(e.value)
    elif isinstance(e, Sym):
        s = e.name
    elif isinstance(e, Neg):
        s = "-" + _render(e.arg, 3)
    elif isinstance(e, Fn):
        s = f"{e.name}({_render(e.arg, 0)})"
    elif isinstance(e, Bin):
        if e.op in ("+", "-"):
            s = f"{_render(e.lhs, 1)} {e.op} {_render(e.rhs, 2)}"
        elif e.op in ("*", "/"):
            s = f"{_render(e.lhs, 2)}{e.op}{_render(e.rhs, 3)}"
        else:
            s = f"{_render(e.lhs, 5)}^{_render(e.rhs, 4)}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _prec(e) < min_prec:
        return f"({s})"
    return s


def to_source(e: Expr) -> str:
    """Canonical source text; parsing it back and re-printing is a fixed point."""
    return _render(e, 0)
