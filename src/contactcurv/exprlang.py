"""Closed-form scalar expressions over chart coordinates.

Grammar (ASCII source)::

    expr    := term   (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?        right associative
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Functions are ``sin cos tan exp log sqrt``, one argument each.  ``pi`` is a
built-in named constant.  Exponents must fold to a numeric constant; this
keeps symbolic differentiation of powers single-branch.  A number literal
that overflows a double (``1e999``) is a syntax error, and literal
arithmetic folds only to a finite real value; any other (``10^400``,
``1e308*10``, ``0^(-1)``, ``(-8)^(1/3)``) stays unfolded, and evaluation or
the finiteness check of a jet walk reports it with its source.

Expressions evaluate over any scalar algebra that supports the arithmetic
operators and, for the named functions, either a method of the same name
(jets) or the ``math`` module fallback (plain numbers).  The jets run
numpy's routines at one point as over a stack, so a jet walk at one point
equals the stacked walk at that point bit for bit.  Plain numbers go through
``math`` and Python powers, which raise on a domain error and on overflow,
and may differ from a jet's value in the last place.

Sharing.  The node table and the memo of parsed sources belong to the chart
the expressions are read on (:meth:`contactcurv.riemann.Chart.read`), which
hands both to :func:`as_expr` for as long as it lives, so every manifold, from
the catalog or from a file, is one graph.  The parser looks each node up in
the table before it builds it, by its kind, its own fields and the ``id`` of
its children, which are shared already (constants by ``float.hex``, so ``0.0``
and ``-0.0`` stay apart), never by its structural hash, whose first computation
walks the subtree; an identical subtree is one object, and a source repeated
verbatim costs one lookup, not a parse.
:func:`evaluate_all` walks a sequence of such expressions with one memo
keyed on ``id``, so each distinct node is evaluated once per call;
``evaluate(e, env)`` is ``evaluate_all((e,), env)[0]``.  A memo outlives its
call only when the caller hands it to a later walk, which is how the forms of
a manifold continue the walk of its metric
(:func:`contactcurv.riemann.field_jets`).

Hashing.  Nodes are frozen records (:class:`Record`) that compare, print and
hash as frozen dataclasses, each computing its hash on first use and keeping it
(:func:`keeps_hash`), so hashing a manifold to key a cache touches each distinct
node once per process; the metric and the manifold keep theirs the same way.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterable, Mapping, Optional, Union

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt")

# the recursive parse, walks and hashes of an expression stay below the
# interpreter's recursion limit: the parser recurses up to two frames per
# level of nesting of the source (a run of signs takes none), and evaluation
# and the hash and comparison of a cached manifold about two frames per level
# of the tree
MAX_NESTING = 150
MAX_DEPTH = 400

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

def keeps_hash(cls):
    """``cls``, whose fields are the names annotated in its body, with the hash of the
    tuple of its fields, as a frozen dataclass has it, computed on first use and kept on
    the instance: a later hash reads it in one step, a first recurses once per level."""
    names = tuple(cls.__annotations__)
    fields = operator.attrgetter(*names)  # a tuple for two names or more
    single = len(names) == 1

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((fields(self),) if single else fields(self))
            object.__setattr__(self, "_hash", h)
        return h
    cls._hash = None
    cls.__hash__ = __hash__
    return cls


class Record:
    """Base of the frozen value records, whose fields are the names annotated in the
    subclass: they compare, hash and print as frozen dataclasses, and refuse changes."""

    def __init_subclass__(cls):
        keeps_hash(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__annotations__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


class Const(Record):
    value: float

    def __init__(self, value):
        object.__setattr__(self, "value", value)


class Sym(Record):
    """Coordinate or parameter reference; the environment decides which."""

    name: str

    def __init__(self, name):
        object.__setattr__(self, "name", name)


class Neg(Record):
    arg: "Expr"

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)


class Bin(Record):
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"

    def __init__(self, op, lhs, rhs):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Fn(Record):
    name: str
    arg: "Expr"

    def __init__(self, name, arg):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)


Expr = Union[Const, Sym, Neg, Bin, Fn]

ZERO = Const(0.0)
ONE = Const(1.0)


# --- smart constructors (constant folding only, no CAS ambitions) ----------

def _fold(value: float, op: str, a: Const, b: Const) -> Expr:
    """``value``, the result of ``a op b``, as a constant if it is finite;
    a non-finite one stays unfolded, so that the error it causes shows the source."""
    return Const(value) if math.isfinite(value) else Bin(op, a, b)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value + b.value, "+", a, b)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value - b.value, "-", a, b)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value * b.value, "*", a, b)
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
        return _fold(a.value / b.value, "/", a, b)
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


# --- tokenizer and parser --------------------------------------------------

# a number, a name, or any other character that is not whitespace: an
# operator, or a character no token starts with, which only a failed parse
# looks for (see _syntax_error)
_TOKEN_RE = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
                       r"|[A-Za-z_][A-Za-z0-9_]*|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("0123456789.")
_ONE_CHAR_TOKENS = _NAME_START | _NUMBER_START - {"."} | frozenset("+-*/^()")
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}


def _share(e: Expr, table: dict) -> Expr:
    """The node of ``table`` that is identical to ``e``, or ``e`` itself,
    entered in it; the children of ``e`` must be shared already."""
    kind = type(e)
    if kind is Bin:
        key = (e.op, id(e.lhs), id(e.rhs))
    elif kind is Const:
        key = ("c", e.value.hex())
    elif kind is Sym:
        key = ("s", e.name)
    else:  # Neg, or Fn by its name
        key = (e.name if kind is Fn else "neg", id(e.arg))
    return table.setdefault(key, e)


class _Fault(Exception):
    """A syntax error at a token index, made an :class:`ExprSyntaxError`
    with its offset by :func:`_syntax_error`."""


def _syntax_error(source: str, message: str, index: int) -> ExprSyntaxError:
    """The error of a failed parse: the first character of ``source`` that
    starts no token, if there is one, else ``message`` at the offset of
    token ``index`` (the end of the source past the last token)."""
    offset = len(source)
    for k, m in enumerate(_TOKEN_RE.finditer(source)):
        text = m.group()
        if len(text) == 1 and text not in _ONE_CHAR_TOKENS:
            return ExprSyntaxError(f"unexpected character {text!r}", m.start())
        if k == index:
            offset = m.start()
    return ExprSyntaxError(message, offset)


def _sum(tokens: list[str], i: int, table: dict, nesting: int) -> tuple[Expr, int]:
    """``expr`` from token ``i``, with each ``term`` parsed in place: the
    node and the index of the token after it."""
    total = op = None
    while True:
        e, i = _factor(tokens, i, table, nesting)
        t = tokens[i]
        while t == "*" or t == "/":
            rhs, i = _factor(tokens, i + 1, table, nesting)
            e = table.get((t, id(e), id(rhs))) or _share(_BINARY[t](e, rhs), table)
            t = tokens[i]
        if total is not None:
            e = table.get((op, id(total), id(e))) or _share(_BINARY[op](total, e), table)
        if t != "+" and t != "-":
            return e, i
        total, op, i = e, t, i + 1


def _factor(tokens: list[str], i: int, table: dict, nesting: int) -> tuple[Expr, int]:
    """``factor`` from token ``i``: the node and the index of the token
    after it.  Each sign, parenthesis, call and exponent nests a factor."""
    signs = 0
    while True:
        nesting += 1
        if nesting > MAX_NESTING:
            raise _Fault(f"expression nested deeper than {MAX_NESTING} levels", i)
        t = tokens[i]
        if t != "-":
            break
        signs += 1
        i += 1
    c = t[:1]
    i += 1
    if c in _NAME_START:
        if tokens[i] != "(":
            e = table.get(("s", t)) or table.setdefault(("s", t), Sym(t))
        elif t not in FUNCTION_NAMES:
            raise _Fault(f"unknown function '{t}'", i - 1)
        else:
            arg, i = _sum(tokens, i + 1, table, nesting)
            if tokens[i] != ")":
                raise _Fault(f"function '{t}' takes one argument; expected ')'", i)
            i += 1
            e = table.get((t, id(arg))) or table.setdefault((t, id(arg)), Fn(t, arg))
    elif t == "(":
        e, i = _sum(tokens, i, table, nesting)
        if tokens[i] != ")":
            raise _Fault("expected ')'", i)
        i += 1
    elif c in _NUMBER_START and t != ".":
        value = float(t)
        if not math.isfinite(value):
            raise _Fault(f"number {t!r} is out of range", i - 1)
        key = ("c", value.hex())
        e = table.get(key) or table.setdefault(key, Const(value))
    else:
        raise _Fault("expected a number, name or '('", i - 1)
    if tokens[i] == "^":
        exponent, j = _factor(tokens, i + 1, table, nesting)
        if type(exponent) is not Const:
            raise _Fault("exponent must be a constant expression", i)
        e = table.get(("^", id(e), id(exponent))) or _share(pow_(e, exponent), table)
        i = j
    for _ in range(signs):
        e = table.get(("neg", id(e))) or _share(neg(e), table)
    return e, i


def _height(e: Expr) -> int:
    """The height of the tree of ``e``, counted level by level, not by recursion."""
    h, level = 0, [e]
    while level:
        h, level = h + 1, [c for n in level if not isinstance(n, (Const, Sym))
                           for c in ((n.lhs, n.rhs) if isinstance(n, Bin) else (n.arg,))]
    return h


def parse(source: str, table: Optional[dict] = None) -> Expr:
    """Parse ``source`` into an expression tree, folding literal arithmetic;
    source nested deeper than :data:`MAX_NESTING` levels, or a tree higher
    than :data:`MAX_DEPTH`, is a syntax error.  Nodes are shared through
    ``table`` with every other parse given the same one."""
    tokens = _TOKEN_RE.findall(source)
    tokens.append("")  # the end of the source
    try:
        e, i = _sum(tokens, 0, {} if table is None else table, 0)
        if tokens[i]:
            raise _Fault(f"unexpected token {tokens[i]!r}", i)
    except _Fault as fault:
        raise _syntax_error(source, *fault.args) from None
    # each node takes a token, so only a long source can make a high tree
    if len(tokens) > MAX_DEPTH and _height(e) > MAX_DEPTH:
        raise ExprSyntaxError(f"expression tree higher than {MAX_DEPTH} levels", 0)
    return e


def as_expr(value: Union[Expr, str, float, int], table: Optional[dict] = None,
            parsed: Optional[dict[str, Expr]] = None) -> Expr:
    """``value`` as an expression, a string parsed through ``table``.  With
    ``parsed``, a dict of the sources read through the same table so far,
    a source is parsed once and each later occurrence is its first tree."""
    if isinstance(value, (Const, Sym, Neg, Bin, Fn)):
        return value
    if isinstance(value, str):
        if parsed is None:
            return parse(value, table)
        e = parsed.get(value)
        if e is None:
            e = parsed[value] = parse(value, table)
        return e
    if isinstance(value, bool):
        raise ExprError(f"{value!r} is not a number or an expression")
    e = Const(float(value))
    return e if table is None else _share(e, table)


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
    value, sqrt of a negative value, division by zero) are reported with the
    offending subexpression.  So is overflow on plain numbers, which go
    through ``math`` and Python powers and may differ from a jet's value in
    the last place; a jet walk, which equals the stacked walk bit for bit,
    leaves an overflow as a non-finite entry.
    """
    return evaluate_all((e,), env)[0]


def evaluate_all(exprs: Iterable[Expr], env: Mapping[str, object],
                 memo: Optional[dict[int, object]] = None) -> list:
    """:func:`evaluate` of each of ``exprs``, in order, with each distinct
    node evaluated once: a node shared by several expressions, or several
    times by one, is evaluated at its first occurrence and reused after.

    A ``memo`` given continues an earlier walk over the same ``env``: a
    node it holds is read from it, and each node evaluated is added to it.
    It is keyed on ``id``, so the nodes it holds must stay alive as long as
    it does."""
    memo = {} if memo is None else memo
    return [_walk(e, env, memo) for e in exprs]


def _walk(e: Expr, env: Mapping[str, object], memo: dict[int, object]):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            if e.name in BUILTIN_PARAMS:
                return BUILTIN_PARAMS[e.name]
            raise ExprEvalError(f"unknown name '{e.name}'", e) from None
    done = memo.get(id(e))  # every node is alive while exprs is, so ids are unique
    if done is not None:
        return done
    if isinstance(e, Neg):
        out = -_walk(e.arg, env, memo)
    elif isinstance(e, Bin):
        a = _walk(e.lhs, env, memo)
        b = _walk(e.rhs, env, memo)
        try:
            if e.op == "+":
                out = a + b
            elif e.op == "-":
                out = a - b
            elif e.op == "*":
                out = a * b
            elif e.op == "/":
                out = a / b
            else:
                # constant exponent by construction
                if isinstance(a, float) and a < 0.0 and b != int(b):
                    raise ValueError("fractional power of a negative value")
                out = a ** b
        except ZeroDivisionError:
            raise ExprEvalError("division by zero", e) from None
        except OverflowError:
            raise ExprEvalError("overflow", e) from None
        except ValueError as exc:
            raise ExprEvalError(str(exc), e) from None
    elif isinstance(e, Fn):
        x = _walk(e.arg, env, memo)
        try:
            out = _call(e.name, x)
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{e.name}: {exc}", e) from None
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


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


def free_names(e: Expr, seen: Optional[set[int]] = None) -> frozenset[str]:
    """The names ``e`` reads, each distinct node visited once.  A node whose
    ``id`` is in ``seen`` is skipped with its subtree, and each node visited
    is added, so checking several expressions with one ``seen`` visits a
    subtree they share once."""
    seen = set() if seen is None else seen
    names, todo = set(), [e]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Sym):
            names.add(n.name)
        elif isinstance(n, Bin):
            todo += (n.lhs, n.rhs)
        elif isinstance(n, (Neg, Fn)):
            todo.append(n.arg)
        elif not isinstance(n, Const):
            raise TypeError(f"not an expression node: {n!r}")
    return frozenset(names)


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
