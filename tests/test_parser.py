"""The expression parser against pinned errors and against the recursive
reference parser of ``oracles``: the same trees, the same shared table and
the same syntax errors at the same offsets."""

import numpy as np
import pytest

from contactcurv import exprlang as el

from helpers import random_expr
from oracles import reference_parse

# every error branch of the parser, with its text and offset
MALFORMED = [
    ("", "expected a number, name or '('", 0),
    ("x + ", "expected a number, name or '('", 4),
    ("x * )", "expected a number, name or '('", 4),
    ("2^^3", "expected a number, name or '('", 2),
    ("x + $", "unexpected character '$'", 4),
    ("x + .", "unexpected character '.'", 4),
    # the first unexpected character wins over an earlier parse error
    (") $", "unexpected character '$'", 2),
    ("x y", "unexpected token 'y'", 2),
    ("(x))", "unexpected token ')'", 3),
    ("sin x", "unexpected token 'x'", 4),
    ("(x + 1", "expected ')'", 6),
    ("foo(x)", "unknown function 'foo'", 0),
    ("sin(x y)", "function 'sin' takes one argument; expected ')'", 6),
    ("sin(x", "function 'sin' takes one argument; expected ')'", 5),
    ("x^y", "exponent must be a constant expression", 1),
    ("2^(x - x)", "exponent must be a constant expression", 1),
    ("(" * 151 + "1" + ")" * 151, "expression nested deeper than 150 levels", 150),
    ("-" * 151 + "1", "expression nested deeper than 150 levels", 150),
    ("2^" * 150 + "2", "expression nested deeper than 150 levels", 300),
    ("sin(" * 151 + "x" + ")" * 151, "expression nested deeper than 150 levels", 600),
    ("1" + "+t" * 400, "expression tree higher than 400 levels", 0),
]


@pytest.mark.parametrize("source, message, offset", MALFORMED)
def test_malformed_source_fails_where_it_did(source, message, offset):
    with pytest.raises(el.ExprSyntaxError) as err:
        el.parse(source)
    assert (str(err.value), err.value.offset) == (f"{message} (offset {offset})", offset)


def test_sources_at_the_bounds_parse():
    assert el.parse("(" * 149 + "x" + ")" * 149) == el.Sym("x")
    assert el.parse("-" * 149 + "x") == el.Neg(el.Sym("x"))
    assert el._height(el.parse("1" + "+t" * 399)) == 400


NAMES = ["x", "y", "z"]
# characters a mutation inserts: tokens, whitespace, and characters no token
# starts with (an Arabic-Indic digit among them)
INSERTED = list("xyz0123456789.eE+-*/^() \t_$,٣") + ["sin", "1e999"]


def _respaced(rng, source):
    """``source`` with random whitespace between tokens and each name or
    number sometimes in redundant parentheses."""
    out = []
    tokens = el._TOKEN_RE.findall(source)
    for k, t in enumerate(tokens):
        after = tokens[k + 1] if k + 1 < len(tokens) else ""
        if t[0] not in "+-*/^()" and after != "(" and rng.random() < 0.2:
            t = f"({t})"
        out.append(t + str(rng.choice(["", "", " ", "  ", "\t", "\n"])))
    return "".join(out)


def _outcome(parse, *sources):
    """The canonical sources and the table of parses through one table, as
    a manifold file makes them, or the first error and its offset."""
    table = {}
    try:
        exprs = [parse(source, table) for source in sources]
    except el.ExprSyntaxError as err:
        return "error", str(err), err.offset
    index = {id(node): k for k, node in enumerate(table.values())}
    keys = [tuple(index[x] if type(x) is int else x for x in key) for key in table]
    return "parsed", [el.to_source(e) for e in exprs], keys


def _sources(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        source = el.to_source(random_expr(rng, NAMES, int(rng.integers(1, 5))))
        yield rng, _respaced(rng, source) if rng.random() < 0.8 else f"({source})"


def test_the_parser_builds_the_reference_graph():
    sources = [source for _, source in _sources(41, 300)]
    for a, b in zip(sources[::2], sources[1::2]):
        # each operator in both orders, so that a lookup under the wrong key
        # returns a node of the other order
        file = [a, b] + [f"({x}){op}({y})" for op in "+-*/" for x, y in ((a, b), (b, a))]
        mine = _outcome(el.parse, *file)
        assert mine[0] == "parsed", file
        assert mine == _outcome(reference_parse, *file), file


def test_the_parser_fails_as_the_reference_does():
    failed = 0
    for rng, source in _sources(43, 300):
        for _ in range(4):
            at = int(rng.integers(len(source) + 1))
            if rng.random() < 0.5:
                mutant = source[:at] + source[at + 1:]
            else:
                mutant = source[:at] + str(rng.choice(INSERTED)) + source[at:]
            mine = _outcome(el.parse, mutant)
            assert mine == _outcome(reference_parse, mutant), mutant
            failed += mine[0] == "error"
    # the mutants reach the error branches, not just the parsed ones
    assert failed > 300
