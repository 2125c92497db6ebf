import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import contactcurv
from contactcurv import catalog, cli
from contactcurv import exprlang as el
from contactcurv import riemann as rm
from contactcurv.jets import Jet2

from helpers import fd_gradient, random_expr


class TestParse:
    def test_power_of_function(self):
        e = el.parse("cos(eta)^2")
        assert e == el.Bin("^", el.Fn("cos", el.Sym("eta")), el.Const(2.0))

    def test_precedence(self):
        e = el.parse("x + sin(y)*3")
        expected = el.Bin(
            "+", el.Sym("x"), el.Bin("*", el.Fn("sin", el.Sym("y")), el.Const(3.0)))
        assert e == expected

    def test_right_associative_power(self):
        assert el.parse("2^3^2") == el.Const(512.0)

    def test_unary_minus_binds_looser_than_power(self):
        assert el.evaluate(el.parse("-2^2"), {}) == -4.0

    def test_incomplete_expression_reports_offset(self):
        with pytest.raises(el.ExprSyntaxError) as err:
            el.parse("2*")
        assert err.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(el.ExprSyntaxError, match="unknown function"):
            el.parse("sinh(x)")

    def test_wrong_arity(self):
        with pytest.raises(el.ExprSyntaxError):
            el.parse("sin(x, y)")

    def test_unbalanced_parens(self):
        with pytest.raises(el.ExprSyntaxError):
            el.parse("(x + 1")

    def test_stray_character(self):
        with pytest.raises(el.ExprSyntaxError) as err:
            el.parse("x + $")
        assert err.value.offset == 4

    def test_variable_exponent_rejected(self):
        with pytest.raises(el.ExprSyntaxError, match="constant"):
            el.parse("x^y")

    def test_folded_constant_exponent_accepted(self):
        assert el.parse("x^(1+1)") == el.Bin("^", el.Sym("x"), el.Const(2.0))


class TestEvaluate:
    def test_polynomial(self):
        assert el.evaluate(el.parse("x^2+1"), {"x": 3.0}) == 10.0

    def test_log_domain_error(self):
        with pytest.raises(el.ExprEvalError, match="log"):
            el.evaluate(el.parse("log(x)"), {"x": 0.0})

    def test_sqrt_domain_error(self):
        with pytest.raises(el.ExprEvalError):
            el.evaluate(el.parse("sqrt(x - 2)"), {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(el.ExprEvalError, match="division"):
            el.evaluate(el.parse("1/x"), {"x": 0.0})

    def test_unknown_name(self):
        with pytest.raises(el.ExprEvalError, match="unknown name 'q'"):
            el.evaluate(el.parse("q + 1"), {"x": 0.0})

    def test_builtin_pi(self):
        assert el.evaluate(el.parse("cos(pi)"), {}) == -1.0

    def test_jet_env(self):
        e = el.parse("sin(t)")
        jet = el.evaluate(e, {"t": Jet2.seed(0, 0.0, 1)})
        assert jet.val == 0.0
        assert jet.grad[0] == 1.0
        assert jet.hess[0, 0] == 0.0

    def test_jet_value_slot_matches_plain_eval_bitwise(self):
        rng = np.random.default_rng(7)
        names = ["x", "y", "z"]
        for _ in range(50):
            e = random_expr(rng, names, 3)
            p = rng.uniform(0.3, 1.0, 3)
            env_plain = dict(zip(names, (float(v) for v in p)))
            env_jets = {n: Jet2.seed(i, env_plain[n], 3) for i, n in enumerate(names)}
            plain = el.evaluate(e, env_plain)
            jet = el.evaluate(e, env_jets)
            assert (jet.val if isinstance(jet, Jet2) else jet) == plain


class TestDerive:
    def test_square(self):
        assert el.to_source(el.derive(el.parse("x^2+sin(y)"), "x")) == "2.0*x"

    def test_parameter_is_constant(self):
        assert el.derive(el.parse("c"), "x") == el.Const(0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        names = ["x", "y", "z"]
        for _ in range(60):
            e = random_expr(rng, names, 3)
            p = rng.uniform(0.3, 1.0, 3)

            def value(q):
                return el.evaluate(e, dict(zip(names, (float(v) for v in q))))

            fd = fd_gradient(value, p, 1e-5)
            for i, n in enumerate(names):
                exact = el.evaluate(el.derive(e, n), dict(zip(names, (float(v) for v in p))))
                assert abs(exact - fd[i]) <= 1e-6 * max(1.0, abs(exact))

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(3)
        names = ["x", "y"]
        for _ in range(30):
            e = random_expr(rng, names, 3)
            p = dict(zip(names, (float(v) for v in rng.uniform(0.3, 1.0, 2))))
            xy = el.evaluate(el.derive(el.derive(e, "x"), "y"), p)
            yx = el.evaluate(el.derive(el.derive(e, "y"), "x"), p)
            assert abs(xy - yx) <= 1e-10 * max(1.0, abs(xy))


class TestPrinter:
    @pytest.mark.parametrize(
        "source",
        [
            "cos(eta)^2",
            "x + sin(y)*3",
            "-x^2 + (x - 1)/(y + 2)",
            "1/(2 + cos(x))*sqrt(2 + sin(y))",
            "x - (y - z)",
            "(x*y)^3",
            "2.5e-3*x",
        ],
    )
    def test_round_trip_is_fixed_point(self, source):
        canonical = el.to_source(el.parse(source))
        assert el.to_source(el.parse(canonical)) == canonical

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(80):
            e = random_expr(rng, ["x", "y", "z"], 4)
            canonical = el.to_source(e)
            assert el.to_source(el.parse(canonical)) == canonical

    def test_reparse_preserves_value(self):
        rng = np.random.default_rng(9)
        names = ["x", "y", "z"]
        for _ in range(40):
            e = random_expr(rng, names, 4)
            env = dict(zip(names, (float(v) for v in rng.uniform(0.3, 1.0, 3))))
            v1 = el.evaluate(e, env)
            v2 = el.evaluate(el.parse(el.to_source(e)), env)
            assert math.isclose(v1, v2, rel_tol=1e-14, abs_tol=1e-14)


def test_free_names():
    assert el.free_names(el.parse("x*sin(y) + pi - 3")) == {"x", "y", "pi"}


def test_free_names_skips_what_was_seen():
    table, seen = {}, set()
    assert el.free_names(el.parse("sin(x)*y", table), seen) == {"x", "y"}
    assert el.free_names(el.parse("sin(x)*y + z", table), seen) == {"z"}


class TestSharing:
    NAMES = ["x", "y", "z"]
    CHART = rm.Chart(coords=tuple(NAMES))

    def test_one_table_makes_an_identical_subtree_one_node(self):
        table = {}
        a, b = el.parse("sin(x)*cos(y) + 1", table), el.parse("2*(sin(x)*cos(y))", table)
        assert b.rhs is a.lhs
        assert el.parse("sin(x)*cos(y) + 1") is not a  # no table is kept between calls
        assert el.as_expr(1.5, table) is el.parse("1.5", table)

    def test_signed_zeros_stay_two_constants(self):
        table = {}
        pos, neg = el.parse("sin(0.0)", table), el.parse("sin(-0.0)", table)
        assert isinstance(pos.arg, el.Const) and isinstance(neg.arg, el.Const)
        assert pos.arg is not neg.arg and pos is not neg
        values = el.evaluate_all((pos, neg, pos.arg, neg.arg), {})
        assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0, 1.0, -1.0]
        assert values == [0.0, -0.0, 0.0, -0.0]

    def _sources(self, rng):
        a, b, c = (el.to_source(random_expr(rng, self.NAMES, 3)) for _ in range(3))
        return [a, f"({a})*({b})", f"sin({a}) + ({c})", f"({b})/(2 + cos({c}))", b, c]

    @staticmethod
    def _distinct(exprs):
        seen, todo = {}, list(exprs)
        while todo:
            n = todo.pop()
            if id(n) not in seen:
                seen[id(n)] = n
                todo += [getattr(n, f) for f in ("arg", "lhs", "rhs") if hasattr(n, f)]
        return len(seen)

    @pytest.mark.parametrize("count", [None, 5])
    def test_sharing_changes_no_number(self, count):
        rng = np.random.default_rng(23 + (count or 0))
        for _ in range(25):
            sources = self._sources(rng)
            table = {}
            shared = [el.parse(src, table) for src in sources]
            separate = [el.parse(src) for src in sources]
            assert self._distinct(shared) < self._distinct(separate)
            assert shared == separate
            point = rng.uniform(0.3, 1.0, (count, 3) if count else 3)
            point = tuple(map(tuple, point)) if count else tuple(point)
            together = rm.field_jets(shared, self.CHART, point)
            for k, e in enumerate(separate):
                alone = rm.field_jets([e], self.CHART, point)
                for mine, theirs in zip(together, alone):
                    assert mine[..., k].tobytes() == theirs[..., 0].tobytes()
            env = dict(zip(self.NAMES, map(float, np.atleast_2d(point)[0])))
            plain = [el.evaluate(e, env).hex() for e in separate]
            assert [v.hex() for v in el.evaluate_all(shared, env)] == plain

    @pytest.mark.parametrize("fault", ["log(x - 10)", "sqrt(y - 10)", "1/(z - z)"])
    def test_sharing_changes_no_error(self, fault):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sources = self._sources(rng)
            sources.insert(3, f"({sources[0]}) + {fault}")
            table = {}
            shared = [el.parse(src, table) for src in sources]
            separate = [el.parse(src) for src in sources]
            point = tuple(map(float, rng.uniform(0.3, 1.0, 3)))
            for env in (dict(zip(self.NAMES, point)), self.CHART.jet_env(point)):
                with pytest.raises(el.ExprEvalError) as together:
                    el.evaluate_all(shared, env)
                with pytest.raises(el.ExprEvalError) as alone:
                    for e in separate:
                        el.evaluate(e, env)
                assert str(together.value) == str(alone.value)


NODE_TYPES = (el.Const, el.Sym, el.Neg, el.Bin, el.Fn)


class TestHashing:
    SOURCES = ["sin(x)*cos(y) + 1", "x^2/(1 + y) - sqrt(2 + cos(z))",
               "sin(-0.0) + sin(0.0)*x", "-(x*y) + log(3 + z)*exp(-x)"]

    def test_equal_trees_from_separate_tables_compare_and_hash_equal(self):
        first, second = {}, {}
        for src in self.SOURCES:
            a, b = el.parse(src, first), el.parse(src, second)
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) and "_hash" not in repr(a)
        assert el.Const(0.0) == el.Const(-0.0) and hash(el.Const(0.0)) == hash(el.Const(-0.0))
        table = {}
        pos, neg = el.parse("sin(0.0)", table), el.parse("sin(-0.0)", table)
        assert pos is not neg and pos == neg and hash(pos) == hash(neg)

    def test_a_cached_hash_is_the_dataclass_hash(self):
        # the hash of the tuple of the fields, as a frozen dataclass has it
        e = el.parse("sin(x)*2 - -y")
        assert hash(e) == hash((e.op, e.lhs, e.rhs))
        assert hash(e.lhs) == hash(("*", el.Fn("sin", el.Sym("x")), el.Const(2.0)))
        assert hash(el.Sym("x")) == hash(("x",))

    @pytest.mark.parametrize("kind", ["metric", "vector", "form"])
    def test_equal_field_records_on_separate_charts_compare_and_hash_equal(self, kind):
        def read(chart):
            if kind == "metric":
                return rm.MetricField.from_entries(chart, {(0, 0): "c*sin(y)^2", (0, 1): "x*y",
                                                           (1, 1): "1 + x^2"})
            build = rm.VectorField.of if kind == "vector" else rm.OneForm.of
            return build(chart, ["c*sin(y)^2", "-(x*y)"])

        a, b = (read(rm.Chart(coords=("x", "y"), params=(("c", 2.0),))) for _ in range(2))
        assert a.chart is not b.chart and a.comps[0] is not b.comps[0]
        assert a == b and hash(a) == hash(b) == hash((a.chart, a.comps))
        assert repr(a) == repr(b) and "_hash" not in repr(a)
        assert a != read(rm.Chart(coords=("x", "y"), params=(("c", 3.0),)))

    @pytest.mark.parametrize("key", [e.key for e in catalog.ENTRIES])
    def test_a_catalog_manifold_equals_its_exported_file(self, key):
        cp = catalog.resolve(key)
        loaded = cli.manifold_from_dict(cli.manifold_to_dict(cp), cp.name)
        assert loaded.metric.comps[0][0] is not cp.metric.comps[0][0]
        assert loaded == cp and hash(loaded) == hash(cp)

    def test_a_second_hash_of_a_manifold_computes_no_node_hash(self, monkeypatch):
        # a d = 10 nested-Hopf chart, read as a file reads it
        cp = catalog.resolve("hopf:4")
        cp = cli.manifold_from_dict(cli.manifold_to_dict(cp), cp.name)
        calls, computed = [], []
        for node in NODE_TYPES:
            def counted(self, _hash=node.__hash__):
                calls.append(self)
                if self._hash is None:
                    computed.append(self)
                return _hash(self)
            monkeypatch.setattr(node, "__hash__", counted)
        first = hash(cp)
        assert computed and len({id(n) for n in computed}) == len(computed)
        calls.clear()
        computed.clear()
        assert hash(cp) == first
        # the manifold keeps its hash, so not even the d^2 metric entries
        # and four rows of d are hashed again
        assert calls == [] and computed == []


def _package_classes():
    for info in pkgutil.iter_modules(contactcurv.__path__):
        module = importlib.import_module(f"contactcurv.{info.name}")
        yield from (value for value in vars(module).values()
                    if inspect.isclass(value) and value.__module__ == module.__name__)


class TestRecords:
    def test_only_the_targets_of_dataclasses_replace_are_dataclasses(self):
        """Processing a dataclass generates and compiles its methods at import,
        which every command pays for; the chart and the manifold stay
        dataclasses because tests and the benchmark rebuild them with
        ``dataclasses.replace``, and no other class is one."""
        found = {f"{cls.__module__}.{cls.__qualname__}" for cls in _package_classes()
                 if dataclasses.is_dataclass(cls)}
        assert found == {"contactcurv.riemann.Chart", "contactcurv.contactpair.ContactPairManifold"}

    RECORDS = [
        el.Const(2.0), el.Sym("x"), el.Neg(el.Sym("x")), el.Bin("+", el.Sym("x"), el.Const(1.0)),
        el.Fn("sin", el.Sym("x")),
        rm.MetricField.diagonal(rm.Chart(coords=("x",)), ["1 + x^2"]),
        rm.VectorField.of(rm.Chart(coords=("x",)), ["x"]),
        rm.OneForm.of(rm.Chart(coords=("x",)), ["x"]),
        catalog.ENTRIES[0],
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_a_record_refuses_assignment_and_deletion(self, record):
        hash(record)  # a kept hash is no field
        before = dict(vars(record))
        for name in (*type(record).__annotations__, "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert vars(record) == before

    def test_a_tree_prints_as_a_dataclass(self):
        assert repr(el.parse("sin(x)*2 - -y")) == (
            "Bin(op='-', lhs=Bin(op='*', lhs=Fn(name='sin', arg=Sym(name='x')), "
            "rhs=Const(value=2.0)), rhs=Neg(arg=Sym(name='y')))")


@pytest.mark.parametrize("source, x", [("exp(1000*x)", 1.0), ("1 + x^400", 30.0)])
def test_overflow_is_an_evaluation_error(source, x):
    e = el.parse(source)
    with pytest.raises(el.ExprEvalError):
        el.evaluate(e, {"x": x})
    # over jets an overflow leaves a non-finite entry, at one point as over a
    # stack, and field_jets refuses it by its point
    chart = rm.Chart(coords=("x",))
    for point in ((x,), ((0.5,), (x,))):
        with pytest.raises(el.ExprEvalError, match=rf"non-finite .* at \({x},\)") as err:
            rm.field_jets([e], chart, point)
        assert err.value.subexpr == e


def test_plain_numbers_raise_on_domain_and_overflow():
    for source in ("exp(1000)", "log(-1)"):
        with pytest.raises(el.ExprEvalError):
            el.evaluate(el.parse(source), {})
    with pytest.raises(el.ExprEvalError, match="overflow"):
        el.evaluate(el.parse("10^400"), {})


def test_a_constant_subtree_of_a_jet_walk_raises_at_a_point_as_over_a_stack():
    # log(-a) reads no coordinate, so both walks take it on plain numbers
    chart = rm.Chart(coords=("x",), params=(("a", 1.0),))
    e = chart.read("x + log(-a)")
    errors = []
    for point in ((0.5,), ((0.5,), (1.0,), (1.5,))):
        with pytest.raises(el.ExprEvalError) as err:
            rm.field_jets([e], chart, point)
        errors.append((str(err.value), err.value.subexpr))
    assert errors[0] == errors[1]
    assert errors[0] == ("log: math domain error in 'log(-a)'", e.rhs)


@pytest.mark.parametrize("source, message", [("1 + 10^400", "overflow"),
                                             ("1 + 0^(-1)", "division by zero"),
                                             ("1 + (-8)^(1/3)", "fractional power")])
def test_literal_power_without_a_finite_real_value_fails_at_evaluation(source, message):
    e = el.parse(source)
    with pytest.raises(el.ExprEvalError, match=message):
        el.evaluate(e, {})


def test_literal_power_with_a_finite_real_value_folds():
    assert el.parse("2^10") == el.Const(1024.0)
    assert el.parse("4^(-1/2)") == el.Const(0.5)


@pytest.mark.parametrize("source, message", [
    ("٣", "unexpected character '٣' (offset 0)"),
    ("x + 1e999", "number '1e999' is out of range (offset 4)"),
    ("0*" + "9" * 400, f"number '{'9' * 400}' is out of range (offset 2)"),
])
def test_number_outside_the_grammar_is_a_syntax_error(source, message):
    with pytest.raises(el.ExprSyntaxError) as err:
        el.parse(source)
    assert str(err.value) == message


@pytest.mark.parametrize("source", ["1e308*10", "1e308 + 1e308", "-1e308 - 1e308",
                                    "1e308/1e-10", "x*(1e308*10 - 1e308*10)"])
def test_literal_arithmetic_that_overflows_stays_unfolded(source):
    e = el.parse(source)
    assert isinstance(e, el.Bin)
    assert el.parse(el.to_source(e)) == e
