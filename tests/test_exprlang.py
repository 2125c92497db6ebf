import math

import numpy as np
import pytest

from contactcurv import exprlang as el
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


@pytest.mark.parametrize("source, x", [("exp(1000*x)", 1.0), ("1 + x^400", 30.0)])
def test_overflow_is_an_evaluation_error(source, x):
    e = el.parse(source)
    for value in (x, Jet2.seed(0, x, 1)):
        with pytest.raises(el.ExprEvalError):
            el.evaluate(e, {"x": value})


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
