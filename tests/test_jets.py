import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactcurv import exprlang as el
from contactcurv import jets
from contactcurv import riemann as rm
from contactcurv.jets import Jet2

from helpers import fd_gradient, fd_hessian, random_expr


class TestSeed:
    def test_basis_direction(self):
        j = Jet2.seed(0, 2.0, 3)
        assert j.val == 2.0
        assert np.array_equal(j.grad, [1.0, 0.0, 0.0])
        assert not j.hess.any()

    def test_last_direction(self):
        j = Jet2.seed(2, -1.0, 3)
        assert j.val == -1.0
        assert np.array_equal(j.grad, [0.0, 0.0, 1.0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            Jet2.seed(3, 0.0, 3)


class TestCalculus:
    def test_product_rule(self):
        x, y = Jet2.seed(0, 2.0, 2), Jet2.seed(1, 3.0, 2)
        p = x * y
        assert p.val == 6.0
        assert np.array_equal(p.grad, [3.0, 2.0])
        assert np.array_equal(p.hess, [[0.0, 1.0], [1.0, 0.0]])

    def test_sin_at_quarter_turn(self):
        j = Jet2.seed(0, math.pi / 2.0, 1).sin()
        assert j.val == 1.0
        assert abs(j.grad[0]) < 1e-15
        assert abs(j.hess[0, 0] + 1.0) < 1e-15

    def test_division_by_zero_value(self):
        with pytest.raises(ZeroDivisionError):
            Jet2.seed(0, 1.0, 1) / Jet2.constant(0.0, 1)

    def test_log_domain(self):
        with pytest.raises(ValueError):
            Jet2.seed(0, -1.0, 1).log()

    def test_quadratic_is_exact(self):
        # 3x^2 + 2xy - y + 5: derivatives of degree-2 polynomials carry no
        # truncation error at all.
        x, y = Jet2.seed(0, 0.7, 2), Jet2.seed(1, -1.3, 2)
        p = 3.0 * x * x + 2.0 * x * y - y + 5.0
        assert p.val == 3.0 * 0.49 + 2.0 * 0.7 * (-1.3) + 1.3 + 5.0
        assert np.array_equal(p.grad, [6.0 * 0.7 + 2.0 * (-1.3), 2.0 * 0.7 - 1.0])
        assert np.array_equal(p.hess, [[6.0, 2.0], [2.0, 0.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        names = ["x", "y", "z"]
        for _ in range(60):
            e = random_expr(rng, names, 3)
            p = rng.uniform(0.3, 1.0, 3)

            def value(q):
                return el.evaluate(e, dict(zip(names, (float(v) for v in q))))

            jet = el.evaluate(e, {n: Jet2.seed(i, float(p[i]), 3) for i, n in enumerate(names)})
            if not isinstance(jet, Jet2):  # tree folded to a constant
                continue
            fd_g = fd_gradient(value, p, 1e-4)
            fd_h = fd_hessian(value, p, 1e-4)
            scale_g = np.maximum(1.0, np.abs(jet.grad))
            scale_h = np.maximum(1.0, np.abs(jet.hess))
            assert np.all(np.abs(jet.grad - fd_g) <= 1e-5 * scale_g)
            assert np.all(np.abs(jet.hess - fd_h) <= 1e-5 * scale_h)

    def test_hessian_symmetry_through_operation_chains(self):
        rng = np.random.default_rng(31)
        names = ["x", "y", "z"]
        for _ in range(60):
            e = random_expr(rng, names, 4)
            jet = el.evaluate(e, {n: Jet2.seed(i, float(v), 3)
                                  for i, (n, v) in enumerate(zip(names, rng.uniform(0.3, 1.0, 3)))})
            if isinstance(jet, Jet2):
                assert np.array_equal(jet.hess, jet.hess.T)


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def jet_strategy(d=2):
    return st.builds(
        lambda v, g, h: Jet2(v, np.array(g), (lambda m: (m + m.T) / 2.0)(np.array(h))),
        finite,
        st.lists(finite, min_size=d, max_size=d),
        st.lists(st.lists(finite, min_size=d, max_size=d), min_size=d, max_size=d),
    )


def _close(a: Jet2, b: Jet2, tol=1e-12):
    scale = max(1.0, abs(a.val), float(np.max(np.abs(a.grad))), float(np.max(np.abs(a.hess))))
    return (
        abs(a.val - b.val) <= tol * scale
        and np.all(np.abs(a.grad - b.grad) <= tol * scale)
        and np.all(np.abs(a.hess - b.hess) <= tol * scale)
    )


@settings(max_examples=60, deadline=None)
@given(jet_strategy(), jet_strategy())
def test_addition_and_multiplication_commute(a, b):
    assert _close(a + b, b + a)
    assert _close(a * b, b * a)


@settings(max_examples=60, deadline=None)
@given(jet_strategy(), jet_strategy(), jet_strategy())
def test_reassociation_stays_within_tolerance(a, b, c):
    assert _close((a + b) + c, a + (b + c))
    assert _close((a * b) * c, a * (b * c))


# --- one walk over a stack of points against one walk per point ----------------

NAMES = ["x", "y", "z"]
PARAMS = {"p": 0.7, "q": -1.3}
CHART = rm.Chart(coords=tuple(NAMES), params=tuple(PARAMS.items()))


def _walk(e, points):
    """evaluate ``e`` over jets seeded at one point, or at a stack of them."""
    return el.evaluate(e, CHART.jet_env(points))


def _parts(jet, n):
    """value, gradient and Hessian of a walk, broadcast to n points."""
    if not isinstance(jet, Jet2):
        return np.full(n, jet), np.zeros((n, 3)), np.zeros((n, 3, 3))
    return (np.broadcast_to(jet.val, (n,)), np.broadcast_to(jet.grad, (n, 3)),
            np.broadcast_to(jet.hess, (n, 3, 3)))


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


POWERS = (0.5, -1.0, 1.5, -2.0, 2.0, 2.5, 3.0)


def _any_function_expr(rng, names, depth):
    """A tree over every function of the language and over fractional and
    negative powers, each of an argument bounded so that the walk stays
    finite."""
    if depth == 0 or rng.random() < 0.2:
        return random_expr(rng, names, 0)
    a = _any_function_expr(rng, names, depth - 1)
    pick = rng.integers(6)
    if pick == 0:
        return el.add(a, _any_function_expr(rng, names, depth - 1))
    if pick == 1:
        return el.mul(a, _any_function_expr(rng, names, depth - 1))
    if pick == 2:
        return el.Fn("tan", el.mul(el.Const(0.3), el.Fn("sin", a)))
    if pick == 3:
        return el.Fn("exp", el.Fn("sin", a))
    if pick == 4:
        return el.pow_(el.add(el.Const(2.0), el.Fn("sin", a)),
                       el.Const(POWERS[rng.integers(len(POWERS))]))
    return el.Fn(str(rng.choice(["sin", "cos", "log", "sqrt"])),
                 el.add(el.Const(2.0), el.Fn("cos", a)))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7]), st.booleans())
@example(seed=25621, n=2, constant=False)  # sqrt(2 + cos(((x*y)^3)^3)) rounded apart
def test_a_stacked_walk_matches_one_walk_per_point(seed, n, constant):
    rng = np.random.default_rng(seed)
    # a tree over parameters alone walks to a number at every point
    names = list(PARAMS) if constant else NAMES
    e = random_expr(rng, names, 4)
    points = rng.uniform(-3.0, 3.0, (n, 3))
    for tree in (e, _any_function_expr(rng, names, 4)):
        stacked = _parts(_walk(tree, points), n)
        for p, point in enumerate(points):
            single = _walk(tree, tuple(point))
            assert not (constant and isinstance(single, Jet2))
            for mine, theirs in zip(stacked, _parts(single, 1)):
                assert _bits(mine[p]) == _bits(theirs[0])


def test_the_jets_name_no_math_and_take_no_python_power():
    # math and ** round apart from numpy's array loops, so one point would
    # no longer get the bits a stack gets there
    tree = ast.parse(inspect.getsource(jets))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        assert not isinstance(getattr(node, "op", None), ast.Pow), ast.unparse(node)
    assert "math" not in named


FAULTS = [
    ("sqrt(x - 1)", 0.5),   # a square root of a negative value
    ("log(x - 1)", 1.0),    # a logarithm of zero
    ("1/(x - 1)", 1.0),     # a division by a zero jet
    ("(x - 1)^0.5", 0.5),   # a fractional power of a negative value
    ("sqrt(x - 1)", 1.0),   # a square root of zero, whose derivative divides by zero
    ("(x - 1)^-2", 1.0),    # a zero to a negative power
    ("x^300", 20.0),        # a power that overflows
    ("exp(200*x)", 4.0),    # an exponential that overflows
    ("sin(1e300*x^4)", 1e3),  # a sine of an infinite angle
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 7]), st.sampled_from(FAULTS))
def test_a_fault_at_one_point_of_a_stack_raises_as_in_a_point_by_point_run(seed, n, fault):
    # the stacked walk may leave an overflow in the stack; after any fault
    # geometry_at runs the points again one at a time, so the first faulty
    # point raises its own one-point error
    source, bad_x = fault
    rng = np.random.default_rng(seed)
    e = el.add(random_expr(rng, NAMES, 3), el.parse(source))
    metric = rm.MetricField.diagonal(CHART, [el.add(el.Const(3.0), el.Fn("sin", e)), 1.0, 1.0])
    points = rng.uniform(1.5, 3.0, (n, 3))
    points[int(rng.integers(n)), 0] = bad_x
    stack = tuple(map(tuple, points.tolist()))
    with pytest.raises(el.ExprEvalError) as one:
        for point in stack:
            rm.geometry_at(metric, point)
    with pytest.raises(el.ExprEvalError) as stacked:
        rm.geometry_at(metric, stack)
    assert str(stacked.value) == str(one.value)
    assert stacked.value.subexpr == one.value.subexpr
