import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from contactcurv import catalog
from contactcurv import exprlang as el
from contactcurv import riemann as rm
from contactcurv.jets import Jet2

import oracles
from helpers import fd_gradient, random_expr


def flat_chart(d=3):
    chart = rm.Chart(coords=tuple("xyzw"[:d]))
    return rm.MetricField.diagonal(chart, ["1"] * d)


def sphere2():
    chart = rm.Chart(coords=("theta", "phi"))
    return rm.MetricField.diagonal(chart, ["1", "sin(theta)^2"])


def sphere_nested(d):
    """Unit round S^d in nested polar coordinates."""
    names = tuple(f"q{i}" for i in range(d))
    chart = rm.Chart(coords=names)
    diag = ["1"]
    acc = ""
    for i in range(1, d):
        acc = acc + ("*" if acc else "") + f"sin(q{i-1})^2"
        diag.append(acc)
    return rm.MetricField.diagonal(chart, diag)


def wavy_metric():
    """A generic curved 3-metric with off-diagonal terms, used as the
    finite-difference target."""
    chart = rm.Chart(coords=("x", "y", "z"))
    return rm.MetricField.from_entries(chart, {
        (0, 0): "2 + sin(x)*cos(y)",
        (1, 1): "2 + cos(z)^2",
        (2, 2): "3 + sin(y)",
        (0, 1): "0.3*sin(x + z)",
        (1, 2): "0.2*cos(x)*sin(y)",
    })


def wavy_metric4():
    chart = rm.Chart(coords=("x", "y", "z", "w"))
    return rm.MetricField.from_entries(chart, {
        (0, 0): "2 + sin(x)*cos(y)", (1, 1): "2 + cos(z)^2",
        (2, 2): "3 + sin(y)", (3, 3): "2 + 0.5*sin(w + x)",
        (0, 1): "0.3*sin(x + z)", (2, 3): "0.2*cos(y)",
    })


WAVY_POINT = (0.4, 0.7, 1.1)


class TestMetricJet:
    def test_flat_derivatives_vanish(self):
        geo = rm.geometry_at(flat_chart(), (0.1, 0.2, 0.3))
        assert np.array_equal(geo.g, np.eye(3))
        assert not geo.dg.any() and not geo.d2g.any()

    def test_hopf_leaf_chart_derivative(self):
        chart = rm.Chart(coords=("eta", "xi1", "xi2"))
        metric = rm.MetricField.diagonal(chart, ["1", "cos(eta)^2", "sin(eta)^2"])
        dg = rm.geometry_at(metric, (math.pi / 6, 0.2, 0.4)).dg
        assert dg[0, 1, 1] == pytest.approx(-math.sqrt(3) / 2, abs=1e-14)

    def test_matches_finite_differences(self):
        metric = wavy_metric()
        dg = rm.geometry_at(metric, WAVY_POINT).dg
        for i in range(3):
            for j in range(3):
                def entry(q, i=i, j=j):
                    return rm.geometry_at(metric, tuple(q)).g[i, j]
                fd = fd_gradient(entry, np.array(WAVY_POINT), 1e-5)
                assert np.allclose(dg[:, i, j], fd, rtol=1e-5, atol=1e-5)

    def test_not_positive_definite_rejected(self):
        chart = rm.Chart(coords=("x", "y"))
        metric = rm.MetricField.diagonal(chart, ["1", "x"])
        with pytest.raises(rm.MetricError):
            rm.geometry_at(metric, (-1.0, 0.0))


class TestChristoffel:
    def test_flat_vanishes(self):
        assert not rm.christoffel(flat_chart(), (0.0, 0.0, 0.0)).comps.any()

    def test_round_sphere_value(self):
        # Gamma^theta_phiphi = -sin(theta) cos(theta) = -1/2 at theta = pi/4
        gamma = rm.christoffel(sphere2(), (math.pi / 4, 0.3)).comps
        assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-14)

    def test_symmetric_in_lower_indices(self):
        gamma = rm.christoffel(wavy_metric(), WAVY_POINT).comps
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-14)

    def test_metric_compatibility(self):
        geo = rm.geometry_at(wavy_metric(), WAVY_POINT)
        nabla_g = (geo.dg
                   - np.einsum("aki,aj->kij", geo.gamma, geo.g)
                   - np.einsum("akj,ia->kij", geo.gamma, geo.g))
        assert np.max(np.abs(nabla_g)) < 1e-9

    def test_derivative_matches_finite_differences(self):
        metric = wavy_metric()
        geo = rm.geometry_at(metric, WAVY_POINT)
        dgamma = oracles.reference_geometry(geo.g, geo.ginv, geo.dg, geo.d2g).dgamma
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    def entry(q, k=k, i=i, j=j):
                        return rm.christoffel(metric, tuple(q)).comps[k, i, j]
                    fd = fd_gradient(entry, np.array(WAVY_POINT), 1e-5)
                    scale = np.maximum(1.0, np.abs(dgamma[:, k, i, j]))
                    assert np.all(np.abs(dgamma[:, k, i, j] - fd) <= 1e-4 * scale)


class TestRiemann:
    def test_flat_is_exactly_zero(self):
        assert not rm.riemann(flat_chart(4), (0.0, 0.1, 0.2, 0.3)).comps.any()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unit_sphere_sectional_curvature(self, d):
        metric = sphere_nested(d)
        point = tuple(0.6 + 0.1 * i for i in range(d))
        frame = rm.orthonormal_frame(metric, point)
        r4 = rm.riemann(metric, point).comps
        for a in range(d):
            for b in range(a + 1, d):
                sec = np.einsum("ijkl,i,j,k,l", r4, frame[a], frame[b], frame[b], frame[a])
                assert sec == pytest.approx(1.0, abs=1e-10)

    def test_unit_sphere_array_form(self):
        # constant curvature +1 in this convention: R_ijkl = g_jk g_il - g_ik g_jl
        metric = sphere_nested(3)
        point = (0.5, 0.8, 1.0)
        g = rm.geometry_at(metric, point).g
        expected = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
        assert np.allclose(rm.riemann(metric, point).comps, expected, atol=1e-12)

    def test_symmetries_and_first_bianchi(self):
        r4 = rm.riemann(wavy_metric(), WAVY_POINT).comps
        assert np.max(np.abs(r4 + r4.transpose(1, 0, 2, 3))) < 1e-9
        assert np.max(np.abs(r4 + r4.transpose(0, 1, 3, 2))) < 1e-9
        assert np.max(np.abs(r4 - r4.transpose(2, 3, 0, 1))) < 1e-9
        bianchi = r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) < 1e-9


class TestRicci:
    def test_flat(self):
        assert not rm.ricci(flat_chart(), (0.0, 0.0, 0.0)).comps.any()
        assert rm.scalar(flat_chart(), (0.0, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unit_sphere_scalar(self, d):
        metric = sphere_nested(d)
        point = tuple(0.6 + 0.07 * i for i in range(d))
        assert rm.scalar(metric, point) == pytest.approx(d * (d - 1), abs=1e-8)

    def test_sphere_ricci_is_positive_multiple_of_metric(self):
        metric = sphere_nested(3)
        point = (0.5, 0.9, 0.7)
        geo = rm.geometry_at(metric, point)
        assert np.allclose(geo.ricci, 2.0 * geo.g, atol=1e-10)

    def test_symmetric(self):
        rho = rm.ricci(wavy_metric(), WAVY_POINT).comps
        assert np.max(np.abs(rho - rho.T)) < 1e-10

    def test_trace_agrees_between_frame_and_coordinates(self):
        metric = wavy_metric()
        geo = rm.geometry_at(metric, WAVY_POINT)
        frame = rm.orthonormal_frame(metric, WAVY_POINT)
        frame_trace = np.einsum("ij,ai,aj->", geo.ricci, frame, frame)
        assert abs(frame_trace - geo.tau) < 1e-9


def covariant_derivative(comps, metric, point):
    """grad of a vector or (1,1) expression field as the run path takes it:
    covd_vector or covd_11 over the field's jets."""
    values, derivs, _ = rm.field_jets(comps, metric.chart, point)
    covd = rm.covd_vector if values.ndim == 1 else rm.covd_11
    return covd(values, derivs, rm.geometry_at(metric, point).gamma)


def lie_bracket(x, y, point):
    xv, dx, _ = rm.field_jets(x.comps, x.chart, point)
    yv, dy, _ = rm.field_jets(y.comps, y.chart, point)
    return rm.lie_bracket_from(xv, dx, yv, dy)


class TestCovariantDerivative:
    def test_constant_field_on_flat_chart(self):
        metric = flat_chart()
        v = rm.VectorField.of(metric.chart, ["1", "2", "-3"])
        assert not covariant_derivative(v.comps, metric, (0.1, 0.2, 0.3)).any()

    def test_killing_rotation_field_has_antisymmetric_derivative(self):
        metric = flat_chart(2)
        v = rm.VectorField.of(metric.chart, ["-y", "x"])
        nabla = covariant_derivative(v.comps, metric, (0.3, 0.8))
        assert np.allclose(nabla, [[0.0, 1.0], [-1.0, 0.0]])

    def test_tensor11_identity_is_parallel(self):
        metric = wavy_metric()
        ident = tuple(tuple(el.ONE if i == j else el.ZERO for j in range(3))
                      for i in range(3))
        nabla = covariant_derivative(ident, metric, WAVY_POINT)
        assert nabla.shape == (3, 3, 3)
        assert np.max(np.abs(nabla)) < 1e-12


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        chart = flat_chart().chart
        x = rm.VectorField.of(chart, ["1", "0", "0"])
        y = rm.VectorField.of(chart, ["0", "1", "0"])
        assert not lie_bracket(x, y, (0.1, 0.2, 0.3)).any()

    def test_weighted_field_example(self):
        # [x d_y, d_x] = -d_y on the flat plane
        chart = rm.Chart(coords=("x", "y"))
        a = rm.VectorField.of(chart, ["0", "x"])
        b = rm.VectorField.of(chart, ["1", "0"])
        assert np.allclose(lie_bracket(a, b, (0.5, 0.7)), [0.0, -1.0])

    def test_antisymmetry(self):
        chart = rm.Chart(coords=("x", "y"))
        a = rm.VectorField.of(chart, ["sin(y)", "x^2"])
        b = rm.VectorField.of(chart, ["x*y", "cos(x)"])
        fwd = lie_bracket(a, b, (0.4, 1.2))
        bwd = lie_bracket(b, a, (0.4, 1.2))
        assert np.allclose(fwd, -bwd, atol=1e-14)


class TestFrame:
    def test_flat_default_is_standard_basis(self):
        frame = rm.orthonormal_frame(flat_chart(), (0.0, 0.0, 0.0))
        assert np.array_equal(frame, np.eye(3))

    def test_gram_matrix_is_identity(self):
        metric = wavy_metric()
        g = rm.geometry_at(metric, WAVY_POINT).g
        frame = rm.orthonormal_frame(metric, WAVY_POINT)
        assert np.max(np.abs(frame @ g @ frame.T - np.eye(3))) < 1e-10

    def test_preferred_vectors_come_first(self):
        metric = wavy_metric()
        g = rm.geometry_at(metric, WAVY_POINT).g
        v = np.array([1.0, 1.0, 0.0])
        frame = rm.orthonormal_frame(metric, WAVY_POINT, preferred=[v])
        assert np.allclose(frame[0], v / np.sqrt(v @ g @ v))

    def test_dependent_candidates_are_skipped(self):
        metric = flat_chart(2)
        frame = rm.orthonormal_frame(metric, (0.0, 0.0),
                                     preferred=[np.array([1.0, 0.0]),
                                                np.array([2.0, 0.0])])
        assert frame.shape == (2, 2)
        assert np.max(np.abs(frame @ frame.T - np.eye(2))) < 1e-12


class TestWeyl:
    def test_dimension_guard(self):
        with pytest.raises(rm.MetricError):
            rm.weyl(flat_chart(3), (0.0, 0.0, 0.0))

    def test_flat_vanishes(self):
        assert not rm.weyl(flat_chart(4), (0.0, 0.1, 0.2, 0.3)).comps.any()

    def test_round_sphere_vanishes(self):
        metric = sphere_nested(4)
        point = (0.7, 0.9, 1.1, 0.5)
        assert np.max(np.abs(rm.weyl(metric, point).comps)) < 1e-12

    def test_trace_free(self):
        metric = wavy_metric4()
        point = (0.4, 0.7, 1.1, 0.2)
        geo = rm.geometry_at(metric, point)
        w = rm.weyl(metric, point).comps
        assert np.max(np.abs(np.einsum("ik,ijkl->jl", geo.ginv, w))) < 1e-8
        assert np.max(np.abs(np.einsum("pq,ipqj->ij", geo.ginv, w))) < 1e-8

    def test_has_riemann_symmetries(self):
        metric = sphere_nested(4)
        w = rm.weyl(metric, (0.7, 0.9, 1.1, 0.5)).comps
        assert np.max(np.abs(w + w.transpose(1, 0, 2, 3))) < 1e-12
        assert np.max(np.abs(w - w.transpose(2, 3, 0, 1))) < 1e-12

    def test_conformal_image_of_flat_is_weyl_flat(self):
        metric = oracles.conformal_rescale(flat_chart(4), "0.1*x")
        assert np.max(np.abs(rm.weyl(metric, (0.4, 0.1, 0.2, 0.3)).comps)) < 1e-10


class TestConformalRescale:
    def test_zero_factor_is_identity(self):
        metric = wavy_metric()
        same = oracles.conformal_rescale(metric, "0")
        g1 = rm.geometry_at(metric, WAVY_POINT).g
        g2 = rm.geometry_at(same, WAVY_POINT).g
        assert np.array_equal(g1, g2)

    def test_constant_factor_scales_metric(self):
        metric = wavy_metric()
        doubled = oracles.conformal_rescale(metric, str(math.log(2.0)))
        g1 = rm.geometry_at(metric, WAVY_POINT).g
        g2 = rm.geometry_at(doubled, WAVY_POINT).g
        assert np.allclose(g2, 4.0 * g1, rtol=1e-14)

    def test_constant_factor_preserves_mixed_weyl(self):
        # on a metric with genuinely nonzero Weyl tensor, the (1,3) form is
        # untouched by a constant rescale
        metric = wavy_metric4()
        point = (0.4, 0.7, 1.1, 0.2)
        scaled = oracles.conformal_rescale(metric, str(math.log(3.0)))
        w13 = []
        for m in (metric, scaled):
            geo = rm.geometry_at(m, point)
            w13.append(np.einsum("ijka,al->ijkl", rm.weyl(m, point).comps, geo.ginv))
        assert np.max(np.abs(w13[0])) > 1e-3
        assert np.max(np.abs(w13[1] - w13[0])) < 1e-8


CATALOG_KEYS = [entry.key for entry in catalog.ENTRIES]

# log 2, log 3, a negative constant, a literal log, and the two chart
# parameters of heisenberg_r
CONSTANT_FACTORS = (str(math.log(2.0)), str(math.log(3.0)), "-0.37", "log(5)",
                    "a", "0.5*b")


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_rescaled_geometry_is_the_geometry_of_the_rescaled_metric(key):
    # a constant times a jet scales its value, gradient and Hessian exactly,
    # so the stored jets times c, with no partials of c, are the jets of
    # e^{2f} g bit for bit
    cp = catalog.resolve(key)
    params = cp.chart.param_env()
    checked = 0
    for source in CONSTANT_FACTORS:
        f = el.parse(source)
        if el.free_names(f) - set(params):
            continue
        c = math.exp(2.0 * el.evaluate(f, params))
        scaled = oracles.conformal_rescale(cp.metric, f)
        for pt in cp.chart.sample_points:
            mine = rm.geometry_at(cp.metric, pt).conformal(c, 0.0, 0.0)
            ref = rm.geometry_at(scaled, pt)
            for name in ("g", "ginv", "dg", "d2g", "riem4", "tau"):
                assert np.array_equal(getattr(mine, name), getattr(ref, name)), \
                    (source, pt, name)
            checked += 1
    assert checked == len(cp.chart.sample_points) * (6 if params else 4)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_a_factor_of_x0_is_the_product_rule_on_the_stored_jets(key):
    # h = e^{2f} for an f of the first coordinate alone, at one point and
    # over the stack, its partials along x0 read off the jets of h
    cp = catalog.resolve(key)
    x0 = cp.chart.coords[0]
    drawn = [f for f in (random_expr(np.random.default_rng(seed), [x0], 3)
                         for seed in range(20)) if el.free_names(f)][:2]
    factors = [el.parse(f"0.1*sin({x0})"), el.parse(f"0.3*{x0}^2 - 0.2*{x0}"), *drawn]
    assert len(factors) == 4
    points = cp.chart.sample_points
    for f in factors:
        ref = rm.geometry_at(oracles.conformal_rescale(cp.metric, f), points)
        h = el.Fn("exp", el.mul(el.Const(2.0), f))
        for point, p in ((points, slice(None)), (points[0], 0)):
            values, derivs, hess = rm.field_jets([h], cp.chart, point)
            mine = rm.geometry_at(cp.metric, point).conformal(
                values[..., 0], derivs[..., 0, 0], hess[..., 0, 0, 0])
            for name in ("g", "ginv", "dg", "d2g", "gamma", "riem4", "ricci", "tau"):
                want = getattr(ref, name)[p]
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(getattr(mine, name) - want)) <= 1e-12 * scale, \
                    (el.to_source(f), name)


def _weyl13(metric, point):
    """W^i_jkl, the Weyl tensor with its first slot raised."""
    ginv = rm.geometry_at(metric, point).ginv
    return np.einsum("ajkl,ai->ijkl", rm.weyl(metric, point).comps, ginv)


@pytest.mark.parametrize("key", CATALOG_KEYS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weyl_is_conformally_invariant(key, seed):
    # W^i_jkl(e^{2f} g) = W^i_jkl(g) for every smooth f (Besse, Einstein
    # Manifolds, 1987, ch. 1); f here is far from constant
    cp = catalog.resolve(key)
    rng = np.random.default_rng(seed)
    f = el.mul(el.Const(0.3), random_expr(rng, list(cp.chart.coords), 3))
    scaled = oracles.conformal_rescale(cp.metric, f)
    for pt in cp.chart.sample_points[:2]:
        try:
            w_scaled = _weyl13(scaled, pt)
        except el.ExprEvalError:  # e^{2f} overflows
            reject()
        w = _weyl13(cp.metric, pt)
        # W is a difference of curvature terms of the rescaled metric, so
        # rounding grows with their size when f is steep
        geo = rm.geometry_at(scaled, pt)
        riem13 = oracles.reference_geometry(geo.g, geo.ginv, geo.dg, geo.d2g).riem13
        scale = max(1.0, float(np.max(np.abs(riem13))))
        assert np.max(np.abs(w_scaled - w)) < 1e-10 * scale
        if not dict(catalog.entry(key).expected)["weyl_flat"]:
            assert np.max(np.abs(w)) > 1e-3  # the property is not vacuous


def test_condition_number_warning():
    chart = rm.Chart(coords=("x", "y"))
    metric = rm.MetricField.diagonal(chart, ["1", "1e-9"])
    with pytest.warns(rm.IllConditionedMetricWarning):
        rm.geometry_at(metric, (0.0, 0.0))


def test_jet_env_round_trip():
    chart = rm.Chart(coords=("x", "y"), params=(("c", 2.0),))
    env = chart.jet_env((0.3, 0.9))
    assert isinstance(env["x"], Jet2) and env["c"] == 2.0


class TestFieldJets:
    @pytest.mark.parametrize("key", ["hopf:2", "heisenberg_r"])
    def test_a_continued_walk_gives_what_a_fresh_walk_gives(self, key):
        cp = catalog.resolve(key)
        fields = (cp.alpha1.comps, cp.alpha2.comps, cp.z1.comps, cp.z2.comps)
        for point in (cp.chart.sample_points, cp.chart.sample_points[0]):
            geo = rm.point_geometry(cp.metric, point)
            walk = geo.continued_walk()
            kept = len(walk[1])
            continued = rm.field_jets(fields, cp.chart, point, walk)
            for a, b in zip(continued, rm.field_jets(fields, cp.chart, point)):
                assert np.array_equal(a, b)
            # the walk went on in the copy only
            assert len(walk[1]) >= kept == len(geo.continued_walk()[1]) > 0
            walk[0].clear()
            walk[1].clear()
            assert geo.continued_walk()[0].keys() >= set(cp.chart.coords)
            assert len(geo.continued_walk()[1]) == kept
        assert geo.conformal(1.5, 0.2, -0.1).continued_walk() is None

    def test_hessian_of_a_product(self):
        chart = rm.Chart(coords=("x", "y"))
        values, derivs, hess = rm.field_jets([el.parse("x^2*y"), el.parse("3")],
                                             chart, (0.5, 2.0))
        assert np.array_equal(values, [0.5, 3.0])
        assert np.array_equal(derivs[:, 0], [2.0, 0.25])
        assert np.array_equal(hess[:, :, 0], [[4.0, 1.0], [1.0, 0.0]])
        assert not derivs[:, 1].any() and not hess[:, :, 1].any()

    @pytest.mark.parametrize("source, point", [("x", (math.nan, 0.0)),
                                               ("1/(x - x + 1e-320)", (1.0, 0.0)),
                                               ("y*1e308*10", (1.0, 1.0))])
    def test_non_finite_entries_are_expression_errors(self, source, point):
        chart = rm.Chart(coords=("x", "y"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(el.ExprEvalError, match="non-finite") as exc:
                rm.field_jets([el.parse("1"), el.parse(source)], chart, point)
        assert exc.value.subexpr == el.parse(source)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


    def test_the_three_blocks_are_c_contiguous_over_a_stack(self):
        cp = catalog.resolve("hopf:2")
        points = cp.chart.sample_points
        out = rm.field_jets(cp.metric.comps, cp.chart, points)
        assert [a.shape for a in out] == [(5, 6, 6), (5, 6, 6, 6), (5, 6, 6, 6, 6)]
        assert all(a.flags.c_contiguous for a in out)
        for p, point in enumerate(points):
            for stacked, alone in zip(out, rm.field_jets(cp.metric.comps, cp.chart, point)):
                assert np.array_equal(stacked[p], alone)

    @pytest.mark.parametrize("points, point, entry", [
        # exp(400 x) at x = 1.76 is finite with a finite gradient, and only
        # its Hessian overflows
        (((1.76, 0.1),), (1.76, 0.1), "exp(400.0*x)"),
        (((0.1, 0.1), (0.1, 2.0), (1.76, 2.0)), (0.1, 2.0), "exp(400.0*y)"),
        (((0.1, 0.1), (1.76, 2.0), (0.1, 2.0)), (1.76, 2.0), "exp(400.0*x)"),
    ])
    def test_a_non_finite_stack_names_its_first_point_then_its_first_entry(
            self, points, point, entry):
        chart = rm.Chart(coords=("x", "y"))
        comps = [el.parse("1"), el.parse("exp(400*x)"), el.parse("exp(400*y)")]
        with pytest.raises(el.ExprEvalError) as exc:
            rm.field_jets(comps, chart, points)
        assert str(exc.value) == f"non-finite value or derivative at {point} in '{entry}'"


@pytest.mark.parametrize("query", [
    lambda m, p: rm.riemann(m, p).comps,
    lambda m, p: rm.christoffel(m, p).comps,
    lambda m, p: rm.geometry_at(m, p).dg,
])
def test_cached_arrays_are_read_only(query):
    metric, point = wavy_metric(), (0.41, -0.23, 0.67)
    original = query(metric, point).copy()
    with pytest.raises(ValueError):
        query(metric, point)[0, 1, 1] += 100.0
    assert np.array_equal(query(metric, point), original)


def assert_arrays_read_only(record, names):
    """Every array attribute of ``record``, which must be those of ``names``,
    refuses a write and keeps its values."""
    arrays = {name: value for name, value in vars(record).items()
              if isinstance(value, np.ndarray)}
    assert set(arrays) == set(names)
    for name, value in arrays.items():
        original = value.copy()
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] += 100
        assert np.array_equal(value, original), name


# tau is a number at one point and an array over a stack
GEOMETRY_ARRAYS = ("g", "ginv", "dg", "d2g", "gamma", "riem4", "ricci")


@pytest.mark.parametrize("point", [(0.41, -0.23, 0.67), ((0.41, -0.23, 0.67), (-0.3, 0.52, 0.11))],
                         ids=["point", "stack"])
def test_every_geometry_array_is_read_only(point):
    # the cached geometry, and the geometry of h g with h = 1 + x0^2 made from it
    metric = wavy_metric()
    geo = rm.geometry_at(metric, point)
    x0 = np.asarray(point)[..., 0]
    names = GEOMETRY_ARRAYS + (("tau",) if rm.is_stack(point) else ())
    assert_arrays_read_only(geo, names)
    assert_arrays_read_only(geo.conformal(1.0 + x0 ** 2, 2.0 * x0, 2.0 + 0.0 * x0), names)
    assert rm.geometry_at(metric, point) is geo


class TestChartRead:
    def test_fields_on_one_chart_share_their_nodes(self):
        chart = rm.Chart(coords=("x", "y"), params=(("c", 2.0),))
        metric = rm.MetricField.diagonal(chart, ["c*sin(x)^2", "1"])
        alpha = rm.OneForm.of(chart, ["c*sin(x)^2", 1.0])
        z = rm.VectorField.of(chart, ["0", "1/(c*sin(x)^2)"])
        assert alpha.comps[0] is metric.comps[0][0] and alpha.comps[1] is metric.comps[1][1]
        assert z.comps[1].rhs is metric.comps[0][0]
        assert chart.read("sin(x)") is metric.comps[0][0].rhs.lhs

    def test_the_read_state_is_not_part_of_the_chart(self):
        chart = rm.Chart(coords=("x", "y"), params=(("c", 2.0),))
        e = chart.read("c*sin(x) + y")
        twin = dataclasses.replace(chart)
        assert twin == chart and hash(twin) == hash(chart) and repr(twin) == repr(chart)
        assert chart.read("c*sin(x) + y") is e
        assert twin.read("c*sin(x) + y") == e and twin.read("c*sin(x) + y") is not e

    def test_an_undeclared_name_raises_after_many_reads(self):
        chart = rm.Chart(coords=("x", "y"))
        for k in range(300):
            chart.read(f"sin(x)*{k} + y")
            # handed in as an expression, checked and dropped: a later
            # expression may take its id
            chart.read(el.Bin("+", el.Sym("x"), el.Sym("y")))
        for e in [el.Bin("+", el.Sym("x"), el.Sym("q")) for _ in range(300)]:
            with pytest.raises(el.ExprError, match=r"undeclared names \['q'\]"):
                chart.read(e)

    def test_a_failed_read_leaves_no_node_marked_checked(self):
        chart = rm.Chart(coords=("x",))
        for source in ("x*sin(q)", "x*sin(q)", "sin(q) + x"):
            with pytest.raises(el.ExprError, match=r"undeclared names \['q'\]"):
                chart.read(source)
