import math
import warnings

import numpy as np
import pytest

from contactcurv import exprlang as el
from contactcurv import riemann as rm
from contactcurv.jets import Jet2

from helpers import fd_gradient


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
        g, dg, d2g = rm.metric_jet(flat_chart(), (0.1, 0.2, 0.3))
        assert np.array_equal(g, np.eye(3))
        assert not dg.any() and not d2g.any()

    def test_hopf_leaf_chart_derivative(self):
        chart = rm.Chart(coords=("eta", "xi1", "xi2"))
        metric = rm.MetricField.diagonal(chart, ["1", "cos(eta)^2", "sin(eta)^2"])
        _, dg, _ = rm.metric_jet(metric, (math.pi / 6, 0.2, 0.4))
        assert dg[0, 1, 1] == pytest.approx(-math.sqrt(3) / 2, abs=1e-14)

    def test_matches_finite_differences(self):
        metric = wavy_metric()
        g, dg, _ = rm.metric_jet(metric, WAVY_POINT)
        for i in range(3):
            for j in range(3):
                def entry(q, i=i, j=j):
                    return rm.metric_jet(metric, tuple(q))[0][i, j]
                fd = fd_gradient(entry, np.array(WAVY_POINT), 1e-5)
                assert np.allclose(dg[:, i, j], fd, rtol=1e-5, atol=1e-5)

    def test_not_positive_definite_rejected(self):
        chart = rm.Chart(coords=("x", "y"))
        metric = rm.MetricField.diagonal(chart, ["1", "x"])
        with pytest.raises(rm.MetricError):
            rm.metric_jet(metric, (-1.0, 0.0))


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
        dgamma = rm.christoffel_derivative(metric, WAVY_POINT)
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


class TestCovariantDerivative:
    def test_constant_field_on_flat_chart(self):
        metric = flat_chart()
        v = rm.VectorField.of(metric.chart, ["1", "2", "-3"])
        assert not rm.covariant_derivative(v, metric, (0.1, 0.2, 0.3)).comps.any()

    def test_killing_rotation_field_has_antisymmetric_derivative(self):
        metric = flat_chart(2)
        v = rm.VectorField.of(metric.chart, ["-y", "x"])
        nabla = rm.covariant_derivative(v, metric, (0.3, 0.8)).comps
        assert np.allclose(nabla, [[0.0, 1.0], [-1.0, 0.0]])

    def test_tensor11_identity_is_parallel(self):
        metric = wavy_metric()
        chart = metric.chart
        ident = rm.TensorField11(chart, tuple(
            tuple(rm.el.ONE if i == j else rm.el.ZERO for j in range(3))
            for i in range(3)))
        nabla = rm.covariant_derivative(ident, metric, WAVY_POINT).comps
        assert np.max(np.abs(nabla)) < 1e-12


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        chart = flat_chart().chart
        x = rm.VectorField.of(chart, ["1", "0", "0"])
        y = rm.VectorField.of(chart, ["0", "1", "0"])
        assert not rm.lie_bracket(x, y, (0.1, 0.2, 0.3)).comps.any()

    def test_weighted_field_example(self):
        # [x d_y, d_x] = -d_y on the flat plane
        chart = rm.Chart(coords=("x", "y"))
        a = rm.VectorField.of(chart, ["0", "x"])
        b = rm.VectorField.of(chart, ["1", "0"])
        assert np.allclose(rm.lie_bracket(a, b, (0.5, 0.7)).comps, [0.0, -1.0])

    def test_antisymmetry(self):
        chart = rm.Chart(coords=("x", "y"))
        a = rm.VectorField.of(chart, ["sin(y)", "x^2"])
        b = rm.VectorField.of(chart, ["x*y", "cos(x)"])
        fwd = rm.lie_bracket(a, b, (0.4, 1.2)).comps
        bwd = rm.lie_bracket(b, a, (0.4, 1.2)).comps
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
        metric = rm.conformal_rescale(flat_chart(4), "0.1*x")
        assert np.max(np.abs(rm.weyl(metric, (0.4, 0.1, 0.2, 0.3)).comps)) < 1e-10


class TestConformalRescale:
    def test_zero_factor_is_identity(self):
        metric = wavy_metric()
        same = rm.conformal_rescale(metric, "0")
        g1 = rm.geometry_at(metric, WAVY_POINT).g
        g2 = rm.geometry_at(same, WAVY_POINT).g
        assert np.array_equal(g1, g2)

    def test_constant_factor_scales_metric(self):
        metric = wavy_metric()
        doubled = rm.conformal_rescale(metric, str(math.log(2.0)))
        g1 = rm.geometry_at(metric, WAVY_POINT).g
        g2 = rm.geometry_at(doubled, WAVY_POINT).g
        assert np.allclose(g2, 4.0 * g1, rtol=1e-14)

    def test_constant_factor_preserves_mixed_weyl(self):
        # on a metric with genuinely nonzero Weyl tensor, the (1,3) form is
        # untouched by a constant rescale
        metric = wavy_metric4()
        point = (0.4, 0.7, 1.1, 0.2)
        scaled = rm.conformal_rescale(metric, str(math.log(3.0)))
        w13 = []
        for m in (metric, scaled):
            geo = rm.geometry_at(m, point)
            w13.append(np.einsum("ijka,al->ijkl", rm.weyl(m, point).comps, geo.ginv))
        assert np.max(np.abs(w13[0])) > 1e-3
        assert np.max(np.abs(w13[1] - w13[0])) < 1e-8


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


@pytest.mark.parametrize("query", [
    lambda m, p: rm.riemann(m, p).comps,
    lambda m, p: rm.christoffel(m, p).comps,
    lambda m, p: rm.metric_jet(m, p)[1],
])
def test_cached_arrays_are_read_only(query):
    metric, point = wavy_metric(), (0.41, -0.23, 0.67)
    original = query(metric, point).copy()
    with pytest.raises(ValueError):
        query(metric, point)[0, 1, 1] += 100.0
    assert np.array_equal(query(metric, point), original)
