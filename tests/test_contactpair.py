import dataclasses
import math

import numpy as np
import pytest

import oracles
from contactcurv import bochner, catalog
from contactcurv import contactpair as cpm
from contactcurv import riemann as rm

from helpers import AltForm, random_expr
from test_chart_change import CHECK_COUNTS, pull_back
from test_riemann import covariant_derivative

CATALOG_KEYS = ("hopf:1", "hopf:2", "sphere_product:1,1", "heisenberg_r")


@pytest.fixture(scope="module")
def hopf1():
    return catalog.hopf(1)


@pytest.fixture(scope="module")
def sphere_prod():
    return catalog.sphere_product(1, 1)


class TestExteriorDerivative:
    def test_exact_form_is_closed(self):
        chart = rm.Chart(coords=("x", "y"))
        # alpha = d(x^2 y) = 2xy dx + x^2 dy
        alpha = rm.OneForm.of(chart, ["2*x*y", "x^2"])
        da = cpm.exterior_derivative(alpha, s=1.0)
        vals, _ = rm.eval_field(da, chart, (0.7, 1.3))
        assert np.max(np.abs(vals)) < 1e-14

    def test_x_dy_at_unit_factor(self):
        chart = rm.Chart(coords=("x", "y"))
        alpha = rm.OneForm.of(chart, ["0", "x"])
        da = cpm.exterior_derivative(alpha, s=1.0)
        vals, _ = rm.eval_field(da, chart, (0.2, 0.4))
        assert vals[0, 1] == 1.0 and vals[1, 0] == -1.0

    def test_hopf_contact_form(self, hopf1):
        # (dalpha_1)_{eta, xi1} = -s * 2 cos(eta) sin(eta)
        s = hopf1.dalpha_factor
        da = cpm.exterior_derivative(hopf1.alpha1, s)
        eta = 0.6
        vals, _ = rm.eval_field(da, hopf1.chart, (eta, 0.3, 0.9, 0.5))
        assert vals[0, 1] == pytest.approx(-s * 2 * math.cos(eta) * math.sin(eta), abs=1e-14)
        assert vals[0, 2] == pytest.approx(s * 2 * math.cos(eta) * math.sin(eta), abs=1e-14)


class TestExteriorDerivativeFromJets:
    """d alpha and its partials come from the jets of alpha; the symbolic
    exterior derivative is the reference."""

    @staticmethod
    def reference(alpha, s, point):
        return rm.eval_field(cpm.exterior_derivative(alpha, s), alpha.chart, point)

    @pytest.mark.parametrize("key", CATALOG_KEYS)
    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_structure_matches_symbolic_form(self, key, s):
        cp = dataclasses.replace(catalog.resolve(key), dalpha_factor=s)
        for pt in cp.chart.sample_points:
            st = cpm.structure_at(cp, pt)
            for f, alpha in enumerate((cp.alpha1, cp.alpha2)):
                # the partials of d alpha are not stored: the structure reads
                # them off the same Hessians
                ddalpha = cpm._exterior(rm.field_jets(alpha.comps, cp.chart, pt)[2], s)
                values, derivs = self.reference(alpha, s, pt)
                assert np.max(np.abs(st.dalphas[f] - values)) <= 1e-12
                assert np.max(np.abs(ddalpha - derivs)) <= 1e-12

    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_random_forms_match_symbolic_form(self, s):
        rng = np.random.default_rng(11)
        names = ["x", "y", "z", "w"]
        chart = rm.Chart(coords=tuple(names))
        for _ in range(10):
            alpha = rm.OneForm(chart, tuple(random_expr(rng, names, 3) for _ in names))
            pt = tuple(rng.uniform(-1.0, 1.0, 4))
            _, derivs, hess = rm.field_jets(alpha.comps, chart, pt)
            values, dvalues = self.reference(alpha, s, pt)
            assert np.max(np.abs(cpm._exterior(derivs, s) - values)) <= 1e-12
            assert np.max(np.abs(cpm._exterior(hess, s) - dvalues)) <= 1e-12


class TestAltForm:
    def test_wedge_anticommutes_on_one_forms(self):
        a = AltForm.one_form(np.array([1.0, 2.0, 0.0]))
        b = AltForm.one_form(np.array([0.0, 1.0, 3.0]))
        ab, ba = a.wedge(b), b.wedge(a)
        for idx, coeff in ab.terms.items():
            assert ba.terms.get(idx, 0.0) == -coeff

    def test_square_of_one_form_vanishes(self):
        a = AltForm.one_form(np.array([1.0, 2.0, 3.0]))
        assert a.wedge(a).sup() < 1e-15

    def test_top_coefficient_is_determinant(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(3, 3))
        form = AltForm.one_form(vecs[0])
        for v in vecs[1:]:
            form = form.wedge(AltForm.one_form(v))
        assert form.coeff((0, 1, 2)) == pytest.approx(np.linalg.det(vecs), rel=1e-12)


class TestPhiSynthesis:
    def test_square_identity_pins_the_half_factor(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        residuals = {}
        for s in (1.0, 0.5):
            cp_s = dataclasses.replace(hopf1, dalpha_factor=s)
            st = cpm.structure_at(cp_s, pt)
            residuals[s] = cpm._phi_square_residual(st)
        assert residuals[0.5] < 1e-8
        assert residuals[1.0] > 1e-3

    def test_synthesized_phi_validates(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        st = cpm.structure_at(hopf1, pt)
        assert cpm._phi_square_residual(st) < 1e-8
        assert np.max(np.abs(st.phi @ st.z1)) < 1e-12
        assert np.max(np.abs(st.phi @ st.z2)) < 1e-12

    def test_generic_forms_on_flat_space_are_rejected(self):
        # the Heisenberg contact form dz - y dx keeps the foliation dimensions
        # right, so the point gets its phi^2 record; the flat metric is not
        # associated with it
        chart = rm.Chart(coords=("x", "y", "z", "t"),
                         sample_points=((0.3, 0.4, 0.5, 0.6),))
        metric = rm.MetricField.diagonal(chart, ["1", "1", "1", "1"])
        cp = cpm.ContactPairManifold(
            "bogus", chart, metric,
            rm.OneForm.of(chart, ["-y", "0", "1", "0"]),
            rm.OneForm.of(chart, ["0", "0", "0", "1"]),
            rm.VectorField.of(chart, ["0", "0", "1", "0"]),
            rm.VectorField.of(chart, ["0", "0", "0", "1"]),
            (1, 0))
        report = cpm.validate_structure(cp)
        square = [c for c in report.checks if c.name == "phi_squared_identity"]
        assert len(square) == 1 and not square[0].passed
        assert square[0].value > 1e-8


class TestContactPairCheck:
    def test_hopf_passes_with_its_type(self, hopf1):
        for pt in hopf1.chart.sample_points:
            assert cpm.check_contact_pair(hopf1, pt).passed

    def test_sphere_product_passes(self, sphere_prod):
        assert cpm.check_contact_pair(sphere_prod, sphere_prod.chart.sample_points[0]).passed

    def test_wrong_type_fails_volume_clause(self, hopf1):
        wrong = dataclasses.replace(hopf1, pair_type=(0, 1))
        report = cpm.check_contact_pair(wrong, hopf1.chart.sample_points[0])
        failed = {c.name for c in report.failures}
        assert "volume_form" in failed


class TestFoliations:
    def test_hopf_leaf_dimensions(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        st = cpm.structure_at(hopf1, pt)
        (p1, p2), h = st.proj, st.H
        # TF_1 is spanned by Z_2 alone for type (1, 0); TF_2 is the sphere leaf
        assert round(np.trace(p1)) == 1
        assert round(np.trace(p2)) == 3
        assert round(np.trace(h)) == 2

    def test_projector_algebra(self, sphere_prod):
        pt = sphere_prod.chart.sample_points[1]
        st = cpm.structure_at(sphere_prod, pt)
        p1, p2 = st.proj
        assert np.max(np.abs(p1 @ p2)) < 1e-8
        assert np.max(np.abs(p1 + p2 - np.eye(6))) < 1e-8

    def test_reeb_fields_lie_in_their_leaves(self, sphere_prod):
        pt = sphere_prod.chart.sample_points[0]
        st = cpm.structure_at(sphere_prod, pt)
        assert np.allclose(st.proj[1] @ st.z1, st.z1, atol=1e-10)
        assert np.allclose(st.proj[0] @ st.z2, st.z2, atol=1e-10)

    def test_wrong_nullspace_dimension_raises(self, hopf1):
        wrong = dataclasses.replace(hopf1, pair_type=(0, 1))
        st = cpm.structure_at(wrong, hopf1.chart.sample_points[0])
        with pytest.raises(cpm.InvalidStructureError, match="foliation"):
            cpm.require_foliations(st)


class TestComplexStructures:
    def test_reeb_rotation(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        st = cpm.structure_at(hopf1, pt)
        assert np.allclose(st.J @ st.z1, st.z2, atol=1e-12)
        assert np.allclose(st.J @ st.z2, -st.z1, atol=1e-12)
        assert np.allclose(st.T @ st.z1, -st.z2, atol=1e-12)
        assert np.allclose(st.T @ st.z2, st.z1, atol=1e-12)

    def test_j_equals_t_on_horizontal_vectors(self, sphere_prod):
        pt = sphere_prod.chart.sample_points[0]
        st = cpm.structure_at(sphere_prod, pt)
        assert np.max(np.abs((st.J - st.T) @ st.H)) < 1e-10

    def test_j_differs_from_t_on_reeb_fields(self, sphere_prod):
        pt = sphere_prod.chart.sample_points[0]
        st = cpm.structure_at(sphere_prod, pt)
        assert np.max(np.abs((st.J - st.T) @ st.z1)) > 1.0


class TestNijenhuis:
    @pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1",
                                     "heisenberg_r"])
    @pytest.mark.parametrize("which", ["J", "T"])
    def test_catalog_structures_are_integrable(self, key, which):
        cp = catalog.resolve(key)
        for pt in cp.chart.sample_points[:2]:
            st = cpm.structure_at(cp, pt)
            J, dJ = (st.J, st.dJ) if which == "J" else (st.T, st.dT)
            n = cpm.nijenhuis_from(J, dJ)
            assert np.max(np.abs(n)) < 1e-7

    def test_flat_complex_plane(self):
        chart = rm.Chart(coords=("x", "y"))
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        dJ = np.zeros((2, 2, 2))
        assert np.max(np.abs(cpm.nijenhuis_from(J, dJ))) == 0.0

    def test_perturbed_phi_is_detected(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        st = cpm.structure_at(hopf1, pt)
        bump = np.zeros((4, 4))
        bump[0, 1] = 0.1 * pt[0]
        dbump = np.zeros((4, 4, 4))
        dbump[0, 0, 1] = 0.1
        n = cpm.nijenhuis_from(st.J + bump, st.dJ + dbump)
        assert np.max(np.abs(n)) > 1e-3


class TestStarRicci:
    def test_vanishes_on_reeb_fields_of_hopf(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        st = cpm.structure_at(hopf1, pt)
        star = st.star_ricci
        for u in (st.z1, st.z2):
            for v in (st.z1, st.z2):
                assert abs(u @ star @ v) < 1e-10

    def test_unit_horizontal_value_on_hopf(self, hopf1):
        pt = hopf1.chart.sample_points[0]
        st = cpm.structure_at(hopf1, pt)
        star = st.star_ricci
        for x in st.horizontal_leaf_vectors(2):
            assert x @ star @ x == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1",
                                     "heisenberg_r"])
    def test_scalar_defect(self, key):
        cp = catalog.resolve(key)
        pt = cp.chart.sample_points[0]
        m, n = cp.pair_type
        defect = rm.scalar(cp.metric, pt) - cpm.structure_at(cp, pt).tau_star
        assert defect == pytest.approx(4.0 * (m * m + n * n), abs=1e-10)


class TestLemmaSuite:
    @pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1",
                                     "heisenberg_r"])
    def test_catalog_entries_pass(self, key):
        report = cpm.lemma_suite(catalog.resolve(key))
        assert report.passed, [c.name for c in report.failures]

    def test_sphere_product_reported_values(self, sphere_prod):
        pt = sphere_prod.chart.sample_points[0]
        st = cpm.structure_at(sphere_prod, pt)
        rho = st.geo.ricci
        assert st.z1 @ rho @ st.z1 == pytest.approx(2.0, abs=1e-10)
        assert st.z2 @ rho @ st.z2 == pytest.approx(2.0, abs=1e-10)
        assert st.geo.tau - st.tau_star == pytest.approx(8.0, abs=1e-10)

    def test_invalid_structure_is_refused(self, hopf1):
        broken = dataclasses.replace(
            hopf1, name="broken",
            z1=rm.VectorField.of(hopf1.chart, ["0", "0.9", "0.9", "0"]))
        with pytest.raises(cpm.InvalidStructureError):
            cpm.lemma_suite(broken)

    def test_combined_reeb_ricci(self, hopf1):
        # rho(Z_1, Z_1 + Z_2) = 2m and rho(Z_2, Z_1 + Z_2) = 2n
        pt = hopf1.chart.sample_points[2]
        st = cpm.structure_at(hopf1, pt)
        z = st.z1 + st.z2
        assert st.z1 @ st.geo.ricci @ z == pytest.approx(2.0, abs=1e-10)
        assert st.z2 @ st.geo.ricci @ z == pytest.approx(0.0, abs=1e-10)


class TestValidateStructure:
    @pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1",
                                     "heisenberg_r"])
    def test_catalog_entries_pass(self, key):
        report = cpm.validate_structure(catalog.resolve(key))
        assert report.passed, [c.name for c in report.failures]

    def test_broken_reeb_normalization_fails_cleanly(self, hopf1):
        broken = dataclasses.replace(
            hopf1, name="broken",
            z1=rm.VectorField.of(hopf1.chart, ["0", "0.9", "0.9", "0"]))
        report = cpm.validate_structure(broken)
        assert not report.passed
        assert "reeb_duality" in {c.name for c in report.failures}

    def test_conventions_recorded(self, hopf1):
        report = cpm.validate_structure(hopf1)
        assert report.conventions["exterior_derivative_factor"] == 0.5


class TestReebCovariantDerivative:
    def test_second_reeb_field_is_parallel_on_hopf(self, hopf1):
        # phi_2 = 0 for type (1, 0), so grad_X Z_2 = 0 for every X
        for pt in hopf1.chart.sample_points:
            nabla = covariant_derivative(hopf1.z2.comps, hopf1.metric, pt)
            assert np.max(np.abs(nabla)) < 1e-12

    def test_first_reeb_field_matches_phi1(self, hopf1):
        for pt in hopf1.chart.sample_points:
            nabla = covariant_derivative(hopf1.z1.comps, hopf1.metric, pt)
            st = cpm.structure_at(hopf1, pt)
            assert np.max(np.abs(nabla.T + st.phi @ st.proj[1])) < 1e-8  # phi_1 = phi P_2


# tau* is a number at one point and an array over a stack
STRUCTURE_ARRAYS = ("alphas", "dalphas", "dreebs", "phi", "dJ", "proj", "star_ricci", "reebs",
                    "dphi", "J", "T", "dT", "H", "foliation_dims")


@pytest.mark.parametrize("field", STRUCTURE_ARRAYS + ("tau_star",))
def test_structure_arrays_are_read_only(hopf1, field):
    # at one point and over a stack, with the fields covering every array
    for point in (hopf1.chart.sample_points[1], hopf1.chart.sample_points[1:3]):
        if field == "tau_star" and not rm.is_stack(point):
            continue
        st = cpm.structure_at(hopf1, point)
        arrays = {name for name, value in vars(st).items() if isinstance(value, np.ndarray)}
        assert arrays == set(STRUCTURE_ARRAYS) | ({"tau_star"} if rm.is_stack(point) else set())
        original = getattr(st, field).copy()
        with pytest.raises(ValueError):
            getattr(cpm.structure_at(hopf1, point), field)[0] += 100
        assert np.array_equal(getattr(cpm.structure_at(hopf1, point), field), original)


def _phi_sectional_values(cp, pt):
    """R(X, phi X, phi X, X) over the kept unit horizontal leaf-tangent vectors."""
    st = cpm.structure_at(cp, pt)
    x, kept = st.horizontal_leaf_frame(2)
    return oracles.phi_sectional(st.geo.riem4, st.phi, x)[kept]


def test_phi_sectional_on_hopf(hopf1):
    for pt in hopf1.chart.sample_points:
        for value in _phi_sectional_values(hopf1, pt):
            assert value == pytest.approx(1.0, abs=1e-10)


def test_phi_sectional_on_heisenberg():
    cp = catalog.heisenberg_r(1)
    values = _phi_sectional_values(cp, cp.chart.sample_points[0])
    assert values.size, "expected at least one horizontal leaf direction"
    for value in values:
        assert value == pytest.approx(-3.0, abs=1e-10)


def _greedy_leaf_mask(st, which):
    """The leaf-frame mask written out point by point: a candidate counts
    if its projection is not tiny and it is not within 1e-3 rad of an
    earlier candidate that counts."""
    proj = st.proj[:, which - 1]
    mask = np.zeros((len(st.point), st.cp.dim), dtype=bool)
    for p in range(len(st.point)):
        g, chosen = st.geo.g[p], []
        for c in range(st.cp.dim):
            w = (st.H[p] @ proj[p])[:, c]
            norm2 = w @ g @ w
            if norm2 < 1e-12:
                continue
            x = w / np.sqrt(norm2)
            if all(abs(x @ g @ u) <= np.cos(1e-3) for u in chosen):
                chosen.append(x)
                mask[p, c] = True
    return mask


@pytest.mark.parametrize("which", [1, 2])
def test_leaf_frame_mask_is_the_greedy_rule(which):
    manifolds = [catalog.resolve(entry.key) for entry in catalog.ENTRIES]
    rng = np.random.default_rng(20261018)
    for key in sorted(CHECK_COUNTS):
        cp = catalog.resolve(key)
        A = np.eye(cp.dim) + 0.3 * rng.uniform(-1.0, 1.0, (cp.dim, cp.dim))
        manifolds.append(pull_back(cp, A))
    dropped = 0
    for cp in manifolds:
        st = cpm.structure_at(cp, cp.chart.sample_points)
        x, kept = st.horizontal_leaf_frame(which)
        reference = _greedy_leaf_mask(st, which)
        assert np.array_equal(kept, reference), cp.name
        unit = np.einsum("pci,pij,pcj->pc", x, st.geo.g, x) > 0.5  # not tiny
        dropped += np.count_nonzero(unit & ~kept)
    assert dropped > 0  # near-parallel candidates were dropped


@pytest.mark.parametrize("which", [0, 3, "2"])
def test_an_unknown_foliation_is_refused(sphere_prod, which):
    st = cpm.structure_at(sphere_prod, sphere_prod.chart.sample_points[0])
    with pytest.raises(ValueError, match="1 or 2"):
        st.horizontal_leaf_vectors(which)
    with pytest.raises(ValueError, match="1 or 2"):
        st.horizontal_leaf_frame(which)


@pytest.mark.parametrize("key", ["hopf:1", "sphere_product:1,1"])
def test_points_given_as_lists_or_arrays(key):
    cp = catalog.resolve(key)
    points = cp.chart.sample_points[:3]
    expected = dict(catalog.entry_for(cp.name).expected)
    runs = {
        "validate_structure": lambda pts: cpm.validate_structure(cp, points=pts),
        "lemma_suite": lambda pts: cpm.lemma_suite(cp, points=pts),
        "run_suites": lambda pts: bochner.run_suites(cp, bochner.SUITES, expected,
                                                     points=pts),
    }
    for name, run in runs.items():
        reference = run(points).to_json()
        assert run([list(p) for p in points]).to_json() == reference, name
        assert run(np.array(points)).to_json() == reference, name


@pytest.mark.parametrize("empty", [(), [], np.empty((0, 4)), None],
                         ids=["tuple", "list", "array", "no sample points"])
def test_an_empty_point_stack_is_refused(empty):
    # a run over no point would pass with nothing checked
    cp = catalog.heisenberg_r(1)
    if empty is None:
        cp = dataclasses.replace(cp, chart=dataclasses.replace(cp.chart, sample_points=()))
    expected = dict(catalog.entry("heisenberg_r").expected)
    runs = (lambda: cpm.validate_structure(cp, points=empty),
            lambda: cpm.lemma_suite(cp, points=empty),
            lambda: bochner.run_suites(cp, bochner.SUITES, expected, None, empty),
            lambda: bochner.conformal_invariance_check(cp, "0", points=empty))
    for run in runs:
        with pytest.raises(ValueError, match="no point to check"):
            run()
