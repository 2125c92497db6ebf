import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from contactcurv import bochner as bm
from contactcurv import catalog, cli
from contactcurv import contactpair as cpm
from contactcurv import riemann as rm


def flat_context(kappa=0.0):
    """Synthetic context: flat R^4, standard J, optional constant-curvature
    tensor injected by hand."""
    g = np.eye(4)
    J = np.zeros((4, 4))
    J[1, 0], J[0, 1] = 1.0, -1.0   # J e1 = e2, J e2 = -e1
    J[3, 2], J[2, 3] = 1.0, -1.0
    r4 = kappa * (np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g))
    rho = oracles.contract_ricci(r4, SimpleNamespace(ginv=g))
    star = cpm.star_contraction(r4, g, J)
    return bm.CurvatureContext(g, g, J, r4, rho, star, 1, 0, np.einsum("ij,ij->", rho, g),
                               np.einsum("ij,ij->", star, g))


CATALOG_KEYS = ("hopf:1", "hopf:2", "hopf:3", "hopf:4", "sphere_product:1,1",
                "heisenberg_r")


@pytest.fixture(scope="module")
def hopf2_ctx():
    cp = catalog.hopf(2)
    return bm.context(cp, cp.chart.sample_points[0])


class TestPiTensors:
    def test_pi1_point_values(self):
        ctx = flat_context()
        p1 = oracles.pi1(ctx)
        assert p1[0, 1, 0, 1] == 1.0
        assert p1[0, 1, 1, 0] == -1.0
        assert p1[0, 0, 1, 1] == 0.0

    def test_pi2_point_value_with_standard_j(self):
        # 2 g(Je1,e2) g(Je1,e2) + g(Je1,e1) g(Je2,e2) - g(Je2,e1) g(Je1,e2) = 3
        ctx = flat_context()
        assert oracles.pi2(ctx)[0, 1, 0, 1] == 3.0

    def test_pi1_has_riemann_symmetries(self, hopf2_ctx):
        p1 = oracles.pi1(hopf2_ctx)
        assert np.max(np.abs(p1 + p1.transpose(1, 0, 2, 3))) < 1e-12
        assert np.max(np.abs(p1 + p1.transpose(0, 1, 3, 2))) < 1e-12
        assert np.max(np.abs(p1 - p1.transpose(2, 3, 0, 1))) < 1e-12

    def test_unit_sphere_curvature_is_minus_pi1(self):
        # with the sign pinned by the positive sectional/Ricci tests, the
        # space-form tensor sits at -pi1
        chart = rm.Chart(coords=("a", "b", "c", "e"))
        metric = rm.MetricField.diagonal(
            chart, ["1", "sin(a)^2", "sin(a)^2*sin(b)^2", "sin(a)^2*sin(b)^2*sin(c)^2"])
        point = (0.7, 0.9, 1.1, 0.5)
        geo = rm.geometry_at(metric, point)
        J = np.zeros((4, 4))  # any g-orthogonal J works for pi1
        ctx = bm.CurvatureContext(geo.g, geo.ginv, J, geo.riem4,
                                  oracles.contract_ricci(geo.riem4, geo),
                                  cpm.star_contraction(geo.riem4, geo.ginv, J), 1, 0,
                                  geo.tau, 0.0)
        assert np.max(np.abs(geo.riem4 + oracles.pi1(ctx))) < 1e-12


class TestL3:
    def test_involution(self, hopf2_ctx):
        r = hopf2_ctx.riem4
        assert np.max(np.abs(oracles.l3(hopf2_ctx, oracles.l3(hopf2_ctx, r)) - r)) < 1e-12

    def test_fixes_pi1(self, hopf2_ctx):
        p1 = oracles.pi1(hopf2_ctx)
        assert np.max(np.abs(oracles.l3(hopf2_ctx, p1) - p1)) < 1e-10

    def test_curvature_is_not_j_invariant_on_the_model(self):
        cp = catalog.hopf(1)
        ctx = bm.context(cp, cp.chart.sample_points[0])
        assert np.max(np.abs(ctx.riem4 - oracles.l3(ctx, ctx.riem4))) > 0.1


class TestPhiPsiOperators:
    # phi(g) = 2 pi_1 and psi(g) = 2 pi_2 are why one sum B = R + phi(S_phi) +
    # psi(S_psi) serves both regimes
    def test_phi_of_metric_is_twice_pi1(self, hopf2_ctx):
        diff = oracles.phi_op(hopf2_ctx.g, hopf2_ctx) - 2.0 * oracles.pi1(hopf2_ctx)
        assert np.max(np.abs(diff)) < 1e-12

    def test_psi_of_metric_is_twice_pi2(self, hopf2_ctx):
        diff = oracles.psi_op(hopf2_ctx.g, hopf2_ctx) - 2.0 * oracles.pi2(hopf2_ctx)
        assert np.max(np.abs(diff)) < 1e-12

    def test_zero_form_maps_to_zero(self, hopf2_ctx):
        zero = np.zeros((6, 6))
        assert not oracles.phi_op(zero, hopf2_ctx).any()
        assert not oracles.psi_op(zero, hopf2_ctx).any()


class TestContractions:
    def test_ricci_contraction_reproduces_ricci(self, hopf2_ctx):
        rho = oracles.contract_ricci(hopf2_ctx.riem4, hopf2_ctx)
        cp = catalog.hopf(2)
        expected = rm.ricci(cp.metric, cp.chart.sample_points[0]).comps
        assert np.max(np.abs(rho - expected)) < 1e-9
        assert np.max(np.abs(hopf2_ctx.ricci - expected)) < 1e-9

    def test_star_contraction_reproduces_star_ricci(self):
        cp = catalog.sphere_product(1, 1)
        pt = cp.chart.sample_points[0]
        ctx = bm.context(cp, pt)
        expected = cpm.structure_at(cp, pt).star_ricci
        star = cpm.star_contraction(ctx.riem4, ctx.ginv, ctx.J)
        assert np.max(np.abs(star - expected)) < 1e-9
        assert np.max(np.abs(ctx.star_ricci - expected)) < 1e-9

    def test_ricci_contraction_of_pi1(self, hopf2_ctx):
        # with the pinned sign the space-form tensor is -pi1, so the
        # contraction of pi1 itself lands at -(d-1) g
        rho = oracles.contract_ricci(oracles.pi1(hopf2_ctx), hopf2_ctx)
        assert np.max(np.abs(rho + 5.0 * hopf2_ctx.g)) < 1e-10

    def test_reeb_values_on_hopf(self):
        cp = catalog.hopf(1)
        pt = cp.chart.sample_points[0]
        ctx = bm.context(cp, pt)
        st = cpm.structure_at(cp, pt)
        rho = oracles.contract_ricci(ctx.riem4, ctx)
        star = cpm.star_contraction(ctx.riem4, ctx.ginv, ctx.J)
        assert st.z1 @ rho @ st.z1 == pytest.approx(2.0, abs=1e-10)
        assert abs(st.z1 @ star @ st.z1) < 1e-10

    def test_contractions_equal_rotated_frame_sums(self):
        # the g^{-1} contractions against explicit sums over a randomly
        # rotated orthonormal frame, at every catalog sample point
        rng = np.random.default_rng(17)
        for key in CATALOG_KEYS:
            cp = catalog.resolve(key)
            for pt in cp.chart.sample_points:
                q, _ = np.linalg.qr(rng.normal(size=(cp.dim, cp.dim)))
                e = q @ rm.orthonormal_frame(cp.metric, pt)
                st = cpm.structure_at(cp, pt)
                r4 = st.geo.riem4
                for which in ("J", "T"):
                    ctx = bm.context(cp, pt, which)
                    je = e @ ctx.J.T
                    rho = np.einsum("ipqj,ap,aq->ij", r4, e, e)
                    star = np.einsum("ipqr,ap,aq,rj->ij", r4, e, je, ctx.J)
                    assert np.max(np.abs(oracles.contract_ricci(r4, ctx) - rho)) < 1e-10
                    assert np.max(np.abs(cpm.star_contraction(r4, ctx.ginv, ctx.J)
                                         - star)) < 1e-10
                    for s in (rho, star):
                        trace = np.einsum("ij,ai,aj->", s, e, e)
                        assert abs(np.einsum("ij,ij->", s, ctx.ginv) - trace) < 1e-10
                    # tau* of the context: structure_at's for J, its own for T
                    tau_star = np.einsum("ij,ai,aj->", star, e, e)
                    assert abs(ctx.tau_star - tau_star) < 1e-10
                    if which == "J":
                        assert np.max(np.abs(st.star_ricci - star)) < 1e-10
                        assert abs(st.tau_star - tau_star) < 1e-10


class TestBochnerAssembly:
    def test_regime_guards(self):
        cp1 = catalog.hopf(1)
        ctx = bm.context(cp1, cp1.chart.sample_points[0])
        with pytest.raises(ValueError):
            bm.bochner(ctx, bm.GENERAL)  # complex dimension 2 is excluded
        cp2 = catalog.hopf(2)
        ctx2 = bm.context(cp2, cp2.chart.sample_points[0])
        with pytest.raises(ValueError):
            bm.bochner(ctx2, bm.DIM4)
        with pytest.raises(ValueError, match="regime must be"):
            bm.bochner(ctx2, "general ")  # an unknown name picks no formula

    def test_model_space_is_bochner_flat_in_the_general_regime(self):
        cp = catalog.hopf(2)
        for pt in cp.chart.sample_points:
            b = bm.bochner(bm.context(cp, pt))
            assert np.max(np.abs(b)) < 1e-6

    def test_model_space_is_bochner_flat_in_dimension_four(self):
        cp = catalog.hopf(1)
        for pt in cp.chart.sample_points:
            assert abs(bm.reeb_plane_component(cp, pt)) < 1e-7
            assert np.max(np.abs(bm.bochner(bm.context(cp, pt)))) < 1e-6

    def test_sphere_product_reeb_plane_value(self):
        cp = catalog.sphere_product(1, 1)
        pt = cp.chart.sample_points[0]
        tau = rm.scalar(cp.metric, pt)
        closed = bm.reeb_plane_closed_form(1, 1, tau)
        assembled = bm.reeb_plane_component(cp, pt)
        assert closed == pytest.approx(-0.1, abs=1e-12)
        assert assembled == pytest.approx(closed, abs=1e-10)

    def test_negative_control_magnitude(self):
        cp = catalog.heisenberg_r(1)
        for pt in cp.chart.sample_points:
            assert np.max(np.abs(bm.bochner(bm.context(cp, pt)))) > 1e-2

    def test_pair_symmetries(self):
        for key in ("hopf:2", "sphere_product:1,1", "heisenberg_r"):
            cp = catalog.resolve(key)
            b = bm.bochner(bm.context(cp, cp.chart.sample_points[0]))
            assert np.max(np.abs(b + b.transpose(1, 0, 2, 3))) < 1e-8
            assert np.max(np.abs(b + b.transpose(0, 1, 3, 2))) < 1e-8

    def test_linearity_in_curvature(self):
        base = flat_context(kappa=1.0)
        doubled = flat_context(kappa=2.0)
        b1 = bm.bochner(base, bm.DIM4)
        b2 = bm.bochner(doubled, bm.DIM4)
        assert np.max(np.abs(b2 - 2.0 * b1)) < 1e-12

    @pytest.mark.parametrize("key", CATALOG_KEYS)
    def test_matches_the_two_regime_formula(self, key):
        cp = catalog.resolve(key)
        for pt in cp.chart.sample_points:
            for which in ("J", "T"):
                for reading in bm.READINGS:
                    ctx = bm.context(cp, pt, which, reading)
                    expected = oracles.two_regime_bochner(ctx)
                    bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
                    assert np.max(np.abs(bm.bochner(ctx) - expected)) <= bound

    @pytest.mark.parametrize("key", ["hopf:1", "hopf:2"])
    def test_one_summed_product_per_assembly(self, monkeypatch, key):
        # phi(S_phi) + psi(S_psi) is one call of the summed Kulkarni-Nomizu
        # kernel over its two pairs, not one product per operator
        calls = []

        def counted(*pairs, _inner=rm.kulkarni_nomizu):
            calls.append(len(pairs))
            return _inner(*pairs)

        monkeypatch.setattr(rm, "kulkarni_nomizu", counted)
        cp = catalog.resolve(key)
        bm.bochner(bm.context(cp, cp.chart.sample_points[0]))
        assert calls == [2]

    @pytest.mark.parametrize("key", CATALOG_KEYS)
    def test_j_context_reads_tau_star_off_the_structure(self, key):
        cp = catalog.resolve(key)
        pts = cp.chart.sample_points
        st = cpm.structure_at(cp, pts)
        ctx = bm.context(cp, pts)
        assert ctx.star_ricci is st.star_ricci and ctx.ricci is st.geo.ricci
        assert np.array_equal(ctx.tau_star, st.tau_star)
        # bit for bit the values a context computes for itself
        own = bm._context(st.geo, st.J, cp.m, cp.n, bm.DEFAULT_READING)
        assert np.array_equal(own.star_ricci, st.star_ricci)
        assert np.array_equal(own.tau_star, st.tau_star)

    def test_scalar_consistency_on_hopf(self):
        for m, key in ((1, "hopf:1"), (2, "hopf:2")):
            cp = catalog.resolve(key)
            tau = rm.scalar(cp.metric, cp.chart.sample_points[0])
            assert tau == pytest.approx(2 * m * (2 * m + 1), abs=1e-7)


class TestReadingPin:
    def test_exactly_one_reading_flattens_the_model(self):
        cp = catalog.hopf(2)
        pt = cp.chart.sample_points[0]
        sups = {r: np.max(np.abs(bm.bochner(bm.context(cp, pt, "J", r))))
                for r in bm.READINGS}
        flat = [r for r, s in sups.items() if s < 1e-6]
        assert flat == [bm.DEFAULT_READING]

    def test_unknown_reading_rejected(self):
        cp = catalog.hopf(2)
        ctx = bm.context(cp, cp.chart.sample_points[0], "J", "typo")
        with pytest.raises(ValueError):
            bm.bochner(ctx)


class TestBochnerPair:
    def test_reeb_mixed_component_flips_sign(self):
        cp = catalog.sphere_product(1, 1)
        pt = cp.chart.sample_points[0]
        st = cpm.structure_at(cp, pt)
        bj, bt = (t.comps for t in bm.bochner_pair(cp, pt))
        for i in range(6):
            x = st.H @ np.eye(6)[i]
            norm = math.sqrt(x @ st.geo.g @ x)
            if norm < 1e-6:
                continue
            x /= norm
            jx = st.J @ x
            left = np.einsum("ijkl,i,j,k,l", bt, x, jx, st.z1, st.z2)
            right = np.einsum("ijkl,i,j,k,l", bj, x, jx, st.z1, st.z2)
            assert left == pytest.approx(-right, abs=1e-7)
            assert abs(right) > 1e-3  # the component is genuinely nonzero

    def test_relabeling_forms_swaps_the_pair(self):
        cp = catalog.sphere_product(1, 1)
        pt = cp.chart.sample_points[0]
        swapped = dataclasses.replace(
            cp, name="relabeled", alpha1=cp.alpha2, alpha2=cp.alpha1,
            z1=cp.z2, z2=cp.z1, pair_type=(cp.n, cp.m))
        bj, bt = (t.comps for t in bm.bochner_pair(cp, pt))
        bj_sw, bt_sw = (t.comps for t in bm.bochner_pair(swapped, pt))
        assert np.max(np.abs(bj_sw - bt)) < 1e-7
        assert np.max(np.abs(bt_sw - bj)) < 1e-7

    def test_star_scalar_of_t_structure_on_hopf(self):
        # both Bochner tensors vanish on the model space; record the T side
        cp = catalog.hopf(2)
        pt = cp.chart.sample_points[0]
        assert np.max(np.abs(bm.bochner(bm.context(cp, pt, "T")))) < 1e-6


class TestConformalInvariance:
    def test_constant_factor_on_model(self):
        report = bm.conformal_invariance_check(catalog.hopf(2), str(math.log(2.0)))
        assert report.passed
        assert max(abs(c.value) for c in report.checks) < 1e-7

    def test_zero_factor_recomputes_identically(self):
        report = bm.conformal_invariance_check(catalog.hopf(2), "0")
        assert all(c.value == 0.0 for c in report.checks)

    def test_nonconstant_factor_is_rejected(self):
        # non-constant factors are covered by the Weyl property test
        cp = catalog.sphere_product(1, 1)
        with pytest.raises(ValueError, match="constant"):
            bm.conformal_invariance_check(cp, "0.05*mu")

    @pytest.mark.parametrize("f", ["400", "-400"])
    def test_a_factor_out_of_range_is_rejected(self, f):
        # e^800 overflows a double, and e^-800 is 0
        with pytest.raises(ValueError, match="finite positive"):
            bm.conformal_invariance_check(catalog.hopf(2), f)

    @pytest.mark.parametrize("f", ["-355", "-354.3", "-354", "354.8"])
    def test_a_factor_that_overflows_the_assembly_is_rejected(self, f):
        # e^(2f) is a positive double, but the rescaled curvature overflows
        # (e^-710 is subnormal); no RuntimeWarning may escape either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not a finite number"):
                bm.conformal_invariance_check(catalog.hopf(2), f)

    @pytest.mark.parametrize("f", ["-353", "354", "354.5"])
    def test_a_factor_near_the_range_ends_is_invariant(self, f):
        report = bm.conformal_invariance_check(catalog.hopf(2), f)
        assert report.passed and max(c.value for c in report.checks) < 1e-14


@pytest.fixture
def cold():
    rm.geometry_at.cache_clear()
    cpm.structure_at.cache_clear()
    yield
    rm.geometry_at.cache_clear()  # no geometry of a patched engine outlives the test
    cpm.structure_at.cache_clear()


class TestHopfCertificate:
    """The conclusion of both theorems: Z2 is parallel and R = 1/2 g1 o g1
    with g1 = g - alpha2 (x) alpha2."""

    CERTIFICATE = {"hopf_model_curvature", "reeb2_parallel"}

    @staticmethod
    def _failed(cp, key):
        report = bm.run_suites(cp, ("theorem1", "theorem2"), dict(catalog.entry(key).expected))
        return {check.name for check in report.failures}

    @pytest.mark.parametrize("key", [f"hopf:{m}" for m in range(1, catalog.HOPF_MAX_M + 1)])
    def test_both_rows_pass_on_the_model(self, key):
        cp = catalog.resolve(key)
        rows = {row[0]: row[2] for row in bm._hopf_certificate(
            cpm.structure_at(cp, cp.chart.sample_points), None)}
        assert set(rows) == self.CERTIFICATE
        assert np.max(rows["hopf_model_curvature"]) <= 4 * np.finfo(float).eps
        assert np.all(rows["reeb2_parallel"] == 0.0)

    def test_a_scaled_curvature_fails_the_model_curvature(self, monkeypatch, cold):
        # R off by one part in a million; the Christoffel symbols are intact,
        # so Z2 stays parallel
        init = rm.PointGeometry.__init__

        def scaled(geo, *args):
            init(geo, *args)
            geo.riem4 = geo.riem4 * (1.0 + 1e-6)

        monkeypatch.setattr(rm.PointGeometry, "__init__", scaled)
        failed = self._failed(catalog.hopf(2), "hopf:2")
        assert "hopf_model_curvature" in failed and "reeb2_parallel" not in failed

    def test_the_product_of_spheres_fails_the_parallel_reeb_field(self):
        # under the flat table of hopf:1: Z2 is the Hopf field of the second
        # sphere, with grad Z2 = -phi_2 of rank 2
        assert "reeb2_parallel" in self._failed(catalog.sphere_product(1, 1), "hopf:1")

    def test_a_verify_forms_the_certificate_once(self, capsys, monkeypatch, cold):
        calls = {"_hopf_certificate": 0, "kulkarni_nomizu": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(bm, "_hopf_certificate")
        counted(rm, "kulkarni_nomizu")
        assert cli.main(["verify", "hopf:2", "--suite", "all", "--format", "json"]) == 0
        capsys.readouterr()
        # one product each for B_J, W, W of e^{2f} g and the certificate
        assert calls == {"_hopf_certificate": 1, "kulkarni_nomizu": 4}


class TestWeylShift:
    """Theorem 2's last row: W^(1,3) is unchanged under g -> e^{2f} g with
    f = 0.1 sin x0, a factor no engine error can scale away."""

    HOPF_KEYS = [f"hopf:{m}" for m in range(1, catalog.HOPF_MAX_M + 1)]

    @staticmethod
    def _halve_the_quadratic_term(monkeypatch):
        # R = (second partials) + C^T Gamma becomes (second partials) +
        # C^T Gamma / 2, with Gamma intact; rho and tau follow from R
        init = rm.PointGeometry.__init__

        def halved(geo, *args):
            init(geo, *args)
            C = 0.5 * (np.einsum("...ijl->...lij", geo.dg) + np.einsum("...jil->...lij", geo.dg)
                       - geo.dg)
            t = np.einsum("...pab,...pce->...abce", C, geo.gamma)
            quad = np.einsum("...ikjl->...ijkl", t) - np.einsum("...iljk->...ijkl", t)
            geo.riem4 = geo.riem4 - 0.5 * quad
            geo.ricci = rm.contract_middle(geo.riem4, geo.ginv)
            geo.tau = np.einsum("...jk,...jk->...", geo.ginv, geo.ricci)

        monkeypatch.setattr(rm.PointGeometry, "__init__", halved)

    @pytest.mark.parametrize("key", HOPF_KEYS)
    def test_the_shift_vanishes_to_rounding_on_the_model(self, key):
        cp = catalog.resolve(key)
        rows = {row[0]: row[2] for row in bm._theorem2(
            cpm.structure_at(cp, cp.chart.sample_points), dict(catalog.entry(key).expected),
            None, ())}
        assert list(rows) == ["weyl_flatness", "weyl_13_conformal_shift"]
        assert np.max(rows["weyl_13_conformal_shift"]) < 1e-14

    @pytest.mark.parametrize("key", HOPF_KEYS)
    def test_a_halved_quadratic_term_fails_the_shift(self, capsys, monkeypatch, cold, key):
        # a constant factor scales every term of R alike, so the constant
        # Bochner shift read 0.0 under this error; the Weyl shift under a
        # factor of x0 reads up to 0.17, 0.27, 0.73 and 1.9 on hopf:1 to 4
        self._halve_the_quadratic_term(monkeypatch)
        assert cli.main(["verify", key, "--suite", "theorem2", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        count = len(catalog.resolve(key).chart.sample_points)
        # the complete report: every row of theorem 2 at every point
        assert report["summary"]["total"] == len(report["checks"]) == 4 * count
        shifts = [c for c in report["checks"] if c["name"] == "weyl_13_conformal_shift"]
        assert len(shifts) == count and not any(c["passed"] for c in shifts)
        assert min(c["value"] for c in shifts) > 1e-2


@pytest.mark.parametrize("which", ["j", "t", "B", None])
def test_an_unknown_structure_is_refused(which):
    cp = catalog.sphere_product(1, 1)
    pt = cp.chart.sample_points[0]
    with pytest.raises(ValueError, match="'J' or 'T'"):
        bm.context(cp, pt, which)
    with pytest.raises(ValueError, match="'J' or 'T'"):
        bm.reeb_plane_component(cp, pt, which)
