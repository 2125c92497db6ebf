import math

import numpy as np
import pytest

from contactcurv import catalog
from contactcurv import contactpair as cpm
from contactcurv import exprlang as el
from contactcurv import riemann as rm


class TestResolve:
    def test_catalog_addresses(self):
        assert catalog.resolve("hopf:1").pair_type == (1, 0)
        assert catalog.resolve("hopf:2").pair_type == (2, 0)
        assert catalog.resolve("sphere_product:1,1").pair_type == (1, 1)
        assert catalog.resolve("heisenberg_r").pair_type == (1, 0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.resolve("torus:1")

    def test_unsupported_parameters(self):
        with pytest.raises(ValueError):
            catalog.resolve("hopf:5")
        with pytest.raises(ValueError):
            catalog.resolve("sphere_product:2,1")

    def test_entry_lookup(self):
        assert dict(catalog.entry("hopf:1").expected)["tau"] == 6.0
        assert dict(catalog.entry("hopf:3").expected)["tau"] == 42.0
        assert catalog.entry_for("not-a-key") is None


class TestEntries:
    @pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.key)
    def test_generated_structure_is_valid(self, entry):
        cp = catalog.resolve(entry.key)
        assert cpm.validate_structure(cp).passed

    @pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.key)
    def test_sample_points_are_reproducible(self, entry):
        first, again = catalog.resolve(entry.key), catalog.resolve(entry.key)
        assert first.chart.sample_points == again.chart.sample_points

    @pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.key)
    def test_five_sample_points(self, entry):
        assert len(catalog.resolve(entry.key).chart.sample_points) == 5

    def test_angles_stay_away_from_degeneracies(self):
        for key in ("hopf:1", "hopf:2", "sphere_product:1,1"):
            cp = catalog.resolve(key)
            for pt in cp.chart.sample_points:
                assert all(0.3 <= v <= 1.2 for v in pt)


class TestHopfCharts:
    def test_hopf1_scalar_curvature(self):
        cp = catalog.hopf(1)
        for pt in cp.chart.sample_points:
            assert rm.scalar(cp.metric, pt) == pytest.approx(6.0, abs=1e-10)

    def test_hopf2_scalar_curvature(self):
        cp = catalog.hopf(2)
        for pt in cp.chart.sample_points:
            assert rm.scalar(cp.metric, pt) == pytest.approx(20.0, abs=1e-10)

    def test_hopf2_pullback_metric_matches_closed_form(self):
        cp = catalog.hopf(2)
        e1, e2 = 0.5, 0.9
        pt = (e1, e2, 0.4, 0.6, 0.8, 1.0)
        g = rm.geometry_at(cp.metric, pt).g
        expected = np.diag([
            1.0,
            math.sin(e1) ** 2,
            math.cos(e1) ** 2,
            (math.sin(e1) * math.cos(e2)) ** 2,
            (math.sin(e1) * math.sin(e2)) ** 2,
            1.0,
        ])
        assert np.allclose(g, expected, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, catalog.HOPF_MAX_M + 1))
    def test_metric_is_induced_by_the_euclidean_embedding(self, m):
        # (r_k cos xi_k, r_k sin xi_k, t) embeds S^{2m+1}(1) x R in R^{2m+3};
        # the chart metric must be J J^T for the Jacobian J of the embedding
        cp = catalog.hopf(m)
        embedding = ["t"]
        for k in range(m + 1):
            factors = [f"sin(eta{i})" for i in range(1, k + 1)]
            if k < m:
                factors.append(f"cos(eta{k + 1})")
            radius = "*".join(factors)
            embedding += [f"{radius}*cos(xi{k})", f"{radius}*sin(xi{k})"]
        comps = [el.parse(src) for src in embedding]
        for pt in cp.chart.sample_points:
            _, jacobian = rm.eval_field(comps, cp.chart, pt)
            g = rm.geometry_at(cp.metric, pt).g
            assert np.max(np.abs(jacobian @ jacobian.T - g)) <= 1e-12

    def test_hopf_reeb_fields_are_unit(self):
        for key in ("hopf:1", "hopf:2"):
            cp = catalog.resolve(key)
            pt = cp.chart.sample_points[0]
            st = cpm.structure_at(cp, pt)
            assert st.z1 @ st.geo.g @ st.z1 == pytest.approx(1.0, abs=1e-12)
            assert st.z2 @ st.geo.g @ st.z2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, catalog.HOPF_MAX_M + 1))
    def test_names_of_each_entry_are_checked_once(self, monkeypatch, m):
        # one check per entry of the metric diagonal, alpha1, alpha2, Z1 and Z2
        calls = []
        free_names = el.free_names

        def counted(*args):
            calls.append(args[0])
            return free_names(*args)

        monkeypatch.setattr(el, "free_names", counted)
        catalog.hopf(m)
        assert len(calls) == 5 * (2 * m + 2)


class TestHeisenberg:
    def test_scale_constants_satisfy_the_pin(self):
        # b = s a is forced by the phi-square identity under s = 1/2
        assert catalog.HEISENBERG_B == pytest.approx(
            cpm.DALPHA_FACTOR * catalog.HEISENBERG_A)

    def test_negative_control_curvatures(self):
        cp = catalog.heisenberg_r(1)
        pt = cp.chart.sample_points[0]
        assert rm.scalar(cp.metric, pt) == pytest.approx(-2.0, abs=1e-10)
        assert np.max(np.abs(rm.weyl(cp.metric, pt).comps)) > 1e-2

    def test_unsupported_parameter(self):
        with pytest.raises(ValueError):
            catalog.heisenberg_r(2)


def test_expected_tables_cover_the_suite_inputs():
    for entry in catalog.ENTRIES:
        expected = dict(entry.expected)
        assert "bochner_flat" in expected
        assert "weyl_flat" in expected
        assert "reeb_ricci" in expected
