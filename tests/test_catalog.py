import math

import numpy as np
import pytest

from contactcurv import catalog, cli
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
        # one check per distinct entry node: the metric diagonal's 2m + 1 and
        # alpha1's zero; every other entry is one of these nodes
        calls = []
        free_names = el.free_names

        def counted(*args):
            calls.append(args[0])
            return free_names(*args)

        monkeypatch.setattr(el, "free_names", counted)
        catalog.hopf(m)
        assert len(calls) == 2 * m + 2


def _entries(cp):
    return [*(e for row in cp.metric.comps for e in row), *cp.alpha1.comps,
            *cp.alpha2.comps, *cp.z1.comps, *cp.z2.comps]


def _distinct_nodes(exprs) -> int:
    seen, todo = set(), list(exprs)
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            todo += [getattr(n, f) for f in ("arg", "lhs", "rhs") if hasattr(n, f)]
    return len(seen)


class TestOneGraphPerChart:
    """A catalog builder reads every entry on its chart, so its manifold
    shares nodes as a file read back does."""

    # 7m + 2 for hopf(m)
    NODES = {"hopf:1": 9, "hopf:2": 16, "hopf:3": 23, "hopf:4": 30,
             "sphere_product:1,1": 14, "heisenberg_r": 16}

    @pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.key)
    def test_a_catalog_manifold_is_as_small_as_its_export_read_back(self, entry):
        cp = catalog.resolve(entry.key)
        back = cli.manifold_from_dict(cli.manifold_to_dict(cp), cp.name)
        assert _distinct_nodes(_entries(cp)) == _distinct_nodes(_entries(back)) \
            == self.NODES[entry.key]

    def test_the_metric_reads_the_radii_of_alpha1_as_the_same_nodes(self):
        cp = catalog.hopf(2)  # coordinates eta1, eta2, xi0, xi1, xi2, t
        for k in (2, 3, 4):  # r_0^2, r_1^2, r_2^2 on dxi_k
            assert cp.metric.comps[k][k] is cp.alpha1.comps[k]
        assert cp.z1.comps[2] is cp.z2.comps[5] is cp.metric.comps[5][5]

    @pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.key)
    def test_each_distinct_source_is_parsed_once(self, monkeypatch, entry):
        parse, as_expr, parsed, read = el.parse, el.as_expr, [], []
        monkeypatch.setattr(el, "parse", lambda src, *a: parsed.append(src) or parse(src, *a))
        monkeypatch.setattr(el, "as_expr", lambda v, *a: read.append(v) or as_expr(v, *a))
        catalog.resolve(entry.key)
        assert sorted(parsed) == sorted(set(read)) and len(set(read)) < len(read)


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
