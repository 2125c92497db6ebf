"""Report serialization: ``to_json`` writes what ``json.dumps(indent=2)`` writes,
and a report recorded as rows over a stack of points reads as the same
report recorded one check at a time."""

import dataclasses
import importlib.util
import json
import pathlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcurv import bochner as bm
from contactcurv import catalog, cli
from contactcurv.report import Report, _json_point

import oracles
from helpers import record_rows
from test_cli import _clear_package_caches


def reference(report: Report) -> str:
    return json.dumps(oracles.report_dict(report), indent=2)


@pytest.mark.parametrize("key", [entry.key for entry in catalog.ENTRIES])
def test_catalog_reports_match_the_json_module(key):
    entry = catalog.entry(key)
    report = bm.run_suites(catalog.resolve(key), bm.SUITES, dict(entry.expected),
                           tolerance=1e-6)
    report.conventions["tolerance_requested"] = 1e-6
    assert report.to_json() == reference(report)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
               float("inf"), float("-inf"), float("nan"))
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
text = st.text(st.characters(codec="utf-8"), max_size=12)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, text)
conventions = st.dictionaries(text, st.one_of(
    scalars, st.lists(scalars, max_size=3),
    st.dictionaries(text, scalars, max_size=3)), max_size=4)
records = st.tuples(text, text, floats, st.one_of(st.none(), floats),
                    st.one_of(st.none(), st.tuples(), st.lists(floats, max_size=4).map(tuple)),
                    st.one_of(st.none(), st.booleans()))


@settings(max_examples=200, deadline=None)
@given(manifold=text, conventions=conventions, rows=st.lists(records, max_size=6),
       shared=st.booleans())
def test_drawn_reports_match_the_json_module(manifold, conventions, rows, shared):
    report = Report(manifold, conventions)
    point = rows[0][4] if rows else None
    for name, detail, value, tolerance, own_point, passed in rows:
        # records of one point usually share its tuple
        report.add(name, detail, value, tolerance, point if shared else own_point, passed)
    assert report.to_json() == reference(report)


def test_equal_points_of_distinct_signs_are_written_apart():
    report = Report("signs")
    report.add("a", "", 0.0, None, (0.0,))
    report.add("b", "", 0.0, None, (-0.0,))
    assert report.to_json() == reference(report)
    assert '"point": [\n        -0.0\n      ]' in report.to_json()


def test_equal_values_of_distinct_bits_are_written_apart():
    # values that a writer keyed on equality would merge: 0.0 and -0.0, and
    # two NaNs of other bits (the second one negative, with a payload)
    values = (0.0, -0.0, float("nan"),
              struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0], 5e-324, -5e-324)
    report = Report("signs")
    # one block of three rows over two points, then one block per value
    report.add_rows(((0.0,), (-0.0,)), [(f"row{r}", "", np.array(values[2 * r:2 * r + 2]), 1.0)
                                        for r in range(3)])
    assert len(set(report.blocks[0].values.view(np.uint64).ravel().tolist())) == 6
    for k, value in enumerate(values):
        report.add_rows(((float(k),),), (("single", "", (value,), None),))
    text = report.to_json()
    assert text == reference(report)
    for written in ("0.0", "-0.0", "NaN", "5e-324", "-5e-324"):
        assert f'"value": {written},' in text


def test_an_empty_report_matches_the_json_module():
    report = Report("empty", {"k": [1, 2]})
    assert report.to_json() == reference(report)
    assert '"checks": []' in report.to_json()


def test_one_repeated_value_matches_the_json_module():
    report = Report("same")
    stack = tuple((float(p), 1.0) for p in range(5))
    report.add_rows(stack, [(f"row{r}", "d", np.full(5, 0.1), 1e-7) for r in range(4)])
    report.add("one", "", 0.1, None)
    assert report.to_json() == reference(report)
    assert report.to_json().count('"value": 0.1,') == 21


def test_a_row_passes_within_its_tolerance_everywhere_without_one_and_by_its_flags():
    nan = float("nan")
    report = Report("flags")
    stack = tuple((float(p),) for p in range(3))
    report.add_rows(stack, [("tol", "", np.array([0.5, -2.0, nan]), 1.0),
                            ("none", "", np.array([0.5, -2.0, nan]), None),
                            ("int", "", np.array([1.0, -1.5, 0.0]), 1),
                            ("flags", "", np.array([0.5, -2.0, nan]), 1.0, [False, True, True])])
    assert report.blocks[0].passed.T.tolist() == [[True, False, False], [True, True, True],
                                                  [True, False, True], [False, True, True]]
    assert report.to_json() == reference(report)


def _json_module_point(point) -> str:
    return "null" if point is None else json.dumps(list(point), indent=2).replace(
        "\n", "\n      ")


@pytest.mark.parametrize("point", [None, (), (-0.0,), (-0.0, 1e-300, 1e300, 1.0),
                                   (5e-324, -1.7976931348623157e308, 0.1, 1 / 3),
                                   (float("nan"), float("inf"), float("-inf")),
                                   (np.float64(0.25), 2, True)])
def test_a_point_is_written_as_the_json_module_writes_it(point):
    assert _json_point(point) == _json_module_point(point)


def _load_bench(name: str):
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_dense_exports_are_written_as_the_json_module_writes_them(tmp_path, seed):
    # the 50-point files of the benchmark's dense_points workload
    inputs = _load_bench("inputs")
    for salt, key in enumerate(("hopf:2", "sphere_product:1,1")):
        path = inputs.export_catalog_entry(key, seed, salt, 50, str(tmp_path))
        points = cli.load_manifold(path).chart.sample_points
        assert len(points) == 50
        for point in points:
            assert _json_point(point) == _json_module_point(point)
    report = bm.run_suites(cli.load_manifold(path), ("definitions",))
    assert report.to_json() == reference(report)


def same_reading(report: Report, oracle: Report) -> None:
    """``report`` reads as ``oracle`` everywhere; records compare by repr, so
    NaN equals NaN and -0.0 differs from 0.0."""
    assert report.to_json() == oracle.to_json() == reference(report)
    assert report.to_text() == oracle.to_text()
    assert report.summary() == oracle.summary()
    assert report.passed == oracle.passed
    assert list(map(repr, report.failures)) == list(map(repr, oracle.failures))
    assert list(map(repr, report.checks)) == list(map(repr, oracle.checks))


points = st.lists(floats, min_size=1, max_size=3).map(tuple)


@st.composite
def blocks(draw, shared):
    """Rows over a stack of points: float or int values (as phi_rank's), None
    or float tolerances and, for some rows, explicit pass flags."""
    stack = shared if shared is not None else tuple(draw(st.lists(points, min_size=1,
                                                                  max_size=4)))
    count = len(stack)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.one_of(
            st.lists(floats, min_size=count, max_size=count).map(np.array),
            st.lists(st.integers(-2 ** 31, 2 ** 31), min_size=count,
                     max_size=count).map(np.array)))
        row = (draw(text), draw(text), values, draw(st.one_of(st.none(), floats)))
        if draw(st.booleans()):
            row += (np.array(draw(st.lists(st.booleans(), min_size=count,
                                           max_size=count))),)
        rows.append(row)
    return stack, tuple(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), manifold=text, shared=st.one_of(st.none(), st.lists(
    points, min_size=1, max_size=4).map(tuple)))
def test_drawn_rows_read_as_records_added_one_at_a_time(data, manifold, shared):
    report, oracle = Report(manifold, {"k": 1}), Report(manifold, {"k": 1})
    items = data.draw(st.lists(st.one_of(blocks(shared).map(lambda b: ("rows", b)),
                                         records.map(lambda r: ("add", r))), max_size=5))
    for kind, item in items:
        if kind == "add":
            report.add(*item)
            oracle.add(*item)
            continue
        stack, rows = item
        report.add_rows(stack, rows)
        for p, pt in enumerate(stack):
            record_rows(oracle, rows, p, pt)
    same_reading(report, oracle)


def test_every_stage_records_the_same_point_tuples():
    # one stack per request, so each point's text is built once; cold, as
    # every request runs, so no cached structure holds an equal earlier tuple
    _clear_package_caches()
    cp = catalog.resolve("hopf:2")
    report = bm.run_suites(cp, bm.SUITES, dict(catalog.entry("hopf:2").expected))
    stacks = [b.points for b in report.blocks if b.points != (None,)]
    # definitions, lemmas, theorem 1 and theorem 2; the conformal shift of
    # B_J, a fifth stack, is now the last row of theorem 2's block
    assert len(stacks) == 4
    assert all(stack is cp.chart.sample_points for stack in stacks)


def test_no_report_copies_another():
    # run_suites records each stage's rows itself, over its own points
    assert not hasattr(Report, "extend")


def _json_checks(capsys, key: str, suite: str) -> list:
    assert cli.main(["verify", key, "--suite", suite, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["checks"]


@pytest.mark.parametrize("key", [entry.key for entry in catalog.ENTRIES])
def test_the_full_run_records_the_suites_in_turn(capsys, key):
    assert _json_checks(capsys, key, "all") == [
        check for suite in bm.SUITES for check in _json_checks(capsys, key, suite)]


DEFINITION_ROWS = (
    "volume_form", "dalpha1_power_vanishes", "dalpha2_power_vanishes", "reeb_duality",
    "reeb_in_dalpha_kernel", "reeb_fields_commute", "metric_reeb_duality",
    "phi_squared_identity", "phi_kills_reeb", "alpha_circ_phi", "phi_rank",
    "foliation_projectors", "phi_preserves_foliations", "complex_structures_square",
    "complex_structures_isometric", "associated_metric", "normality_J", "normality_T")
LEMMA_ROWS = (
    "reeb_covariant_derivative", "phi_covariant_derivative",
    "complex_structure_covariant_derivative", "reeb_curvature_identity",
    "reeb_sectional_values", "star_ricci_defect", "star_ricci_symmetric",
    "star_ricci_j_exchange", "scalar_curvature_defect", "reeb_ricci_values",
    "reeb_star_ricci_values", "ricci_j_invariance_horizontal", "reeb_fields_killing")
_STRUCTURE = {"definitions": (DEFINITION_ROWS,), "lemmas": (LEMMA_ROWS,)}
_FLAT = _STRUCTURE | {
    "theorem1": (("bochner_flatness", "bochner_reeb_plane", "hopf_model_curvature",
                  "reeb2_parallel"),),
    # theorem 2 is one block: its Weyl shift under e^{2f} g closes it (the
    # constant-factor Bochner shift was a block of its own)
    "theorem2": (("weyl_flatness", "hopf_model_curvature", "reeb2_parallel",
                  "weyl_13_conformal_shift"),),
}
# the blocks of each suite on each catalog key, each block as its row names
# at one point
ROW_NAMES = {
    **{f"hopf:{m}": _FLAT for m in range(1, catalog.HOPF_MAX_M + 1)},
    "sphere_product:1,1": _STRUCTURE | {
        "theorem1": (("bochner_not_flat", "bochner_reeb_plane_value",
                      "bochner_reeb_plane_expected"),),
        "theorem2": (("weyl_not_flat",),),
    },
    "heisenberg_r": _STRUCTURE | {
        "theorem1": (("bochner_not_flat",),),
        "theorem2": (("weyl_not_flat",),),
    },
}


@pytest.mark.parametrize("key, suite", [
    pytest.param(e.key, suite, id=f"{e.key}-{suite}")
    for e in catalog.ENTRIES for suite in (*bm.SUITES, "all")])
def test_each_suite_records_its_rows_in_table_order(capsys, key, suite):
    # the point-free dimension check of the definitions, then each block
    # point by point
    suites = bm.SUITES if suite == "all" else (suite,)
    count = len(catalog.resolve(key).chart.sample_points)
    expected = ["dimension_type"] * ("definitions" in suites) + [
        name for s in suites for block in ROW_NAMES[key][s] for _ in range(count)
        for name in block]
    assert [check["name"] for check in _json_checks(capsys, key, suite)] == expected


def _run(cp, suites, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the foliation-fault point is ill-conditioned
        return bm.run_suites(cp, suites, expected)


def _with_points(key, points):
    cp = catalog.resolve(key)
    return dataclasses.replace(cp, chart=dataclasses.replace(cp.chart, sample_points=points))


def _dense_hopf2():
    rng = np.random.default_rng(50)
    return _with_points("hopf:2", tuple(map(tuple, (0.3 + 0.9 * rng.random((50, 6))).tolist())))


def _foliation_fault():
    # at eta1 = pi/2 d alpha1 vanishes to rounding, so the third point has a
    # foliation fault and the definitions are recorded point by point
    points = list(catalog.resolve("hopf:1").chart.sample_points[:4])
    points.insert(2, (1.5707963267948966, 0.6, 0.5, 0.7))
    return _with_points("hopf:1", tuple(points))


@pytest.mark.parametrize("key, make", [(e.key, None) for e in catalog.ENTRIES]
                         + [("hopf:2", _dense_hopf2), ("hopf:1", _foliation_fault)],
                         ids=[e.key for e in catalog.ENTRIES] + ["hopf:2-50", "foliation"])
def test_run_suites_rows_read_as_records_added_one_at_a_time(monkeypatch, key, make):
    cp = make() if make else catalog.resolve(key)
    expected = None if make is _foliation_fault else dict(catalog.entry(key).expected)
    suites = ("definitions", "lemmas") if expected is None else bm.SUITES
    report = _run(cp, suites, expected)

    add_rows, inside = Report.add_rows, []

    def record_by_record(self, points, rows):
        if inside:  # the one-row block of one Report.add
            return add_rows(self, points, rows)
        inside.append(True)
        try:
            for p, pt in enumerate(points):
                record_rows(self, tuple(rows), p, pt)
        finally:
            inside.pop()

    monkeypatch.setattr(Report, "add_rows", record_by_record)
    oracle = _run(cp, suites, expected)
    assert all(len(b.points) == 1 for b in oracle.blocks)
    assert len(report.checks) == len(oracle.checks) > len(report.blocks)
    if make is _foliation_fault:
        assert [c.name for c in report.failures] == ["volume_form", "foliation_dimensions"]
    same_reading(report, oracle)
