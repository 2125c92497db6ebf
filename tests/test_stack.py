"""One kernel for a point and for a stack of points.

``geometry_at``, ``structure_at``, the Bochner assembly and the Weyl tensor
take either one point or a tuple of points; over a stack every array gains
a leading point axis.  The suites evaluate their sample points as one stack,
so the stacked values must be the pointwise ones, and the number of kernel
calls of a run must not grow with its points.
"""

import ast
import contextlib
import dataclasses
import inspect
import io
import warnings

import numpy as np
import pytest

from contactcurv import bochner as bm
from contactcurv import catalog, cli
from contactcurv import contactpair as cpm
from contactcurv import riemann as rm

KEYS = [entry.key for entry in catalog.ENTRIES]


# the fields each record declares, so that a field dropped or added shows here
FIELDS = {
    rm.PointGeometry: {"g", "ginv", "dg", "d2g", "_walk", "gamma", "riem4", "ricci", "tau"},
    cpm.StructureData: {"cp", "point", "geo", "alphas", "reebs", "dreebs", "dalphas", "phi",
                        "dphi", "J", "dJ", "T", "dT", "proj", "H", "star_ricci", "tau_star",
                        "foliation_dims"},
}


def _fields(record, prefix=""):
    """Every array and scalar field of a geometry or structure record."""
    names = type(record).__annotations__
    assert set(names) == FIELDS[type(record)]
    out = {}
    for name in names:
        value = getattr(record, name)
        if isinstance(value, (np.ndarray, float)):
            out[prefix + name] = value
    return out


def _close(stacked, single):
    if np.asarray(single).dtype == bool:
        return np.array_equal(stacked, single)
    scale = max(1.0, float(np.max(np.abs(single))))
    return float(np.max(np.abs(np.asarray(stacked) - single))) <= 1e-12 * scale


@pytest.mark.parametrize("key", KEYS)
def test_stack_matches_pointwise(key):
    cp = catalog.resolve(key)
    pts = cp.chart.sample_points
    st = cpm.structure_at(cp, pts)

    def tensors(point, st):
        # the geometry of e^{2f} g with f = 0.1 sin x0, from h = e^{2f} and
        # its partials along x0 at one point or over the stack, as theorem 2
        # forms it (the geometry of 4 g and its B_J were compared here)
        x0 = np.asarray(point)[..., 0]
        h = np.exp(0.2 * np.sin(x0))
        moved = st.geo.conformal(h, 0.2 * np.cos(x0) * h,
                                 (0.04 * np.cos(x0) ** 2 - 0.2 * np.sin(x0)) * h)
        x, kept = st.horizontal_leaf_frame(2)
        return {**_fields(st.geo, "geo."), **_fields(st), **_fields(moved, "moved geo."),
                "B_J": bm.bochner(bm.context(cp, point, "J")),
                "B_T": bm.bochner(bm.context(cp, point, "T")),
                "moved weyl": moved.weyl(),
                "weyl": rm.weyl(cp.metric, point).comps,
                "leaf vectors": x, "leaf mask": kept}

    stacked = tensors(pts, st)
    assert isinstance(st.tau_star, np.ndarray) and st.tau_star.shape == (len(pts),)
    assert bm.context(cp, pts, "T").tau_star.shape == (len(pts),)
    for p, pt in enumerate(pts):
        one = cpm.structure_at(cp, pt)
        single = tensors(pt, one)
        # the scalars are numpy floats at one point, and rm.scalar a Python float
        assert isinstance(one.tau_star, float) and isinstance(one.geo.tau, float)
        assert isinstance(bm.context(cp, pt, "T").tau_star, float)
        assert type(rm.scalar(cp.metric, pt)) is float
        assert rm.scalar(cp.metric, pt) == one.geo.tau
        assert single.keys() == stacked.keys()
        for name, value in single.items():
            assert np.shape(stacked[name][p]) == np.shape(value), name
            assert _close(stacked[name][p], value), (name, p)


def _export(tmp_path, key, count):
    cp = catalog.resolve(key)
    rng = np.random.default_rng(count)
    points = tuple(tuple(float(v) for v in row)
                   for row in 0.3 + 0.9 * rng.random((count, cp.dim)))
    path = tmp_path / str(count) / f"{key}.json"  # the stem names the catalog entry
    path.parent.mkdir()
    cli.save_manifold(dataclasses.replace(cp, chart=dataclasses.replace(
        cp.chart, sample_points=points)), str(path))
    return str(path)


def test_kernel_calls_do_not_grow_with_points(tmp_path, monkeypatch):
    einsum = np.einsum
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    counts = {}
    for count in (5, 50):
        path = _export(tmp_path, "hopf:2", count)
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", path, "--suite", "all", "--format", "json"]) == 0
        counts[count] = len(calls)
    assert counts[5] == counts[50] <= 10 * 50


# the contractions that sum over an index that is not trailing, which the
# package writes as matmuls (see oracles)
REPLACED_EINSUMS = {"...xycv,...c->...xyv", "...ay,...ax->...yx", "...kia,...a->...ik",
                    "...j,...ji->...i", "...a,...aij->...ij", "...aj,...ia->...ij",
                    "pai,pbi->pab", "pzi,pfij->pzfj", "pij,pzj->pzi"}


def test_a_cold_verify_makes_the_pinned_einsum_calls(tmp_path, monkeypatch):
    # 11 calls: 4 outer products summed over the pair axis (two for dX in
    # dJ, dT = dphi -+ dX, and K and E on the right-hand sides of the lemma
    # suite), the index shuffle of C in two geometries (two calls each) and
    # three traces: tau and tau* of g, and tau of e^{2f} g, whose Weyl
    # tensor needs no tau* (12 with the tau* of the Bochner assembly of 4 g)
    einsum, calls = np.einsum, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    path = _export(tmp_path, "hopf:2", 5)
    rm.geometry_at.cache_clear()
    cpm.structure_at.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", path, "--suite", "all", "--format", "json"]) == 0
    assert len(calls) == 11
    assert not REPLACED_EINSUMS & set(calls)


def test_a_cold_verify_takes_one_pfaffian_the_volume_pencil(tmp_path, monkeypatch):
    # the vanishing powers come from the spectrum of d alpha, not from minors
    pfaffian, calls = cpm.pfaffian, []

    def counted(a):
        calls.append(np.shape(a))
        return pfaffian(a)

    monkeypatch.setattr(cpm, "pfaffian", counted)
    path = _export(tmp_path, "hopf:2", 5)
    rm.geometry_at.cache_clear()
    cpm.structure_at.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", path, "--suite", "all", "--format", "json"]) == 0
    assert calls == [(2, 5, 3, 6, 6)]  # with and without alpha1 ^ alpha2, m + n + 1 = 3 roots
    imported = {node.module if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(ast.parse(inspect.getsource(cpm)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "itertools" not in imported


def test_as_point_keeps_an_exact_stack_and_normalises_the_rest():
    stack = ((0.3, 0.4), (0.5, 0.6))
    assert rm.as_point(stack) is stack
    assert rm.as_point(stack[0]) is stack[0]
    for given in ([[0.3, 0.4], [0.5, 0.6]], [(0.3, 0.4), (0.5, 0.6)],
                  ((np.float64(0.3), 0.4), (0.5, 0.6)), np.array(stack),
                  [np.array((0.3, 0.4)), np.array((0.5, 0.6))], ((0.3, 0.4), [0.5, 0.6])):
        out = rm.as_point(given)
        assert out == stack and type(out) is tuple
        assert all(type(p) is tuple and all(type(v) is float for v in p) for p in out)
    for given in ([0.3, 0.4], (np.float64(0.3), 0.4), np.array((0.3, 0.4))):
        out = rm.as_point(given)
        assert out == (0.3, 0.4) and all(type(v) is float for v in out)
    out = rm.as_point(((3, 4), (5, 6)))  # integers become floats
    assert out == ((3.0, 4.0), (5.0, 6.0)) and all(type(v) is float for p in out for v in p)


def test_stacked_callers_raise_the_pointwise_foliation_fault():
    # relabelled as type (0, 1), hopf:1 has swapped foliation dimensions
    cp = dataclasses.replace(catalog.resolve("hopf:1"), pair_type=(0, 1))
    pts = cp.chart.sample_points
    with pytest.raises(cpm.InvalidStructureError) as pointwise:
        cpm.require_foliations(cpm.structure_at(cp, pts[0]))
    for call in (lambda: cpm.require_foliations(cpm.structure_at(cp, pts)),
                 lambda: bm.context(cp, pts),
                 lambda: bm.conformal_invariance_check(cp, "log(2)")):
        with pytest.raises(cpm.InvalidStructureError) as stacked:
            call()
        assert str(stacked.value) == str(pointwise.value)


def test_a_foliation_fault_is_left_in_the_record_at_one_point_as_in_a_stack():
    # at eta1 = pi/2 d alpha1 vanishes to rounding: the first foliation has
    # dimension 3, and the metric is ill-conditioned there
    cp = catalog.resolve("hopf:1")
    point = (1.5707963267948966, 0.5, 0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st = cpm.structure_at(cp, point)
        stack = cpm.structure_at(cp, (cp.chart.sample_points[0], point))
    assert st.foliation_dims.tolist() == [3, 3]
    assert stack.foliation_dims.tolist() == [[1, 3], [3, 3]]
    message = ("characteristic foliations of hopf:1 have dimensions (3, 3) at "
               "(1.5707963267948966, 0.5, 0.5, 0.5); type (1, 0) needs (1, 3)")
    for record in (st, stack):
        with pytest.raises(cpm.InvalidStructureError) as fault:
            cpm.require_foliations(record)
        assert str(fault.value) == message
        assert fault.value.clauses == ["foliation_dimensions"]


# the conformal shift of B_J is no stage: theorem 2 records the Weyl shift
STAGES = {"lemma_checks": cpm, "_theorem1": bm, "_theorem2": bm, "_hopf_certificate": bm}


def test_the_stages_read_the_structure_they_are_handed():
    # run_suites looks the structure up once; the stages neither look it up
    # again nor re-check the foliations the gate has passed
    for name, module in STAGES.items():
        tree = ast.parse(inspect.getsource(getattr(module, name)))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {"structure_at", "require_foliations"}, name
        params = set(inspect.signature(getattr(module, name)).parameters)
        assert "st" in params and not params & {"cp", "points"}, name
    # and they are the stages run_suites calls, which no longer include the
    # conformal shift of B_J
    calls = [node.func for node in ast.walk(ast.parse(inspect.getsource(bm.run_suites)))
             if isinstance(node, ast.Call)]
    called = {getattr(func, "attr", getattr(func, "id", None)) for func in calls}
    assert {name for name in called if name in STAGES or name.startswith("_")} == set(STAGES)


@pytest.mark.parametrize("name", STAGES)
def test_the_stages_return_rows_and_record_nothing(name):
    # run_suites records each stage's rows, once, over its own points
    stage = getattr(STAGES[name], name)
    tree = ast.parse(inspect.getsource(stage))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & {"Report", "add_rows"}, name
    assert "report" not in inspect.signature(stage).parameters, name


@pytest.mark.parametrize("key", ["hopf:2", "heisenberg_r"])
def test_each_stage_returns_rows_with_one_value_per_point(key):
    cp = catalog.resolve(key)
    pts = cp.chart.sample_points[:3]
    expected = dict(catalog.entry(key).expected)
    st = cpm.structure_at(cp, pts)
    b_j = bm.bochner(bm.context(cp, pts))
    certificate = bm._hopf_certificate(st, None)
    outputs = {
        "lemma_checks": cpm.lemma_checks(st, cpm.LEMMA_TOL),
        "_theorem1": bm._theorem1(st, expected, None, b_j, certificate),
        "_theorem2": bm._theorem2(st, expected, None, certificate),
        "_hopf_certificate": certificate,
    }
    for name, rows in outputs.items():
        assert type(rows) is tuple and rows, name
        for row in rows:
            assert len(row) in (4, 5) and isinstance(row[0], str), (name, row[0])
            assert np.shape(row[2]) == (len(pts),), (name, row[0])
            if len(row) == 5:  # pass flags, one per point
                assert np.shape(row[4]) == (len(pts),), (name, row[0])


_POINT = (0.3, 0.4, 0.5, 0.6)


@pytest.mark.parametrize("point, stacked", [
    (_POINT, False), (list(_POINT), False), (np.array(_POINT), False),
    ((_POINT, _POINT), True), ([list(_POINT)], True), (np.array([_POINT] * 3), True),
    ([np.array(_POINT)], True), ((), False), ([], False), (np.empty((0, 4)), True),
], ids=["tuple", "list", "array", "tuple stack", "list stack", "array stack",
        "list of arrays", "empty tuple", "empty list", "empty array stack"])
def test_is_stack_agrees_with_the_array_rank(point, stacked):
    # it reads only the first element, and gives what the rank of the whole
    # array would give
    assert rm.is_stack(point) is stacked
    assert (np.ndim(point) == 2) is stacked
