import contextlib
import io
import json

import numpy as np
import pytest

import inputs
import workloads
from contactcurv import catalog, cli
from contactcurv import riemann as rm


def fields(cp):
    return (cp.metric.comps, cp.alpha1.comps, cp.alpha2.comps, cp.z1.comps, cp.z2.comps)


@pytest.mark.parametrize("m", [1, 2])
def test_nested_hopf_matches_the_catalog(m):
    reference = catalog.hopf(m)
    generated = cli.manifold_from_dict(inputs.nested_hopf(m, []), f"nested_hopf_{m}")
    assert generated.pair_type == reference.pair_type
    for pt in reference.chart.sample_points:
        for ours, theirs in zip(fields(generated), fields(reference)):
            v1, d1 = rm.eval_field(ours, generated.chart, pt)
            v2, d2 = rm.eval_field(theirs, reference.chart, pt)
            assert np.max(np.abs(v1 - v2)) <= 1e-12
            assert np.max(np.abs(d1 - d2)) <= 1e-12


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("m", [3, 4])
def test_high_dimensional_charts_pass_the_tensor_gate(m, tmp_path):
    pts = inputs.seeded_points(7, m, 2 * m + 2, inputs.NESTED_HOPF_BOX, 1)
    path = inputs.write_manifold(inputs.nested_hopf(m, pts), str(tmp_path / "n.json"))
    at = ",".join(repr(v) for v in pts[0])
    for what in workloads.TENSORS:
        code, out = run_cli(["tensor", path, "--what", what, "--at", at,
                             "--format", "json"])
        assert workloads.tensor_gate(m, what)(code, out) is None


def test_seeded_points_repeat_and_stay_in_the_box():
    a = inputs.seeded_points(3, 1, 6, (0.3, 1.2), 4)
    assert a == inputs.seeded_points(3, 1, 6, (0.3, 1.2), 4)
    assert a != inputs.seeded_points(4, 1, 6, (0.3, 1.2), 4)
    assert all(0.3 <= v <= 1.2 for p in a for v in p)


def test_catalog_export_keeps_the_key_and_the_seeded_points(tmp_path):
    path = inputs.export_catalog_entry("heisenberg_r", 5, 0, 2, str(tmp_path))
    cp = cli.load_manifold(path)
    assert cp.name == "heisenberg_r"
    assert cp.chart.sample_points == inputs.seeded_points(5, 0, 4, (-0.8, 0.8), 2)
    code, out = run_cli(["verify", path, "--suite", "all", "--format", "json"])
    expected = 1 + 2 * workloads.VERIFY_CHECKS_PER_POINT["heisenberg_r"]
    assert workloads.verify_gate(expected)(code, out) is None


def test_verify_gate_rejects_wrong_counts_flags_and_constants():
    report = {"summary": {"total": 2, "passed": 2, "failed": 0},
              "checks": [{"name": "a", "passed": True}, {"name": "b", "passed": True}]}
    gate = workloads.verify_gate(2)
    assert gate(0, json.dumps(report)) is None
    assert gate(1, json.dumps(report)) is not None
    assert workloads.verify_gate(3)(0, json.dumps(report)) is not None
    report["checks"][1]["passed"] = False
    assert gate(0, json.dumps(report)) is not None
    assert gate(0, '{"value": Infinity}') is not None


def test_tail_keeps_ten_samples_beyond_it():
    assert workloads.tail(list(range(100))) == (89, 90.0)
    assert workloads.tail(list(range(200))) == (189, 95.0)


def test_tail_of_a_short_run_is_p90():
    assert workloads.tail(list(range(10))) == (8, 90.0)
    assert workloads.tail(list(range(50))) == (44, 90.0)
    assert workloads.tail([3.0]) == (3.0, 90.0)


def test_typical_ms_is_the_geometric_mean_of_class_medians():
    samples = {"a": [1.0, 2.0, 100.0], "b": [8.0, 8.0, 9.0]}
    assert workloads.typical_ms(samples) == pytest.approx(4.0)

