"""Berger spheres times a line: a deformation family inside the class.

The D-homothetic deformation of the round model (``helpers.berger``) is a
normal metric contact pair of type (m, 0) for every a > 0, but Bochner-flat
and conformally flat only at a = 1, where it is the round model.  Each
deformed structure is written as a manifold file and read back, as a user's
file would be.  The checks of the structure pass over the whole grid, the
flatness tensors vanish to rounding at a = 1 and grow like |a - 1| off it,
and the theorem rows under the round model's expected table fail for every
a != 1.
"""

import json

import numpy as np
import pytest

from contactcurv import bochner as bm
from contactcurv import catalog, cli
from contactcurv import riemann as rm

from helpers import berger

GRID = (0.5, 0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1, 2.0)
CASES = [(m, a) for m in (1, 2) for a in GRID]

# bounds of sup |B_J| / |a - 1| and sup |W| / |a - 1| over a != 1, each at
# least 10% outside the range measured on the grid: 0.33-0.97 and
# 0.67-1.94 on m = 1, 0.43-1.82 for both on m = 2
RATIO_BOUNDS = {1: ((0.30, 1.07), (0.60, 2.14)), 2: ((0.39, 2.01), (0.39, 2.01))}


@pytest.fixture(scope="module")
def berger_file(tmp_path_factory):
    folder = tmp_path_factory.mktemp("berger")
    exports = {m: cli.manifold_to_dict(catalog.hopf(m)) for m in (1, 2)}

    def path(m, a):
        out = folder / f"berger_{m}_{a}.json"
        if not out.exists():
            out.write_text(json.dumps(berger(exports[m], a)))
        return str(out)
    return path


def _sups(cp):
    points = cp.chart.sample_points
    b_j = bm.bochner(bm.context(cp, points, "J"))
    return float(np.max(np.abs(b_j))), float(np.max(np.abs(rm.weyl(cp.metric, points).comps)))


def test_a_equal_to_1_is_the_round_model():
    for m in (1, 2):
        data = cli.manifold_to_dict(catalog.hopf(m))
        assert berger(data, 1.0) == data


@pytest.mark.parametrize("m, a", CASES)
def test_check_passes(capsys, berger_file, m, a):
    assert cli.main(["check", berger_file(m, a)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("m, a", CASES)
def test_flatness_grows_with_the_deformation(berger_file, m, a):
    b_j, w = _sups(cli.load_manifold(berger_file(m, a)))
    if a == 1.0:
        assert b_j < 1e-13 and w < 1e-13
    else:
        (b_low, b_high), (w_low, w_high) = RATIO_BOUNDS[m]
        assert b_low < b_j / abs(a - 1.0) < b_high
        assert w_low < w / abs(a - 1.0) < w_high


@pytest.mark.parametrize("m, a", CASES)
def test_the_theorems_hold_only_on_the_round_model(berger_file, m, a):
    cp = cli.load_manifold(berger_file(m, a))
    expected = dict(catalog.entry(f"hopf:{m}").expected)
    report = bm.run_suites(cp, ("theorem1", "theorem2"), expected, None,
                           cp.chart.sample_points)
    failed = {check.name for check in report.failures}
    # the Weyl shift under e^{2f} g is recorded at every point
    shifts = [check for check in report.checks if check.name == "weyl_13_conformal_shift"]
    assert [check.point for check in shifts] == list(cp.chart.sample_points)
    if a == 1.0:
        assert report.passed
    else:
        # both flatness rows and the model curvature fail; Z2 = d/dt stays
        # parallel, and W is conformally invariant on any metric, here with
        # sup |W| of 8.9e-4 (a = 0.999) to 1.94, so the shift compares
        # tensors that are not zero
        assert {"bochner_flatness", "weyl_flatness", "hopf_model_curvature"} <= failed
        assert "reeb2_parallel" not in failed
        assert all(check.passed for check in shifts)
        assert float(np.max(np.abs(rm.weyl(cp.metric, cp.chart.sample_points).comps))) > 5e-4
