import argparse
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import contactcurv
from contactcurv import bochner, catalog, cli, contactpair, exprlang, riemann
from contactcurv.report import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for key in ("hopf:1", "hopf:2", "sphere_product:1,1", "heisenberg_r"):
            assert key in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert {"key", "description", "expected"} <= set(rows[0])

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "list", "--filter", "hopf")
        assert code == 0
        assert out.count("hopf") >= 2 and "heisenberg" not in out


class TestCheck:
    def test_catalog_entry_passes(self, capsys):
        code, out, _ = run(capsys, "check", "hopf:1")
        assert code == 0
        assert "checks passed" in out

    def test_json_report_carries_values_and_conventions(self, capsys):
        code, out, _ = run(capsys, "check", "sphere_product:1,1",
                           "--format", "json", "--points", "2")
        assert code == 0
        report = json.loads(out)
        assert report["conventions"]["exterior_derivative_factor"] == 0.5
        assert report["conventions"]["bochner_reading"] == "combination"
        assert report["summary"]["failed"] == 0
        # values and tolerances round-trip bit for bit
        extremes = (0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3)
        edge = Report("edge")
        for x in extremes:
            edge.add("edge", "", x, x)
        back = json.loads(edge.to_json())["checks"]
        for x, rec in zip(extremes, back):
            assert rec["value"].hex() == rec["tolerance"].hex() == x.hex()

    def test_broken_reeb_normalization_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export", "hopf:1", str(tmp_path / "m.json"))
        assert code == 0
        data = json.loads((tmp_path / "m.json").read_text())
        data["Z1"] = ["0", "0.9", "0.9", "0"]
        (tmp_path / "broken.json").write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", str(tmp_path / "broken.json"))
        assert code == 1
        assert "reeb_duality" in out

    def test_unparseable_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error" in err

    def test_bad_expression_in_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "export", "hopf:1", str(tmp_path / "m.json"))
        data = json.loads((tmp_path / "m.json").read_text())
        data["alpha1"][1] = "cos(eta"
        (tmp_path / "m.json").write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(tmp_path / "m.json"))
        assert code == 2

    @pytest.mark.parametrize("field, value", [
        ("type", [1.9, 0]), ("type", [-1, 2]), ("type", [True, 0]),
        ("type", ["1", 0]), ("dim", 4.0), ("dim", "4")])
    def test_counts_must_be_json_integers(self, capsys, tmp_path, field, value):
        run(capsys, "export", "hopf:1", str(tmp_path / "m.json"))
        data = json.loads((tmp_path / "m.json").read_text())
        data[field] = value
        (tmp_path / "m.json").write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(tmp_path / "m.json"))
        assert code == 2
        assert "non-negative integer" in err

    def test_degenerate_metric_is_input_error(self, capsys, tmp_path):
        run(capsys, "export", "hopf:1", str(tmp_path / "m.json"))
        data = json.loads((tmp_path / "m.json").read_text())
        data["metric"]["3,3"] = "-1"
        (tmp_path / "m.json").write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(tmp_path / "m.json"))
        assert code == 2
        assert "positive definite" in err

    def test_deterministic_json_output(self, capsys):
        _, first, _ = run(capsys, "check", "heisenberg_r", "--format", "json")
        _, second, _ = run(capsys, "check", "heisenberg_r", "--format", "json")
        assert first == second


class TestTensor:
    def test_bochner_on_model_space_is_flat(self, capsys):
        code, out, _ = run(capsys, "tensor", "hopf:1", "--what", "bochner-j",
                           "--at", "default")
        assert code == 0
        assert "all components below 1e-12" in out

    def test_weyl_on_model_space(self, capsys):
        code, out, _ = run(capsys, "tensor", "hopf:2", "--what", "weyl",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["max_abs_component"] < 1e-8

    def test_bochner_negative_control(self, capsys):
        code, out, _ = run(capsys, "tensor", "heisenberg_r", "--what", "bochner-j",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["max_abs_component"] > 1e-2

    def test_explicit_point(self, capsys):
        code, out, _ = run(capsys, "tensor", "hopf:1", "--what", "ricci",
                           "--at", "0.5,0.4,0.3,0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["point"] == [0.5, 0.4, 0.3, 0.2]
        assert payload["tau"] == pytest.approx(6.0)

    @pytest.mark.parametrize("what", cli._TENSOR_CHOICES)
    def test_nonzero_components_in_index_order(self, capsys, what):
        cp = catalog.resolve("hopf:4")
        comps, _ = cli._tensor_at(cp, what, cp.chart.sample_points[0])
        names = cp.chart.coords
        scan = [(",".join(names[i] for i in idx), float(comps[idx]))
                for idx in np.ndindex(*comps.shape) if abs(float(comps[idx])) > 1e-12]
        code, out, _ = run(capsys, "tensor", "hopf:4", "--what", what, "--format", "json")
        assert code == 0
        assert list(json.loads(out)["nonzero_components"].items()) == scan

    def test_negative_first_coordinate_needs_the_equals_form(self, capsys):
        # argparse reads a value that starts with '-' and holds a comma as an
        # option, so only --at=... reaches the heisenberg_r box (-0.8, 0.8)
        with pytest.raises(SystemExit) as exc:
            cli.main(["tensor", "heisenberg_r", "--what", "ricci",
                      "--at", "-0.5,0.1,0.2,0.3"])
        assert exc.value.code == 2
        assert "argument --at: expected one argument" in capsys.readouterr().err
        code, out, _ = run(capsys, "tensor", "heisenberg_r", "--what", "ricci",
                           "--at=-0.5,0.1,0.2,0.3", "--format", "json")
        assert code == 0
        assert json.loads(out)["point"] == [-0.5, 0.1, 0.2, 0.3]

    def test_point_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, "tensor", "hopf:1", "--what", "ricci",
                           "--at", "0.5,0.4")
        assert code == 2

    def test_weyl_regime_mismatch_on_low_dimension(self, capsys, tmp_path):
        tiny = {
            "dim": 2, "coords": ["x", "y"], "metric": {"0,0": "1", "1,1": "1"},
            "alpha1": ["1", "0"], "alpha2": ["0", "1"],
            "Z1": ["1", "0"], "Z2": ["0", "1"], "type": [0, 0],
            "sample_points": [[0.1, 0.2]],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny))
        code, _, err = run(capsys, "tensor", str(path), "--what", "weyl")
        assert code == 2
        assert "dimension" in err


class TestVerify:
    def test_model_space_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "hopf:1", "--suite", "all",
                           "--points", "2")
        assert code == 0

    def test_lemma_suite_with_loosened_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify", "hopf:1", "--suite", "lemmas",
                           "--tolerance", "1e-3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["conventions"]["tolerance_requested"] == 1e-3
        assert all(c["tolerance"] >= 1e-3 for c in report["checks"]
                   if c["tolerance"] is not None)

    def test_expected_nonflat_entry_passes_theorem1(self, capsys):
        code, out, _ = run(capsys, "verify", "sphere_product:1,1",
                           "--suite", "theorem1", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_negative_control_theorem2(self, capsys):
        code, out, _ = run(capsys, "verify", "heisenberg_r", "--suite",
                           "theorem2", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_theorem2_honours_points(self, capsys):
        code, out, _ = run(capsys, "verify", "hopf:1", "--suite", "theorem2",
                           "--points", "2", "--format", "json")
        assert code == 0
        # the Weyl shift closes theorem 2's block, one row per point
        shifts = [c for c in json.loads(out)["checks"]
                  if c["name"] == "weyl_13_conformal_shift"]
        assert len(shifts) == 2

    def test_theorem_suite_requires_catalog_entry(self, capsys, tmp_path):
        run(capsys, "export", "hopf:1", str(tmp_path / "user.json"))
        code, _, err = run(capsys, "verify", str(tmp_path / "user.json"),
                           "--suite", "theorem1")
        assert code == 2
        assert "catalog" in err


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("points", ["0", "-1", "two", "\u0663", "\u00b2", "\uff13"],
                         ids=["0", "-1", "two", "arabic-indic-3", "superscript-2",
                              "fullwidth-3"])
def test_points_must_be_a_positive_integer(capsys, command, points):
    # str.isdigit takes the last three, and int() reads two of them as 3
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "hopf:1", "--points", points])
    assert exc.value.code == 2
    assert f"expected a positive integer, got '{points}'" in capsys.readouterr().err


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "list")[0] == 0
    assert run(capsys, "tensor", "hopf:1", "--what", "ricci")[0] == 0
    assert built == []


def _command_sequence(capsys):
    """A usage error, --help, verify, tensor and a JSON listing, each as
    (exit code, stdout, stderr)."""
    out = []
    for argv in (["verify"], ["--help"], ["verify", "hopf:1", "--points", "2"],
                 ["tensor", "hopf:2", "--what", "weyl", "--format", "json"],
                 ["list", "--format", "json"]):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out.append((code, *capsys.readouterr()))
    return out


def test_the_parser_serves_every_call_of_a_process_alike(capsys):
    first = _command_sequence(capsys)
    assert [code for code, _, _ in first] == [2, 0, 0, 0, 0]
    assert "usage: contactcurv" in first[0][2] and "usage: contactcurv" in first[1][1]
    assert _command_sequence(capsys) == first


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("tolerance", ["inf", "nan", "1e400", "-1", "\u0663", "\uff13", "1_0"])
def test_tolerance_must_be_finite_and_non_negative(capsys, command, tolerance):
    # float() reads the last three as 3, 3 and 10
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "hopf:1", "--tolerance", tolerance, "--format", "json"])
    assert exc.value.code == 2
    assert "finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["contactcurv", "contactcurv.cli"])
def test_python_m_entry_points(module):
    src = str(Path(contactcurv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", module, "list"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "hopf:1" in done.stdout


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(capsys, tmp_path):
    # `contactcurv check <file> --format json | head -1`, with a report of
    # about 400 kB, far more than a pipe holds: the write meets the closed
    # pipe, and the run still ends in the exit code of its checks
    path = _hopf1_variant(capsys, tmp_path, lambda data: data.__setitem__(
        "sample_points", data["sample_points"] * 8))
    src = str(Path(contactcurv.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "contactcurv", "check", path,
                             "--format", "json"], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"{\n"
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_output_to_a_full_device_is_an_error_without_traceback():
    # `contactcurv check hopf:1 --format json > /dev/full`: the write of the
    # report fails, and the run says so in one line and exits 2
    src = str(Path(contactcurv.__file__).resolve().parent.parent)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "contactcurv", "check", "hopf:1",
                               "--format", "json"], env=dict(os.environ, PYTHONPATH=src),
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output:")


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from contactcurv import *", namespace)
    assert set(contactcurv.__all__) <= set(namespace)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("argv", [["check"], ["verify", "--suite", "all"],
                                  ["verify", "--suite", "lemmas"]])
def test_invalid_structure_reports_strict_json(capsys, tmp_path, argv):
    # hopf:1 relabelled as type (0, 1): the foliation dimensions are swapped
    path = tmp_path / "relabelled.json"
    run(capsys, "export", "hopf:1", str(path))
    data = json.loads(path.read_text())
    data["type"] = [0, 1]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:], "--format", "json")
    assert code == 1
    report = json.loads(out, parse_constant=_reject_constant)
    foliation = [c for c in report["checks"] if c["name"] == "foliation_dimensions"]
    assert foliation and not any(c["passed"] for c in foliation)


def _clear_package_caches():
    for module in vars(contactcurv).values():
        if isinstance(module, types.ModuleType):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.parametrize("key, per_point", [("hopf:1", 39), ("hopf:2", 39),
                                            ("hopf:3", 39), ("hopf:4", 39),
                                            ("sphere_product:1,1", 35),
                                            ("heisenberg_r", 33)])
def test_verify_all_validates_the_structure_once(capsys, monkeypatch, key, per_point):
    _clear_package_caches()
    calls = []
    validate = contactpair.validate_structure

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(contactpair, "validate_structure", counted)
    code, out, _ = run(capsys, "verify", key, "--suite", "all", "--format", "json")
    assert code == 0
    assert len(calls) == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 1 + 5 * per_point
    assert all(c["passed"] for c in checks)


# geometries a verify --suite all builds: that of g, and on the Weyl-flat
# entries that of e^{2f} g for theorem 2's Weyl shift; B_J is assembled only
# for theorem 1 (it was assembled a second time, for 4 g, on the Weyl-flat
# entries)
GEOMETRIES_PER_REQUEST = [("hopf:1", 2), ("hopf:2", 2), ("hopf:3", 2), ("hopf:4", 2),
                          ("sphere_product:1,1", 1), ("heisenberg_r", 1)]


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("key, geometries, points", [
    pytest.param(key, count, points, id=f"{key}-{count}" + (f"-export-{points}" if points else ""))
    for points in (None, 50) for key, count in GEOMETRIES_PER_REQUEST])
def test_verify_all_assembles_bochner_once_per_structure(capsys, monkeypatch, tmp_path, key,
                                                         geometries, points):
    # B_J once over the stack of points; the geometry of e^{2f} g comes from
    # the jets of g, so no second metric is walked over jets, and the jets
    # are walked once per request for the metric and once for the forms and
    # fields, whatever the number of points
    _clear_package_caches()
    target = key
    if points:  # an export of the entry with seeded points from its sampling box
        target = str(tmp_path / f"{key}.json")  # the stem names the catalog entry
        run(capsys, "export", key, target)
        data = json.loads(Path(target).read_text())
        lo, hi = (-0.8, 0.8) if key == "heisenberg_r" else (0.3, 1.2)
        data["sample_points"] = (lo + (hi - lo) * np.random.default_rng(points).random(
            (points, data["dim"]))).tolist()
        Path(target).write_text(json.dumps(data))
    calls = {"bochner": 0, "field_jets": 0, "geometries": 0}
    monkeypatch.setattr(bochner, "bochner", _counted(calls, "bochner", bochner.bochner))
    monkeypatch.setattr(riemann, "field_jets", _counted(calls, "field_jets", riemann.field_jets))
    monkeypatch.setattr(riemann.PointGeometry, "__init__", _counted(
        calls, "geometries", riemann.PointGeometry.__init__))
    code, out, err = run(capsys, "verify", target, "--suite", "all", "--format", "json")
    assert code == 0, err
    assert len({tuple(c["point"]) for c in json.loads(out)["checks"] if c["point"]}) \
        == (points or 5)
    assert calls == {"bochner": 1, "field_jets": 2, "geometries": geometries}


@pytest.mark.parametrize("key, geometries", GEOMETRIES_PER_REQUEST)
def test_verify_all_contracts_the_star_of_j_once(capsys, monkeypatch, key, geometries):
    # structure_at contracts the star of J once, and the context of B_J
    # reuses its tau*; a Bochner assembly reads all its contractions off R
    # in one middle contraction, without this function, and the geometry of
    # e^{2f} g is read by the Weyl tensor alone (the Bochner assembly of 4 g
    # took a second star contraction on the Weyl-flat entries)
    _clear_package_caches()
    calls = {"star_contraction": 0, "geometries": 0}
    monkeypatch.setattr(contactpair, "star_contraction", _counted(
        calls, "star_contraction", contactpair.star_contraction))
    monkeypatch.setattr(riemann.PointGeometry, "__init__", _counted(
        calls, "geometries", riemann.PointGeometry.__init__))
    code, _, err = run(capsys, "verify", key, "--suite", "all")
    assert code == 0, err
    assert calls == {"star_contraction": 1, "geometries": geometries}


def _hopf1_variant(capsys, tmp_path, edit):
    path = tmp_path / "variant.json"
    run(capsys, "export", "hopf:1", str(path))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return str(path)


def _nan_point(data):
    data["sample_points"] = [["nan", 0.5, 0.5, 0.5]]


def _cancelled_infinity(data):
    data["alpha2"][3] = "1 + t*1e308*10 - t*1e308*10"


@pytest.mark.parametrize("edit", [_nan_point, _cancelled_infinity])
@pytest.mark.parametrize("argv", [["verify"], ["check"],
                                  ["tensor", "--what", "star-ricci",
                                   "--at", "nan,0.5,0.5,0.5"]])
def test_non_finite_input_is_an_input_error(capsys, tmp_path, edit, argv):
    path = _hopf1_variant(capsys, tmp_path, edit)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert err.startswith("error:")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("edit, message", [
    # json writes these as the non-standard JSON numbers Infinity and NaN
    (lambda data: data["metric"].__setitem__("3,3", float("inf")),
     "metric['3,3'] must be a finite number, got inf"),
    (lambda data: data.__setitem__("params", {"unused": float("nan")}),  # read by nothing
     "params['unused'] must be a finite number, got nan"),
    (lambda data: data["alpha2"].__setitem__(3, float("-inf")),
     "alpha2[3] must be a finite number, got -inf"),
    (lambda data: data["sample_points"][2].__setitem__(1, float("nan")),
     "sample_points[2][1] must be a finite number, got nan"),
    (lambda data: data["Z1"].__setitem__(0, 10 ** 400),
     "Z1[0] must be a finite number, got an integer too large for a double"),
    # a parameter string is read as a number, and refused as the number is
    (lambda data: data.__setitem__("params", {"unused": "nan"}),
     "params['unused'] must be a finite number, got nan"),
    (lambda data: data.__setitem__("params", {"unused": "inf"}),
     "params['unused'] must be a finite number, got inf"),
    (lambda data: data.__setitem__("params", {"unused": "1e999"}),
     "params['unused'] must be a finite number, got inf"),
], ids=["infinite-metric-entry", "unread-nan-param", "infinite-form-entry",
        "nan-point-coordinate", "huge-integer-field-entry", "nan-string-param",
        "inf-string-param", "overflowing-string-param"])
def test_non_finite_json_number_is_refused_at_load(capsys, tmp_path, edit, message):
    path = _hopf1_variant(capsys, tmp_path, edit)
    code, out, err = run(capsys, "check", path)
    assert (code, out, err) == (2, "", f"error: bad manifold file: {message}\n")


# points of a hopf:1 chart (eta1, xi0, xi1, t) at which a point-by-point
# run meets a fault
NOT_PD = [0.0, 0.5, 0.5, 0.5]  # sin(eta1) = 0
NAN = ["nan", 0.5, 0.5, 0.5]
ILL = [1e-5, 0.5, 0.5, 0.5]  # condition number 1e10
BAD_ALPHA = [0.7, 0.6, 0.5, 0.7]  # t = 0.7, where alpha2 below divides by zero
NOT_PD_MESSAGE = "error: metric is not positive definite at (0.0, 0.5, 0.5, 0.5)\n"
BAD_ALPHA_MESSAGE = "error: division by zero in '1.0/(t - 0.7)'\n"
ILL_WARNING = "metric condition number 1.000e+10 at (1e-05, 0.5, 0.5, 0.5)"


def _insert(*placed):
    """Keep four of the export's points and insert each (index, point)."""
    def edit(data):
        points = data["sample_points"][:4]
        for index, point in placed:
            points.insert(index, point)
        data["sample_points"] = points
        if any(point is BAD_ALPHA for _, point in placed):
            data["alpha2"][3] = "1/(t - 0.7)"
    return edit


@pytest.mark.parametrize("edit, code, err, warned", [
    (_insert((2, NOT_PD)), 2, NOT_PD_MESSAGE, []),
    (_insert((2, NAN)), 2, "error: non-finite value or derivative at "
                           "(nan, 0.5, 0.5, 0.5) in 'cos(eta1)^2.0'\n", []),
    # the first faulty point in point order decides, whichever its fault
    (_insert((1, BAD_ALPHA), (3, NOT_PD)), 2, BAD_ALPHA_MESSAGE, []),
    (_insert((1, NOT_PD), (3, BAD_ALPHA)), 2, NOT_PD_MESSAGE, []),
    (_insert((1, ILL), (3, NOT_PD)), 2, NOT_PD_MESSAGE, [ILL_WARNING]),
    (_insert((1, BAD_ALPHA), (3, ILL)), 2, BAD_ALPHA_MESSAGE, []),
    # the point-by-point re-run after a fault warns for the points before it
    (_insert((1, ILL), (3, BAD_ALPHA)), 2, BAD_ALPHA_MESSAGE, [ILL_WARNING]),
    (_insert((1, ILL), (3, NAN)), 2, "error: non-finite value or derivative at "
                                     "(nan, 0.5, 0.5, 0.5) in 'cos(eta1)^2.0'\n",
     [ILL_WARNING]),
])
@pytest.mark.parametrize("command", ["verify", "check"])
def test_faulty_point_is_reported_in_point_order(capsys, tmp_path, edit, code, err,
                                                 warned, command):
    path = _hopf1_variant(capsys, tmp_path, edit)
    _clear_package_caches()  # a cached geometry does not warn again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, command, path, "--format", "json")
    assert result[0] == code
    assert result[2] == err
    assert [str(w.message) for w in caught] == warned
    assert all(w.category is riemann.IllConditionedMetricWarning for w in caught)


@pytest.mark.parametrize("command, code, err", [
    ("verify", 2, "error: theorem suites need the expected-results table of a catalog "
                  "entry; 'variant' is not in the catalog\n"),
    ("check", 0, ""),
], ids=["verify", "check"])
def test_ill_conditioned_points_pass_the_structure_gate(capsys, tmp_path, command, code,
                                                         err):
    # phi's rank is read in a g-orthonormal frame, so both points pass the
    # gate: check passes every lemma there, the curvature read off the jets
    # of g without the partials of g^-1, and verify goes on to the theorem
    # suites, which a file outside the catalog cannot run
    path = _hopf1_variant(capsys, tmp_path, _insert((1, ILL), (3, [2e-5, 0.5, 0.5, 0.5])))
    _clear_package_caches()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, command, path, "--format", "json")
    assert result[0] == code
    assert result[2] == err
    assert [str(w.message) for w in caught] == [
        ILL_WARNING, "metric condition number 2.500e+09 at (2e-05, 0.5, 0.5, 0.5)"]
    assert all(w.category is riemann.IllConditionedMetricWarning for w in caught)
    if command == "check":
        checks = json.loads(result[1])["checks"]
        assert [c for c in checks if not c["passed"]] == []
        values = {(c["name"], c["point"][0]): c["value"] for c in checks if c["point"]}
        for x in (1e-5, 2e-5):
            for name in ("star_ricci_j_exchange", "ricci_j_invariance_horizontal"):
                assert abs(values[name, x]) <= 1e-12


@pytest.mark.parametrize("command", ["check", "verify", "tensor"])
def test_ill_conditioning_is_no_error_under_runtime_warnings(capsys, tmp_path, command):
    # with RuntimeWarnings as errors, the ill-conditioning warning is still
    # printed as a warning and the run ends in its own exit code
    path = _hopf1_variant(capsys, tmp_path, _put("metric", "3,3", "exp(700*t)"))
    argv = [command, path] + (["--what", "weyl"] if command == "tensor" else [])
    src = str(Path(contactcurv.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "contactcurv", *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "IllConditionedMetricWarning: metric condition number" in done.stderr
    # each warning is one line, without the library line that issued it
    *notes, last = done.stderr.splitlines()
    assert notes and all(line.startswith("IllConditionedMetricWarning: metric condition "
                                         "number ") for line in notes)
    assert last.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "check"])
def test_foliation_fault_at_one_point_is_recorded_there(capsys, tmp_path, command):
    # at eta1 = pi/2, d alpha1 vanishes to rounding, so the first foliation
    # has dimension 3; the other points keep their full records
    odd = [1.5707963267948966, 0.6, 0.5, 0.7]
    path = _hopf1_variant(capsys, tmp_path, _insert((2, odd)))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code, out, _ = run(capsys, command, path, "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 1 + 4 * 18 + 4
    at_odd = [(c["name"], c["passed"]) for c in checks if c["point"] == odd]
    assert at_odd == [("volume_form", False), ("dalpha1_power_vanishes", True),
                      ("dalpha2_power_vanishes", True), ("foliation_dimensions", False)]
    fault = next(c for c in checks if c["name"] == "foliation_dimensions")
    assert fault["detail"] == (
        "characteristic foliations of variant have dimensions (3, 3) at "
        "(1.5707963267948966, 0.6, 0.5, 0.7); type (1, 0) needs (1, 3)")
    assert (fault["value"], fault["tolerance"]) == (2.0, 0.0)
    assert [c["name"] for c in checks if not c["passed"]] == ["volume_form",
                                                              "foliation_dimensions"]


def _set(field, value):
    def edit(data):
        data[field] = value
    return edit


def _metric_key(*keys):
    def edit(data):
        for key in keys:
            data["metric"][key] = "1"
    return edit


def _resize(field, count):
    def edit(data):
        data[field] = (data[field] * 2)[:count]
    return edit


def _repeat_coordinate(data):
    data["coords"][1] = data["coords"][0]


def _put(field, index, value):
    def edit(data):
        data[field][index] = value
    return edit


def _heisenberg_coords(value):
    def edit(data):
        # the heisenberg_r coordinates are one character each
        data.clear()
        data.update(cli.manifold_to_dict(catalog.resolve("heisenberg_r")))
        data["coords"] = value
    return edit


def _first_point_coordinate(value):
    def edit(data):
        data["sample_points"][0][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    _metric_key("9,9"), _metric_key("-1,0"), _set("metric", [1, 2]),
    _set("params", [1]), _resize("alpha1", 2), _resize("Z1", 5),
    _repeat_coordinate, _set("params", {"t": 1.0}), _put("metric", "3,3", True),
    _put("alpha1", 0, False), _put("alpha2", 3, True), _put("Z1", 1, True),
    _put("Z2", 3, True), _set("params", {"c": True}), _first_point_coordinate(False),
    _first_point_coordinate("\u0663"), _first_point_coordinate("\uff13"),
    _first_point_coordinate("1_0"), _set("params", {"c": "\uff13"}),
    _metric_key("\u0660,\u0660"), _metric_key("\uff10,\uff10"), _metric_key("0_0,0"),
    _metric_key(" 0 , 0"), _metric_key("+0,0"), _metric_key("0,0,0"), _metric_key("00,0"),
    _metric_key("0,3", "3,0"), _set("alpha2", "0001"), _set("Z2", "0001"),
    _set("sample_points", ["5555"]), _set("sample_points", "5555"), _set("type", "10"),
    _heisenberg_coords("xyzt")],
    ids=["metric-9,9", "metric--1,0", "metric-list", "params-list",
         "alpha1-short", "Z1-long", "repeated-coordinate", "params-coordinate",
         "metric-true", "alpha1-false", "alpha2-true", "Z1-true", "Z2-true",
         "params-true", "point-false", "point-arabic-indic-3", "point-fullwidth-3",
         "point-underscore", "params-fullwidth-3", "metric-arabic-indic-0",
         "metric-fullwidth-0", "metric-underscore", "metric-spaces", "metric-plus",
         "metric-three-indices", "metric-0,0-twice", "metric-3,0-and-0,3",
         "alpha2-string", "Z2-string", "point-string", "points-string", "type-string",
         "coords-string"])
@pytest.mark.parametrize("argv", [["verify"], ["check"],
                                  ["tensor", "--what", "ricci"]])
def test_malformed_manifold_file_is_an_input_error(capsys, tmp_path, edit, argv):
    path = _hopf1_variant(capsys, tmp_path, edit)
    code, _, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert err.startswith("error: bad manifold file:")


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "the top level must be a JSON object, got [1, 2]"),
    ('"hopf:1"', "the top level must be a JSON object, got 'hopf:1'"),
    ("4", "the top level must be a JSON object, got 4"),
], ids=["list", "string", "number"])
@pytest.mark.parametrize("argv", [["verify"], ["check"], ["tensor", "--what", "ricci"]])
def test_a_file_that_is_no_json_object_is_named_so(capsys, tmp_path, text, message, argv):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run(capsys, argv[0], str(path), *argv[1:]) == (
        2, "", f"error: bad manifold file: {message}\n")


@pytest.mark.parametrize("pair_type", [[1, 0, 0], [1], []])
@pytest.mark.parametrize("argv", [["verify"], ["check"], ["tensor", "--what", "ricci"]])
def test_a_type_needs_exactly_two_entries(capsys, tmp_path, pair_type, argv):
    path = _hopf1_variant(capsys, tmp_path, _set("type", pair_type))
    assert run(capsys, argv[0], path, *argv[1:]) == (
        2, "", f"error: bad manifold file: type must have two entries, [m, n], "
               f"got {pair_type}\n")


def _overflowing_two_form(alpha1_t):
    def edit(data):
        # every jet is finite, but s (d_t a_1 - d_xi0 a_t) can overflow
        data["alpha1"][1] = "cos(eta1)^2.0 + 1.5e308*t"
        data["alpha1"][3] = alpha1_t
    return edit


@pytest.mark.parametrize("argv", [["verify"], ["check"], ["tensor", "--what", "ricci"]])
def test_a_two_form_that_overflows_is_an_input_error(capsys, tmp_path, argv):
    path = _hopf1_variant(capsys, tmp_path, _overflowing_two_form("-1.5e308*xi0"))
    first = tuple(catalog.resolve("hopf:1").chart.sample_points[0])
    assert run(capsys, argv[0], path, *argv[1:]) == (
        2, "", f"error: d alpha or its partials are not finite at {first}\n")


@pytest.mark.parametrize("argv", [["verify"], ["check"]])
def test_a_two_form_that_overflows_names_its_first_point(capsys, tmp_path, argv):
    def edit(data):
        # 1.5e308 (1 + t) overflows for t > 0.198...
        _overflowing_two_form("-1.5e308*xi0*t")(data)
        data["sample_points"] = [[0.7, 0.5, 0.5, t] for t in (0.1, 0.9, 0.95)]
    path = _hopf1_variant(capsys, tmp_path, edit)
    assert run(capsys, argv[0], path, *argv[1:]) == (
        2, "", "error: d alpha or its partials are not finite at (0.7, 0.5, 0.5, 0.9)\n")


@pytest.mark.parametrize("where, text, key", [
    ("metric", '"metric": {"0,0": "4.0", ', "0,0"),
    ("params", '"params": {"c": 1.0, "c": 2.0}, ', "c"),
    ("top", '"dim": 4, ', "dim"),
], ids=["metric", "params", "top-level"])
@pytest.mark.parametrize("argv", [["verify"], ["check"], ["tensor", "--what", "ricci"]])
def test_a_key_given_twice_is_an_input_error(capsys, tmp_path, where, text, key, argv):
    # json would keep the later value; the exported hopf:1 has a metric
    # entry '0,0' and a top-level 'dim' already, and the key is put first
    path = Path(_hopf1_variant(capsys, tmp_path, lambda data: data.pop("params", None)))
    source = path.read_text()
    if where == "metric":
        assert '"0,0"' in source
        source = source.replace('"metric": {', text, 1)
    else:
        source = "{" + text + source[1:]
    path.write_text(source)
    assert run(capsys, argv[0], str(path), *argv[1:]) == (
        2, "", f"error: bad manifold file: key '{key}' is given twice\n")


@pytest.mark.parametrize("number", ["\u0663", "\uff13", "1_0"],
                         ids=["arabic-indic-3", "fullwidth-3", "underscore"])
def test_at_takes_ascii_numbers(capsys, number):
    # float() reads them as 3, 3 and 10; expressions and --points refuse them
    at = f"0.5,{number},0.5,0.5"
    assert run(capsys, "tensor", "hopf:1", "--what", "ricci", "--at", at) == (
        2, "", f"error: bad point '{at}': numbers are ASCII and have no underscores\n")


def test_manifold_without_sample_points(capsys, tmp_path):
    path = _hopf1_variant(capsys, tmp_path, _set("sample_points", []))
    for argv in (["check"], ["verify", "--suite", "definitions"], ["verify"]):
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert "declares no sample points" in err
    code, out, _ = run(capsys, "tensor", path, "--what", "ricci",
                       "--at", "0.5,0.4,0.3,0.2", "--format", "json")
    assert code == 0
    assert json.loads(out)["tau"] == pytest.approx(6.0)


@pytest.mark.parametrize("entry, point", [("exp(1000*t)", 1.0), ("1 + t^400", 30.0)])
def test_overflowing_metric_is_an_input_error(capsys, tmp_path, entry, point):
    def edit(data):
        data["metric"]["3,3"] = entry
        data["sample_points"] = [[0.7, 0.8, 0.4, point]]
    code, _, err = run(capsys, "check", _hopf1_variant(capsys, tmp_path, edit))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("entry", ["1 + exp(1000*t)", "1 + t^400", "1 + (t - t)^-1.0",
                                   "2 + sin(1e300*t^4*1e300)"])
def test_a_non_finite_entry_is_one_error_at_a_point_as_over_a_stack(capsys, tmp_path,
                                                                    entry):
    # an overflow, a zero to a negative power or an infinite angle leaves a
    # non-finite entry at one point as over a stack, so both commands refuse
    # it with the same line, naming the point
    def edit(data):
        data["metric"]["3,3"] = entry
        data["sample_points"] = [[0.5, 0.6, 0.7, 30.0]]
    path = _hopf1_variant(capsys, tmp_path, edit)
    _clear_package_caches()
    tensor = run(capsys, "tensor", path, "--what", "riemann", "--at", "0.5,0.6,0.7,30.0")
    verify = run(capsys, "verify", path, "--points", "1")
    assert tensor == verify
    code, out, err = tensor
    assert (code, out) == (2, "")
    assert err.startswith("error: non-finite value or derivative at (0.5, 0.6, 0.7, 30.0) in ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _exp_metric(data):
    data["metric"]["3,3"] = "exp(700*t)"  # finite, but its curvature overflows


def _huge_alpha1(data):
    data["alpha1"] = [f"1e200*({e})" for e in data["alpha1"]]


def _unread_infinite_coordinate(data):
    data["sample_points"][0][1] = "inf"  # xi0: no field of hopf:1 reads it


@pytest.mark.parametrize("edit", [_exp_metric, _huge_alpha1, _unread_infinite_coordinate])
@pytest.mark.parametrize("argv", [["verify"], ["check"], ["tensor", "--what", "weyl"]])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_non_finite_result_is_an_input_error(capsys, tmp_path, edit, argv, fmt):
    path = _hopf1_variant(capsys, tmp_path, edit)
    _clear_package_caches()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], path, *argv[1:], "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    # the exp(700 t) metric is ill-conditioned, which warns; numpy does not
    assert all(w.category is riemann.IllConditionedMetricWarning for w in caught)


@pytest.mark.parametrize("edit", [_huge_alpha1, _unread_infinite_coordinate])
def test_output_check_reads_the_value_columns_and_the_points(capsys, tmp_path, edit):
    # an overflowing residual, or a coordinate no field reads, is caught
    # only where the report leaves the program
    code, out, err = run(capsys, "check", _hopf1_variant(capsys, tmp_path, edit))
    assert (code, out, err) == (2, "", "error: a result or its point is not finite\n")


@pytest.mark.parametrize("entry", ["1 + 10^400", "1 + 0^(-1)", "1 + (-8)^(1/3)"])
@pytest.mark.parametrize("argv", [["verify"], ["check"],
                                  ["tensor", "--what", "star-ricci"]])
def test_literal_power_without_a_real_value_is_an_input_error(capsys, tmp_path,
                                                               entry, argv):
    def edit(data):
        data["metric"]["3,3"] = entry
    code, _, err = run(capsys, argv[0], _hopf1_variant(capsys, tmp_path, edit),
                       *argv[1:])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("entry, message", [
    # an Arabic-Indic three is no digit of the grammar's ASCII source
    ("1 + 0.001*\u0663", "unexpected character '\u0663' (offset 10)"),
    ("1 + 0*1e999", "number '1e999' is out of range (offset 6)"),
], ids=["non-ascii-digit", "overflowing-literal"])
@pytest.mark.parametrize("argv", [["verify"], ["check"],
                                  ["tensor", "--what", "star-ricci"]])
def test_number_outside_the_grammar_is_a_syntax_error(capsys, tmp_path, entry,
                                                      message, argv):
    path = _hopf1_variant(capsys, tmp_path, _metric_entry(entry))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: bad manifold file: {message}\n"


@pytest.mark.parametrize("argv", [["check"], ["tensor", "--what", "star-ricci"]])
def test_literal_arithmetic_that_overflows_is_reported_with_its_source(capsys, tmp_path,
                                                                       argv):
    # folded, 1e308*10 would be inf and the difference nan, and the error
    # would name 'nan' instead of the source
    path = _hopf1_variant(capsys, tmp_path, _metric_entry("1 + t*(1e308*10 - 1e308*10)"))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: non-finite value or derivative at ")
    assert err.endswith(" in '1.0 + t*(1e+308*10.0 - 1e+308*10.0)'\n")


def test_undeclared_name_is_an_input_error(capsys, tmp_path):
    # alpha1 shares the metric's cos(eta1)^2, whose names are checked once
    def edit(data):
        data["alpha1"][1] = "cos(eta1)^2*q"
    path = _hopf1_variant(capsys, tmp_path, edit)
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (2, "")
    assert err == "error: bad manifold file: undeclared names ['q'] in 'cos(eta1)^2.0*q'\n"


def test_a_file_checks_the_names_of_each_distinct_node_once(monkeypatch):
    data = cli.manifold_to_dict(catalog.hopf(2))
    seen_sets = {}
    free_names = exprlang.free_names

    def recorded(e, seen=None):
        seen_sets[id(seen)] = seen
        return free_names(e, seen)
    monkeypatch.setattr(exprlang, "free_names", recorded)
    cp = cli.manifold_from_dict(data, "hopf2")
    exprs = [cp.metric.comps[i][j] for i, j in (map(int, k.split(",")) for k in data["metric"])]
    exprs += [*cp.alpha1.comps, *cp.alpha2.comps, *cp.z1.comps, *cp.z2.comps]
    distinct, todo = set(), exprs
    while todo:
        n = todo.pop()
        if id(n) not in distinct:
            distinct.add(id(n))
            todo += [getattr(n, f) for f in ("arg", "lhs", "rhs") if hasattr(n, f)]
    # one seen set for the file, holding each node once
    assert [len(seen) for seen in seen_sets.values()] == [len(distinct)]


def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")


def _metric_entry(entry):
    def edit(data):
        data["metric"]["3,3"] = entry
    return edit


NESTED = "expression nested deeper than 150 levels"
HIGH = "expression tree higher than 400 levels"


@pytest.mark.parametrize("entry, message", [
    ("(" * 5000 + "1" + ")" * 5000, NESTED), ("-" * 3000 + "1", NESTED),
    ("1" + "+t" * 2999, HIGH),
    # without the bound this one loads, then fails in the run, which hashes the tree
    ("1 + 0.000001*(" + "+".join(["eta1"] * 600) + ")", HIGH),
], ids=["parentheses", "signs", "sum-3000", "sum-600"])
@pytest.mark.parametrize("argv", [["check"], ["verify", "--suite", "all"]])
def test_deeply_nested_input_is_an_input_error(capsys, tmp_path, entry, message, argv):
    path = _hopf1_variant(capsys, tmp_path, _metric_entry(entry))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad manifold file: {message}")


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize("entry, message", [
    # the largest flat sum: 1 + c*(eta1 + ... + eta1) with 398 terms is a tree of height 400
    ("1 + 0.000001*(" + "+".join(["eta1"] * 398) + ")", None),
    ("1 + 0.000001*(" + "+".join(["eta1"] * 399) + ")", HIGH),
    # 149 parentheses around a sum whose call nests once more: 151 levels with the top
    ("(" * 149 + "1 + 0.001*sin(eta1)" + ")" * 149, NESTED),
    ("(" * 148 + "1 + 0.001*sin(eta1)" + ")" * 148, None),
], ids=["height-400", "height-401", "nesting-151", "nesting-150"])
def test_nesting_at_the_bounds(capsys, tmp_path, entry, message):
    # at the bounds every run-path parse, walk, hash and comparison of the
    # tree stays below the recursion limit, here under the test runner's
    # deeper stack as well; one level more is an input error
    assert (exprlang.MAX_NESTING, exprlang.MAX_DEPTH) == (150, 400)
    path = _hopf1_variant(capsys, tmp_path, _metric_entry(entry))
    # the edited metric fails some clauses of check and verify, so they exit 1
    for argv, runs in ((["check"], 1), (["verify"], 1), (["tensor", "--what", "weyl"], 0)):
        _clear_package_caches()
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        if message:
            assert (code, len(err.splitlines())) == (2, 1)
            assert err.startswith(f"error: bad manifold file: {message}")
        else:
            assert (code, err) == (runs, "")


@pytest.mark.parametrize("argv", [["check"], ["verify"], ["tensor", "--what", "ricci"]])
def test_file_above_ten_coordinates_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # hopf(5), a sound structure on a 12-coordinate chart
    monkeypatch.setattr(catalog, "HOPF_MAX_M", 5)
    path = tmp_path / "big.json"
    cli.save_manifold(catalog.hopf(5), str(path))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: dim=12 is above the 10 coordinates the engine supports\n"


def test_file_of_ten_coordinates_passes(capsys, tmp_path):
    path = tmp_path / "hopf4.json"
    run(capsys, "export", "hopf:4", str(path))
    for argv in (["check"], ["tensor", "--what", "weyl"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0, err


@pytest.mark.parametrize("key", ["hopf:0", "hopf:5"])
def test_hopf_outside_the_supported_range_is_a_usage_error(capsys, key):
    code, _, err = run(capsys, "verify", key, "--suite", "all")
    assert code == 2
    assert "hopf is available" in err


def test_verify_needs_no_symbolic_derivative(capsys, tmp_path, monkeypatch):
    paths = []
    for key in ("hopf:1", "hopf:2", "sphere_product:1,1", "heisenberg_r"):
        paths.append(tmp_path / key)
        run(capsys, "export", key, str(paths[-1]))
    _clear_package_caches()

    def refuse(*args):
        raise AssertionError("symbolic differentiation at run time")

    monkeypatch.setattr(exprlang, "derive", refuse)
    for path in paths:
        code, _, err = run(capsys, "verify", str(path), "--suite", "all")
        assert code == 0, err
    # nor does building a catalog entry
    for entry in catalog.ENTRIES:
        code, _, err = run(capsys, "verify", entry.key, "--suite", "all")
        assert code == 0, err


class TestExport:
    def test_round_trip_reproduces_identical_reports(self, capsys, tmp_path):
        # the exported file, checked back in, produces a byte-identical report
        path = tmp_path / "hopf:1"
        code, _, _ = run(capsys, "export", "hopf:1", str(path))
        assert code == 0
        _, from_catalog, _ = run(capsys, "check", "hopf:1", "--format", "json")
        _, from_file, _ = run(capsys, "check", str(path), "--format", "json")
        assert from_catalog == from_file

    def test_exported_file_contains_the_chart_expressions(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run(capsys, "export", "hopf:1", str(path))
        assert "cos(eta1)^2" in path.read_text()

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "export", "hopf:1",
                           str(tmp_path / "missing" / "m.json"))
        assert code == 2
        assert "cannot write" in err

    def test_every_entry_round_trips(self, capsys, tmp_path):
        for key in ("hopf:2", "sphere_product:1,1", "heisenberg_r"):
            path = tmp_path / key.replace(":", "_")
            assert run(capsys, "export", key, str(path))[0] == 0
            cp = cli.load_manifold(str(path))
            assert cp.pair_type == cli.resolve_manifold(key).pair_type
            assert cp.chart.sample_points == cli.resolve_manifold(key).chart.sample_points


# --- a flat plane of type (0, 0), whose complex dimension m + n + 1 is 1 -----------

PLANE = {
    "dim": 2, "coords": ["x", "y"], "metric": {"0,0": "1", "1,1": "1"},
    "alpha1": ["1", "0"], "alpha2": ["0", "1"], "Z1": ["1", "0"], "Z2": ["0", "1"],
    "type": [0, 0], "sample_points": [[0.1, 0.2], [0.3, 0.4]],
}


def _plane_file(tmp_path, stem: str) -> str:
    """The plane saved under a catalog stem, so the theorem suites find a table."""
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(PLANE))
    return str(path)


@pytest.mark.parametrize("stem, suite", [("hopf:1", "all"), ("hopf:1", "theorem1"),
                                         ("hopf:1", "theorem2"),
                                         ("heisenberg_r", "theorem1")])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_the_theorem_suites_refuse_a_pair_of_complex_dimension_one(capsys, tmp_path, stem,
                                                                   suite, fmt):
    path = _plane_file(tmp_path, stem)
    code, out, err = run(capsys, "verify", path, "--suite", suite, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (f"error: the theorem suites need complex dimension m + n + 1 >= 2; "
                   f"{stem} has type (0, 0)\n")


@pytest.mark.parametrize("argv", [["check"], ["verify", "--suite", "lemmas"]])
def test_the_plane_passes_its_definitions_and_lemmas(capsys, tmp_path, argv):
    code, out, _ = run(capsys, argv[0], _plane_file(tmp_path, "hopf:1"), *argv[1:],
                       "--format", "json")
    summary = json.loads(out)["summary"]
    assert code == 0
    assert (summary["passed"], summary["failed"]) == ((63, 0) if argv == ["check"]
                                                      else (26, 0))


# --- catalog keys -----------------------------------------------------------------------

CATALOG_FORMS = "catalog keys are hopf:m with m in 1..4, sphere_product:1,1 and heisenberg_r"


@pytest.mark.parametrize("key", ["hopf", "hopf:1,2", "hopf:1.5", "nothing:1", "hopf:"])
@pytest.mark.parametrize("command", ["check", "verify", "tensor", "export"])
def test_a_key_that_names_no_entry_is_refused_in_one_line(capsys, tmp_path, key, command):
    argv = {"check": [], "verify": [], "tensor": ["--what", "ricci"],
            "export": [str(tmp_path / "out.json")]}[command]
    code, out, err = run(capsys, command, key, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: no catalog manifold '{key}'; {CATALOG_FORMS}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key", ["hopf:\u0661", "hopf: 1", "hopf:1 ", "hopf:+1", "hopf:01",
                                 "hopf:1_0", "sphere_product:1,,1", "sphere_product:",
                                 "heisenberg_r:", "heisenberg_r:01"])
@pytest.mark.parametrize("command", ["check", "verify", "tensor", "export"])
def test_a_key_parameter_is_plain_decimal_digits(capsys, tmp_path, key, command):
    # no other digits, sign, space, underscore or leading zero, and a colon
    # has parameters after it
    argv = {"check": [], "verify": [], "tensor": ["--what", "ricci"],
            "export": [str(tmp_path / "out.json")]}[command]
    assert run(capsys, command, key, *argv) == \
        (2, "", f"error: no catalog manifold '{key}'; {CATALOG_FORMS}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key, message", [
    ("hopf:0", "hopf is available for m in 1..4, not m=0"),
    ("hopf:5", "hopf is available for m in 1..4, not m=5"),
    ("sphere_product:2,1", "sphere_product is available for m = n = 1"),
    ("heisenberg_r:2", "heisenberg_r is available for n = 1"),
])
def test_a_builder_keeps_its_range_message(capsys, key, message):
    assert run(capsys, "check", key) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("alias, key", [("sphere_product", "sphere_product:1,1"),
                                        ("heisenberg_r:1", "heisenberg_r")])
def test_the_default_parameter_aliases_still_resolve(alias, key):
    assert catalog.resolve(alias) == catalog.resolve(key)


# --- one structure per run ---------------------------------------------------------------

@pytest.mark.parametrize("key", [entry.key for entry in catalog.ENTRIES])
def test_a_cold_verify_looks_the_structure_up_three_times(capsys, key):
    # the gate, the run's own structure for the later stages, and the
    # Bochner context
    _clear_package_caches()
    code, _, _ = run(capsys, "verify", key, "--suite", "all", "--format", "json")
    info = contactpair.structure_at.cache_info()
    assert code == 0
    assert info.hits + info.misses == 3


@pytest.mark.parametrize("what", cli._TENSOR_CHOICES)
def test_a_tensor_at_a_foliation_fault_is_an_invalid_structure(capsys, what):
    # at eta1 = pi/2 d alpha1 vanishes to rounding, and the metric is
    # ill-conditioned there
    _clear_package_caches()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code, out, err = run(capsys, "tensor", "hopf:1", "--what", what,
                             "--at=1.5707963267948966,0.5,0.5,0.5")
    assert (code, out) == (1, "")
    assert err == ("invalid structure (foliation_dimensions): characteristic foliations of "
                   "hopf:1 have dimensions (3, 3) at (1.5707963267948966, 0.5, 0.5, 0.5); "
                   "type (1, 0) needs (1, 3)\n")


def test_each_cold_tensor_query_prints_its_ill_conditioning_note(capsys, tmp_path):
    # under the default warning filters, outside pytest's warning capture: a
    # point is held and re-issued as a stack is, so a second cold request in
    # the same process prints its note too
    path = _hopf1_variant(capsys, tmp_path, _set("sample_points", [ILL]))
    script = (
        "import sys, types, contactcurv\n"
        "from contactcurv import cli\n"
        "for _ in range(2):\n"
        "    for module in vars(contactcurv).values():\n"
        "        if isinstance(module, types.ModuleType):\n"
        "            for value in vars(module).values():\n"
        "                if hasattr(value, 'cache_clear'):\n"
        "                    value.cache_clear()\n"
        "    assert cli.main(sys.argv[1:]) == 0\n")
    src = str(Path(contactcurv.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    done = subprocess.run([sys.executable, "-c", script, "tensor", path, "--what", "ricci"],
                          env=dict(env, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [f"IllConditionedMetricWarning: {ILL_WARNING}"] * 2
