import json
import types
import warnings

import pytest

import contactcurv
from contactcurv import catalog, cli, contactpair, exprlang


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
        names = {c["name"] for c in report["checks"]}
        assert "reeb_ricci_values" in names
        assert report["summary"]["failed"] == 0

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
        report = json.loads(out)
        names = {c["name"] for c in report["checks"]}
        assert "bochner_not_flat" in names
        assert "bochner_reeb_plane_expected" in names

    def test_negative_control_theorem2(self, capsys):
        code, out, _ = run(capsys, "verify", "heisenberg_r", "--suite",
                           "theorem2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert {c["name"] for c in report["checks"]} == {"weyl_not_flat"}

    def test_theorem2_honours_points(self, capsys):
        code, out, _ = run(capsys, "verify", "hopf:1", "--suite", "theorem2",
                           "--points", "2", "--format", "json")
        assert code == 0
        shifts = [c for c in json.loads(out)["checks"]
                  if c["name"] == "bochner_13_conformal_shift"]
        assert len(shifts) == 2

    def test_theorem_suite_requires_catalog_entry(self, capsys, tmp_path):
        run(capsys, "export", "hopf:1", str(tmp_path / "user.json"))
        code, _, err = run(capsys, "verify", str(tmp_path / "user.json"),
                           "--suite", "theorem1")
        assert code == 2
        assert "catalog" in err


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize("points", ["0", "-1", "two"])
def test_points_must_be_a_positive_integer(capsys, command, points):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "hopf:1", "--points", points])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("entry, point", [("exp(1000*t)", 1.0), ("1 + t^400", 30.0)])
def test_overflowing_metric_is_an_input_error(capsys, tmp_path, entry, point):
    def edit(data):
        data["metric"]["3,3"] = entry
        data["sample_points"] = [[0.7, 0.8, 0.4, point]]
    code, _, err = run(capsys, "check", _hopf1_variant(capsys, tmp_path, edit))
    assert code == 2
    assert "error:" in err


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
