"""What the benchmark under ``bench/`` needs from the package.

The benchmark's tracer patches package attributes by name, and its worker
reads the hit ratios of the two point caches through ``cache_info()``.  A
refactor that renames or removes one of them would crash a traced benchmark
run, and one that breaks a workload's correctness gate would fail its
requests; these tests make both fail here first.  They load the benchmark's
modules by path and change nothing under ``bench/``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from contactcurv import bochner as bm
from contactcurv import catalog, cli
from contactcurv import contactpair as cpm
from contactcurv import exprlang as el
from contactcurv import riemann as rm
from contactcurv.jets import Jet2

import oracles

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_package_caches():
    # as the benchmark does before each request: warm point caches left by
    # earlier tests would skip the jet walk a traced run must go through
    for cache in _load("worker").package_caches().values():
        cache.cache_clear()


def _nested_hopf_file(tmp_path, m: int) -> str:
    """A tensor_queries input of dimension 2m + 2 with one sample point."""
    inputs = _load("inputs")
    points = inputs.seeded_points(0, 100 + m, 2 * m + 2, inputs.NESTED_HOPF_BOX, 1)
    return inputs.write_manifold(inputs.nested_hopf(m, points), str(tmp_path / "nh.json"))


def _counted_jet_ops(monkeypatch) -> list:
    ops = []
    for op in _load("tracer").JET_OPS:
        def counted(*args, _op=getattr(Jet2, op)):
            ops.append(_op)
            return _op(*args)
        monkeypatch.setattr(Jet2, op, counted)
    return ops


def test_every_traced_attribute_resolves():
    tracer = _load("tracer")
    for name, (owner, attrs) in tracer.SPAN_TARGETS.items():
        for attr in attrs:
            assert callable(getattr(owner, attr, None)), (name, attr)
            # the tracer swaps the owner's own entry, not an inherited one
            assert attr in vars(owner), (name, attr)


def test_the_tracer_installs_and_restores_every_patch():
    tracer = _load("tracer").Tracer()
    patches = tracer._patches()
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in patches}
    with tracer.installed():
        for (owner, attr), original in before.items():
            assert vars(owner)[attr].__wrapped__ is original, attr
    assert {(owner, attr): vars(owner)[attr] for owner, attr, _ in patches} == before


def test_a_traced_verify_run_serializes_its_report(capsys):
    # --trace 1 runs the CLI with every patch installed, Report.add included
    tracer = _load("tracer").Tracer()
    _clear_package_caches()
    with tracer.installed():
        code = cli.main(["verify", "hopf:1", "--points", "1", "--format", "json"])
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0
    assert code == 0
    assert any(span.name == "report.serialize" for span in tracer.spans)
    assert tracer.counts["jets.ops"] > 0


def test_a_traced_verify_run_records_its_command(capsys):
    # the parser is built at import, so the command is looked up by name when
    # it runs, and the tracer's cli.cmd patch, made later, is what runs
    tracer = _load("tracer").Tracer()
    _clear_package_caches()
    with tracer.installed():
        assert cli.main(["verify", "hopf:1", "--points", "1"]) == 0
    capsys.readouterr()
    (cmd,) = [span for span in tracer.spans if span.name == "cli.cmd"]
    assert cmd.parent == -1 and cmd.end > cmd.start
    assert all(span.start >= cmd.start for span in tracer.spans)


def test_a_traced_tensor_query_prints_what_an_untraced_one_does(capsys, tmp_path):
    # a d = 10 tensor_queries input, read from a file, walked under every patch
    argv = ["tensor", _nested_hopf_file(tmp_path, 4), "--what", "bochner-j", "--format", "json"]
    _clear_package_caches()
    assert cli.main(argv) == 0
    untraced = capsys.readouterr()
    tracer = _load("tracer").Tracer()
    _clear_package_caches()
    with tracer.installed():
        code = cli.main(argv)
    assert code == 0
    assert capsys.readouterr() == untraced
    assert tracer.counts["jets.ops"] > 0


def test_the_d10_nested_hopf_metric_walk_evaluates_each_subexpression_once(monkeypatch):
    # the radii's products of sines and cosines repeat across the metric
    # entries; read from one file they are shared, and walked once (452
    # jet operations when every entry was walked as its own tree)
    inputs = _load("inputs")
    points = inputs.seeded_points(0, 104, 10, inputs.NESTED_HOPF_BOX, 1)
    cp = cli.manifold_from_dict(inputs.nested_hopf(4, points), "nh")
    ops = _counted_jet_ops(monkeypatch)
    rm.field_jets(cp.metric.comps, cp.chart, points[0])
    assert 0 < len(ops) <= 100


def test_the_d10_nested_hopf_file_loads_building_each_node_about_once(monkeypatch):
    # the parser looks a node up before it builds it: of the 764 nodes that
    # building first and sharing after made, 669 were dropped for a node the
    # table held; only a literal fold to a constant the table holds may
    # still build a node it drops
    inputs = _load("inputs")
    points = inputs.seeded_points(0, 104, 10, inputs.NESTED_HOPF_BOX, 1)
    data = inputs.nested_hopf(4, points)
    tables, built = {}, []
    as_expr = el.as_expr

    def recorded(value, table=None, *rest):
        tables[id(table)] = table
        return as_expr(value, table, *rest)
    monkeypatch.setattr(el, "as_expr", recorded)
    for node in (el.Const, el.Sym, el.Neg, el.Bin, el.Fn):
        def counted(self, *args, _init=node.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(node, "__init__", counted)
    cli.manifold_from_dict(data, "nh")
    (table,) = tables.values()  # one table for the whole file
    assert 0 < len(built) <= len(table) + 5


def test_the_point_caches_report_their_hits():
    for cache in (rm.geometry_at, cpm.structure_at):
        assert callable(cache.cache_info) and callable(cache.cache_clear)
    caches = _load("worker").package_caches()
    for name in ("riemann.geometry_at", "contactpair.structure_at"):
        assert caches[name].cache_info().currsize >= 0


@pytest.mark.parametrize("argv", [["verify", "hopf:1", "--suite", "all"]] + [
    ["tensor", "hopf:1", "--what", what] for what in cli._TENSOR_CHOICES])
def test_a_cold_request_calls_both_point_caches(capsys, argv):
    # a traced run divides each cache's hits by its calls, so a run path
    # that left one of them uncalled would end the run in a ZeroDivisionError
    caches = _load("worker").package_caches()
    _clear_package_caches()
    assert cli.main([*argv, "--format", "json"]) == 0
    capsys.readouterr()
    for name in ("riemann.geometry_at", "contactpair.structure_at"):
        info = caches[name].cache_info()
        assert info.hits + info.misses >= 1, name


@pytest.mark.parametrize("what", cli._TENSOR_CHOICES)
def test_a_tensor_summary_is_what_json_dumps_writes(capsys, tmp_path, what):
    # every catalog entry and the d = 10 nested-Hopf input; on the round
    # models the vanishing tensors leave no nonzero component.  Read back and
    # written again, the summary gives the same bytes
    for spec in [entry.key for entry in catalog.ENTRIES] + [_nested_hopf_file(tmp_path, 4)]:
        assert cli.main(["tensor", spec, "--what", what, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("case", ["d=10 nested Hopf", "hopf:2 at 50 points"])
def test_the_forms_continue_the_metric_walk(monkeypatch, tmp_path, case):
    # every node the forms and fields read is a node of the metric on these
    # inputs, so the structure takes no jet operation beyond the metric's
    if case == "hopf:2 at 50 points":
        inputs = _load("inputs")
        path = inputs.export_catalog_entry("hopf:2", 0, 0, 50, str(tmp_path))
        cp = cli.load_manifold(path)
        point = cp.chart.sample_points
    else:
        cp = cli.load_manifold(_nested_hopf_file(tmp_path, 4))
        point = cp.chart.sample_points[0]
    ops = _counted_jet_ops(monkeypatch)
    _clear_package_caches()
    cpm.structure_at(cp, point)
    with_structure = len(ops)
    ops.clear()
    rm.field_jets(cp.metric.comps, cp.chart, point)
    assert 0 < with_structure <= len(ops)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nested_hopf_tensor_queries_pass_their_gate(capsys, tmp_path, m):
    # the inputs of the tensor_queries workload, d = 2m + 2 = 4 to 10, and
    # its gate on bochner-j: the round model's scalar curvature and the
    # 1e-6 bound on a vanishing tensor
    inputs = _load("inputs")
    points = inputs.seeded_points(0, 100 + m, 2 * m + 2, inputs.NESTED_HOPF_BOX, 2)
    path = inputs.write_manifold(inputs.nested_hopf(m, points), str(tmp_path / "nh.json"))
    for point in points:
        at = ",".join(repr(v) for v in point)
        code = cli.main(["tensor", path, "--what", "bochner-j", "--at", at,
                         "--format", "json"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(summary["tau"] - 2.0 * m * (2 * m + 1)) <= 1e-9
        assert summary["max_abs_component"] <= 1e-6


def _structure_tensors(cp, point) -> dict:
    st = cpm.structure_at(cp, point)
    return {"riem4": st.geo.riem4, "ricci": st.geo.ricci, "star_ricci": st.star_ricci,
            "J": st.J, "bochner_j": bm.bochner(bm.context(cp, point, "J")),
            "bochner_t": bm.bochner(bm.context(cp, point, "T"))}


@pytest.mark.parametrize("seed", [1, 2])
def test_a_tensor_query_gives_the_bits_of_the_stacked_run_at_its_point(seed):
    # the tensor_queries inputs: each point of a pool walked alone, as
    # `tensor --at` walks it, against the same point of the stacked walk
    inputs = _load("inputs")
    for m in (1, 2, 3, 4):
        pool = inputs.seeded_points(seed, 100 + m, 2 * m + 2, inputs.NESTED_HOPF_BOX, 8)
        cp = cli.manifold_from_dict(inputs.nested_hopf(m, pool), f"nested_hopf_{m}")
        stacked = _structure_tensors(cp, pool)
        for k, point in enumerate(pool):
            for name, mine in _structure_tensors(cp, point).items():
                assert mine.tobytes() == stacked[name][k].tobytes(), (m, k, name)


def _per_value_points(raw) -> tuple:
    """The sample points read value by value, as the reader did before it
    read them in bulk."""
    return tuple(tuple(cli._real(v, "sample_points") for v in p) for p in raw)


def test_the_bulk_point_reader_reads_each_input_as_the_per_value_path(tmp_path):
    inputs = _load("inputs")
    files = []
    for key in inputs.CATALOG_BOXES:
        for seed, count in ((1, 5), (2, 50)):  # as catalog_verify and dense_points
            folder = tmp_path / f"{key}-{seed}"
            folder.mkdir()
            files.append(inputs.export_catalog_entry(key, seed, 0, count, str(folder)))
    for m in (1, 2, 3, 4):  # as tensor_queries
        points = inputs.seeded_points(1, 100 + m, 2 * m + 2, inputs.NESTED_HOPF_BOX, 10)
        files.append(inputs.write_manifold(inputs.nested_hopf(m, points),
                                           str(tmp_path / f"nh{m}.json")))
    exports = [cli.manifold_to_dict(catalog.resolve(e.key)) for e in catalog.ENTRIES]
    for data in exports + [json.loads(Path(f).read_text()) for f in files]:
        raw = json.loads(json.dumps(data["sample_points"]))  # as a file holds them
        bulk = cli._points(raw)
        assert type(bulk) is tuple and all(type(p) is tuple for p in bulk)
        assert [[v.hex() for v in p] for p in bulk] == \
            [[v.hex() for v in p] for p in _per_value_points(raw)]
    # a value that is no plain finite JSON number goes value by value
    assert cli._points([[1, -0.0], ["0.5", 2]]) == ((1.0, -0.0), (0.5, 2.0))
    with pytest.raises(ValueError, match=r"sample_points\[1\]\[0\] must be a number"):
        cli._points([[1.0, 2.0], [True, 2.0]])
    with pytest.raises(ValueError, match=r"sample_points\[0\]\[1\] must be a finite number"):
        cli._points([[1.0, 10 ** 400]])


def test_the_writer_and_the_reader_pay_no_cost_per_row_or_per_repeated_source(
        tmp_path, monkeypatch):
    # the writer dumps the head of a report and its distinct values, once
    # each whatever the rows and points; the reader parses a source string
    # that repeats verbatim (a squared radius is a metric entry and an alpha1
    # component) once
    inputs = _load("inputs")
    dumps, dumped = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda *a, **k: dumped.append(a) or dumps(*a, **k))
    expected = dict(catalog.entry_for("hopf:2").expected)
    counts = {}
    for count in (5, 50):
        (tmp_path / str(count)).mkdir()
        cp = cli.load_manifold(inputs.export_catalog_entry("hopf:2", 1, 0, count,
                                                           str(tmp_path / str(count))))
        report = bm.run_suites(cp, bm.SUITES, expected, None, cp.chart.sample_points)
        dumped.clear()
        assert report.to_json() == dumps(oracles.report_dict(report), indent=2)
        counts[count] = len(dumped)
    assert counts[5] == counts[50] == 2

    data = json.loads(Path(_nested_hopf_file(tmp_path, 4)).read_text())  # d = 10
    parse, parsed = el.parse, []
    monkeypatch.setattr(el, "parse", lambda src, *a: parsed.append(src) or parse(src, *a))
    cli.manifold_from_dict(data, "nh")
    sources = [*data["metric"].values(), *data["alpha1"], *data["alpha2"], *data["Z1"],
               *data["Z2"]]
    assert sorted(parsed) == sorted(set(sources)) and len(set(sources)) < len(sources)


# the spans a cold request of each workload entered when every stage was on its run
# path; a refactor that takes a stage off it would read 0 in that layer's metrics
VERIFY_SPANS = {"cli.cmd", "cli.load_manifold", "report.serialize", "riemann.geometry_at",
                "riemann.weyl", "contactpair.structure_at", "contactpair.validate_structure",
                "bochner.bochner", "bochner.context"}
TENSOR_SPANS = VERIFY_SPANS - {"contactpair.validate_structure", "report.serialize"}


def _traced_spans(requests) -> set:
    """The span names entered by each request, run cold under the tracer."""
    tracer, entered = _load("tracer").Tracer(), []
    with tracer.installed():
        for request in requests:
            _clear_package_caches()
            start = len(tracer.spans)
            assert cli.main(list(request.argv)) in (0, 1), request.argv
            entered.append({span.name for span in tracer.spans[start:]})
    return entered


def test_every_traced_stage_stays_on_the_run_path(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))  # the workloads import their inputs by name
    workloads = importlib.import_module("workloads")
    (verify,) = workloads.catalog_verify(1, str(tmp_path))
    for request, entered in zip(verify, _traced_spans(verify)):
        assert VERIFY_SPANS <= entered, (request.key, VERIFY_SPANS - entered)
    # the five tensors on the d = 10 nested-Hopf file, one cycle's point
    tensors = [r for r in workloads.tensor_queries(1, str(tmp_path))[0]
               if r.key.startswith("d=10 ")]
    assert sorted(r.argv[3] for r in tensors) == sorted(workloads.TENSORS)
    entered = set().union(*_traced_spans(tensors))
    assert TENSOR_SPANS <= entered, TENSOR_SPANS - entered
    capsys.readouterr()


def test_one_cycle_of_each_workload_passes_its_gate(capsys, monkeypatch, tmp_path):
    # each request cold, as the benchmark sends it: a change to the rows per
    # point, or to a tensor summary, fails its request's gate here first
    monkeypatch.syspath_prepend(str(BENCH))  # the workloads import their inputs by name
    workloads = importlib.import_module("workloads")
    requests = []
    for name, make in workloads.WORKLOADS.items():
        folder = tmp_path / name
        folder.mkdir()
        requests += make(1, str(folder))[0]
    assert len(requests) == 26
    for request in requests:
        _clear_package_caches()
        code = cli.main(list(request.argv))
        assert request.gate(code, capsys.readouterr().out) is None, request.argv
