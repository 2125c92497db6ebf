import contextlib
import io

import pytest

import tracer as tr
from contactcurv import cli


def span(name, start, end, parent=-1):
    return tr.Span(name, start, end, parent, 0)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 4.0, 0),
                 span("a.inner", 2.0, 3.0, 1),
                 span("b", 5.0, 9.0, 0)]
        assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_covered_once(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 5.0, 0),
                 span("b", 3.0, 7.0, 0)]
        assert tr.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2.0, 6.0),
                 span("early", 1.0, 3.0, 0),
                 span("late", 5.0, 8.0, 0)]
        assert tr.self_times(spans)[0] == pytest.approx(2.0)

    def test_order_of_the_span_list_does_not_matter(self):
        spans = [span("root", 0.0, 10.0),
                 span("b", 5.0, 9.0, 0),
                 span("a", 1.0, 4.0, 0)]
        assert tr.self_times(spans) == pytest.approx([3.0, 4.0, 3.0])

    def test_layer_totals_sum_self_time_by_name(self):
        spans = [span("root", 0.0, 10.0),
                 span("leaf", 1.0, 2.0, 0),
                 span("leaf", 3.0, 6.0, 0)]
        totals = tr.layer_totals(spans)
        assert totals["root"] == (pytest.approx(6.0), 1)
        assert totals["leaf"] == (pytest.approx(4.0), 2)


def patched_attributes(tracer):
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in tracer._patches()}


def traced_verify(tracer):
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        code = cli.main(["verify", "hopf:1", "--points", "1", "--format", "json"])
    return code, out.getvalue()


class TestInstall:
    def test_wrappers_are_restored_after_a_traced_run(self):
        tracer = tr.Tracer()
        before = patched_attributes(tracer)
        code, _ = traced_verify(tracer)
        assert code == 0
        assert patched_attributes(tracer) == before
        assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())

    def test_wrappers_are_restored_when_the_run_raises(self):
        tracer = tr.Tracer()
        before = patched_attributes(tracer)
        with pytest.raises(RuntimeError):
            with tracer.installed():
                raise RuntimeError("boom")
        assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())

    def test_traced_run_records_spans_and_counts(self):
        tracer = tr.Tracer()
        traced_verify(tracer)
        names = {s.name for s in tracer.spans}
        assert {"cli.cmd", "contactpair.validate_structure", "riemann.geometry_at",
                tr.EVALUATE_SPAN, "report.serialize"} <= names
        assert all(s.end >= s.start for s in tracer.spans)
        assert tracer.counts["exprlang.nodes"] > tracer.counts["jets.ops"] > 0
        assert tracer.counts["exprlang.node_hashes"] > 0
        calls = sum(s.name == "contactpair.validate_structure" for s in tracer.spans)
        assert calls == 2

    def test_tracing_does_not_change_the_report(self):
        _, traced = traced_verify(tr.Tracer())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["verify", "hopf:1", "--points", "1", "--format", "json"])
        assert traced == out.getvalue()
