"""Report serialization: ``to_json`` writes what ``json.dumps(indent=2)`` writes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcurv import bochner as bm
from contactcurv import catalog
from contactcurv.report import Report


def reference(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2)


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
