"""Fuzzing the manifold-file front end.

Exports of ``hopf:1`` and ``sphere_product:1,1``, and a flat plane of type
(0, 0) saved as ``hopf:2.json``, are mutated at random:
random expressions, 1e+-200 scalings, exponentials that overflow, fields of
the wrong shape or type, and non-finite or singular sample points.
``verify``, ``check`` and ``tensor`` must exit with 0, 1 or 2 and never
raise, and any JSON they print must parse with a strict parser.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcurv import catalog, cli
from contactcurv import exprlang as el

from helpers import random_expr
from test_cli import PLANE, _clear_package_caches, _reject_constant

# the seed files by the stem each is saved under, which finds its expected
# table; the plane's type is one no catalog entry has
SEEDS = {key: cli.manifold_to_dict(catalog.resolve(key))
         for key in ("hopf:1", "sphere_product:1,1")} | {"hopf:2": PLANE}
EXPRESSION_FIELDS = ("alpha1", "alpha2", "Z1", "Z2")
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
                 st.text(max_size=6), st.lists(st.integers(0, 3), max_size=3),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def entry_edit(draw, data):
    """Replace one metric, form or field entry by an expression string."""
    field = draw(st.sampled_from(("metric",) + EXPRESSION_FIELDS))
    coords = data.get("coords")
    if not (isinstance(data.get(field), (dict, list)) and data[field]
            and isinstance(coords, list) and coords
            and all(isinstance(c, str) for c in coords)):
        return
    slot = draw(st.sampled_from(sorted(data[field]) if isinstance(data[field], dict)
                                else range(len(data[field]))))
    old = data[field][slot]
    kind = draw(st.sampled_from(("random", "scaled", "exp")))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        new = el.to_source(random_expr(rng, list(coords), draw(st.integers(0, 3))))
    elif kind == "scaled":
        new = f"1e{draw(st.sampled_from(('+200', '-200')))}*({old})"
    else:
        new = f"exp({draw(st.integers(-800, 800))}*{draw(st.sampled_from(coords))})"
    data[field][slot] = new


@st.composite
def shape_edit(draw, data):
    """Give one top-level field a wrong shape or type, or drop it."""
    field = draw(st.sampled_from(sorted(data)))
    action = draw(st.sampled_from(("junk", "drop", "resize")))
    if action == "drop":
        del data[field]
    elif action == "resize" and isinstance(data[field], list):
        data[field] = (data[field] * 2)[:draw(st.integers(0, 12))]
    else:
        data[field] = draw(JUNK)


@st.composite
def point_edit(draw, data):
    """Make one coordinate of one sample point non-finite, singular,
    extreme or of the wrong type."""
    points = data.get("sample_points")
    if not (isinstance(points, list) and points
            and all(isinstance(p, list) and p for p in points)):
        return
    point = draw(st.sampled_from(points))
    point[draw(st.integers(0, len(point) - 1))] = draw(st.sampled_from(
        ("nan", "inf", "-inf", 0.0, 1e-300, 1e308, -1e200, "x", None)))


@st.composite
def mutated_files(draw):
    key = draw(st.sampled_from(sorted(SEEDS)))
    data = copy.deepcopy(SEEDS[key])
    edits = st.sampled_from((entry_edit, entry_edit, shape_edit, point_edit))
    for edit in draw(st.lists(edits, min_size=1, max_size=3)):
        draw(edit(data))
    return key, data


@settings(max_examples=60, deadline=None)
@given(mutated_files(), st.sampled_from(("json", "text")))
def test_mutated_manifold_files_never_crash(case, fmt):
    key, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{key}.json")  # the stem finds the expected table
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for argv in (["verify", path], ["check", path],
                     ["tensor", path, "--what", "bochner-j"]):
            _clear_package_caches()
            out = io.StringIO()
            # ill-conditioning warnings are captured like stderr; RuntimeWarnings
            # still fail the test
            with warnings.catch_warnings(record=True), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--format", fmt])
            assert code in (0, 1, 2), argv
            if fmt == "json" and out.getvalue():
                json.loads(out.getvalue(), parse_constant=_reject_constant)
