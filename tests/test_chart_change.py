"""Chart-change invariance on dense metrics.

Every model on which Bochner and Weyl flatness are asserted has a diagonal
metric, so an index-order slip that is symmetric on diagonal metrics would
pass the flatness gates.  Pulling each entry back through a linear change
of coordinates x = A y makes every metric dense while the geometry stays
the same: the suites must still pass with the same check count, and the
scalar invariants must not move.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from contactcurv import bochner as bm
from contactcurv import catalog, cli
from contactcurv import contactpair as cpm
from contactcurv import exprlang as el
from contactcurv import riemann as rm

# checks of `verify --suite all` on each entry's five sample points
CHECK_COUNTS = {"hopf:1": 196, "hopf:2": 196, "hopf:3": 196,
                "sphere_product:1,1": 176, "heisenberg_r": 166}


def substitute(e: el.Expr, names: dict) -> el.Expr:
    """``e`` with each symbol in ``names`` replaced by its expression."""
    if isinstance(e, el.Sym):
        return names.get(e.name, e)
    if isinstance(e, el.Neg):
        return el.Neg(substitute(e.arg, names))
    if isinstance(e, el.Bin):
        return el.Bin(e.op, substitute(e.lhs, names), substitute(e.rhs, names))
    if isinstance(e, el.Fn):
        return el.Fn(e.name, substitute(e.arg, names))
    return e


def linear_combination(coeffs, terms) -> el.Expr:
    out = el.ZERO
    for c, term in zip(coeffs, terms):
        if c != 0.0 and term != el.ZERO:
            out = el.add(out, el.mul(el.Const(float(c)), term))
    return out


def pull_back(cp: cpm.ContactPairManifold, A: np.ndarray) -> cpm.ContactPairManifold:
    """The same structure in coordinates y with x = A y: metric A^T g(Ay) A,
    forms A^T alpha(Ay), fields A^{-1} Z(Ay) and points A^{-1} p."""
    d = cp.dim
    Ainv = np.linalg.inv(A)
    coords = tuple(f"u{i}" for i in range(d))
    ys = [el.Sym(name) for name in coords]
    x_of_y = {name: linear_combination(A[k], ys) for k, name in enumerate(cp.chart.coords)}
    g = [[substitute(e, x_of_y) for e in row] for row in cp.metric.comps]
    chart = rm.Chart(coords, cp.chart.params,
                     tuple(tuple(float(v) for v in Ainv @ np.array(p))
                           for p in cp.chart.sample_points))
    metric = rm.MetricField.from_entries(chart, {
        (i, j): linear_combination(
            [A[k, i] * A[l, j] for k in range(d) for l in range(d)],
            [g[k][l] for k in range(d) for l in range(d)])
        for i in range(d) for j in range(i, d)})

    def form(alpha):
        comps = [substitute(e, x_of_y) for e in alpha.comps]
        return rm.OneForm.of(chart, [linear_combination(A[:, j], comps) for j in range(d)])

    def field(z):
        comps = [substitute(e, x_of_y) for e in z.comps]
        return rm.VectorField.of(chart, [linear_combination(Ainv[j], comps) for j in range(d)])

    return dataclasses.replace(cp, chart=chart, metric=metric,
                               alpha1=form(cp.alpha1), alpha2=form(cp.alpha2),
                               z1=field(cp.z1), z2=field(cp.z2))


def invariants(cp: cpm.ContactPairManifold) -> np.ndarray:
    """tau, tau*, |B_J|^2_g and |W|^2_g at the sample points, one row each."""
    pts = cp.chart.sample_points
    st = cpm.structure_at(cp, pts)
    ginv = st.geo.ginv

    def norm2(t):
        return np.einsum("pijkl,pabcd,pia,pjb,pkc,pld->p", t, t, ginv, ginv, ginv, ginv,
                         optimize=True)

    return np.stack([st.geo.tau, st.tau_star, norm2(bm.bochner(bm.context(cp, pts))),
                     norm2(rm.weyl(cp.metric, pts).comps)], axis=1)


@pytest.mark.parametrize("key", sorted(CHECK_COUNTS))
def test_dense_chart_verifies_with_the_same_invariants(capsys, tmp_path, key):
    cp = catalog.resolve(key)
    rng = np.random.default_rng(20261018)
    A = np.eye(cp.dim) + 0.3 * rng.uniform(-1.0, 1.0, (cp.dim, cp.dim))
    dense = pull_back(cp, A)
    assert all(e != el.ZERO for row in dense.metric.comps for e in row)

    path = tmp_path / f"{key}.json"  # the stem selects the catalog's expected table
    cli.save_manifold(dense, str(path))
    code = cli.main(["verify", str(path), "--suite", "all", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["summary"] == {"total": CHECK_COUNTS[key],
                                 "passed": CHECK_COUNTS[key], "failed": 0}

    original, pulled = invariants(cp), invariants(dense)
    assert np.all(np.abs(pulled - original) <= 1e-10 * np.maximum(1.0, np.abs(original)))


def _phi_rank_values(cp: cpm.ContactPairManifold) -> list:
    with warnings.catch_warnings():
        # these charts are ill-conditioned on purpose
        warnings.simplefilter("ignore", rm.IllConditionedMetricWarning)
        report = cpm.validate_structure(cp)
    return [(c.value, c.passed) for c in report.checks if c.name == "phi_rank"]


@pytest.mark.parametrize("s", [1e-4, 1e4])
@pytest.mark.parametrize("key", [entry.key for entry in catalog.ENTRIES])
def test_phi_rank_does_not_see_a_diagonal_scaling(key, s):
    # phi's rank is read in a g-orthonormal frame, so stretching one
    # coordinate by s leaves it at dim - 2
    cp = catalog.resolve(key)
    A = np.eye(cp.dim)
    A[0, 0] = s
    assert _phi_rank_values(pull_back(cp, A)) == [(0, True)] * len(cp.chart.sample_points)


def test_phi_rank_at_an_ill_conditioned_point():
    # metric condition number 1e10 at eta1 = 1e-5 on hopf:1
    cp = catalog.resolve("hopf:1")
    cp = dataclasses.replace(cp, chart=dataclasses.replace(
        cp.chart, sample_points=((1e-5, 0.5, 0.5, 0.5),)))
    assert _phi_rank_values(cp) == [(0, True)]
