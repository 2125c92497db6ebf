"""The d^4 curvature kernels against their einsum references in ``oracles``,
on random stacks, and a guard that keeps many-operand einsums out of the
package."""

import ast
import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from contactcurv import bochner as bm
from contactcurv import catalog
from contactcurv import contactpair as cpm
from contactcurv import exprlang as el
from contactcurv import riemann as rm

SRC = Path(__file__).resolve().parent.parent / "src" / "contactcurv"

# (dimension, leading axes): stacks of 1 and 7 points, and one point without
# a point axis
SHAPES = [(d, lead) for d in (4, 6, 8, 10) for lead in ((1,), (7,), ())]


def _close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref))


def _random_context(d, lead, reading="combination", which="J"):
    """Random data for a context: g positive definite, J and T = phi +- (Z1 (x)
    alpha2 - Z2 (x) alpha1) generic matrices (the identities behind the
    kernels do not need them to be isometries), R a generic four-slot tensor
    with its rho and rho*, tau and tau* arbitrary, and a pair type that fits d."""
    rng = np.random.default_rng(1000 * d + len(lead) + sum(lead))
    a = rng.normal(size=lead + (d, d))
    g = a @ np.swapaxes(a, -1, -2) + d * np.eye(d)
    ginv = np.linalg.inv(g)
    phi = rng.normal(size=lead + (d, d))
    z1, z2, a1, a2 = rng.normal(size=(4,) + lead + (d,))
    twist = z1[..., :, None] * a2[..., None, :] - z2[..., :, None] * a1[..., None, :]
    J = phi - twist if which == "J" else phi + twist
    R = rng.normal(size=lead + (d,) * 4)
    tau, tau_star = rng.normal(size=lead), rng.normal(size=lead)
    rho = oracles.contract_ricci(R, SimpleNamespace(ginv=ginv))
    star = cpm.star_contraction(R, ginv, J)
    n = (d - 2) // 4
    ctx = bm.CurvatureContext(g, ginv, J, R, rho, star, (d - 2) // 2 - n, n, tau, tau_star,
                              reading)
    return ctx, rng


@pytest.mark.parametrize("d, lead", SHAPES)
def test_contractions_match_their_einsum_forms(d, lead):
    ctx, rng = _random_context(d, lead)
    m = rng.normal(size=lead + (d, d))
    _close(rm.contract_last(ctx.riem4, m), oracles.contract_last(ctx.riem4, m))
    _close(rm.contract_middle(ctx.riem4, m), oracles.contract_middle(ctx.riem4, m))
    _close(rm.contract_middle(ctx.riem4, ctx.ginv), oracles.contract_ricci(ctx.riem4, ctx))
    _close(cpm.star_contraction(ctx.riem4, ctx.ginv, ctx.J),
           oracles.star_contraction(ctx.riem4, ctx.ginv, ctx.J))
    # matrices stacked after the leading axes are contracted in one call
    ms = rng.normal(size=lead + (3, d, d))
    expected = np.stack([oracles.contract_middle(ctx.riem4, ms[..., r, :, :])
                         for r in range(3)], axis=-3)
    _close(rm.contract_middle(ctx.riem4, ms), expected)


@pytest.mark.parametrize("d, lead", SHAPES)
def test_outer_products_match_their_einsum_forms(d, lead):
    ctx, rng = _random_context(d, lead)
    a, s = rng.normal(size=(2,) + lead + (d, d))
    _close(rm.kulkarni_nomizu((a, s)), oracles.kulkarni_nomizu(a, s))
    # phi(S) and psi(S) as the Bochner assembly writes them
    _close(rm.kulkarni_nomizu((ctx.g, -s)), oracles.phi_op(s, ctx))
    gJ, sJ = ctx.g @ ctx.J, s @ ctx.J
    _close(bm._add_pair_term(rm.kulkarni_nomizu((gJ, -sJ)), gJ, sJ), oracles.psi_op(s, ctx))


@pytest.mark.parametrize("terms", [1, 2, 3])
@pytest.mark.parametrize("d, lead", SHAPES)
def test_summed_product_matches_the_sum_of_products(d, lead, terms):
    rng = np.random.default_rng(3000 * d + 10 * terms + len(lead))
    pairs = [tuple(rng.normal(size=(2,) + lead + (d, d))) for _ in range(terms)]
    expected = sum(oracles.kulkarni_nomizu(a, b) for a, b in pairs)
    summed = rm.kulkarni_nomizu(*pairs)
    assert summed.shape == expected.shape
    assert np.max(np.abs(summed - expected)) <= 1e-13


@pytest.mark.parametrize("stack", [None, 7], ids=["point", "stack-7"])
@pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1"])
def test_d4_kernels_write_c_contiguous_tensors(key, stack):
    # a ufunc keeps the memory order of a transposed operand (order="K"), and
    # a strided tensor makes every later reshape a copy
    cp = catalog.resolve(key)
    pts = cp.chart.sample_points
    point = pts[0] if stack is None else (pts * 7)[:stack]
    geo = rm.geometry_at(cp.metric, point)
    tensors = {"gamma": (geo.gamma, 3), "riem4": (geo.riem4, 4), "ricci": (geo.ricci, 2),
               "bochner": (bm.bochner(bm.context(cp, point)), 4),
               "weyl": (rm.weyl(cp.metric, point).comps, 4)}
    lead = () if stack is None else (stack,)
    for name, (t, slots) in tensors.items():
        assert t.shape == lead + (geo.dim,) * slots, name
        assert t.flags.c_contiguous, name


@pytest.mark.parametrize("reading", bm.READINGS)
@pytest.mark.parametrize("d, lead", SHAPES)
def test_bochner_contractions_match_the_l3_form(d, lead, reading):
    ctx, _ = _random_context(d, lead, reading)
    for new, ref in zip(bm._reading_contractions(ctx), oracles.reading_contractions(ctx)):
        _close(new, ref)


@pytest.mark.parametrize("which", ["J", "T"])
@pytest.mark.parametrize("reading", bm.READINGS)
@pytest.mark.parametrize("d, lead", SHAPES)
def test_bochner_matches_the_two_regime_formula(d, lead, reading, which):
    ctx, _ = _random_context(d, lead, reading, which)
    expected = oracles.two_regime_bochner(ctx)
    bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(bm.bochner(ctx) - expected)) <= bound


@pytest.mark.parametrize("stack", [None, 7], ids=["point", "stack-7"])
@pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "sphere_product:1,1"])
def test_the_assembly_contracts_r_twice_and_only_in_the_combination_reading(
        monkeypatch, key, stack):
    # rho and rho* are held by the geometry and the structure: the J context
    # contracts nothing, the T context forms its rho* once, and an assembly
    # contracts R only with M = J g^-1 J^T and M J^T
    cp = catalog.resolve(key)
    pts = cp.chart.sample_points
    point = pts[0] if stack is None else (pts * 7)[:stack]
    bm.context(cp, point)  # the structure's own contractions are formed before counting
    calls = []

    def counted(t4, m, _inner=rm.contract_middle):
        calls.append(m.shape[t4.ndim - 4:-2])
        return _inner(t4, m)

    monkeypatch.setattr(rm, "contract_middle", counted)
    for which, forms in (("J", []), ("T", [()])):
        for reading, rows in (("combination", [(2,)]), ("curvature", [])):
            ctx = bm.context(cp, point, which, reading)
            assert calls == forms, (which, reading)
            calls.clear()
            bm.bochner(ctx)
            assert calls == rows, (which, reading)
            calls.clear()


@pytest.mark.parametrize("d, lead", SHAPES)
def test_sectional_values_match_the_five_operand_einsums(d, lead):
    ctx, rng = _random_context(d, lead)
    z1, z2 = rng.normal(size=(2,) + lead + (d,))
    # one kernel serves one pair, B(Z1, Z2, Z2, Z1), and candidate rows, R(x, phi x, phi x, x)
    _close(rm.sectional_form(ctx.riem4, z1, z2), oracles.reeb_plane(ctx.riem4, z1, z2))
    x = rng.normal(size=lead + (d + 1, d))  # candidate rows x[c]
    expected = oracles.phi_sectional(ctx.riem4, ctx.J, x)
    _close(rm.sectional_form(ctx.riem4, x, x @ np.swapaxes(ctx.J, -1, -2)), expected)


@pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "hopf:4", "sphere_product:1,1",
                                 "heisenberg_r"])
def test_weyl_is_one_product_of_the_two_product_form(key):
    cp = catalog.resolve(key)
    pts = cp.chart.sample_points
    geo = rm.geometry_at(cp.metric, pts)
    expected = oracles.weyl(geo.riem4, geo.ricci, geo.g, geo.tau)
    # W vanishes on the round models, so the bound scales with R
    bound = 1e-12 * np.max(np.abs(geo.riem4))
    assert np.max(np.abs(rm.weyl(cp.metric, pts).comps - expected)) <= bound
    one = rm.weyl(cp.metric, pts[0]).comps
    assert np.max(np.abs(one - expected[0])) <= bound


def _random_jets(d, lead):
    """The 2-jet of a metric at each point: g positive definite, d_k g_ij
    symmetric in ij, d_k d_l g_ij symmetric in kl and in ij.  Every such jet
    is the jet of a quadratic metric, so the curvature identities hold."""
    rng = np.random.default_rng(2000 * d + len(lead) + sum(lead))
    a = rng.normal(size=lead + (d, d))
    g = a @ np.swapaxes(a, -1, -2) + d * np.eye(d)
    dg = rng.normal(size=lead + (d, d, d))
    dg = dg + np.swapaxes(dg, -1, -2)
    d2g = rng.normal(size=lead + (d, d, d, d))
    d2g = d2g + np.swapaxes(d2g, -1, -2)
    d2g = d2g + np.swapaxes(d2g, -3, -4)
    return g, np.linalg.inv(g), dg, d2g


@pytest.mark.parametrize("d, lead", SHAPES)
def test_curvature_matches_the_mixed_tensor_route(d, lead):
    g, ginv, dg, d2g = _random_jets(d, lead)
    geo = rm.PointGeometry(g, ginv, dg, d2g)
    ref = oracles.reference_geometry(g, ginv, dg, d2g)
    for name in ("gamma", "riem4", "ricci", "tau"):
        _close(getattr(geo, name), getattr(ref, name))


@pytest.mark.parametrize("stack", [None, 1, 7], ids=["point", "stack-1", "stack-7"])
@pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "hopf:3", "hopf:4"])
def test_structure_matches_the_mixed_tensor_route(key, stack):
    # d = 4, 6, 8 and 10; a stack of 7 repeats sample points
    cp = catalog.resolve(key)
    pts = cp.chart.sample_points
    point = pts[0] if stack is None else (pts * 2)[:stack]
    st = cpm.structure_at(cp, point)
    geo = st.geo
    ref = oracles.reference_geometry(geo.g, geo.ginv, geo.dg, geo.d2g)
    for name in ("gamma", "riem4", "ricci", "tau"):
        _close(getattr(geo, name), getattr(ref, name))
    # the partials of d alpha_1 + d alpha_2, one form at a time
    _, _, hess = rm.field_jets((cp.alpha1.comps, cp.alpha2.comps), cp.chart, point)
    ddalpha = sum(cpm._exterior(hess[..., f, :], cp.dalpha_factor) for f in range(2))
    dphi = oracles.reference_dphi(geo.ginv, ref.dginv, st.dalphas[..., 0, :, :]
                                  + st.dalphas[..., 1, :, :], ddalpha)
    _close(st.dphi, dphi)


# --- contractions written as matmuls ---------------------------------------------

def _close_13(new, ref, rel=1e-13):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref), initial=0.0) <= rel * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("d, lead", [(d, lead) for d in range(4, 11)
                                     for lead in ((1,), (7,), ())])
def test_matmul_contractions_match_their_einsum_forms(d, lead):
    rng = np.random.default_rng(4000 * d + len(lead) + sum(lead))
    g, _, dg, _ = _random_jets(d, lead)
    t4 = rng.normal(size=lead + (d,) * 4)
    t4 = t4 - np.swapaxes(t4, -1, -2)  # antisymmetric in its last pair, as R is
    gamma = rng.normal(size=lead + (d, d, d))
    x, y = rng.normal(size=(2,) + lead + (d,))
    dx, dy = rng.normal(size=(2,) + lead + (d, d))
    _close_13(rm.contract_third(t4, x), oracles.contract_third(t4, x))
    _close_13(rm.covd_vector(x, dx, gamma), oracles.covd_vector(x, dx, gamma))
    _close_13(rm.lie_bracket_from(x, dx, y, dy), oracles.lie_bracket_from(x, dx, y, dy))
    _close_13(rm.lie_derivative_metric(x, dx, g, dg),
              oracles.lie_derivative_metric(x, dx, g, dg))
    # both fields of a pair, on an axis after the leading ones, in one call
    pair, dpair = np.stack((x, y), axis=-2), np.stack((dx, dy), axis=-3)
    _close_13(rm.covd_vector(pair, dpair, gamma[..., None, :, :, :]),
              np.stack([oracles.covd_vector(v, dv, gamma) for v, dv in ((x, dx), (y, dy))],
                       axis=-3))
    _close_13(rm.lie_derivative_metric(pair, dpair, g[..., None, :, :], dg[..., None, :, :, :]),
              np.stack([oracles.lie_derivative_metric(v, dv, g, dg)
                        for v, dv in ((x, dx), (y, dy))], axis=-3))


def _skewed(cp):
    """``cp`` with d alpha doubled and Z_1 tilted by a tenth of the sum
    of the coordinates, so that the Reeb and lemma rows read well away from 0."""
    tilt = el.parse(f"0.1*({' + '.join(cp.chart.coords)})")
    z1 = rm.VectorField(cp.chart, tuple(el.add(c, tilt) for c in cp.z1.comps))
    return dataclasses.replace(cp, z1=z1, dalpha_factor=1.0)


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("key", ["hopf:1", "hopf:2", "hopf:3", "hopf:4",
                                 "sphere_product:1,1", "heisenberg_r"])
def test_rows_match_their_einsum_forms(key, count):
    # d = 4 to 10; a stack of 7 repeats sample points
    cp = _skewed(catalog.resolve(key))
    pts = (cp.chart.sample_points * 7)[:count]
    report = cpm.validate_structure(cp, points=pts)
    st = cpm.structure_at(cp, pts)
    report.add_rows(pts, cpm.lemma_checks(st, cpm.LEMMA_TOL))
    rows = {name: b.values[:, r] for b in report.blocks for r, (name, _, _) in enumerate(b.heads)}
    expected = oracles.reeb_rows(st) | oracles.lemma_rows(st)
    for name, ref in expected.items():
        assert np.min(ref) > 1e-3, name
        _close_13(rows[name], ref)
    # the sums over the pair axis against their per-form references
    for name, ref in oracles.pair_rows(st).items():
        assert np.min(ref) > 1e-3, name
        _close_13(rows[name], ref, 1e-12)
    for new, ref in zip((st.J, st.T, st.dJ, st.dT), oracles.complex_structures(st)):
        _close_13(new, ref, 1e-12)


# --- no many-operand einsum in the package -----------------------------------------

def einsum_faults(source: str, filename: str = "<source>") -> list[str]:
    """Each einsum call in ``source`` with three or more operands, or with
    an ``optimize=`` argument: numpy runs those without BLAS, or plans them
    anew on every call."""
    faults = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        where = f"{filename}:{node.lineno}"
        args = node.args
        if any(isinstance(a, ast.Starred) for a in args):
            faults.append(f"{where}: operands passed as *args cannot be counted")
            continue
        explicit = args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str)
        # einsum(subscripts, *operands) or einsum(op0, sub0, op1, sub1, ..., [out])
        operands = len(args) - 1 if explicit else len(args) // 2
        if operands >= 3:
            faults.append(f"{where}: einsum of {operands} operands")
        if any(k.arg == "optimize" for k in node.keywords):
            faults.append(f"{where}: einsum with optimize=")
    return faults


def test_the_guard_sees_many_operand_einsums():
    assert einsum_faults("np.einsum('ij,jk->ik', a, b)") == []
    assert einsum_faults("np.einsum('...ij,...ij->...', a, b)") == []
    assert len(einsum_faults("np.einsum('i,ij,j', x, a, x)")) == 1
    assert len(einsum_faults("numpy.einsum(a, [0, 1], b, [1, 2], c, [2, 3])")) == 1
    assert len(einsum_faults("einsum('ij,jk', a, b, optimize=True)")) == 1
    assert len(einsum_faults("np.einsum(spec, *ops)")) == 1


def test_no_einsum_of_three_or_more_operands_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    faults = [f for path in files
              for f in einsum_faults(path.read_text(encoding="utf-8"), path.name)]
    assert faults == []
