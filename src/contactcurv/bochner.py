"""Curvature machinery for the two almost Hermitian structures of a pair.

Assembles the Bochner tensors B_J and B_T in both dimension regimes from
R, its Ricci contraction rho, held by the geometry, and its star-Ricci
contraction rho*, held by the structure for J.  The contractions of the
J-conjugated curvature L3 R are read off R itself, so L3 R is never formed.

Two readings of the nested operator notation are implemented:

* ``combination`` (the pinned default): contractions are applied to the
  bracketed curvature combination, e.g. psi(rho*(R - L3 R)).
* ``curvature``: contractions are taken of R itself and the bracketed
  combination is ignored.

Exactly one of the two drives the Bochner tensor of the model space to
zero; the suite verifies that decidability and the reports carry the
chosen reading.  :func:`run_suites` is the staged verification run.
"""

from __future__ import annotations

import math
from typing import Collection, Mapping, Optional, Sequence, Union

import numpy as np

from . import contactpair as cpm
from . import exprlang as el
from . import riemann as rm
from .contactpair import ContactPairManifold
from .report import Report

READINGS = ("combination", "curvature")
DEFAULT_READING = "combination"

GENERAL = "general"
DIM4 = "dim4"


def convention_ledger() -> dict:
    return {"bochner_reading": DEFAULT_READING}


class CurvatureContext:
    """Pointwise ingredients for one complex structure, at one point or over
    a stack of points (arrays with a leading point axis, ``tau`` and
    ``tau_star`` arrays over it): ``ricci`` and ``star_ricci`` are rho and
    rho* of ``riem4``, the latter for ``J``."""

    g: np.ndarray
    ginv: np.ndarray
    J: np.ndarray
    riem4: np.ndarray
    ricci: np.ndarray
    star_ricci: np.ndarray
    m: int
    n: int
    tau: Union[float, np.ndarray]
    tau_star: Union[float, np.ndarray]
    reading: str

    def __init__(self, g, ginv, J, riem4, ricci, star_ricci, m, n, tau, tau_star,
                 reading=DEFAULT_READING):
        self.g, self.ginv, self.J, self.riem4, self.ricci = g, ginv, J, riem4, ricci
        self.star_ricci, self.m, self.n, self.tau, self.tau_star = star_ricci, m, n, tau, tau_star
        self.reading = reading

    @property
    def dim(self) -> int:
        return self.g.shape[-1]


def _context(geo: rm.PointGeometry, J: np.ndarray, m: int, n: int, reading: str,
             star_ricci=None, tau_star=None) -> CurvatureContext:
    if star_ricci is None:  # unless the caller holds them, as structure_at forms them for J
        star_ricci = cpm.star_contraction(geo.riem4, geo.ginv, J)
        tau_star = np.einsum("...ij,...ij->...", star_ricci, geo.ginv)
    return CurvatureContext(geo.g, geo.ginv, J, geo.riem4, geo.ricci, star_ricci, m, n,
                            geo.tau, tau_star, reading)


def context(cp: ContactPairManifold, point, which: str = "J",
            reading: str = DEFAULT_READING) -> CurvatureContext:
    """The context of ``which``, "J" or "T" (else ``ValueError``), at a
    point or over a stack of points."""
    if which not in ("J", "T"):
        raise ValueError(f"which must be 'J' or 'T'; got {which!r}")
    pt = rm.as_point(point)
    st = cpm.structure_at(cp, pt)
    cpm.require_foliations(st)
    if which == "J":
        return _context(st.geo, st.J, cp.m, cp.n, reading, st.star_ricci, st.tau_star)
    return _context(st.geo, st.T, cp.m, cp.n, reading)


# --- Bochner assembly ----------------------------------------------------------

def bochner(ctx: CurvatureContext, regime: Optional[str] = None) -> np.ndarray:
    """Assemble the Bochner tensor in the regime of the complex dimension.

    ``general`` covers complex dimension m + n + 1 > 2; ``dim4`` is the
    separate four-dimensional formula.  Both are B = R + phi(S_phi) +
    psi(S_psi), as phi(g) = 2 pi_1 and psi(g) = 2 pi_2; the regime only picks
    the coefficients, which always use tau and tau* of R itself.  Here
    phi(S) = g(X,Z)S(Y,W) + g(Y,W)S(X,Z) - g(X,W)S(Y,Z) - g(Y,Z)S(X,W) is the
    Kulkarni-Nomizu product of g and -S, and psi(S) that of gJ and -SJ plus
    the pair 2 gJ_ij SJ_kl + 2 SJ_ij gJ_kl, with gJ = g(., J .) and
    SJ = S(., J .).
    """
    mn = ctx.m + ctx.n
    if regime is None:
        regime = DIM4 if ctx.dim == 4 else GENERAL
    if not {GENERAL: mn + 1 > 2, DIM4: ctx.dim == 4}.get(regime, False):
        raise ValueError(f"regime must be {GENERAL!r} with m+n+1 > 2 or {DIM4!r} "
                         f"on a 4-dimensional chart; got {regime!r} with "
                         f"m+n+1 = {mn + 1}, dim {ctx.dim}")

    s2, s3, rho, rho_star = _reading_contractions(ctx)
    s4 = rho + 3.0 * rho_star
    s5 = rho - rho_star

    # scalars broadcast against the trailing matrix axes of a stack
    tau = np.asarray(ctx.tau)[..., None, None]
    tau_star = np.asarray(ctx.tau_star)[..., None, None]
    if regime == GENERAL:
        c2, c3 = 1.0 / (4 * (mn + 2)), 1.0 / (4 * mn)
        c4, c5 = 1.0 / (16 * (mn + 3)), 1.0 / (16 * (mn - 1))
        u = (tau + 3.0 * tau_star) / (16.0 * (mn + 2) * (mn + 3))
        v = (tau - tau_star) / (16.0 * (mn - 1) * mn)
    else:
        c2, c3, c4, c5 = 1.0 / 12, 1.0 / 4, 1.0 / 64, 0.0
        u, v = (tau + 3.0 * tau_star) / 192.0, -(tau - tau_star) / 32.0
    s_phi = c3 * s3 + c4 * s4 + 3.0 * c5 * s5 - 0.5 * (u + 3.0 * v) * ctx.g
    s_psi = c2 * s2 + c4 * s4 - c5 * s5 - 0.5 * (u - v) * ctx.g
    # phi(S_phi) + psi(S_psi) in one summed product, R and the psi pair added in place
    gJ, sJ = ctx.g @ ctx.J, s_psi @ ctx.J
    out = rm.kulkarni_nomizu((ctx.g, -s_phi), (gJ, -sJ))
    out += ctx.riem4
    return _add_pair_term(out, gJ, sJ)


def _add_pair_term(out: np.ndarray, gJ: np.ndarray, sJ: np.ndarray) -> np.ndarray:
    """``out`` plus the psi pair 2 gJ_ij sJ_kl + 2 sJ_ij gJ_kl, added in place."""
    lead, d = sJ.shape[:-2], sJ.shape[-1]
    rows = np.stack((2.0 * gJ, 2.0 * sJ), axis=-1).reshape(lead + (d * d, 2))
    cols = np.stack((sJ, gJ), axis=-3).reshape(lead + (2, d * d))
    out += (rows @ cols).reshape(out.shape)  # [(ij), (kl)]
    return out


def _reading_contractions(ctx: CurvatureContext):
    """rho*(R - L3 R), rho(R - L3 R), rho(R + L3 R) and rho*(R + L3 R) in
    the combination reading; the curvature reading replaces R -+ L3 R by R
    itself, whose rho and rho* the context holds.

    With (L3 R)_ijkl = J^a_i J^b_j J^c_k J^d_l R_abcd and rho_M(R) the
    contraction of the middle slots of R with M, exact algebra gives
    rho(L3 R) = J^T rho_M(R) J with M = J g^-1 J^T and
    rho*(L3 R) = J^T rho_N(R) J J with N = M J^T, so both are read off R
    itself in one middle contraction, and L3 R is never formed."""
    rho, rho_star = ctx.ricci, ctx.star_ricci
    if ctx.reading == "curvature":
        return rho_star, rho, rho, rho_star
    if ctx.reading != "combination":
        raise ValueError(f"unknown notation reading {ctx.reading!r}")
    J = ctx.J
    Jt = np.swapaxes(J, -1, -2)
    M = J @ ctx.ginv @ Jt
    c = rm.contract_middle(ctx.riem4, np.stack((M, M @ Jt), axis=-3))
    rho_l3 = Jt @ c[..., 0, :, :] @ J
    rho_star_l3 = Jt @ c[..., 1, :, :] @ J @ J
    return (rho_star - rho_star_l3, rho - rho_l3, rho + rho_l3,
            rho_star + rho_star_l3)


def bochner_pair(cp: ContactPairManifold, point: Sequence[float],
                 reading: str = DEFAULT_READING):
    """(B_J, B_T) at a point; the type numbers are used as given for both."""
    pt = tuple(float(v) for v in point)
    bj = bochner(context(cp, pt, "J", reading))
    bt = bochner(context(cp, pt, "T", reading))
    return rm.TensorValue(bj), rm.TensorValue(bt)


def reeb_plane_component(cp: ContactPairManifold, point: Sequence[float],
                         which: str = "J", reading: str = DEFAULT_READING) -> float:
    """B(Z_1, Z_2, Z_2, Z_1) from the full tensor assembly."""
    pt = tuple(float(v) for v in point)
    st = cpm.structure_at(cp, pt)
    b = bochner(context(cp, pt, which, reading))
    return float(rm.sectional_form(b, st.z1, st.z2))


def reeb_plane_closed_form(m: int, n: int, tau: float) -> float:
    """Closed-form value of B(Z_1, Z_2, Z_2, Z_1) in the general regime,
    with the scalar curvature left as a free input."""
    return (-16.0 * m - 16.0 * n) / (16.0 * (m + n + 3)) \
        + (tau - 3.0 * (m * m + n * n)) / ((m + n + 2) * (m + n + 3))


def conformal_invariance_check(cp: ContactPairManifold, f: rm.ExprLike,
                               reading: str = DEFAULT_READING,
                               points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Check that the (1,3) Bochner tensor is unchanged, to 1e-7, under
    g -> e^{2f} g with the same J.  f may name chart parameters but no
    coordinate, and e^{2f} must be a finite positive double for which the
    rescaled Bochner tensor is finite, else ``ValueError``; the rescaled
    geometry is built from the stored jets by
    :meth:`riemann.PointGeometry.conformal`, with no partials of e^{2f}."""
    fe = el.as_expr(f)
    moving = el.free_names(fe) & set(cp.chart.coords)
    if moving:
        raise ValueError(f"the conformal factor must be constant; it varies "
                         f"with {sorted(moving)}")
    exponent = 2.0 * el.evaluate(fe, cp.chart.param_env())
    try:
        c = math.exp(exponent)
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise ValueError(f"the conformal factor e^(2f) = {c!r} is not a finite "
                         f"positive number")
    report = Report(cp.name, cp.conventions() | convention_ledger())
    pts = cpm.point_stack(cp, points)
    b = bochner(context(cp, pts, "J", reading))
    st = cpm.structure_at(cp, pts)
    try:
        with np.errstate(all="ignore"):  # an overflow is refused below
            scaled = _context(st.geo.conformal(c, 0.0, 0.0), st.J, cp.m, cp.n, reading)
            shift = rm.contract_last(bochner(scaled), scaled.ginv)
            shift -= rm.contract_last(b, st.geo.ginv)
            sup = rm.pointwise_sup(shift)
    except np.linalg.LinAlgError:  # c g is singular in floating point
        sup = np.nan
    if not np.isfinite(sup).all():
        raise ValueError(f"the Bochner tensor of e^(2f) g with e^(2f) = {c!r} is "
                         f"not a finite number")
    report.add_rows(pts, (("bochner_13_conformal_shift", "change of the (1,3) Bochner tensor "
                           "under g -> e^{2f} g (constant factor: asserted invariant)",
                           sup, 1e-7),))
    return report


# --- staged verification run ----------------------------------------------------

SUITES = ("definitions", "lemmas", "theorem1", "theorem2")


class MissingExpectedTable(LookupError):
    """A theorem suite needs the expected-results table of a catalog entry."""


def loosen(default: float, requested: Optional[float]) -> float:
    """A requested tolerance may only loosen the pinned default."""
    return default if requested is None else max(default, requested)


def _theorem1(st: cpm.StructureData, expected: Mapping, tol: Optional[float],
              b_j: np.ndarray, certificate: tuple):
    """Rows of Bochner flatness and its conclusion, the ``certificate``, on
    the model space; measured controls on the expected-nonflat entries.
    ``b_j`` is B_J over ``st``."""
    m, n = st.cp.pair_type
    tight, loose = loosen(1e-7, tol), loosen(1e-6, tol)
    sup = rm.pointwise_sup(b_j)
    plane = rm.sectional_form(b_j, st.z1, st.z2)
    if expected["bochner_flat"]:
        return (("bochner_flatness", "sup |B_J| vanishes on the model space", sup, loose),
                ("bochner_reeb_plane", "B_J(Z1,Z2,Z2,Z1) = 0", plane, tight)) + certificate
    rows = (("bochner_not_flat", "sup |B_J| stays above the control bound on a "
             "non-model structure", sup, 1e-2, sup > 1e-2),)
    target = expected.get("bochner_reeb_plane")
    if target is not None:
        rows += (("bochner_reeb_plane_value", "B_J(Z1,Z2,Z2,Z1) matches the "
                  "closed-form value computed from the measured scalar curvature",
                  plane - reeb_plane_closed_form(m, n, st.geo.tau), loose),
                 ("bochner_reeb_plane_expected", f"B_J(Z1,Z2,Z2,Z1) = {target}",
                  plane - target, loose))
    return rows


def _theorem2(st: cpm.StructureData, expected: Mapping, tol: Optional[float],
              certificate: tuple):
    """Rows of conformal flatness, its conclusion, the ``certificate``, and
    the conformal invariance of W on the model space, or the row of its
    measured control on the expected-nonflat entries."""
    w = rm.weyl(st.cp.metric, st.point).comps
    sup = rm.pointwise_sup(w)
    if expected["weyl_flat"]:
        # h = e^{2f} with f = 0.1 sin x0, so h' = 2f' h and h'' = ((2f')^2 + 2f'') h
        x = np.asarray(st.point)[..., 0]
        two_f, two_df, h = 0.2 * np.sin(x), 0.2 * np.cos(x), np.exp(0.2 * np.sin(x))
        moved = st.geo.conformal(h, two_df * h, (two_df ** 2 - two_f) * h)
        shift = rm.contract_last(moved.weyl(), moved.ginv)
        shift -= rm.contract_last(w, st.geo.ginv)
        flat = loosen(1e-8, tol)
        return (("weyl_flatness", "sup |W| vanishes on the model space", sup, flat),
                *certificate, ("weyl_13_conformal_shift", "change of the (1,3) Weyl tensor "
                               "under g -> e^{2f} g, f = 0.1 sin x0",
                               rm.pointwise_sup(shift), flat))
    return (("weyl_not_flat", "sup |W| stays above the control bound", sup, 1e-2,
             sup > 1e-2),)


def _hopf_certificate(st: cpm.StructureData, tol: Optional[float]):
    """Rows of the conclusion of both theorems, a local isometry to the Hopf
    model S^{2m+1}(1) x R: Z2 is parallel, so M is locally N x R (de Rham),
    and R = 1/2 g1 o g1 with g1 = g - alpha2 (x) alpha2, so N has constant
    curvature 1 (Kobayashi & Nomizu I, ch. IV-V)."""
    tight = loosen(1e-7, tol)
    alpha2 = st.alphas[:, 1]
    g1 = st.geo.g - alpha2[:, :, None] * alpha2[:, None, :]
    defect = rm.kulkarni_nomizu((g1, -0.5 * g1))
    defect += st.geo.riem4
    nabla_z2 = rm.covd_vector(st.reebs[:, 1], st.dreebs[:, 1], st.geo.gamma)
    return (("hopf_model_curvature", "R = 1/2 g1 o g1 with g1 = g - alpha2 (x) alpha2",
             rm.pointwise_sup(defect), tight),
            ("reeb2_parallel", "grad Z2 = 0", rm.pointwise_sup(nabla_z2), tight))


def run_suites(cp: ContactPairManifold, suites: Collection[str],
               expected: Optional[Mapping] = None,
               tolerance: Optional[float] = None,
               points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Run the requested suites of :data:`SUITES`, always in that order.

    Every stage evaluates its checks over the whole stack of points at once
    and returns them as rows, recorded here as one block per stage.  The
    definitions report, over ``points`` at the loosened structure tolerance,
    is built once and gates the later stages.  It is emitted when requested,
    else only its failed records are.  ``expected`` is the catalog entry's
    expected-results table that the theorem suites read.
    """
    pts = cpm.point_stack(cp, points)
    report = Report(cp.name, cp.conventions() | convention_ledger())
    gate = cpm.validate_structure(cp, loosen(cpm.STRUCTURE_TOL, tolerance),
                                  points=pts)
    if "definitions" in suites:
        report.blocks += gate.blocks
    elif not gate.passed:
        for c in gate.failures:
            report.add(c.name, c.detail, c.value, c.tolerance, c.point, c.passed)
    if not gate.passed:
        return report
    if expected is None and {"theorem1", "theorem2"} & set(suites):
        raise MissingExpectedTable(
            f"theorem suites need the expected-results table of a catalog "
            f"entry; '{cp.name}' is not in the catalog")
    # the structure that passed the gate, which every later stage reads
    st = cpm.structure_at(cp, pts)
    if "lemmas" in suites:
        report.add_rows(pts, cpm.lemma_checks(st, loosen(cpm.LEMMA_TOL, tolerance)))
    # the conclusion, formed once for both flat branches
    flat = ("theorem1" in suites and expected["bochner_flat"]
            or "theorem2" in suites and expected["weyl_flat"])
    certificate = _hopf_certificate(st, tolerance) if flat else ()
    if "theorem1" in suites:  # B_J over the stack
        report.add_rows(pts, _theorem1(st, expected, tolerance, bochner(context(cp, pts)),
                                       certificate))
    if "theorem2" in suites:
        report.add_rows(pts, _theorem2(st, expected, tolerance, certificate))
    return report
