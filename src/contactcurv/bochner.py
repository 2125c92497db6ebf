"""Curvature machinery for the two almost Hermitian structures of a pair.

Builds the auxiliary (0,4) tensors pi_1, pi_2 and the J-conjugated
curvature, the phi(S)/psi(S) operators on bilinear forms, the Ricci-type
and star-Ricci-type contractions of curvature-like tensors, and assembles
the Bochner tensors B_J and B_T in both dimension regimes.

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
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Optional, Sequence

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


@dataclass
class CurvatureContext:
    """Pointwise ingredients for one complex structure."""

    point: rm.Point
    g: np.ndarray
    ginv: np.ndarray
    J: np.ndarray
    riem4: np.ndarray
    frame: np.ndarray
    m: int
    n: int
    tau: float
    tau_star: float
    reading: str = DEFAULT_READING

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def with_frame(self, frame: np.ndarray) -> "CurvatureContext":
        return replace(self, frame=frame)


def context(cp: ContactPairManifold, point: Sequence[float], which: str = "J",
            reading: str = DEFAULT_READING) -> CurvatureContext:
    pt = tuple(float(v) for v in point)
    st = cpm.structure_at(cp, pt)
    J = st.J if which == "J" else st.T
    ctx = CurvatureContext(pt, st.geo.g, st.geo.ginv, J, st.geo.riem4,
                           st.frame, cp.m, cp.n, st.geo.tau, 0.0, reading)
    ctx.tau_star = trace_form(contract_star(st.geo.riem4, ctx), ctx)
    return ctx


def context_for_metric(metric: rm.MetricField, point: Sequence[float],
                       J: np.ndarray, m: int, n: int,
                       reading: str = DEFAULT_READING,
                       preferred_frame: Sequence[np.ndarray] = ()) -> CurvatureContext:
    """Context over an arbitrary metric with an externally supplied J;
    used by the conformal-invariance check, which keeps J fixed."""
    pt = tuple(float(v) for v in point)
    geo = rm.geometry_at(metric, pt)
    frame = rm.orthonormal_frame(metric, pt, preferred=preferred_frame)
    ctx = CurvatureContext(pt, geo.g, geo.ginv, J, geo.riem4, frame,
                           m, n, geo.tau, 0.0, reading)
    ctx.tau_star = trace_form(contract_star(geo.riem4, ctx), ctx)
    return ctx


# --- auxiliary tensors and operators -----------------------------------------

def pi1(ctx: CurvatureContext) -> np.ndarray:
    """pi_1(X,Y,Z,W) = g(X,Z) g(Y,W) - g(Y,Z) g(X,W)."""
    g = ctx.g
    return np.einsum("ik,jl->ijkl", g, g) - np.einsum("jk,il->ijkl", g, g)


def pi2(ctx: CurvatureContext) -> np.ndarray:
    """pi_2(X,Y,Z,W) = 2 g(JX,Y) g(JZ,W) + g(JX,Z) g(JY,W) - g(JY,Z) g(JX,W)."""
    gJ = ctx.g @ ctx.J  # g(., J .); the sign flip to g(J., .) cancels pairwise
    return (2.0 * np.einsum("ij,kl->ijkl", gJ, gJ)
            + np.einsum("ik,jl->ijkl", gJ, gJ)
            - np.einsum("jk,il->ijkl", gJ, gJ))


def l3(ctx: CurvatureContext, t4: np.ndarray) -> np.ndarray:
    """J-conjugation in all four slots: (L3 T)(X,Y,Z,W) = T(JX,JY,JZ,JW)."""
    J = ctx.J
    out = np.einsum("abcd,ai->ibcd", t4, J)
    out = np.einsum("ibcd,bj->ijcd", out, J)
    out = np.einsum("ijcd,ck->ijkd", out, J)
    return np.einsum("ijkd,dl->ijkl", out, J)


def phi_op(s: np.ndarray, ctx: CurvatureContext) -> np.ndarray:
    """phi(S)(X,Y,Z,W) = g(X,Z)S(Y,W) + g(Y,W)S(X,Z) - g(X,W)S(Y,Z) - g(Y,Z)S(X,W)."""
    g = ctx.g
    return (np.einsum("ik,jl->ijkl", g, s) + np.einsum("jl,ik->ijkl", g, s)
            - np.einsum("il,jk->ijkl", g, s) - np.einsum("jk,il->ijkl", g, s))


def psi_op(s: np.ndarray, ctx: CurvatureContext) -> np.ndarray:
    """psi(S): the six-term J-twisted companion of phi(S)."""
    gJ = ctx.g @ ctx.J   # g(X, JY)
    sJ = s @ ctx.J       # S(X, JY)
    return (2.0 * np.einsum("ij,kl->ijkl", gJ, sJ)
            + 2.0 * np.einsum("kl,ij->ijkl", gJ, sJ)
            + np.einsum("ik,jl->ijkl", gJ, sJ)
            + np.einsum("jl,ik->ijkl", gJ, sJ)
            - np.einsum("il,jk->ijkl", gJ, sJ)
            - np.einsum("jk,il->ijkl", gJ, sJ))


def contract_ricci(t4: np.ndarray, ctx: CurvatureContext) -> np.ndarray:
    """Ricci-type contraction rho(T)(X,Y) = sum_a T(X, e_a, e_a, Y)."""
    return np.einsum("ipqj,ap,aq->ij", t4, ctx.frame, ctx.frame)


def contract_star(t4: np.ndarray, ctx: CurvatureContext) -> np.ndarray:
    """Star contraction rho*(T)(X,Y) = sum_a T(X, e_a, J e_a, J Y)."""
    je = ctx.frame @ ctx.J.T
    k = np.einsum("ap,aq->pq", ctx.frame, je)
    return np.einsum("ipqr,pq,rj->ij", t4, k, ctx.J)


def trace_form(s: np.ndarray, ctx: CurvatureContext) -> float:
    return float(np.einsum("ij,ai,aj->", s, ctx.frame, ctx.frame))


# --- Bochner assembly ----------------------------------------------------------

def bochner(ctx: CurvatureContext, regime: Optional[str] = None) -> np.ndarray:
    """Assemble the Bochner tensor in the regime of the complex dimension.

    ``general`` covers complex dimension m + n + 1 > 2; ``dim4`` is the
    separate four-dimensional formula.  The scalar coefficients always use
    tau and tau* of the curvature tensor itself.
    """
    m, n = ctx.m, ctx.n
    if regime is None:
        regime = DIM4 if ctx.dim == 4 else GENERAL
    if regime == GENERAL and m + n + 1 <= 2:
        raise ValueError("general regime needs complex dimension m+n+1 > 2")
    if regime == DIM4 and ctx.dim != 4:
        raise ValueError(f"dim4 regime needs a 4-dimensional chart, got {ctx.dim}")

    R = ctx.riem4
    # the curvature reading is the combination reading with R -+ l3(R)
    # replaced by R itself
    if ctx.reading == "combination":
        l3r = l3(ctx, R)
        minus, plus = R - l3r, R + l3r
    elif ctx.reading == "curvature":
        minus = plus = R
    else:
        raise ValueError(f"unknown notation reading {ctx.reading!r}")
    s2 = contract_star(minus, ctx)
    s3 = contract_ricci(minus, ctx)
    rho, rho_star = contract_ricci(plus, ctx), contract_star(plus, ctx)
    s4 = rho + 3.0 * rho_star
    s5 = rho - rho_star

    tau, tau_star = ctx.tau, ctx.tau_star
    p1, p2 = pi1(ctx), pi2(ctx)
    if regime == GENERAL:
        mn = m + n
        return (R
                + psi_op(s2, ctx) / (4.0 * (mn + 2))
                + phi_op(s3, ctx) / (4.0 * mn)
                + (phi_op(s4, ctx) + psi_op(s4, ctx)) / (16.0 * (mn + 3))
                + (3.0 * phi_op(s5, ctx) - psi_op(s5, ctx)) / (16.0 * (mn - 1))
                - (tau + 3.0 * tau_star) / (16.0 * (mn + 2) * (mn + 3)) * (p1 + p2)
                - (tau - tau_star) / (16.0 * (mn - 1) * mn) * (3.0 * p1 - p2))
    return (R
            + psi_op(s2, ctx) / 12.0
            + phi_op(s3, ctx) / 4.0
            + (phi_op(s4, ctx) + psi_op(s4, ctx)) / 64.0
            - (tau + 3.0 * tau_star) / 192.0 * (p1 + p2)
            + (tau - tau_star) / 32.0 * (3.0 * p1 - p2))


def bochner_pair(cp: ContactPairManifold, point: Sequence[float],
                 reading: str = DEFAULT_READING):
    """(B_J, B_T) at a point; the type numbers are used as given for both."""
    pt = tuple(float(v) for v in point)
    bj = bochner(context(cp, pt, "J", reading))
    bt = bochner(context(cp, pt, "T", reading))
    return (rm.TensorValue(bj, ("d",) * 4, pt), rm.TensorValue(bt, ("d",) * 4, pt))


def reeb_plane_component(cp: ContactPairManifold, point: Sequence[float],
                         which: str = "J", reading: str = DEFAULT_READING) -> float:
    """B(Z_1, Z_2, Z_2, Z_1) from the full tensor assembly."""
    pt = tuple(float(v) for v in point)
    st = cpm.structure_at(cp, pt)
    b = bochner(context(cp, pt, which, reading))
    return float(np.einsum("ijkl,i,j,k,l", b, st.z1, st.z2, st.z2, st.z1))


def reeb_plane_closed_form(m: int, n: int, tau: float) -> float:
    """Closed-form value of B(Z_1, Z_2, Z_2, Z_1) in the general regime,
    with the scalar curvature left as a free input."""
    return (-16.0 * m - 16.0 * n) / (16.0 * (m + n + 3)) \
        + (tau - 3.0 * (m * m + n * n)) / ((m + n + 2) * (m + n + 3))


def bochner_13(ctx: CurvatureContext, regime: Optional[str] = None) -> np.ndarray:
    """Bochner tensor with the last slot raised; the (1,3)-variance form
    compared across conformal rescalings."""
    return np.einsum("ijka,al->ijkl", bochner(ctx, regime), ctx.ginv)


def conformal_invariance_check(cp: ContactPairManifold, f: rm.ExprLike,
                               reading: str = DEFAULT_READING,
                               points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Recompute B for the metric e^{2f} g with the same J.

    For constant f the (1,3)-variance form must be unchanged; for
    non-constant f the residual is recorded without a pass/fail claim.
    """
    fe = el.as_expr(f)
    constant = not (el.free_names(fe) & set(cp.chart.coords))
    rescaled = rm.conformal_rescale(cp.metric, fe)
    report = Report(cp.name, cp.conventions() | convention_ledger())
    pts = tuple(points) if points is not None else cp.chart.sample_points
    for pt in pts:
        st = cpm.structure_at(cp, pt)
        base = bochner_13(context(cp, pt, "J", reading))
        ctx2 = context_for_metric(rescaled, pt, st.J, cp.m, cp.n, reading,
                                  preferred_frame=(st.z1, st.z2))
        again = bochner_13(ctx2)
        residual = float(np.max(np.abs(again - base)))
        report.add("bochner_13_conformal_shift",
                   "change of the (1,3) Bochner tensor under g -> e^{2f} g "
                   + ("(constant factor: asserted invariant)" if constant
                      else "(non-constant factor: recorded only)"),
                   residual, 1e-7 if constant else None, pt,
                   passed=(residual <= 1e-7) if constant else True)
    return report


# --- staged verification run ----------------------------------------------------

SUITES = ("definitions", "lemmas", "theorem1", "theorem2")


class MissingExpectedTable(LookupError):
    """A theorem suite needs the expected-results table of a catalog entry."""


def loosen(default: float, requested: Optional[float]) -> float:
    """A requested tolerance may only loosen the pinned default."""
    return default if requested is None else max(default, requested)


def _theorem1(report: Report, cp: ContactPairManifold, expected: Mapping,
              tol: Optional[float], points: Sequence[rm.Point]) -> None:
    """Bochner-flatness consequences on the model space; measured controls
    on the expected-nonflat entries."""
    flat = expected["bochner_flat"]
    m, n = cp.pair_type
    tight, loose = loosen(1e-7, tol), loosen(1e-6, tol)
    for pt in points:
        st = cpm.structure_at(cp, pt)
        b = bochner(context(cp, pt))
        sup = float(np.max(np.abs(b)))
        plane = float(np.einsum("ijkl,i,j,k,l", b, st.z1, st.z2, st.z2, st.z1))
        if flat:
            report.add("bochner_flatness", "sup |B_J| vanishes on the model space",
                       sup, loose, pt)
            report.add("bochner_reeb_plane", "B_J(Z1,Z2,Z2,Z1) = 0", plane, tight, pt)
            report.add("scalar_curvature_value", "tau = 2m(2m+1) + 2n(2n+1) + 2mn",
                       st.geo.tau - (2 * m * (2 * m + 1) + 2 * n * (2 * n + 1)
                                     + 2 * m * n), tight, pt)
            worst_r, worst_s, worst_p = 0.0, 0.0, 0.0
            for x in st.horizontal_leaf_vectors(2):
                worst_r = max(worst_r, abs(float(x @ st.geo.ricci @ x) - 2.0 * m))
                worst_s = max(worst_s, abs(float(x @ st.star_ricci @ x) - 1.0))
                px = st.phi @ x
                sect = float(np.einsum("ijkl,i,j,k,l", st.geo.riem4, x, px, px, x))
                worst_p = max(worst_p, abs(sect - 1.0))
            report.add("horizontal_ricci", "rho(X,X) = 2m for unit horizontal "
                       "leaf-tangent X", worst_r, tight, pt)
            report.add("horizontal_star_ricci", "rho*(X,X) = 1", worst_s, tight, pt)
            report.add("phi_sectional_curvature", "R(X,phiX,phiX,X) = 1",
                       worst_p, tight, pt)
        else:
            report.add("bochner_not_flat", "sup |B_J| stays above the control "
                       "bound on a non-model structure", sup, 1e-2, pt,
                       passed=sup > 1e-2)
            target = expected.get("bochner_reeb_plane")
            if target is not None:
                closed = reeb_plane_closed_form(m, n, st.geo.tau)
                report.add("bochner_reeb_plane_value",
                           "B_J(Z1,Z2,Z2,Z1) matches the closed-form value "
                           "computed from the measured scalar curvature",
                           plane - closed, loose, pt)
                report.add("bochner_reeb_plane_expected",
                           f"B_J(Z1,Z2,Z2,Z1) = {target}", plane - target, loose, pt)


def _theorem2(report: Report, cp: ContactPairManifold, expected: Mapping,
              tol: Optional[float], points: Sequence[rm.Point]) -> None:
    """Conformal flatness on the model space, plus constant-factor
    conformal invariance of the Bochner tensor."""
    flat = expected["weyl_flat"]
    for pt in points:
        sup = float(np.max(np.abs(rm.weyl(cp.metric, pt).comps)))
        if flat:
            report.add("weyl_flatness", "sup |W| vanishes on the model space",
                       sup, loosen(1e-8, tol), pt)
        else:
            report.add("weyl_not_flat", "sup |W| stays above the control bound",
                       sup, 1e-2, pt, passed=sup > 1e-2)
    if flat:
        report.extend(conformal_invariance_check(cp, str(math.log(2.0)), points=points))


def run_suites(cp: ContactPairManifold, suites: Collection[str],
               expected: Optional[Mapping] = None,
               tolerance: Optional[float] = None,
               points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Run the requested suites of :data:`SUITES`, always in that order.

    The definitions report, over ``points`` at the loosened structure
    tolerance, is built once and gates the later stages.  It is emitted
    when requested, else only its failed records are.  ``expected`` is the
    catalog entry's expected-results table that the theorem suites read.
    """
    pts = tuple(points) if points is not None else cp.chart.sample_points
    report = Report(cp.name, cp.conventions() | convention_ledger())
    gate = cpm.validate_structure(cp, loosen(cpm.STRUCTURE_TOL, tolerance),
                                  points=pts)
    if "definitions" in suites:
        report.extend(gate)
    else:
        report.checks.extend(gate.failures)
    if not gate.passed:
        return report
    if "lemmas" in suites:
        report.extend(cpm.lemma_checks(cp, loosen(cpm.LEMMA_TOL, tolerance), pts))
    if expected is None and {"theorem1", "theorem2"} & set(suites):
        raise MissingExpectedTable(
            f"theorem suites need the expected-results table of a catalog "
            f"entry; '{cp.name}' is not in the catalog")
    if "theorem1" in suites:
        _theorem1(report, cp, expected, tolerance, pts)
    if "theorem2" in suites:
        _theorem2(report, cp, expected, tolerance, pts)
    return report
