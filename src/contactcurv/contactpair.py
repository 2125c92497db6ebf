"""Metric contact pairs: structure synthesis and pointwise validation.

A manifold is described by a chart, a metric, two one-forms and their Reeb
fields, and the pair type (m, n).  The endomorphism phi is synthesized from
the associated-metric identity g(X, phi Y) = (d alpha_1 + d alpha_2)(X, Y),
never entered by hand; the almost complex structures are

    J = phi - alpha_2 (x) Z_1 + alpha_1 (x) Z_2
    T = phi + alpha_2 (x) Z_1 - alpha_1 (x) Z_2

that is J, T = phi -+ sum_f Z_f (x) c_f with c = (alpha_2, -alpha_1).  Both
forms and their fields are held on one pair axis f, and treated in one call.

The exterior-derivative factor ``s`` multiplying (d_i a_j - d_j a_i) is a
structure-level convention.  Exactly one of {1, 1/2} makes the synthesized
phi satisfy phi^2 = -Id + alpha_1 (x) Z_1 + alpha_2 (x) Z_2 on the catalog
models; s = 1/2 is the pinned default and the choice is re-verified by the
suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import exprlang as el
from . import riemann as rm
from .report import Report

DALPHA_FACTOR = 0.5

STRUCTURE_TOL = 1e-8
LEMMA_TOL = 1e-7

CONVENTIONS = {
    "exterior_derivative_factor": DALPHA_FACTOR,
    "curvature_sign": "R(X,Y,Y,X) = +1 on the unit sphere",
    "ricci_contraction": "rho(X,Y) = sum_a R(X,e_a,e_a,Y)",
}


class InvalidStructureError(Exception):
    """The manifold data does not define a valid metric contact pair;
    ``defect`` is the finite size of the violation that reports record."""

    def __init__(self, message: str, clauses: Optional[list[str]] = None,
                 defect: float = 0.0):
        super().__init__(message)
        self.clauses = clauses or []
        self.defect = defect


@el.keeps_hash
@dataclass(frozen=True)
class ContactPairManifold:
    name: str
    chart: rm.Chart
    metric: rm.MetricField
    alpha1: rm.OneForm
    alpha2: rm.OneForm
    z1: rm.VectorField
    z2: rm.VectorField
    pair_type: tuple[int, int]
    dalpha_factor: float = DALPHA_FACTOR

    @property
    def m(self) -> int:
        return self.pair_type[0]

    @property
    def n(self) -> int:
        return self.pair_type[1]

    @property
    def dim(self) -> int:
        return self.chart.dim

    def conventions(self) -> dict:
        out = dict(CONVENTIONS)
        out["exterior_derivative_factor"] = self.dalpha_factor
        return out


def exterior_derivative(alpha: rm.OneForm, s: float = DALPHA_FACTOR):
    """(d alpha)_ij = s (d_i a_j - d_j a_i) as a full antisymmetric grid of
    expressions.  The symbolic form; :func:`structure_at` reads the same
    values off the jets of alpha."""
    chart = alpha.chart
    d = chart.dim
    sc = el.Const(float(s))
    grid = [[el.ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            e = el.mul(sc, el.sub(el.derive(alpha.comps[j], chart.coords[i]),
                                  el.derive(alpha.comps[i], chart.coords[j])))
            grid[i][j] = e
            grid[j][i] = el.neg(e)
    return tuple(tuple(row) for row in grid)


# --- the pair clauses ---------------------------------------------------------

def pfaffian(a: np.ndarray) -> np.ndarray:
    """Pf of a stack of skew-symmetric matrices over the last two axes, real
    or complex: Parlett-Reid elimination with the largest pivot in each
    column (Wimmer, "Algorithm 923", ACM TOMS 38(4), 2012)."""
    a = np.array(a, dtype=np.result_type(a, float))
    shape, n = a.shape[:-2], a.shape[-1]
    if n % 2:
        return np.zeros(shape, a.dtype)
    a = a.reshape(math.prod(shape), n, n)
    pf, flips, stack = np.ones(len(a), a.dtype), 0, np.arange(len(a))[:, None]
    while n > 2:
        # eliminate rows and columns 0 and r, the largest |a[r, 0]|: the Schur complement
        # keeps the others' order, pf gains (-1)^r a[r, 0], the Gauss vector is <= 1.
        # A pivot below the smallest normal float (complex division overflows) is 0.
        r = 1 + np.argmax(np.abs(a[:, 1:, 0]), axis=1)[:, None]
        pivot = a[stack, r, 0]
        live = ~(np.abs(pivot) < np.finfo(float).tiny)  # a NaN pivot stays live
        pf *= np.where(live, pivot, 0)[:, 0]
        flips = flips + r[:, 0]
        update = _outer(a[:, :, 0] / np.where(live, pivot, 1), a[stack, :, r][:, 0])
        a = a + (update - np.swapaxes(update, 1, 2))  # exactly skew again
        rest = np.arange(1, n - 1)
        rest = rest + (rest >= r)  # skips 0 and r
        a = a[stack[:, :, None], rest[:, :, None], rest[:, None]]
        n -= 2
    return (np.where(flips % 2, -pf, pf) * (a[:, 0, 1] if n else 1)).reshape(shape)


def pair_clauses(pair_type: tuple[int, int], alphas: np.ndarray, dalphas: np.ndarray):
    """Rows for :meth:`Report.add_rows`: the volume and vanishing-power clauses of
    type (m, n) over the leading axes, for the forms on the pair axis
    (``alphas[..., f, i]``, ``dalphas[..., f, i, j]``).  The coefficients of
    (d alpha)^p have the coordinate l2 norm p! sqrt(e_p(sigma^2)) over the singular
    values sigma of d alpha, each of which a skew matrix has twice: the principal
    2p-minors are Pf^2 and sum to e_p(sigma^2).  alpha1 ^ (d alpha1)^m ^ alpha2 ^
    (d alpha2)^n has m! n! [t^n] (Pf(d alpha1 + t d alpha2 + alpha1 ^ alpha2) -
    Pf(d alpha1 + t d alpha2)), read off at the (m + n + 1)-th roots of unity.
    Both are homogeneous in each form, so they are read off forms scaled by powers
    of two, then scaled back exactly: nothing overflows but a result, as inf."""
    m, n = pair_type
    sigma = np.linalg.svd(dalphas, compute_uv=False)[..., ::2]
    k = np.frexp(sigma[..., 0])[1]  # 2^(k - 1) <= the largest singular value < 2^k
    top, ktop = np.zeros(alphas.shape[:-2]), 0  # unless the wedge has the top degree
    if alphas.shape[-1] == 2 * (m + n + 1):
        # each form over a power of two that leaves its entries below 2, if they are not
        ka = np.maximum(np.frexp(np.abs(alphas).max(axis=-1))[1] - 1, 0)
        kd = np.maximum(k - 1, 0)
        a = np.ldexp(alphas, -ka[..., None])
        da = np.ldexp(dalphas, -kd[..., None, None])
        t = np.exp(2j * np.pi * np.arange(m + n + 1) / (m + n + 1))
        pencil = da[..., :1, :, :] + t[:, None, None] * da[..., 1:, :, :]
        wedge = _outer(a[..., 0, :], a[..., 1, :])
        beta = (wedge - np.swapaxes(wedge, -1, -2))[..., None, :, :]
        with_beta, without = pfaffian(np.stack((pencil + beta, pencil)))
        top = math.factorial(m) * math.factorial(n) * np.mean(
            (with_beta - without) * t ** -n, axis=-1).real
        ktop = ka.sum(axis=-1) + kd @ np.array([m, n])
    sigma2 = np.ldexp(sigma, -k[..., None]) ** 2
    e = np.zeros(sigma2.shape[:-1] + (max(m, n) + 2,))  # e[..., f, p] = e_p(sigma_f^2)
    e[..., 0] = 1.0
    for j in range(sigma2.shape[-1]):
        e[..., 1:] += sigma2[..., j, None] * e[..., :-1]
    degrees = np.array([m + 1, n + 1])
    powers = np.sqrt(e[..., (0, 1), degrees]) * [math.factorial(m + 1), math.factorial(n + 1)]
    with np.errstate(over="ignore"):  # inf is the value too large for a double
        top, powers = np.ldexp(top, ktop), np.ldexp(powers, k * degrees)
    return (("volume_form", "alpha1 ^ (dalpha1)^m ^ alpha2 ^ (dalpha2)^n has a "
             "nonzero top coefficient", top, 1e-10, np.abs(top) > 1e-10),
            ("dalpha1_power_vanishes", "(dalpha1)^(m+1) = 0", powers[..., 0], 1e-10),
            ("dalpha2_power_vanishes", "(dalpha2)^(n+1) = 0", powers[..., 1], 1e-10))


# --- pointwise structure data --------------------------------------------------

class StructureData:
    """Structure fields at one point, or over a stack of points with a
    leading point axis on every array (``tau_star`` is then an array too).
    The pair axis f follows it: ``alphas[..., f, :]`` is alpha_{f+1}, and
    ``proj[..., f, :, :]`` the g-orthogonal projector onto T F_{f+1}."""

    cp: ContactPairManifold
    point: Union[rm.Point, tuple[rm.Point, ...]]
    geo: rm.PointGeometry
    alphas: np.ndarray  # [f, i]
    reebs: np.ndarray  # [f, k] = Z_f^k, read as z1 and z2
    dreebs: np.ndarray  # [f, m, k] = d_m Z_f^k
    dalphas: np.ndarray  # [f, i, j], two-form values
    phi: np.ndarray
    dphi: np.ndarray  # [m, k, j]
    J: np.ndarray
    dJ: np.ndarray  # [m, k, j]
    T: np.ndarray
    dT: np.ndarray
    proj: np.ndarray  # [f, i, j]
    H: np.ndarray
    star_ricci: np.ndarray
    tau_star: Union[float, np.ndarray]
    foliation_dims: np.ndarray  # [2]: dimensions of the two characteristic foliations

    def __init__(self, cp, point, geo, alphas, reebs, dreebs, dalphas, phi, dphi, J, dJ,
                 T, dT, proj, H, star_ricci, tau_star, foliation_dims):
        self.cp, self.point, self.geo, self.alphas, self.reebs = cp, point, geo, alphas, reebs
        self.dreebs, self.dalphas, self.phi, self.dphi, self.J = dreebs, dalphas, phi, dphi, J
        self.dJ, self.T, self.dT, self.proj, self.H = dJ, T, dT, proj, H
        self.star_ricci, self.tau_star, self.foliation_dims = star_ricci, tau_star, foliation_dims
        rm.freeze_arrays(self)

    @property
    def z1(self) -> np.ndarray:
        return self.reebs[..., 0, :]

    @property
    def z2(self) -> np.ndarray:
        return self.reebs[..., 1, :]

    def horizontal_leaf_frame(self, which: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """Candidate unit vectors in the leaf tangent (T F_which, ``which`` 1
        or 2, else ``ValueError``) cut to the horizontal bundle, one per
        coordinate vector, as rows ``x[c]``, and the mask ``kept[c]`` of
        those that count: tiny projections and vectors within 1e-3 rad of an
        earlier kept one are dropped."""
        if which not in (1, 2):
            raise ValueError(f"which must be 1 or 2, for F_1 or F_2; got {which!r}")
        proj = self.proj[..., which - 1, :, :]
        g = self.geo.g
        w = np.swapaxes(self.H @ proj, -1, -2)  # w[c] = H proj e_c
        norm2 = np.sum((w @ g) * w, axis=-1)
        kept = norm2 >= 1e-12  # norm >= 1e-6
        x = w / np.sqrt(np.where(kept, norm2, 1.0))[..., None]
        near = np.abs(x @ g @ np.swapaxes(x, -1, -2)) > np.cos(1e-3)
        for c in range(self.cp.dim):  # greedy, in candidate order
            kept[..., c] &= ~np.any(kept[..., :c] & near[..., c, :c], axis=-1)
        return x, kept

    def horizontal_leaf_vectors(self, which: int = 2) -> list[np.ndarray]:
        """The kept vectors of :meth:`horizontal_leaf_frame` at one point."""
        x, kept = self.horizontal_leaf_frame(which)
        return list(x[kept])


def _exterior(partials: np.ndarray, s: float) -> np.ndarray:
    """s (x[..., i, j] - x[..., j, i]) over the last two axes.  With
    x[i, j] = d_i a_j this is (d alpha)_ij; with x[m, i, j] = d_m d_i a_j it
    is d_m (d alpha)_ij."""
    return s * (partials - np.swapaxes(partials, -1, -2))


def _two_forms(derivs: np.ndarray, hess: np.ndarray, s: float, point):
    """d alpha_f [f, i, j] and d_m (d alpha_1 + d alpha_2) [m, i, j] from the
    jets of fields whose first two are alpha_1 and alpha_2.  A two-form that
    overflows, though the jets are finite, raises
    :class:`~contactcurv.exprlang.ExprError` at the first such point."""
    with np.errstate(all="ignore"):  # a non-finite entry raises below
        dalphas = _exterior(np.swapaxes(derivs, -3, -2)[..., :2, :, :], s)
        dA = _exterior(hess[..., 0, :] + hess[..., 1, :], s)
    finite = np.isfinite(dalphas).all(axis=(-3, -2, -1)) & np.isfinite(dA).all(axis=(-3, -2, -1))
    if not finite.all():
        at = point[int(np.argmin(finite))] if finite.ndim else point
        raise el.ExprError(f"d alpha or its partials are not finite at {at}")
    return dalphas, dA


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _twisted(pair: np.ndarray) -> np.ndarray:
    """(x_2, -x_1) from the pair (x_1, x_2) on the axis before the last."""
    return np.stack((pair[..., 1, :], -pair[..., 0, :]), axis=-2)


def _nullspace_projectors(alpha_values: np.ndarray, dalpha_values: np.ndarray,
                          g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g-orthogonal projectors onto {X : alpha_f(X)=0, dalpha_f(X, .)=0} and
    the dimensions of those spaces, for forms f stacked on the axis after
    the leading axes of g (``[..., f, i]`` and ``[..., f, i, j]``), with one
    SVD for all of them."""
    d = g.shape[-1]
    stack = np.concatenate((alpha_values[..., None, :],
                            np.swapaxes(dalpha_values, -1, -2)), axis=-2)
    _, svals, vt = np.linalg.svd(stack)
    dims = d - np.count_nonzero(svals > 1e-8 * svals[..., :1], axis=-1)
    g = np.broadcast_to(g[..., None, :, :], stack.shape[:-2] + (d, d))
    proj = np.zeros(g.shape)
    for k in set(np.ravel(dims).tolist()) - {0}:  # one solve per nullspace dimension
        at = dims == k
        basis = np.swapaxes(vt[at][:, d - k:], -1, -2)  # columns span the nullspace
        gram = np.swapaxes(basis, -1, -2) @ g[at] @ basis
        proj[at] = basis @ np.linalg.solve(gram, np.swapaxes(basis, -1, -2) @ g[at])
    return proj, dims


def star_contraction(t4: np.ndarray, ginv: np.ndarray, J: np.ndarray) -> np.ndarray:
    """rho*(T)(X,Y) = g^{pa} J^q_a T(X, d_p, d_q, J Y): the frame sum
    sum_a T(X, e_a, J e_a, J Y), which is the same for every g-orthonormal
    frame (e_a), since sum_a e_a (x) e_a = g^{-1}."""
    return rm.contract_middle(t4, ginv @ np.swapaxes(J, -1, -2)) @ J


def _foliation_fault(cp: ContactPairManifold, point: rm.Point,
                     dims: np.ndarray) -> Optional[InvalidStructureError]:
    dim1, dim2 = (int(k) for k in dims)
    expected1, expected2 = 2 * cp.n + 1, 2 * cp.m + 1
    if (dim1, dim2) == (expected1, expected2):
        return None
    return InvalidStructureError(
        f"characteristic foliations of {cp.name} have dimensions "
        f"({dim1}, {dim2}) at {point}; type {cp.pair_type} needs "
        f"({expected1}, {expected2})",
        clauses=["foliation_dimensions"],
        defect=abs(dim1 - expected1) + abs(dim2 - expected2))


def require_foliations(st: StructureData) -> None:
    """Raise the fault of the first point, in point order, whose
    characteristic foliations have the wrong dimensions: the one place a
    foliation fault is raised, at one point as over a stack."""
    points = st.point if rm.is_stack(st.point) else (st.point,)
    dims = np.reshape(st.foliation_dims, (-1, 2))
    bad = np.flatnonzero(np.any(dims != (2 * st.cp.n + 1, 2 * st.cp.m + 1), axis=1))
    if bad.size:
        raise _foliation_fault(st.cp, points[bad[0]], dims[bad[0]])


@lru_cache(maxsize=None)
def structure_at(cp: ContactPairManifold, point) -> StructureData:
    """Structure fields at one point, or stacked over a tuple of points.

    Characteristic foliations of the wrong dimensions are left in
    ``foliation_dims``, for :func:`validate_structure` to report point by
    point and for :func:`require_foliations` to raise.  Evaluation faults,
    a d alpha that overflows among them, raise as in
    :func:`riemann.geometry_at`: the first faulty point in point order, and
    at that point a metric fault before a form fault.

    The forms and fields continue the walk of the metric
    (:meth:`riemann.PointGeometry.continued_walk`), so a node they share
    with it is walked once.  The ill-conditioning warnings of the geometry
    come out once the forms have passed too.
    """
    fields = (cp.alpha1.comps, cp.alpha2.comps, cp.z1.comps, cp.z2.comps)
    try:
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("always")
            geo = rm.geometry_at(cp.metric, point)
        values, derivs, hess = rm.field_jets(fields, cp.chart, point, geo.continued_walk())
        dalphas, dA = _two_forms(derivs, hess, cp.dalpha_factor, point)
    except (el.ExprError, rm.MetricError):
        # point by point and uncached, so the first faulty point raises after
        # the warnings of the points before it, and of no later point
        for pt in point if rm.is_stack(point) else (point,):
            rm.point_geometry(cp.metric, pt)
            _two_forms(*rm.field_jets(fields, cp.chart, pt)[1:], cp.dalpha_factor, pt)
        raise
    for caught in held:
        warnings.warn(caught.message, stacklevel=1)
    g, ginv = geo.g, geo.ginv

    # the forms and fields on the pair axis, d_m Z_f^k = dreebs[f, m, k]
    alphas, reebs = values[..., :2, :], values[..., 2:, :]
    dreebs = np.swapaxes(derivs, -3, -2)[..., 2:, :, :]

    # phi from the associated-metric identity, with exact first derivatives:
    # d_m g^-1 = -g^-1 d_m g g^-1 gives d_m phi = g^-1 (d_m A - d_m g phi)
    A = dalphas[..., 0, :, :] + dalphas[..., 1, :, :]
    phi = ginv @ A
    dphi = ginv[..., None, :, :] @ (dA - geo.dg @ phi[..., None, :, :])

    # J, T = phi -+ X and dJ, dT = dphi -+ dX, with X = sum_f Z_f (x) c_f
    c = _twisted(alphas)
    X = np.swapaxes(reebs, -1, -2) @ c
    dX = (np.einsum("...fmk,...fj->...mkj", dreebs, c)
          + np.einsum("...fk,...mfj->...mkj", reebs, _twisted(derivs[..., :2, :])))
    J, T = phi - X, phi + X
    dJ, dT = dphi - dX, dphi + dX

    proj, dims = _nullspace_projectors(alphas, dalphas, g)
    H = np.eye(cp.dim) - np.swapaxes(reebs, -1, -2) @ alphas

    star = star_contraction(geo.riem4, ginv, J)
    tau_star = np.einsum("...ij,...ij->...", star, ginv)

    return StructureData(cp, point, geo, alphas, reebs, dreebs, dalphas, phi, dphi,
                         J, dJ, T, dT, proj, H, star, tau_star, dims)


# --- public operations ----------------------------------------------------------

def _phi_square_residual(st: StructureData):
    """max |phi^2 + H|, as phi^2 = -Id + sum_f alpha_f (x) Z_f = -H."""
    return np.max(np.abs(st.phi @ st.phi + st.H), axis=(-2, -1))


def check_contact_pair(cp: ContactPairManifold, point: Sequence[float]) -> Report:
    """Volume-form and vanishing-power clauses of the pair type."""
    pt = tuple(float(v) for v in point)
    values, derivs, hess = rm.field_jets((cp.alpha1.comps, cp.alpha2.comps), cp.chart, pt)
    dalphas, _ = _two_forms(derivs, hess, cp.dalpha_factor, pt)
    report = Report(cp.name, cp.conventions())
    report.add_rows((pt,), pair_clauses(cp.pair_type, values[None], dalphas[None]))
    return report


def nijenhuis_from(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """N^k_ij on coordinate fields from pointwise J and dJ."""
    d = J.shape[-1]
    # t1[k, i, j] = J^a_i d_a J^k_j and t3[k, i, j] = J^k_b d_j J^b_i, as matmuls
    t1 = np.swapaxes((np.swapaxes(J, -1, -2) @ dJ.reshape(dJ.shape[:-3] + (d, d * d)))
                     .reshape(dJ.shape), -3, -2)
    t3 = np.moveaxis(J[..., None, :, :] @ dJ, -3, -1)
    return t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)


# --- validation and lemma suite ---------------------------------------------------

def _at(rows, p: int) -> list[tuple]:
    """``rows`` cut to point number ``p`` of their stack."""
    return [(*row[:2], row[2][p:p + 1], row[3], *(f[p:p + 1] for f in row[4:])) for row in rows]


def point_stack(cp: ContactPairManifold,
                points: Optional[Sequence[rm.Point]] = None) -> tuple[rm.Point, ...]:
    """``points`` as one stack, or the chart's sample points when it is None.
    An empty stack raises ``ValueError``: a run over no point would pass."""
    pts = rm.as_point(cp.chart.sample_points if points is None else points)
    if not pts:
        raise ValueError(f"{cp.name}: no point to check")
    return pts


def validate_structure(cp: ContactPairManifold,
                       tolerance: float = STRUCTURE_TOL,
                       points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Definition-level invariants at every sample point, evaluated and
    recorded over the stack of points."""
    pts = point_stack(cp, points)
    report = Report(cp.name, cp.conventions())
    d = cp.dim
    m, n = cp.pair_type
    report.add("dimension_type", "dim = 2m + 2n + 2",
               d - (2 * m + 2 * n + 2), 0.0, passed=(d == 2 * m + 2 * n + 2))
    st = structure_at(cp, pts)
    g, phi, P = st.geo.g, st.phi, st.proj
    alphas, reebs, dreebs = st.alphas, st.reebs, st.dreebs  # [p, f, :]
    JT = np.stack((st.J, st.T), axis=1)  # J and T on one axis, as the forms
    eye = np.eye(d)
    sup = rm.pointwise_sup
    # phi in a g-orthonormal frame, L^T phi L^-T with g = L L^T, has the
    # singular values of L^-1 phi^T L, whatever the scale of the chart
    L = np.linalg.cholesky(g)
    svals = np.linalg.svd(np.linalg.solve(L, np.swapaxes(phi, 1, 2) @ L), compute_uv=False)
    rank = np.sum(svals > 1e-8 * svals[:, :1], axis=1)
    # the Reeb contractions as matmuls, with the Reeb fields as rows [p, f, :],
    # and each row over both forms, or over both of J and T, in one call
    nijenhuis = nijenhuis_from(JT, np.stack((st.dJ, st.dT), axis=1))
    rows = (
        ("reeb_duality", "alpha_i(Z_j) = delta_ij",
         sup(alphas @ np.swapaxes(reebs, 1, 2) - np.eye(2)), tolerance),
        ("reeb_in_dalpha_kernel", "i_{Z_i} dalpha_j = 0",
         sup(reebs[:, None] @ st.dalphas), tolerance),
        ("reeb_fields_commute", "[Z_1, Z_2] = 0",
         sup(rm.lie_bracket_from(reebs[:, 0], dreebs[:, 0], reebs[:, 1], dreebs[:, 1])),
         tolerance),
        ("metric_reeb_duality", "g(X, Z_i) = alpha_i(X)",
         sup(reebs @ g - alphas), tolerance),  # g is symmetric
        ("phi_squared_identity",
         "phi^2 = -Id + alpha_1 (x) Z_1 + alpha_2 (x) Z_2",
         _phi_square_residual(st), tolerance),
        ("phi_kills_reeb", "phi Z_1 = phi Z_2 = 0",
         sup(reebs @ np.swapaxes(phi, 1, 2)), tolerance),
        ("alpha_circ_phi", "alpha_i o phi = 0", sup(alphas @ phi), tolerance),
        ("phi_rank", "rank phi = dim - 2", rank - (d - 2), 0.0),
        ("foliation_projectors", "P1 P2 = 0 and P1 + P2 = Id",
         np.maximum(sup(P[:, 0] @ P[:, 1]), sup(P[:, 0] + P[:, 1] - eye)), tolerance),
        ("phi_preserves_foliations", "phi P_i = P_i phi",
         sup(phi[:, None] @ P - P @ phi[:, None]), tolerance),
        ("complex_structures_square", "J^2 = T^2 = -Id", sup(JT @ JT + eye), 1e-9),
        ("complex_structures_isometric", "g(JX, JY) = g(X, Y)",
         sup(np.swapaxes(JT, -1, -2) @ g[:, None] @ JT - g[:, None]), 1e-9),
        ("associated_metric", "g(X, phi Y) = (dalpha1 + dalpha2)(X, Y)",
         sup(g @ phi - (st.dalphas[:, 0] + st.dalphas[:, 1])), tolerance),
        ("normality_J", "Nijenhuis tensor of J vanishes", sup(nijenhuis[:, 0]), LEMMA_TOL),
        ("normality_T", "Nijenhuis tensor of T vanishes", sup(nijenhuis[:, 1]), LEMMA_TOL),
    )
    pair = pair_clauses(cp.pair_type, alphas, st.dalphas)
    try:
        require_foliations(st)
    except InvalidStructureError:  # then a fault replaces the rows at its point
        for p, pt in enumerate(pts):
            report.add_rows((pt,), _at(pair, p))
            fault = _foliation_fault(cp, pt, st.foliation_dims[p])
            if fault is None:
                report.add_rows((pt,), _at(rows, p))
            else:
                for clause in fault.clauses:
                    report.add(clause, str(fault), fault.defect, 0.0, pt, passed=False)
        return report
    report.add_rows(pts, pair + rows)
    return report


def lemma_suite(cp: ContactPairManifold, tolerance: float = LEMMA_TOL,
                points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Pointwise identities satisfied by every normal metric contact pair
    with orthogonal characteristic foliations, gated on
    :func:`validate_structure` at the same points."""
    pts = point_stack(cp, points)
    gate = validate_structure(cp, points=pts)
    if not gate.passed:
        raise InvalidStructureError(
            f"{cp.name} failed structure validation: "
            + ", ".join(sorted({c.name for c in gate.failures})),
            clauses=[c.name for c in gate.failures])
    report = Report(cp.name, cp.conventions())
    report.add_rows(pts, lemma_checks(structure_at(cp, pts), tolerance))
    return report


def kept_max(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """max |values[c]| over the kept candidates c, 0 when none is kept."""
    return np.max(np.abs(values), axis=-1, where=kept, initial=0.0)


def lemma_checks(st: StructureData, tolerance: float):
    """Rows for :meth:`Report.add_rows`: the identities of :func:`lemma_suite`
    over the stack of points of ``st``, a structure that has already passed
    :func:`validate_structure`."""
    m, n = st.cp.pair_type
    geo = st.geo
    g, gamma, R4, rho, star = geo.g, geo.gamma, geo.riem4, geo.ricci, st.star_ricci
    alphas, reebs, dalphas = st.alphas, st.reebs, st.dalphas  # [p, f, ...]
    sup = rm.pointwise_sup

    def tr(x):
        return np.swapaxes(x, -1, -2)

    # grad_X Z_f = -phi_f X on coordinate fields, with phi_1 = phi P_2 and
    # phi_2 = phi P_1
    nabla_z = rm.covd_vector(reebs, st.dreebs, gamma[:, None])
    phis = st.phi[:, None] @ st.proj[:, ::-1]

    # g((grad_X phi) Y, V) = K - K[x, v, y] with K[x, y, v] = sum_f
    # dalpha_f(phi Y, X) alpha_f(V), from phi^T dalpha_f [f, y, x]
    nabla_phi = rm.covd_11(st.phi, st.dphi, gamma)
    lhs_phi = tr(nabla_phi) @ g[..., None, :, :]
    K = np.einsum("...fyx,...fv->...xyv", tr(st.phi)[:, None] @ dalphas, alphas)
    Kt = tr(K)  # [x, y, v] = K[x, v, y]
    rhs_phi = K - Kt

    # the J version gains E - E[x, v, y], with E[x, y, v] = sum_f dalpha_f(X, Y) c_f(V)
    # = dalpha_1(X, Y) alpha_2(V) - dalpha_2(X, Y) alpha_1(V)
    nabla_J = rm.covd_11(st.J, st.dJ, gamma)
    lhs_J = tr(nabla_J) @ g[..., None, :, :]
    E = np.einsum("...fxy,...fv->...xyv", dalphas, _twisted(alphas))
    rhs_J = rhs_phi + E - tr(E)

    # curvature against the combined Reeb field Z = Z_1 + Z_2:
    # rhs = K[x, v, y] - K[y, v, x]
    lhs_R = rm.contract_third(R4, reebs[:, 0] + reebs[:, 1])
    rhs_R = Kt - np.swapaxes(Kt, -3, -2)

    # sectional values R(x, u, v, x), [p, uv, c], for (u, v) = (Z_1, Z_1),
    # (Z_1, Z_2) and (Z_2, Z_2) in one contraction, unit x in TF_2 cut to
    # the horizontal bundle
    x, kept = st.horizontal_leaf_frame(2)
    uv = _outer(reebs[:, [0, 0, 1]], reebs[:, [0, 1, 1]])
    xs = x[..., None, :, :]
    reeb_sectional = np.sum((xs @ rm.contract_middle(R4, uv)) * xs, axis=-1)

    # star-Ricci defect: sum_f (2k_f - 1) g(phi_f ., phi_f .) + 2k_f alpha_f^2, k = (m, n)
    k = np.array([m, n])[:, None, None]
    correction = np.sum((2 * k - 1) * (tr(phis) @ g[:, None] @ phis)
                        + 2 * k * _outer(alphas, alphas), axis=1)

    # Ricci and star-Ricci on the Reeb fields, [p, f, f'], read on f <= f'
    on_reeb = reebs @ rho @ tr(reebs)
    star_on_reeb = reebs @ star @ tr(reebs)
    JH = st.J @ st.H

    return (
        ("reeb_covariant_derivative",
         "grad_X Z_1 = -phi_1 X and grad_X Z_2 = -phi_2 X",
         sup(tr(nabla_z) + phis), tolerance),
        ("phi_covariant_derivative",
         "g((grad_X phi)Y, V) = sum_i dalpha_i(phi Y, X) alpha_i(V)"
         " - dalpha_i(phi V, X) alpha_i(Y)", sup(lhs_phi - rhs_phi), tolerance),
        ("complex_structure_covariant_derivative",
         "g((grad_X J)Y, V) carries four extra vertical terms",
         sup(lhs_J - rhs_J), tolerance),
        ("reeb_curvature_identity",
         "g(R(X,Y)Z, V) in terms of dalpha_i(phi V, .) alpha_i(.)",
         sup(lhs_R - rhs_R), tolerance),
        ("reeb_sectional_values",
         "R(X,Z_1,Z_1,X) = 1, R(X,Z_1,Z_2,X) = 0, R(X,Z_2,Z_2,X) = 0",
         np.max(kept_max(reeb_sectional - [[1.0], [0.0], [0.0]], kept[..., None, :]),
                axis=-1), tolerance),
        ("star_ricci_defect",
         "rho - rho* = (2m-1) g(phi_1 ., phi_1 .) + (2n-1) "
         "g(phi_2 ., phi_2 .) + 2m alpha_1^2 + 2n alpha_2^2",
         sup(rho - star - correction), tolerance),
        ("star_ricci_symmetric", "rho* is symmetric", sup(star - tr(star)), tolerance),
        ("star_ricci_j_exchange", "rho*(X,Y) = rho*(JY, JX)",
         sup(star - tr(st.J) @ tr(star) @ st.J), tolerance),
        ("scalar_curvature_defect", "tau - tau* = 4(m^2 + n^2)",
         geo.tau - st.tau_star - 4.0 * (m * m + n * n), tolerance),
        ("reeb_ricci_values",
         "rho(Z_1,Z_1) = 2m, rho(Z_2,Z_2) = 2n, rho(Z_1,Z_2) = 0",
         sup(np.triu(on_reeb - np.diag([2.0 * m, 2.0 * n]))), tolerance),
        ("reeb_star_ricci_values", "rho*(Z_i, Z_j) = 0 on the Reeb fields",
         sup(np.triu(star_on_reeb)), tolerance),
        ("ricci_j_invariance_horizontal",
         "rho(JX, JY) = rho(X, Y) for horizontal X, Y",
         sup(tr(JH) @ rho @ JH - tr(st.H) @ rho @ st.H), tolerance),
        # the Reeb fields are Killing
        ("reeb_fields_killing", "L_{Z_i} g = 0",
         sup(rm.lie_derivative_metric(reebs, st.dreebs, g[:, None], geo.dg[:, None])),
         tolerance),
    )
