"""Metric contact pairs: structure synthesis and pointwise validation.

A manifold is described by a chart, a metric, two one-forms and their Reeb
fields, and the pair type (m, n).  The endomorphism phi is synthesized from
the associated-metric identity g(X, phi Y) = (d alpha_1 + d alpha_2)(X, Y),
never entered by hand; the almost complex structures are

    J = phi - alpha_2 (x) Z_1 + alpha_1 (x) Z_2
    T = phi + alpha_2 (x) Z_1 - alpha_1 (x) Z_2

The exterior-derivative factor ``s`` multiplying (d_i a_j - d_j a_i) is a
structure-level convention.  Exactly one of {1, 1/2} makes the synthesized
phi satisfy phi^2 = -Id + alpha_1 (x) Z_1 + alpha_2 (x) Z_2 on the catalog
models; s = 1/2 is the pinned default and the choice is re-verified by the
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

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


# --- alternating forms over increasing index tuples ---------------------------

class AltForm:
    """Exterior form stored by its coefficients on the dx^I basis."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[tuple[int, ...], float]):
        self.degree = degree
        self.terms = terms

    @staticmethod
    def one_form(vec: np.ndarray) -> "AltForm":
        return AltForm(1, {(i,): float(v) for i, v in enumerate(vec) if v != 0.0})

    @staticmethod
    def two_form(mat: np.ndarray) -> "AltForm":
        d = mat.shape[0]
        return AltForm(2, {(i, j): float(mat[i, j])
                           for i in range(d) for j in range(i + 1, d)
                           if mat[i, j] != 0.0})

    def wedge(self, other: "AltForm") -> "AltForm":
        out: dict[tuple[int, ...], float] = {}
        for idx_a, ca in self.terms.items():
            set_a = set(idx_a)
            for idx_b, cb in other.terms.items():
                if set_a & set(idx_b):
                    continue
                sign, merged = _merge_sign(idx_a, idx_b)
                out[merged] = out.get(merged, 0.0) + sign * ca * cb
        return AltForm(self.degree + other.degree, out)

    def power(self, k: int) -> "AltForm":
        result = AltForm(0, {(): 1.0})
        for _ in range(k):
            result = result.wedge(self)
        return result

    def sup(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)

    def coeff(self, idx: tuple[int, ...]) -> float:
        return self.terms.get(idx, 0.0)


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # parity of the shuffle that sorts the concatenation of two increasing tuples
    inversions = sum(1 for x in a for y in b if y < x)
    return (-1 if inversions % 2 else 1), tuple(sorted(a + b))


# --- pointwise structure data --------------------------------------------------

@dataclass
class StructureData:
    cp: ContactPairManifold
    point: rm.Point
    geo: rm.PointGeometry
    a1: np.ndarray
    a2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    dz1: np.ndarray  # [m, k] = d_m Z1^k
    dz2: np.ndarray
    dalpha1: np.ndarray  # two-form values
    dalpha2: np.ndarray
    ddalpha1: np.ndarray  # [m, i, j]
    ddalpha2: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray  # [m, k, j]
    J: np.ndarray
    dJ: np.ndarray
    T: np.ndarray
    dT: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    H: np.ndarray
    star_ricci: np.ndarray
    tau_star: float

    def __post_init__(self):
        rm.freeze_arrays(self)

    @property
    def phi1(self) -> np.ndarray:
        return self.phi @ self.P2

    @property
    def phi2(self) -> np.ndarray:
        return self.phi @ self.P1

    def horizontal_leaf_vectors(self, which: int = 2) -> list[np.ndarray]:
        """Unit vectors in the leaf tangent (T F_which) cut to the horizontal
        bundle: project coordinate vectors, drop the tiny ones, deduplicate
        by angle."""
        proj = self.P2 if which == 2 else self.P1
        g = self.geo.g
        kept: list[np.ndarray] = []
        for i in range(self.cp.dim):
            w = self.H @ (proj @ np.eye(self.cp.dim)[i])
            norm2 = float(w @ g @ w)
            if norm2 < 1e-12:  # norm < 1e-6
                continue
            w = w / np.sqrt(norm2)
            if any(abs(float(w @ g @ u)) > np.cos(1e-3) for u in kept):
                continue
            kept.append(w)
        return kept


def _exterior(partials: np.ndarray, s: float) -> np.ndarray:
    """s (x[..., i, j] - x[..., j, i]) over the last two axes.  With
    x[i, j] = d_i a_j this is (d alpha)_ij; with x[m, i, j] = d_m d_i a_j it
    is d_m (d alpha)_ij."""
    return s * (partials - np.swapaxes(partials, -1, -2))


def _nullspace_projector(alpha_values: np.ndarray, dalpha_values: np.ndarray,
                         g: np.ndarray) -> tuple[np.ndarray, int]:
    """g-orthogonal projector onto {X : alpha(X)=0, dalpha(X, .)=0}."""
    stack = np.vstack([alpha_values, dalpha_values.T])
    _, svals, vt = np.linalg.svd(stack)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > 1e-8 * smax)) if smax > 0 else 0
    basis = vt[rank:].T  # columns span the nullspace
    k = basis.shape[1]
    if k == 0:
        return np.zeros_like(g), 0
    gram = basis.T @ g @ basis
    proj = basis @ np.linalg.solve(gram, basis.T @ g)
    return proj, k


def star_contraction(t4: np.ndarray, ginv: np.ndarray, J: np.ndarray) -> np.ndarray:
    """rho*(T)(X,Y) = g^{pa} J^q_a T(X, d_p, d_q, J Y): the frame sum
    sum_a T(X, e_a, J e_a, J Y), which is the same for every g-orthonormal
    frame (e_a), since sum_a e_a (x) e_a = g^{-1}."""
    return np.einsum("ipqr,pq->ir", t4, ginv @ J.T) @ J


@lru_cache(maxsize=None)
def structure_at(cp: ContactPairManifold, point: rm.Point) -> StructureData:
    geo = rm.geometry_at(cp.metric, point)
    g, ginv = geo.g, geo.ginv

    # one jet walk over (alpha1, alpha2, Z1, Z2); d alpha and its partials
    # come from the gradients and Hessians of the alphas
    values, derivs, hess = rm.field_jets(
        (cp.alpha1.comps, cp.alpha2.comps, cp.z1.comps, cp.z2.comps), cp.chart, point)
    a1, a2, z1, z2 = values
    partials = np.moveaxis(derivs, 1, 0)  # [field, m, i]
    da1_partial, da2_partial, dz1, dz2 = partials
    dalpha1, dalpha2 = _exterior(partials[:2], cp.dalpha_factor)
    ddalpha1, ddalpha2 = _exterior(np.moveaxis(hess, 2, 0)[:2], cp.dalpha_factor)

    # phi from the associated-metric identity, with exact first derivatives
    A = dalpha1 + dalpha2
    dA = ddalpha1 + ddalpha2
    phi = ginv @ A
    dphi = np.einsum("mka,aj->mkj", geo.dginv, A) + np.einsum("ka,maj->mkj", ginv, dA)

    J = phi - np.outer(z1, a2) + np.outer(z2, a1)
    T = phi + np.outer(z1, a2) - np.outer(z2, a1)
    dJ = (dphi
          - np.einsum("mk,j->mkj", dz1, a2) - np.einsum("k,mj->mkj", z1, da2_partial)
          + np.einsum("mk,j->mkj", dz2, a1) + np.einsum("k,mj->mkj", z2, da1_partial))
    dT = 2.0 * dphi - dJ

    P1, dim1 = _nullspace_projector(a1, dalpha1, g)
    P2, dim2 = _nullspace_projector(a2, dalpha2, g)
    expected1, expected2 = 2 * cp.n + 1, 2 * cp.m + 1
    if (dim1, dim2) != (expected1, expected2):
        raise InvalidStructureError(
            f"characteristic foliations of {cp.name} have dimensions "
            f"({dim1}, {dim2}) at {point}; type {cp.pair_type} needs "
            f"({expected1}, {expected2})",
            clauses=["foliation_dimensions"],
            defect=abs(dim1 - expected1) + abs(dim2 - expected2))
    H = np.eye(cp.dim) - np.outer(z1, a1) - np.outer(z2, a2)

    star = star_contraction(geo.riem4, ginv, J)
    tau_star = float(np.einsum("ij,ij->", star, ginv))

    return StructureData(cp, point, geo, a1, a2, z1, z2, dz1, dz2, dalpha1, dalpha2,
                         ddalpha1, ddalpha2, phi, dphi, J, dJ, T, dT, P1, P2, H,
                         star, tau_star)


# --- public operations ----------------------------------------------------------

def synthesize_phi(cp: ContactPairManifold, point: Sequence[float],
                   tolerance: float = STRUCTURE_TOL) -> rm.TensorValue:
    """phi^k_j = g^{ki} (d alpha_1 + d alpha_2)_ij, validated against
    phi^2 = -Id + alpha_1 (x) Z_1 + alpha_2 (x) Z_2."""
    pt = tuple(float(v) for v in point)
    st = structure_at(cp, pt)
    residual = _phi_square_residual(st)
    if residual > tolerance:
        raise InvalidStructureError(
            f"synthesized phi violates its square identity on {cp.name} at "
            f"{pt} (residual {residual:.3e}); wrong exterior-derivative "
            f"factor or inconsistent input data",
            clauses=["phi_squared_identity"])
    return rm.TensorValue(st.phi, ("u", "d"), pt)


def _phi_square_residual(st: StructureData) -> float:
    target = -np.eye(st.cp.dim) + np.outer(st.z1, st.a1) + np.outer(st.z2, st.a2)
    return float(np.max(np.abs(st.phi @ st.phi - target)))


def check_contact_pair(cp: ContactPairManifold, point: Sequence[float]) -> Report:
    """Volume-form and vanishing-power clauses of the pair type."""
    pt = tuple(float(v) for v in point)
    values, derivs, _ = rm.field_jets((cp.alpha1.comps, cp.alpha2.comps), cp.chart, pt)
    dalpha1, dalpha2 = _exterior(np.moveaxis(derivs, 1, 0), cp.dalpha_factor)
    return _pair_clauses(cp, pt, values[0], values[1], dalpha1, dalpha2)


def _pair_clauses(cp: ContactPairManifold, pt: rm.Point, a1: np.ndarray,
                  a2: np.ndarray, dalpha1: np.ndarray, dalpha2: np.ndarray) -> Report:
    f_a1, f_a2 = AltForm.one_form(a1), AltForm.one_form(a2)
    f_d1, f_d2 = AltForm.two_form(dalpha1), AltForm.two_form(dalpha2)
    m, n = cp.pair_type

    report = Report(cp.name, cp.conventions())
    vol = f_a1.wedge(f_d1.power(m)).wedge(f_a2).wedge(f_d2.power(n))
    top = vol.coeff(tuple(range(cp.dim)))
    report.add("volume_form",
               "alpha1 ^ (dalpha1)^m ^ alpha2 ^ (dalpha2)^n has a nonzero "
               "top coefficient",
               top, 1e-10, pt, passed=abs(top) > 1e-10)
    report.add("dalpha1_power_vanishes", "(dalpha1)^(m+1) = 0",
               f_d1.power(m + 1).sup(), 1e-10, pt)
    report.add("dalpha2_power_vanishes", "(dalpha2)^(n+1) = 0",
               f_d2.power(n + 1).sup(), 1e-10, pt)
    return report


def nijenhuis_from(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """N^k_ij on coordinate fields from pointwise J and dJ."""
    t1 = np.einsum("ai,akj->kij", J, dJ)
    t3 = np.einsum("kb,jbi->kij", J, dJ)
    return t1 - t1.transpose(0, 2, 1) + t3 - t3.transpose(0, 2, 1)


def phi_sectional_values(cp: ContactPairManifold, point: Sequence[float]) -> list[float]:
    """R(X, phi X, phi X, X) over the unit horizontal leaf-tangent vectors."""
    st = structure_at(cp, tuple(float(v) for v in point))
    values = []
    for x in st.horizontal_leaf_vectors(which=2):
        px = st.phi @ x
        values.append(float(np.einsum("ijkl,i,j,k,l", st.geo.riem4, x, px, px, x)))
    return values


# --- validation and lemma suite ---------------------------------------------------

def validate_structure(cp: ContactPairManifold,
                       tolerance: float = STRUCTURE_TOL,
                       points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Definition-level invariants at every sample point."""
    report = Report(cp.name, cp.conventions())
    d = cp.dim
    m, n = cp.pair_type
    report.add("dimension_type", "dim = 2m + 2n + 2",
               d - (2 * m + 2 * n + 2), 0.0, passed=(d == 2 * m + 2 * n + 2))
    pts = tuple(points) if points is not None else cp.chart.sample_points
    for pt in pts:
        try:
            st = structure_at(cp, pt)
        except InvalidStructureError as err:
            report.extend(check_contact_pair(cp, pt))
            for clause in err.clauses or ["structure"]:
                report.add(clause, str(err), err.defect, 0.0, pt, passed=False)
            continue
        report.extend(_pair_clauses(cp, pt, st.a1, st.a2, st.dalpha1, st.dalpha2))
        g = st.geo.g
        report.add("reeb_duality", "alpha_i(Z_j) = delta_ij",
                   max(abs(st.a1 @ st.z1 - 1.0), abs(st.a2 @ st.z2 - 1.0),
                       abs(st.a1 @ st.z2), abs(st.a2 @ st.z1)),
                   tolerance, pt)
        report.add("reeb_in_dalpha_kernel", "i_{Z_i} dalpha_j = 0",
                   max(float(np.max(np.abs(z @ da)))
                       for z in (st.z1, st.z2) for da in (st.dalpha1, st.dalpha2)),
                   tolerance, pt)
        bracket = rm.lie_bracket_from(st.z1, st.dz1, st.z2, st.dz2)
        report.add("reeb_fields_commute", "[Z_1, Z_2] = 0",
                   float(np.max(np.abs(bracket))), tolerance, pt)
        report.add("metric_reeb_duality", "g(X, Z_i) = alpha_i(X)",
                   max(float(np.max(np.abs(g @ st.z1 - st.a1))),
                       float(np.max(np.abs(g @ st.z2 - st.a2)))),
                   tolerance, pt)
        report.add("phi_squared_identity",
                   "phi^2 = -Id + alpha_1 (x) Z_1 + alpha_2 (x) Z_2",
                   _phi_square_residual(st), tolerance, pt)
        report.add("phi_kills_reeb", "phi Z_1 = phi Z_2 = 0",
                   max(float(np.max(np.abs(st.phi @ st.z1))),
                       float(np.max(np.abs(st.phi @ st.z2)))),
                   tolerance, pt)
        report.add("alpha_circ_phi", "alpha_i o phi = 0",
                   max(float(np.max(np.abs(st.a1 @ st.phi))),
                       float(np.max(np.abs(st.a2 @ st.phi)))),
                   tolerance, pt)
        svals = np.linalg.svd(st.phi, compute_uv=False)
        rank = int(np.sum(svals > 1e-8 * svals[0]))
        report.add("phi_rank", "rank phi = dim - 2",
                   rank - (d - 2), 0.0, pt, passed=(rank == d - 2))
        report.add("foliation_projectors", "P1 P2 = 0 and P1 + P2 = Id",
                   max(float(np.max(np.abs(st.P1 @ st.P2))),
                       float(np.max(np.abs(st.P1 + st.P2 - np.eye(d))))),
                   tolerance, pt)
        report.add("phi_preserves_foliations", "phi P_i = P_i phi",
                   max(float(np.max(np.abs(st.phi @ st.P1 - st.P1 @ st.phi))),
                       float(np.max(np.abs(st.phi @ st.P2 - st.P2 @ st.phi)))),
                   tolerance, pt)
        report.add("complex_structures_square", "J^2 = T^2 = -Id",
                   max(float(np.max(np.abs(st.J @ st.J + np.eye(d)))),
                       float(np.max(np.abs(st.T @ st.T + np.eye(d))))),
                   1e-9, pt)
        report.add("complex_structures_isometric", "g(JX, JY) = g(X, Y)",
                   max(float(np.max(np.abs(st.J.T @ g @ st.J - g))),
                       float(np.max(np.abs(st.T.T @ g @ st.T - g)))),
                   1e-9, pt)
        report.add("associated_metric", "g(X, phi Y) = (dalpha1 + dalpha2)(X, Y)",
                   float(np.max(np.abs(g @ st.phi - (st.dalpha1 + st.dalpha2)))),
                   tolerance, pt)
        report.add("normality_J", "Nijenhuis tensor of J vanishes",
                   float(np.max(np.abs(nijenhuis_from(st.J, st.dJ)))), LEMMA_TOL, pt)
        report.add("normality_T", "Nijenhuis tensor of T vanishes",
                   float(np.max(np.abs(nijenhuis_from(st.T, st.dT)))), LEMMA_TOL, pt)
    return report


def lemma_suite(cp: ContactPairManifold, tolerance: float = LEMMA_TOL,
                points: Optional[Sequence[rm.Point]] = None) -> Report:
    """Pointwise identities satisfied by every normal metric contact pair
    with orthogonal characteristic foliations, gated on
    :func:`validate_structure` at the same points."""
    pts = tuple(points) if points is not None else cp.chart.sample_points
    gate = validate_structure(cp, points=pts)
    if not gate.passed:
        raise InvalidStructureError(
            f"{cp.name} failed structure validation: "
            + ", ".join(sorted({c.name for c in gate.failures})),
            clauses=[c.name for c in gate.failures])
    return lemma_checks(cp, tolerance, pts)


def lemma_checks(cp: ContactPairManifold, tolerance: float,
                 points: Sequence[rm.Point]) -> Report:
    """The per-point loop of :func:`lemma_suite`, for points at which the
    structure has already passed :func:`validate_structure`."""
    report = Report(cp.name, cp.conventions())
    m, n = cp.pair_type
    for pt in points:
        st = structure_at(cp, pt)
        geo = st.geo
        g, gamma, R4, rho = geo.g, geo.gamma, geo.riem4, geo.ricci
        a = (st.a1, st.a2)
        dalpha = (st.dalpha1, st.dalpha2)

        # grad_X Z_i = -phi_i X on coordinate fields
        nabla_z1 = rm.covd_vector(st.z1, st.dz1, gamma)
        nabla_z2 = rm.covd_vector(st.z2, st.dz2, gamma)
        report.add("reeb_covariant_derivative",
                   "grad_X Z_1 = -phi_1 X and grad_X Z_2 = -phi_2 X",
                   max(float(np.max(np.abs(nabla_z1.T + st.phi1))),
                       float(np.max(np.abs(nabla_z2.T + st.phi2)))),
                   tolerance, pt)

        # g((grad_X phi) Y, V) written in the two exterior derivatives
        nabla_phi = rm.covd_11(st.phi, st.dphi, gamma)
        lhs_phi = np.einsum("xky,kv->xyv", nabla_phi, g)
        rhs_phi = np.zeros_like(lhs_phi)
        for i in range(2):
            Ai = np.einsum("ay,ax->yx", st.phi, dalpha[i])
            rhs_phi += (np.einsum("yx,v->xyv", Ai, a[i])
                        - np.einsum("vx,y->xyv", Ai, a[i]))
        report.add("phi_covariant_derivative",
                   "g((grad_X phi)Y, V) = sum_i dalpha_i(phi Y, X) alpha_i(V)"
                   " - dalpha_i(phi V, X) alpha_i(Y)",
                   float(np.max(np.abs(lhs_phi - rhs_phi))), tolerance, pt)

        # the J version gains four vertical correction terms
        nabla_J = rm.covd_11(st.J, st.dJ, gamma)
        lhs_J = np.einsum("xky,kv->xyv", nabla_J, g)
        rhs_J = (rhs_phi
                 - np.einsum("xy,v->xyv", st.dalpha2, st.a1)
                 - np.einsum("xv,y->xyv", st.dalpha1, st.a2)
                 + np.einsum("xy,v->xyv", st.dalpha1, st.a2)
                 + np.einsum("xv,y->xyv", st.dalpha2, st.a1))
        report.add("complex_structure_covariant_derivative",
                   "g((grad_X J)Y, V) carries four extra vertical terms",
                   float(np.max(np.abs(lhs_J - rhs_J))), tolerance, pt)

        # curvature against the combined Reeb field Z = Z_1 + Z_2
        z = st.z1 + st.z2
        lhs_R = np.einsum("xycv,c->xyv", R4, z)
        rhs_R = np.zeros_like(lhs_R)
        for i in range(2):
            Ai = np.einsum("av,ax->vx", st.phi, dalpha[i])
            rhs_R += (np.einsum("vx,y->xyv", Ai, a[i])
                      - np.einsum("vy,x->xyv", Ai, a[i]))
        report.add("reeb_curvature_identity",
                   "g(R(X,Y)Z, V) in terms of dalpha_i(phi V, .) alpha_i(.)",
                   float(np.max(np.abs(lhs_R - rhs_R))), tolerance, pt)

        # sectional values against the Reeb directions, unit X in TF_2 cut
        # to the horizontal bundle
        worst = [0.0, 0.0, 0.0]
        for x in st.horizontal_leaf_vectors(which=2):
            r11 = float(np.einsum("ijkl,i,j,k,l", R4, x, st.z1, st.z1, x))
            r12 = float(np.einsum("ijkl,i,j,k,l", R4, x, st.z1, st.z2, x))
            r22 = float(np.einsum("ijkl,i,j,k,l", R4, x, st.z2, st.z2, x))
            worst[0] = max(worst[0], abs(r11 - 1.0))
            worst[1] = max(worst[1], abs(r12))
            worst[2] = max(worst[2], abs(r22))
        report.add("reeb_sectional_values",
                   "R(X,Z_1,Z_1,X) = 1, R(X,Z_1,Z_2,X) = 0, R(X,Z_2,Z_2,X) = 0",
                   max(worst), tolerance, pt)

        # star-Ricci defect identity
        phi1, phi2 = st.phi1, st.phi2
        correction = ((2 * m - 1) * np.einsum("ai,ab,bj->ij", phi1, g, phi1)
                      + (2 * n - 1) * np.einsum("ai,ab,bj->ij", phi2, g, phi2)
                      + 2 * m * np.outer(st.a1, st.a1)
                      + 2 * n * np.outer(st.a2, st.a2))
        report.add("star_ricci_defect",
                   "rho - rho* = (2m-1) g(phi_1 ., phi_1 .) + (2n-1) "
                   "g(phi_2 ., phi_2 .) + 2m alpha_1^2 + 2n alpha_2^2",
                   float(np.max(np.abs(rho - st.star_ricci - correction))),
                   tolerance, pt)
        report.add("star_ricci_symmetric", "rho* is symmetric",
                   float(np.max(np.abs(st.star_ricci - st.star_ricci.T))),
                   tolerance, pt)
        swapped = np.einsum("pj,pq,qi->ij", st.J, st.star_ricci, st.J)
        report.add("star_ricci_j_exchange", "rho*(X,Y) = rho*(JY, JX)",
                   float(np.max(np.abs(st.star_ricci - swapped))), tolerance, pt)
        report.add("scalar_curvature_defect", "tau - tau* = 4(m^2 + n^2)",
                   geo.tau - st.tau_star - 4.0 * (m * m + n * n), tolerance, pt)

        # Ricci on the Reeb fields and J-invariance on horizontal vectors
        report.add("reeb_ricci_values",
                   "rho(Z_1,Z_1) = 2m, rho(Z_2,Z_2) = 2n, rho(Z_1,Z_2) = 0",
                   max(abs(float(st.z1 @ rho @ st.z1) - 2.0 * m),
                       abs(float(st.z2 @ rho @ st.z2) - 2.0 * n),
                       abs(float(st.z1 @ rho @ st.z2))),
                   tolerance, pt)
        report.add("reeb_star_ricci_values",
                   "rho*(Z_i, Z_j) = 0 on the Reeb fields",
                   max(abs(float(st.z1 @ st.star_ricci @ st.z1)),
                       abs(float(st.z2 @ st.star_ricci @ st.z2)),
                       abs(float(st.z1 @ st.star_ricci @ st.z2))),
                   tolerance, pt)
        JH = st.J @ st.H
        report.add("ricci_j_invariance_horizontal",
                   "rho(JX, JY) = rho(X, Y) for horizontal X, Y",
                   float(np.max(np.abs(JH.T @ rho @ JH - st.H.T @ rho @ st.H))),
                   tolerance, pt)

        # the Reeb fields are Killing
        report.add("reeb_fields_killing", "L_{Z_i} g = 0",
                   max(float(np.max(np.abs(rm.lie_derivative_metric(st.z1, st.dz1, geo)))),
                       float(np.max(np.abs(rm.lie_derivative_metric(st.z2, st.dz2, geo))))),
                   tolerance, pt)
    return report
