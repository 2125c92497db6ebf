"""Pointwise Riemannian geometry of a chart-defined metric.

The metric is a symmetric matrix of closed-form expressions.  Evaluating it
over second-order jets yields g, dg and d2g exactly, from which Christoffel
symbols, their first derivatives, and the curvature tensors follow by the
coordinate formulas.

Index conventions used throughout (all plain numpy arrays):

* ``dg[k, i, j]``          = d_k g_ij
* ``d2g[k, l, i, j]``      = d_k d_l g_ij
* ``gamma[k, i, j]``       = Gamma^k_ij
* ``dgamma[m, k, i, j]``   = d_m Gamma^k_ij
* ``riem13[l, i, j, k]``   : R(e_i, e_j) e_k = riem13[l, i, j, k] e_l
* ``riem4[i, j, k, l]``    = g( R(e_i, e_j) e_k, e_l )

with the curvature operator R(X,Y) = grad_X grad_Y - grad_Y grad_X -
grad_[X,Y].  The overall sign is pinned by the model-space tests: the
sectional curvature R(X, Y, Y, X) of the unit sphere is +1, and the Ricci
contraction is the one that makes the unit sphere's Ricci tensor positive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import exprlang as el
from .jets import Jet2

Point = tuple[float, ...]

CONDITION_LIMIT = 1e8


class MetricError(Exception):
    """Singular or non-positive-definite metric, or a degenerate frame."""


class IllConditionedMetricWarning(RuntimeWarning):
    pass


# --- chart and field types ---------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Coordinate names, parameter values and preferred sample points."""

    coords: tuple[str, ...]
    params: tuple[tuple[str, float], ...] = ()
    sample_points: tuple[Point, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def param_env(self) -> dict[str, float]:
        return dict(self.params)

    def jet_env(self, point: Sequence[float]) -> dict[str, object]:
        env: dict[str, object] = self.param_env()
        for i, name in enumerate(self.coords):
            env[name] = Jet2.seed(i, float(point[i]), self.dim)
        return env

    def validate_expr(self, e: el.Expr) -> None:
        declared = set(self.coords) | {name for name, _ in self.params} | {"pi"}
        unknown = el.free_names(e) - declared
        if unknown:
            raise el.ExprError(
                f"undeclared names {sorted(unknown)} in '{el.to_source(e)}'")


ExprLike = Union[el.Expr, str, float, int]


def _expr_row(chart: Chart, comps: Iterable[ExprLike]) -> tuple[el.Expr, ...]:
    out = []
    for c in comps:
        e = el.as_expr(c)
        chart.validate_expr(e)
        out.append(e)
    return tuple(out)


@dataclass(frozen=True)
class MetricField:
    """Symmetric d x d matrix of expressions (stored as the full grid)."""

    chart: Chart
    comps: tuple[tuple[el.Expr, ...], ...]

    @staticmethod
    def from_entries(chart: Chart, entries: Mapping[tuple[int, int], ExprLike]) -> "MetricField":
        """Build from the upper triangle; missing entries are zero."""
        d = chart.dim
        grid = [[el.ZERO] * d for _ in range(d)]
        for (i, j), raw in entries.items():
            if not (0 <= i < d and 0 <= j < d):
                raise IndexError(f"metric entry {(i, j)} outside a {d}-dim chart")
            e = el.as_expr(raw)
            chart.validate_expr(e)
            grid[i][j] = e
            grid[j][i] = e
        return MetricField(chart, tuple(tuple(row) for row in grid))

    @staticmethod
    def diagonal(chart: Chart, diag: Iterable[ExprLike]) -> "MetricField":
        comps = _expr_row(chart, diag)
        return MetricField.from_entries(chart, {(i, i): e for i, e in enumerate(comps)})

    @property
    def dim(self) -> int:
        return self.chart.dim


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    comps: tuple[el.Expr, ...]

    @staticmethod
    def of(chart: Chart, comps: Iterable[ExprLike]) -> "VectorField":
        return VectorField(chart, _expr_row(chart, comps))


@dataclass(frozen=True)
class OneForm:
    chart: Chart
    comps: tuple[el.Expr, ...]

    @staticmethod
    def of(chart: Chart, comps: Iterable[ExprLike]) -> "OneForm":
        return OneForm(chart, _expr_row(chart, comps))


@dataclass(frozen=True)
class TensorField11:
    chart: Chart
    comps: tuple[tuple[el.Expr, ...], ...]  # comps[k][j] = T^k_j


@dataclass
class TensorValue:
    """Pointwise dense tensor with an explicit variance signature."""

    comps: np.ndarray
    variance: tuple[str, ...]  # 'u' or 'd' per slot
    point: Point

    def __post_init__(self):
        if len(self.variance) != self.comps.ndim:
            raise ValueError("variance length must equal tensor rank")


# --- field evaluation ---------------------------------------------------------

def field_jets(comps, chart: Chart, point: Sequence[float]):
    """Evaluate an array of expressions over second-order jets.

    Returns ``(values, derivs, hess)`` where ``derivs[m, ...] = d_m values[...]``
    and ``hess[m, l, ...] = d_m d_l values[...]``.  This is the one loop that
    walks expressions over jets.  A non-finite value or derivative raises
    :class:`~contactcurv.exprlang.ExprEvalError` naming the point and the
    expression of the first such entry.
    """
    arr = np.asarray(comps, dtype=object)
    d = chart.dim
    env = chart.jet_env(point)
    # value, gradient and Hessian share one buffer, so one finiteness test
    # covers all three
    out = np.zeros((1 + d + d * d,) + arr.shape)
    values, derivs = out[0, ...], out[1:1 + d]
    hess = out[1 + d:].reshape((d, d) + arr.shape)
    # non-finite intermediates are caught by the finiteness test below, so
    # numpy's floating-point warnings would only repeat it
    with np.errstate(all="ignore"):
        for idx in np.ndindex(arr.shape):
            jet = el.evaluate(arr[idx], env)
            if isinstance(jet, Jet2):
                values[idx] = jet.val
                derivs[(slice(None),) + idx] = jet.grad
                hess[(slice(None), slice(None)) + idx] = jet.hess
            else:
                values[idx] = jet
    finite = np.isfinite(out).reshape(len(out), -1).all(axis=0)
    if not finite.all():
        entry = arr.reshape(-1)[int(np.argmin(finite))]
        raise el.ExprEvalError(
            f"non-finite value or derivative at {tuple(point)}", entry)
    return values, derivs, hess


def eval_field(comps, chart: Chart, point: Sequence[float]):
    """Values and first partials ``(values, derivs)`` of :func:`field_jets`."""
    values, derivs, _ = field_jets(comps, chart, point)
    return values, derivs


# --- per-point geometry -------------------------------------------------------

def freeze_arrays(record) -> None:
    """Make every array attribute of a cached record read-only, so callers
    cannot change what later calls return."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass
class PointGeometry:
    metric: MetricField
    point: Point
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    gamma: np.ndarray = field(init=False)
    dgamma: np.ndarray = field(init=False)
    riem13: np.ndarray = field(init=False)
    riem4: np.ndarray = field(init=False)
    ricci: np.ndarray = field(init=False)
    tau: float = field(init=False)

    def __post_init__(self):
        g, ginv, dg, d2g = self.g, self.ginv, self.dg, self.d2g
        # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
        T = (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg)
             - np.einsum("lij->lij", dg))
        self.gamma = 0.5 * np.einsum("kl,lij->kij", ginv, T)
        dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
        dT = (np.einsum("mijl->mlij", d2g) + np.einsum("mjil->mlij", d2g)
              - np.einsum("mlij->mlij", d2g))
        self.dgamma = 0.5 * (np.einsum("mkl,lij->mkij", dginv, T)
                             + np.einsum("kl,mlij->mkij", ginv, dT))
        gamma, dgamma = self.gamma, self.dgamma
        self.riem13 = (np.einsum("iljk->lijk", dgamma)
                       - np.einsum("jlik->lijk", dgamma)
                       + np.einsum("lim,mjk->lijk", gamma, gamma)
                       - np.einsum("ljm,mik->lijk", gamma, gamma))
        self.riem4 = np.einsum("lijk,lw->ijkw", self.riem13, g)
        self.ricci = np.einsum("iijk->jk", self.riem13)
        self.tau = float(np.einsum("jk,jk->", ginv, self.ricci))
        freeze_arrays(self)

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@lru_cache(maxsize=None)
def geometry_at(metric: MetricField, point: Point) -> PointGeometry:
    """Metric, Christoffel and curvature data at one chart point."""
    d = metric.dim
    upper = np.triu_indices(d)
    values, derivs, hess = field_jets(np.asarray(metric.comps, dtype=object)[upper],
                                      metric.chart, point)
    g = np.zeros((d, d))
    dg = np.zeros((d, d, d))
    d2g = np.zeros((d, d, d, d))
    for i, j in (upper, upper[::-1]):  # the upper triangle, then its mirror
        g[i, j] = values
        dg[:, i, j] = derivs
        d2g[:, :, i, j] = hess
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise MetricError(f"metric is not positive definite at {point}") from None
    cond = np.linalg.cond(g)
    if cond > CONDITION_LIMIT:
        warnings.warn(
            f"metric condition number {cond:.3e} at {point}",
            IllConditionedMetricWarning, stacklevel=2)
    ginv = np.linalg.inv(g)
    return PointGeometry(metric, point, g, ginv, dg, d2g)


# --- public operations --------------------------------------------------------

def metric_jet(metric: MetricField, point: Sequence[float]):
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return geo.g, geo.dg, geo.d2g


def christoffel(metric: MetricField, point: Sequence[float]) -> TensorValue:
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return TensorValue(geo.gamma, ("u", "d", "d"), geo.point)


def christoffel_derivative(metric: MetricField, point: Sequence[float]) -> np.ndarray:
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return geo.dgamma


def riemann(metric: MetricField, point: Sequence[float]) -> TensorValue:
    """Fully covariant curvature tensor R(e_i, e_j, e_k, e_l)."""
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return TensorValue(geo.riem4, ("d", "d", "d", "d"), geo.point)


def ricci(metric: MetricField, point: Sequence[float]) -> TensorValue:
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return TensorValue(geo.ricci, ("d", "d"), geo.point)


def scalar(metric: MetricField, point: Sequence[float]) -> float:
    return geometry_at(metric, tuple(float(v) for v in point)).tau


def covd_vector(values: np.ndarray, derivs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(grad_i V)^k from pointwise values and partials; returns [i, k]."""
    return derivs + np.einsum("kia,a->ik", gamma, values)


def covd_11(values: np.ndarray, derivs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(grad_i A)^k_j for a (1,1) field; returns [i, k, j]."""
    return (derivs
            + np.einsum("kia,aj->ikj", gamma, values)
            - np.einsum("aij,ka->ikj", gamma, values))


def covariant_derivative(field_, metric: MetricField, point: Sequence[float]) -> TensorValue:
    """Covariant derivative of a vector or (1,1) expression field."""
    pt = tuple(float(v) for v in point)
    geo = geometry_at(metric, pt)
    values, derivs = eval_field(field_.comps, metric.chart, pt)
    if isinstance(field_, VectorField):
        return TensorValue(covd_vector(values, derivs, geo.gamma), ("d", "u"), pt)
    if isinstance(field_, TensorField11):
        return TensorValue(covd_11(values, derivs, geo.gamma), ("d", "u", "d"), pt)
    raise TypeError("covariant_derivative expects a VectorField or TensorField11")


def lie_bracket_from(x_values: np.ndarray, x_derivs: np.ndarray,
                     y_values: np.ndarray, y_derivs: np.ndarray) -> np.ndarray:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i from pointwise values and partials."""
    return (np.einsum("j,ji->i", x_values, y_derivs)
            - np.einsum("j,ji->i", y_values, x_derivs))


def lie_bracket(x: VectorField, y: VectorField, point: Sequence[float]) -> TensorValue:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    pt = tuple(float(v) for v in point)
    xv, dx = eval_field(x.comps, x.chart, pt)
    yv, dy = eval_field(y.comps, y.chart, pt)
    return TensorValue(lie_bracket_from(xv, dx, yv, dy), ("u",), pt)


def lie_derivative_metric(z_values: np.ndarray, z_derivs: np.ndarray,
                          geo: PointGeometry) -> np.ndarray:
    """(L_Z g)_ij from pointwise Z and dZ."""
    term = np.einsum("a,aij->ij", z_values, geo.dg)
    mixed = np.einsum("aj,ia->ij", geo.g, z_derivs)
    return term + mixed + mixed.T


def orthonormal_frame(metric: MetricField, point: Sequence[float],
                      preferred: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Gram-Schmidt frame, preferred vectors first, then coordinate basis.

    Near-dependent candidates are skipped (pivot tolerance 1e-8).  Returns
    an array ``frame[a, i]`` whose rows are g-orthonormal.
    """
    pt = tuple(float(v) for v in point)
    geo = geometry_at(metric, pt)
    d = geo.dim
    candidates = [np.asarray(v, dtype=float) for v in preferred]
    candidates.extend(np.eye(d))
    frame: list[np.ndarray] = []
    for v in candidates:
        w = v.copy()
        for _ in range(2):  # re-orthogonalize for numerical hygiene
            for f in frame:
                w = w - (f @ geo.g @ w) * f
        norm = float(np.sqrt(w @ geo.g @ w)) if (w @ geo.g @ w) > 0 else 0.0
        if norm <= 1e-8 * max(1.0, float(np.sqrt(v @ geo.g @ v))):
            continue
        frame.append(w / norm)
        if len(frame) == d:
            break
    if len(frame) < d:
        raise MetricError(f"could not complete an orthonormal frame at {pt}")
    return np.array(frame)


def weyl(metric: MetricField, point: Sequence[float]) -> TensorValue:
    """Trace-free conformal part of the curvature; needs dim >= 4."""
    pt = tuple(float(v) for v in point)
    geo = geometry_at(metric, pt)
    d = geo.dim
    if d < 4:
        raise MetricError(f"Weyl tensor needs dimension >= 4, got {d}")
    comps = (geo.riem4
             - kulkarni_nomizu(geo.ricci, geo.g) / (d - 2)
             + geo.tau * kulkarni_nomizu(geo.g, geo.g) / (2.0 * (d - 1) * (d - 2)))
    return TensorValue(comps, ("d", "d", "d", "d"), pt)


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A o B)_ijkl = A_il B_jk + A_jk B_il - A_ik B_jl - A_jl B_ik."""
    return (np.einsum("il,jk->ijkl", a, b) + np.einsum("jk,il->ijkl", a, b)
            - np.einsum("ik,jl->ijkl", a, b) - np.einsum("jl,ik->ijkl", a, b))


def conformal_rescale(metric: MetricField, f: ExprLike) -> MetricField:
    """Metric with components e^{2f} g_ij, as expressions."""
    fe = el.as_expr(f)
    metric.chart.validate_expr(fe)
    factor = el.Fn("exp", el.mul(el.Const(2.0), fe))
    comps = tuple(tuple(el.mul(factor, entry) for entry in row) for row in metric.comps)
    return MetricField(metric.chart, comps)
