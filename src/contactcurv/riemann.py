"""Pointwise Riemannian geometry of a chart-defined metric.

The metric is a symmetric matrix of closed-form expressions.  Evaluating it
over second-order jets yields g, dg and d2g exactly, from which the
Christoffel symbols of both kinds and the curvature tensors follow by the
coordinate formulas (do Carmo, Riemannian Geometry, 1992, ch. 4).
:func:`field_jets` is the one loop that walks expressions over jets, once
per expression for a whole stack of points; a geometry keeps its metric
walk, which the walk of other fields continues
(:meth:`PointGeometry.continued_walk`).

Every array may carry a leading point axis: the same kernels evaluate one
point or a stack of points at once, and a stack is given as a tuple of
points wherever a point is.  Index conventions (plain numpy arrays, the
point axis omitted):

* ``dg[k, i, j]``          = d_k g_ij
* ``d2g[k, l, i, j]``      = d_k d_l g_ij
* ``C[l, i, j]``           = C_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2
* ``gamma[k, i, j]``       = Gamma^k_ij = g^kl C_{l,ij}
* ``riem4[i, j, k, l]``    = g( R(e_i, e_j) e_k, e_l ), read off h = d2g as
  (h_ikjl - h_iljk - h_jkil + h_jlik) / 2 + C_{p,ik} Gamma^p_jl - C_{p,il} Gamma^p_jk
* ``ricci[i, j]``          = sum_pq riem4[i, p, q, j] g^pq

with the curvature operator R(X,Y) = grad_X grad_Y - grad_Y grad_X -
grad_[X,Y].  The overall sign is pinned by the model-space tests: the
sectional curvature R(X, Y, Y, X) of the unit sphere is +1, and the Ricci
contraction is the one that makes the unit sphere's Ricci tensor positive.
Each d^4 kernel writes its tensor once, C-contiguous, and one summed
Kulkarni-Nomizu kernel serves Weyl and the Bochner sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import exprlang as el
from .jets import Jet2

Point = tuple[float, ...]

CONDITION_LIMIT = 1e8

# the most chart coordinates the dense jets serve
MAX_DIM = 10


class MetricError(Exception):
    """Singular or non-positive-definite metric, or a degenerate frame."""


class IllConditionedMetricWarning(UserWarning):
    pass


# --- chart and field types ---------------------------------------------------

ExprLike = Union[el.Expr, str, float, int]


@dataclass(frozen=True)
class Chart:
    """Coordinate names, parameter values and preferred sample points."""

    coords: tuple[str, ...]
    params: tuple[tuple[str, float], ...] = ()
    sample_points: tuple[Point, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.coords)

    def param_env(self) -> dict[str, float]:
        return dict(self.params)

    def jet_env(self, point) -> dict[str, object]:
        """The parameters, and each coordinate seeded once: at one point, or
        over a stack of points with a leading point axis."""
        env: dict[str, object] = self.param_env()
        for i, (name, x) in enumerate(zip(self.coords, np.asarray(point, dtype=float).T)):
            env[name] = Jet2.seed(i, x, self.dim)
        return env

    @cached_property
    def declared_names(self) -> frozenset[str]:
        """The names an expression on the chart may read."""
        return frozenset(self.coords).union((name for name, _ in self.params), ("pi",))

    def validate_expr(self, e: el.Expr, seen: Optional[set[int]] = None) -> None:
        """Raise on a name ``e`` reads that the chart does not declare.  A
        ``seen`` set of the ids of kept nodes skips those checked before; a
        failed check empties it, so no node it marked passes unchecked."""
        if seen is not None and id(e) in seen:
            return
        unknown = el.free_names(e, seen) - self.declared_names
        if unknown:
            if seen is not None:
                seen.clear()
            raise el.ExprError(
                f"undeclared names {sorted(unknown)} in '{el.to_source(e)}'")

    @cached_property
    def _read_state(self) -> tuple[dict, dict, set[int]]:
        # node table, parsed sources and checked nodes of Chart.read
        return {}, {}, set()

    def read(self, value: ExprLike) -> el.Expr:
        """``value`` as an expression on the chart, its names checked.  The
        chart keeps what it has read for as long as it lives: strings share one
        node table and are parsed once each, and each node is checked once.  An
        expression handed in as one is checked in full, as the table does not
        hold its nodes and their ids may be reused."""
        table, parsed, seen = self._read_state
        e = el.as_expr(value, table, parsed)
        self.validate_expr(e, None if e is value else seen)
        return e


class MetricField(el.Record):
    """Symmetric d x d matrix of expressions (stored as the full grid)."""

    chart: Chart
    comps: tuple[tuple[el.Expr, ...], ...]

    def __init__(self, chart, comps):
        self.__dict__.update(chart=chart, comps=comps)

    @staticmethod
    def from_entries(chart: Chart, entries: Mapping[tuple[int, int], ExprLike]) -> "MetricField":
        """Build from the upper triangle by :meth:`Chart.read`; missing entries are zero."""
        d = chart.dim
        grid = [[el.ZERO] * d for _ in range(d)]
        for (i, j), raw in entries.items():
            if not (0 <= i < d and 0 <= j < d):
                raise IndexError(f"metric entry {(i, j)} outside a {d}-dim chart")
            e = chart.read(raw)
            grid[i][j] = e
            grid[j][i] = e
        return MetricField(chart, tuple(tuple(row) for row in grid))

    @staticmethod
    def diagonal(chart: Chart, diag: Iterable[ExprLike]) -> "MetricField":
        return MetricField.from_entries(chart, {(i, i): e for i, e in enumerate(diag)})

    @property
    def dim(self) -> int:
        return self.chart.dim


class VectorField(el.Record):
    chart: Chart
    comps: tuple[el.Expr, ...]

    def __init__(self, chart, comps):
        self.__dict__.update(chart=chart, comps=comps)

    @staticmethod
    def of(chart: Chart, comps: Iterable[ExprLike]) -> "VectorField":
        return VectorField(chart, tuple(map(chart.read, comps)))


class OneForm(el.Record):
    chart: Chart
    comps: tuple[el.Expr, ...]

    def __init__(self, chart, comps):
        self.__dict__.update(chart=chart, comps=comps)

    @staticmethod
    def of(chart: Chart, comps: Iterable[ExprLike]) -> "OneForm":
        return OneForm(chart, tuple(map(chart.read, comps)))


class TensorValue:
    """Pointwise dense tensor; over a stack of points, ``comps`` has a
    leading point axis."""

    comps: np.ndarray

    def __init__(self, comps):
        self.comps = comps


def is_stack(point) -> bool:
    """True for a tuple of points, False for one point; decided from the
    first element, so no array is built from the whole stack."""
    return np.ndim(point[0]) == 1 if len(point) else np.ndim(point) == 2


def _exact(point) -> bool:
    return type(point) is tuple and set(map(type, point)) <= {float}


def as_point(point) -> Union[Point, tuple[Point, ...]]:
    """One point as a tuple of floats, or a stack of points as a tuple of
    them; one that is so already is returned as it is, so that the stages of
    a run share the tuples of its points.  A stack is recognised as such in
    one pass over all its values."""
    if is_stack(point):
        exact = (type(point) is tuple and all(type(p) is tuple for p in point)
                 and set(map(type, chain.from_iterable(point))) <= {float})
        return point if exact else tuple(map(as_point, point))
    return point if _exact(point) else tuple(float(v) for v in point)


def pointwise_sup(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the leading point axis."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


# --- field evaluation ---------------------------------------------------------

def field_jets(comps, chart: Chart, point, walk: Optional[tuple[dict, dict]] = None):
    """Evaluate an array of expressions over second-order jets, at one point
    or over a stack of points.

    Returns ``(values, derivs, hess)`` where ``derivs[m, ...] = d_m values[...]``
    and ``hess[m, l, ...] = d_m d_l values[...]``, each with a leading point
    axis over a stack.  This is the one loop that walks expressions over
    jets: each coordinate is seeded once, and each distinct subexpression
    of all the entries is walked once over the whole stack
    (:func:`exprlang.evaluate_all`).  It is the one place a non-finite value
    or derivative is refused, at one point as over a stack: it raises
    :class:`~contactcurv.exprlang.ExprEvalError` naming the first such point
    and, at that point, the expression of the first such entry.

    ``walk``, the ``(env, memo)`` of a walk over the same chart and point,
    is continued: its seeds are used, a node its memo holds is not walked
    again, and each node walked is added to the memo.
    """
    arr = np.asarray(comps, dtype=object)
    d = chart.dim
    env, memo = (chart.jet_env(point), {}) if walk is None else walk
    lead = np.shape(point)[:-1]  # () at one point, (N,) over a stack
    # value, gradient and Hessian are consecutive blocks of one buffer, each
    # C-contiguous, so one finiteness test covers all three
    n = arr.size * int(np.prod(lead))
    shapes = (lead + (arr.size,), lead + (d, arr.size), lead + (d, d, arr.size))

    def blocks(flat):
        parts = np.split(flat, (n, n + n * d))
        return [part.reshape(shape) for part, shape in zip(parts, shapes)]

    out = np.zeros(n * (1 + d + d * d))
    values, derivs, hess = blocks(out)
    # non-finite intermediates are caught by the finiteness test below, so
    # numpy's floating-point warnings would only repeat it
    with np.errstate(all="ignore"):
        jets = el.evaluate_all(arr.flat, env, memo)
    for k, jet in enumerate(jets):
        if isinstance(jet, Jet2):
            values[..., k] = jet.val
            derivs[..., k] = jet.grad
            hess[..., k] = jet.hess
        else:
            values[..., k] = jet
    finite = np.isfinite(out)
    if not finite.all():
        ok_values, ok_derivs, ok_hess = blocks(finite)
        ok = ok_values & ok_derivs.all(axis=-2) & ok_hess.all(axis=(-3, -2))
        p, k = divmod(int(np.argmin(ok.reshape(-1))), arr.size)
        raise el.ExprEvalError(
            f"non-finite value or derivative at {tuple(point[p] if lead else point)}",
            arr.flat[k])
    return (values.reshape(lead + arr.shape), derivs.reshape(lead + (d,) + arr.shape),
            hess.reshape(lead + (d, d) + arr.shape))


def eval_field(comps, chart: Chart, point: Sequence[float]):
    """Values and first partials ``(values, derivs)`` of :func:`field_jets`."""
    values, derivs, _ = field_jets(comps, chart, point)
    return values, derivs


# --- per-point geometry -------------------------------------------------------

def contract_last(t4: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_a T[..., a] m[..., a, b] over the last slot of a four-slot
    tensor, with one matrix m per point: one (d^3 x d) @ (d x d) matmul
    per point."""
    lead, d = t4.shape[:-4], t4.shape[-1]
    return (t4.reshape(lead + (d ** 3, d)) @ m).reshape(t4.shape)


def contract_third(t4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_c T[..., i, j, c, k] v[..., c] for a four-slot tensor that is
    antisymmetric in its last pair, as -sum_c T[..., i, j, k, c] v[..., c]:
    one (d^3 x d) @ (d x 1) matmul per point.  Returns ``[..., i, j, k]``."""
    lead, d = t4.shape[:-4], t4.shape[-1]
    return -(t4.reshape(lead + (d ** 3, d)) @ v[..., None]).reshape(t4.shape[:-1])


def contract_middle(t4: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_pq T[..., i, p, q, j] m[..., r, p, q] over the two middle slots,
    for each matrix m[..., r, :, :] stacked after the leading axes of T
    (none, one or more axes r): one (r x d^2) @ (d^2 x d) matmul per point
    and index i.  Returns ``[..., r, i, j]``."""
    lead, d = t4.shape[:-4], t4.shape[-1]
    rows = m.shape[len(lead):-2]
    out = m.reshape(lead + (1, -1, d * d)) @ t4.reshape(lead + (d, d * d, d))
    return np.swapaxes(out, -3, -2).reshape(lead + rows + (d, d))


def sectional_form(t4: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """T(x, u, u, x) of a four-slot tensor as x^T rho_{u u^T}(T) x, where x
    and u may carry axes after the leading ones of T (rows x[c], each with
    its own u[c]), which the result keeps."""
    m = contract_middle(t4, u[..., :, None] * u[..., None, :])
    return np.sum((x[..., None, :] @ m)[..., 0, :] * x, axis=-1)


def freeze_arrays(record) -> None:
    """Make every array attribute of a cached record read-only, so callers
    cannot change what later calls return."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


class PointGeometry:
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    # (seeds, node memo, metric) of the metric walk, which continued_walk hands on
    _walk: Optional[tuple]
    gamma: np.ndarray
    riem4: np.ndarray
    ricci: np.ndarray
    tau: Union[float, np.ndarray]

    def __init__(self, g, ginv, dg, d2g, _walk=None):
        self.g, self.ginv, self.dg, self.d2g, self._walk = g, ginv, dg, d2g, _walk
        # C[l, i, j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2
        C = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
        pairs = C.shape[:-2] + (-1,)  # [p, (ij)]: the pair ij merged
        self.gamma = (ginv @ C.reshape(pairs)).reshape(C.shape)
        # R_ijkl = t[i, k, j, l] - t[i, l, j, k] with t[(ab), (ce)] = (h + h^T) / 2
        # + C_{p,ab} Gamma^p_ce and h[(ab), (ce)] = d_a d_b g_ce: the second
        # derivatives give (h_ikjl - h_iljk - h_jkil + h_jlik) / 2, and the
        # quadratic part, C^T g^-1 C, is symmetric in (ab) <-> (ce) as it stands
        h = d2g.reshape(pairs[:-2] + (C.shape[-1] ** 2, -1))
        t = np.add(h, np.swapaxes(h, -1, -2))
        t *= 0.5
        t += np.swapaxes(C.reshape(pairs), -1, -2) @ self.gamma.reshape(pairs)
        u = np.swapaxes(t.reshape(d2g.shape), -3, -2)
        # written C-contiguous for the reshapes of the kernels
        self.riem4 = np.subtract(u, np.swapaxes(u, -1, -2), order="C")
        self.ricci = contract_middle(self.riem4, ginv)
        self.tau = np.einsum("...jk,...jk->...", ginv, self.ricci)
        freeze_arrays(self)

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    def continued_walk(self) -> Optional[tuple[dict, dict]]:
        """A copy of the ``(env, memo)`` of the metric walk that made this
        geometry, for :func:`field_jets` to continue over other fields at
        the same points, so that a node they share with the metric is not
        walked again; None for a geometry no walk made.  The memo is keyed
        on the ``id`` of the metric's nodes, which the geometry keeps alive
        with the metric, and a caller changes only its copy."""
        if self._walk is None:
            return None
        env, memo, _ = self._walk
        return dict(env), dict(memo)

    def conformal(self, h, dh, d2h) -> "PointGeometry":
        """Geometry of h g for a factor h > 0 of x0 alone, from h, h' and h''
        (numbers, or arrays over the point axis) by the product rule on the jets:
        d(h g) adds h' g in slot 0, d2(h g) adds h' dg in slices 0 and h'' g at (0, 0)."""
        h, dh, d2h = (np.asarray(v, dtype=float)[..., None, None] for v in (h, dh, d2h))
        g, dg, d2g = h * self.g, h[..., None] * self.dg, h[..., None, None] * self.d2g
        dg[..., 0, :, :] += dh * self.g
        d2g[..., 0, :, :, :] += dh[..., None] * self.dg
        d2g[..., :, 0, :, :] += dh[..., None] * self.dg
        d2g[..., 0, 0, :, :] += d2h * self.g
        return PointGeometry(g, np.linalg.inv(g), dg, d2g)

    def weyl(self) -> np.ndarray:
        """Trace-free conformal part of the curvature; needs dim >= 4."""
        if (d := self.dim) < 4:
            raise MetricError(f"Weyl tensor needs dimension >= 4, got {d}")
        # W = R - S o g with the Schouten-type form S = rho/(d-2) - tau g/(2(d-1)(d-2))
        tau = np.asarray(self.tau)[..., None, None]
        s = self.ricci / (d - 2) - tau * self.g / (2.0 * (d - 1) * (d - 2))
        out = kulkarni_nomizu((s, self.g))
        return np.subtract(self.riem4, out, out=out)


def point_geometry(metric: MetricField, point) -> PointGeometry:
    """Metric, Christoffel and curvature data at one chart point, or stacked
    over a tuple of points.  :func:`geometry_at` is this function with a
    point cache, and is what callers use; run uncached, it warns again for
    a point whose geometry is cached.

    A non-finite metric jet raises :class:`~contactcurv.exprlang.ExprError`,
    and a metric that is not positive definite raises :class:`MetricError`;
    an ill-conditioned metric only warns.  A stack is run as if every point
    were sound.  Only after a fault are its points run again one at a time,
    so the first faulty point raises, after the warnings of the points
    before it, as in a point-by-point run.
    """
    stacked = is_stack(point)
    walk = (metric.chart.jet_env(point), {}, metric)
    try:
        # each entry below the diagonal is the expression above it, walked once
        g, dg, d2g = field_jets(metric.comps, metric.chart, point, walk[:2])
        np.linalg.cholesky(g)
    except (el.ExprError, np.linalg.LinAlgError) as err:
        for pt in point if stacked else ():
            geometry_at(metric, pt)  # raises at the first faulty point
        if isinstance(err, el.ExprError):
            raise
        raise MetricError(f"metric is not positive definite at {point}") from None
    cond = np.linalg.cond(g).reshape(-1)
    for k in np.flatnonzero(cond > CONDITION_LIMIT):
        warnings.warn(
            f"metric condition number {cond[k]:.3e} at {point[k] if stacked else point}",
            IllConditionedMetricWarning, stacklevel=2)
    return PointGeometry(g, np.linalg.inv(g), dg, d2g, walk)


geometry_at = lru_cache(maxsize=None)(point_geometry)


# --- public operations --------------------------------------------------------

def christoffel(metric: MetricField, point: Sequence[float]) -> TensorValue:
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return TensorValue(geo.gamma)


def riemann(metric: MetricField, point: Sequence[float]) -> TensorValue:
    """Fully covariant curvature tensor R(e_i, e_j, e_k, e_l)."""
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return TensorValue(geo.riem4)


def ricci(metric: MetricField, point: Sequence[float]) -> TensorValue:
    geo = geometry_at(metric, tuple(float(v) for v in point))
    return TensorValue(geo.ricci)


def scalar(metric: MetricField, point: Sequence[float]) -> float:
    return float(geometry_at(metric, tuple(float(v) for v in point)).tau)


def covd_vector(values: np.ndarray, derivs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(grad_i V)^k from pointwise values and partials; returns [i, k]."""
    d = gamma.shape[-1]
    # Gamma^k_ia V^a as one (d^2 x d) @ (d x 1) matmul per point, [(ki)]
    terms = gamma.reshape(gamma.shape[:-3] + (d * d, d)) @ values[..., None]
    return derivs + np.swapaxes(terms.reshape(terms.shape[:-2] + (d, d)), -1, -2)


def covd_11(values: np.ndarray, derivs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(grad_i A)^k_j for a (1,1) field; returns [i, k, j]."""
    d = gamma.shape[-1]
    # [k, i, j]: Gamma^k_ia A^a_j - A^k_a Gamma^a_ij, as two matmuls per point
    flat = gamma.reshape(gamma.shape[:-3] + (d, d * d))  # [a, (ij)]
    terms = gamma @ values[..., None, :, :] - (values @ flat).reshape(gamma.shape)
    return derivs + np.swapaxes(terms, -3, -2)


def lie_bracket_from(x_values: np.ndarray, x_derivs: np.ndarray,
                     y_values: np.ndarray, y_derivs: np.ndarray) -> np.ndarray:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i from pointwise values and partials."""
    return (x_values[..., None, :] @ y_derivs - y_values[..., None, :] @ x_derivs)[..., 0, :]


def lie_derivative_metric(z_values: np.ndarray, z_derivs: np.ndarray,
                          g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """(L_Z g)_ij from pointwise Z, dZ, g and dg; the leading axes broadcast."""
    d = g.shape[-1]
    # Z^a d_a g_ij as one (1 x d) @ (d x d^2) matmul per point
    term = z_values[..., None, :] @ dg.reshape(dg.shape[:-3] + (d, d * d))
    mixed = z_derivs @ g  # [i, j] = d_i Z^a g_aj
    return term.reshape(mixed.shape) + mixed + np.swapaxes(mixed, -1, -2)


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


def weyl(metric: MetricField, point) -> TensorValue:
    """:meth:`PointGeometry.weyl` at a point or over a stack of points."""
    return TensorValue(geometry_at(metric, as_point(point)).weyl())


def kulkarni_nomizu(*pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_t A_t o B_t over the pairs (A_t, B_t), with (A o B)_ijkl = A_il B_jk +
    A_jk B_il - A_ik B_jl - A_jl B_ik: Y - Y with k and l swapped, where
    Y[i, (jk), l] = sum_t B_t,jk A_t,il + A_t,jk B_t,il is one matmul per point
    and index i, written once, C-contiguous."""
    a, b = zip(*pairs)
    lead, d = a[0].shape[:-2], a[0].shape[-1]
    left = np.stack(b + a, axis=-1).reshape(lead + (1, d * d, -1))
    y = (left @ np.stack(a + b, axis=-2)).reshape(lead + (d,) * 4)
    return np.subtract(y, np.swapaxes(y, -1, -2), order="C")
