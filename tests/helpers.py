"""Shared test utilities: safe random expressions, finite differences, a
dict-based wedge algebra that serves as the reference for the pair clauses,
the record-by-record reference for report rows, and the Berger deformation
of a ``hopf:m`` export.

The random expression generator only produces trees whose domain is all of
R^n (log and sqrt arguments are bounded below by 1, divisors bounded away
from zero), so finite-difference probes never step outside a function's
domain.
"""

from __future__ import annotations

import numpy as np

from contactcurv import exprlang as el


def random_expr(rng: np.random.Generator, names: list[str], depth: int) -> el.Expr:
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return el.Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
        return el.Sym(names[rng.integers(len(names))])
    pick = rng.integers(9)
    a = random_expr(rng, names, depth - 1)
    if pick == 0:
        return el.add(a, random_expr(rng, names, depth - 1))
    if pick == 1:
        return el.sub(a, random_expr(rng, names, depth - 1))
    if pick == 2:
        return el.mul(a, random_expr(rng, names, depth - 1))
    if pick == 3:
        return el.div(a, el.add(el.Const(2.0), el.Fn("cos", random_expr(rng, names, depth - 1))))
    if pick == 4:
        return el.Fn("sin", a)
    if pick == 5:
        return el.Fn("cos", a)
    if pick == 6:
        return el.Fn("log", el.add(el.Const(2.0), el.Fn("sin", a)))
    if pick == 7:
        return el.Fn("sqrt", el.add(el.Const(2.0), el.Fn("cos", a)))
    return el.pow_(a, el.Const(float(rng.integers(2, 4))))


def fd_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hessian(f, x: np.ndarray, h: float) -> np.ndarray:
    d = len(x)
    H = np.zeros((d, d))
    f0 = f(x)
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        H[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / (h * h)
        for j in range(i + 1, d):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += h
            xmm[[i, j]] -= h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h * h)
    return H


class AltForm:
    """Exterior form stored by its coefficients on the dx^I basis, I an
    increasing index tuple."""

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

    def l2(self) -> float:
        """The l2 norm of the coefficients on the dx^I basis."""
        return float(np.sqrt(sum(v * v for v in self.terms.values())))

    def coeff(self, idx: tuple[int, ...]) -> float:
        return self.terms.get(idx, 0.0)


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # parity of the shuffle that sorts the concatenation of two increasing tuples
    inversions = sum(1 for x in a for y in b if y < x)
    return (-1 if inversions % 2 else 1), tuple(sorted(a + b))


def pair_clauses_reference(pair_type, a1, a2, dalpha1, dalpha2) -> tuple[float, float, float]:
    """The volume-form top coefficient and the l2 norms of the coefficients
    of (dalpha1)^(m+1) and (dalpha2)^(n+1) at one point, by wedge products."""
    m, n = pair_type
    f_d1, f_d2 = AltForm.two_form(dalpha1), AltForm.two_form(dalpha2)
    vol = (AltForm.one_form(a1).wedge(f_d1.power(m)).wedge(AltForm.one_form(a2))
           .wedge(f_d2.power(n)))
    return (vol.coeff(tuple(range(len(a1)))), f_d1.power(m + 1).l2(),
            f_d2.power(n + 1).l2())


def record_rows(report, rows, p: int, pt) -> None:
    """Record the values of ``rows`` (name, detail, values, tolerance and
    optionally pass flags, else the tolerance decides) at point number ``p``,
    one ``Report.add`` per record: the reference for ``Report.add_rows``."""
    for row in rows:
        report.add(row[0], row[1], row[2][p], row[3], pt, row[4][p] if len(row) > 4 else None)


def berger(data: dict, a: float) -> dict:
    """The D-homothetic deformation of a ``hopf:m`` export, a manifold file
    as a dict (Tanno, Illinois J. Math. 12, 1968; Blair, Riemannian Geometry
    of Contact and Symplectic Manifolds, 2nd ed., 2010, ch. 7): g_a =
    a (g - alpha2 (x) alpha2) + a (a - 1) alpha1 (x) alpha1 + alpha2 (x) alpha2,
    alpha1 -> a alpha1 and Z1 -> Z1 / a; alpha2, Z2 and the sample points are
    kept.  For a > 0 this is a normal metric contact pair of type (m, 0) with
    orthogonal foliations, a Berger sphere times a line, and only a = 1 is the
    round model, whose export it returns unchanged."""
    d = data["dim"]
    g = [[el.ZERO] * d for _ in range(d)]
    for key, source in data["metric"].items():
        i, j = map(int, key.split(","))
        g[i][j] = g[j][i] = el.parse(source)
    a1, a2 = ([el.parse(source) for source in data[f]] for f in ("alpha1", "alpha2"))
    scale, twist = el.Const(a), el.Const(a * (a - 1.0))
    metric = {}
    for i in range(d):
        for j in range(i, d):
            vertical = el.mul(a2[i], a2[j])
            entry = el.add(el.add(el.mul(scale, el.sub(g[i][j], vertical)),
                                  el.mul(twist, el.mul(a1[i], a1[j]))), vertical)
            if entry != el.ZERO:
                metric[f"{i},{j}"] = el.to_source(entry)
    return {**data, "metric": metric,
            "alpha1": [el.to_source(el.mul(scale, e)) for e in a1],
            "Z1": [el.to_source(el.div(el.parse(source), scale)) for source in data["Z1"]]}
