"""Reference implementations that tests compare the package against.

:class:`RecursiveParser` is the expression parser ``exprlang`` used before
its one-pass parser: a generator of tokens with their offsets, and one
method per grammar rule, which builds each node and then shares it.  It
differs from that parser in two places, where the grammar was wrong there:
numbers are ASCII digits only, and a number literal that overflows a double
is a syntax error.  It folds with the package's own smart constructors, so
the two parsers agree on every graph and every error.

The curvature kernels keep their einsum forms here, written term by term:
the Kulkarni-Nomizu product, phi(S) and psi(S), the auxiliary tensors pi_1
and pi_2, the J-conjugation L3 as four last-slot contractions, the middle
and star contractions, the Ricci contraction rho(T) against g^{-1}, the
Bochner contractions through L3 R, the Bochner tensor as one formula per
dimension regime, and the five-operand sectional values.  Every array may
carry leading point axes.

The contractions the package writes as matmuls keep their einsum spellings
as well: R(X, Y, Z, V) against a vector, grad Z, the Lie bracket, L_Z g,
and the rows of ``validate_structure`` and ``lemma_checks`` that read them,
phi^T dalpha_i or the Reeb fields.

The package holds the two forms of the pair on one axis.  The references
here take them one form at a time, term by term: J, T, dJ and dT by the
product rule, the phi^2 target, the vertical correction of grad J and the
star-Ricci correction.

:func:`reference_geometry` builds the curvature by the long route, through
the partials of g^{-1} and of Gamma and the mixed tensor R^l_ijk, which the
package no longer forms, and :func:`reference_dphi` differentiates phi
through the partials of g^{-1}.

:func:`conformal_rescale` builds the metric e^{2f} g as expressions, a
second metric whose geometry the tests hold against the product-rule jets
of ``PointGeometry.conformal``.  :func:`report_dict` is the report as the
dict that ``Report.to_json`` writes.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from contactcurv import exprlang as el
from contactcurv import riemann as rm
from contactcurv.exprlang import (FUNCTION_NAMES, MAX_DEPTH, MAX_NESTING, Const, Expr,
                                  ExprSyntaxError, Fn, Sym, _share, add, div, mul, neg,
                                  pow_, sub)

_TOKEN_RE = re.compile(
    r"""
    (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokens(source: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(), pos
        pos = m.end()
    yield "end", "", len(source)


class RecursiveParser:
    def __init__(self, source: str, table: dict):
        self.source = source
        self.stream = list(_tokens(source))
        self.index = 0
        self.nesting = 0
        self.table = table

    @property
    def current(self) -> tuple[str, str, int]:
        return self.stream[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.stream[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.current
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", offset)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        if len(self.stream) > MAX_DEPTH and el._height(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree higher than {MAX_DEPTH} levels", 0)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.current[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = _share(add(e, rhs) if op == "+" else sub(e, rhs), self.table)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.current[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            e = _share(mul(e, rhs) if op == "*" else div(e, rhs), self.table)
        return e

    def factor(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                  self.current[2])
        if self.current[:2] == ("op", "-"):
            self.advance()
            e = _share(neg(self.factor()), self.table)
        else:
            e = self.power()
        self.nesting -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.current[:2] == ("op", "^"):
            _, _, offset = self.advance()
            exponent = self.factor()
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent must be a constant expression", offset)
            return _share(pow_(base, exponent), self.table)
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.current
        if kind == "number":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is out of range", offset)
            return _share(Const(value), self.table)
        if kind == "name":
            self.advance()
            if self.current[:2] == ("op", "("):
                if text not in FUNCTION_NAMES:
                    raise ExprSyntaxError(f"unknown function '{text}'", offset)
                self.advance()
                arg = self.expr()
                k, t, o = self.current
                if (k, t) != ("op", ")"):
                    raise ExprSyntaxError(
                        f"function '{text}' takes one argument; expected ')'", o)
                self.advance()
                return _share(Fn(text, arg), self.table)
            return _share(Sym(text), self.table)
        if (kind, text) == ("op", "("):
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("expected a number, name or '('", offset)


def reference_parse(source: str, table: dict | None = None) -> Expr:
    """:func:`exprlang.parse` by the recursive reference parser."""
    return RecursiveParser(source, {} if table is None else table).parse()


# --- the report as a dict -------------------------------------------------------------

def report_dict(report) -> dict:
    """The dict whose ``json.dumps(..., indent=2)`` ``Report.to_json`` writes
    byte for byte: the head, then each check record's fields in their order,
    with its point as a list."""
    return {"manifold": report.manifold, "conventions": report.conventions,
            "summary": report.summary(),
            "checks": [vars(c) | {"point": None if c.point is None else list(c.point)}
                       for c in report.checks]}


# --- conformal rescaling ------------------------------------------------------------

def conformal_rescale(metric: rm.MetricField, f: rm.ExprLike) -> rm.MetricField:
    """Metric with components e^{2f} g_ij, as expressions."""
    fe = el.as_expr(f)
    metric.chart.validate_expr(fe)
    factor = Fn("exp", mul(Const(2.0), fe))
    comps = tuple(tuple(mul(factor, entry) for entry in row) for row in metric.comps)
    return rm.MetricField(metric.chart, comps)


# --- the curvature by way of R^l_ijk ------------------------------------------------

def reference_geometry(g, ginv, dg, d2g):
    """Christoffel symbols, the partials of g^-1 and of Gamma, R^l_ijk, its
    lowering R_ijkl, the trace Ricci_jk = R^i_ijk and tau from the jets of g,
    the construction ``riemann.PointGeometry`` used before it read R_ijkl off
    the symbols of the first kind.  Returns a namespace with ``gamma``,
    ``dginv[m, k, l]`` = d_m g^kl, ``dgamma[m, k, i, j]`` = d_m Gamma^k_ij,
    ``riem13[l, i, j, k]``, ``riem4``, ``ricci`` and ``tau``."""
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    T = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
    dT = (np.einsum("...mijl->...mlij", d2g) + np.einsum("...mjil->...mlij", d2g)
          - d2g)
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, T)
    dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])
    dgamma = 0.5 * (np.einsum("...mkl,...lij->...mkij", dginv, T)
                    + np.einsum("...kl,...mlij->...mkij", ginv, dT))
    # R^l_ijk = x[l, i, j, k] - x[l, j, i, k] with
    # x[l, i, j, k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
    x = (np.einsum("...iljk->...lijk", dgamma)
         + np.einsum("...lim,...mjk->...lijk", gamma, gamma))
    riem13 = x - np.swapaxes(x, -3, -2)
    riem4 = contract_last(np.moveaxis(riem13, -4, -1), g)
    ricci = np.einsum("...iijk->...jk", riem13)
    tau = np.einsum("...jk,...jk->...", ginv, ricci)
    return SimpleNamespace(gamma=gamma, dginv=dginv, dgamma=dgamma, riem13=riem13,
                           riem4=riem4, ricci=ricci, tau=tau)


def reference_dphi(ginv, dginv, dalpha, ddalpha):
    """d_m phi^k_j of phi = g^-1 (d alpha_1 + d alpha_2) by the product rule
    through d_m g^-1, as ``contactpair.structure_at`` formed it before."""
    return (np.einsum("...mka,...aj->...mkj", dginv, dalpha)
            + np.einsum("...ka,...maj->...mkj", ginv, ddalpha))


# --- curvature kernels -----------------------------------------------------------

def contract_last(t4, m):
    """sum_a T[..., a] m[..., a, b], as d^2 broadcast matmuls per point."""
    return t4 @ m[..., None, None, :, :]


def contract_middle(t4, m):
    """sum_pq T[..., i, p, q, j] m[..., p, q]."""
    return np.einsum("...ipqj,...pq->...ij", t4, m)


def contract_ricci(t4, ctx):
    """Ricci-type contraction rho(T)(X,Y) = g^{pq} T(X, d_p, d_q, Y), equal to
    sum_a T(X, e_a, e_a, Y) for every g-orthonormal frame (e_a)."""
    return contract_middle(t4, ctx.ginv)


def star_contraction(t4, ginv, J):
    """rho*(T)(X,Y) = g^{pa} J^q_a T(X, d_p, d_q, J Y)."""
    return np.einsum("...ipqr,...pq->...ir", t4, ginv @ np.swapaxes(J, -1, -2)) @ J


def kulkarni_nomizu(a, b):
    """(A o B)_ijkl = A_il B_jk + A_jk B_il - A_ik B_jl - A_jl B_ik."""
    return (np.einsum("...il,...jk->...ijkl", a, b) + np.einsum("...jk,...il->...ijkl", a, b)
            - np.einsum("...ik,...jl->...ijkl", a, b) - np.einsum("...jl,...ik->...ijkl", a, b))


def weyl(riem4, ricci, g, tau):
    """W = R - rho o g / (d-2) + tau g o g / (2(d-1)(d-2)), two products."""
    d = g.shape[-1]
    tau = np.asarray(tau)[..., None, None, None, None]
    return (riem4 - kulkarni_nomizu(ricci, g) / (d - 2)
            + tau * kulkarni_nomizu(g, g) / (2.0 * (d - 1) * (d - 2)))


def pi1(ctx):
    """pi_1(X,Y,Z,W) = g(X,Z) g(Y,W) - g(Y,Z) g(X,W)."""
    g = ctx.g
    return np.einsum("...ik,...jl->...ijkl", g, g) - np.einsum("...jk,...il->...ijkl", g, g)


def pi2(ctx):
    """pi_2(X,Y,Z,W) = 2 g(JX,Y) g(JZ,W) + g(JX,Z) g(JY,W) - g(JY,Z) g(JX,W)."""
    gJ = ctx.g @ ctx.J  # g(., J .); the sign flip to g(J., .) cancels pairwise
    return (2.0 * np.einsum("...ij,...kl->...ijkl", gJ, gJ)
            + np.einsum("...ik,...jl->...ijkl", gJ, gJ)
            - np.einsum("...jk,...il->...ijkl", gJ, gJ))


def l3(ctx, t4):
    """J-conjugation in all four slots: (L3 T)(X,Y,Z,W) = T(JX,JY,JZ,JW)."""
    out = t4
    for _ in range(4):  # contract the first slot with J and move it last
        out = contract_last(np.moveaxis(out, -4, -1), ctx.J)
    return out


def phi_op(s, ctx):
    """phi(S)(X,Y,Z,W) = g(X,Z)S(Y,W) + g(Y,W)S(X,Z) - g(X,W)S(Y,Z) - g(Y,Z)S(X,W)."""
    g = ctx.g
    return (np.einsum("...ik,...jl->...ijkl", g, s) + np.einsum("...jl,...ik->...ijkl", g, s)
            - np.einsum("...il,...jk->...ijkl", g, s) - np.einsum("...jk,...il->...ijkl", g, s))


def psi_op(s, ctx):
    """psi(S), the six-term J-twisted companion of phi(S)."""
    gJ = ctx.g @ ctx.J   # g(X, JY)
    sJ = s @ ctx.J       # S(X, JY)
    return (np.einsum("...ij,...kl->...ijkl", 2.0 * gJ, sJ)
            + np.einsum("...kl,...ij->...ijkl", 2.0 * gJ, sJ)
            + np.einsum("...ik,...jl->...ijkl", gJ, sJ)
            + np.einsum("...jl,...ik->...ijkl", gJ, sJ)
            - np.einsum("...il,...jk->...ijkl", gJ, sJ)
            - np.einsum("...jk,...il->...ijkl", gJ, sJ))


def reading_contractions(ctx):
    """rho*(R - L3 R), rho(R - L3 R), rho(R + L3 R) and rho*(R + L3 R), with
    L3 R formed; in the curvature reading R -+ L3 R is R itself."""
    R = ctx.riem4
    if ctx.reading == "combination":
        l3r = l3(ctx, R)
        minus, plus = R - l3r, R + l3r
    else:
        minus = plus = R
    return (star_contraction(minus, ctx.ginv, ctx.J), contract_middle(minus, ctx.ginv),
            contract_middle(plus, ctx.ginv), star_contraction(plus, ctx.ginv, ctx.J))


def two_regime_bochner(ctx):
    """The Bochner tensor written out term by term, one formula per regime,
    with its four contractions taken through L3 R and pi_1 and pi_2 as
    separate tensors."""
    m, n = ctx.m, ctx.n
    R = ctx.riem4
    s2, s3, rho, rho_star = reading_contractions(ctx)
    s4, s5 = rho + 3.0 * rho_star, rho - rho_star
    # scalars broadcast against the four trailing axes of a stack
    tau = np.asarray(ctx.tau)[..., None, None, None, None]
    tau_star = np.asarray(ctx.tau_star)[..., None, None, None, None]
    p1, p2 = pi1(ctx), pi2(ctx)
    if ctx.dim != 4:
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


def reeb_plane(b, z1, z2):
    """B(Z_1, Z_2, Z_2, Z_1) as one five-operand einsum."""
    return np.einsum("...ijkl,...i,...j,...k,...l->...", b, z1, z2, z2, z1)


def phi_sectional(riem4, phi, x):
    """R(x, phi x, phi x, x) for each row x[c], as one five-operand einsum."""
    px = x @ np.swapaxes(phi, -1, -2)
    return np.einsum("...ijkl,...ci,...cj,...ck,...cl->...c", riem4, x, px, px, x,
                     optimize=True)


# --- contractions the package writes as matmuls -------------------------------------

def contract_third(t4, v):
    """sum_c T[..., i, j, c, k] v[..., c]: R(X, Y, Z, V) of the lemma suite."""
    return np.einsum("...xycv,...c->...xyv", t4, v)


def covd_vector(values, derivs, gamma):
    """(grad_i V)^k = d_i V^k + Gamma^k_ia V^a, [i, k]."""
    return derivs + np.einsum("...kia,...a->...ik", gamma, values)


def lie_bracket_from(x_values, x_derivs, y_values, y_derivs):
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    return (np.einsum("...j,...ji->...i", x_values, y_derivs)
            - np.einsum("...j,...ji->...i", y_values, x_derivs))


def lie_derivative_metric(z_values, z_derivs, g, dg):
    """(L_Z g)_ij = Z^a d_a g_ij + g_aj d_i Z^a + g_ia d_j Z^a."""
    term = np.einsum("...a,...aij->...ij", z_values, dg)
    mixed = np.einsum("...aj,...ia->...ij", g, z_derivs)
    return term + mixed + np.swapaxes(mixed, -1, -2)


def _per_form(st):
    """(alpha_f, Z_f, d_m Z_f^k) of both forms, one tuple per form."""
    return [(st.alphas[..., f, :], st.reebs[..., f, :], st.dreebs[..., f, :, :])
            for f in range(2)]


def _outer(u, v):
    return np.einsum("...k,...j->...kj", u, v)


def reeb_rows(st):
    """The Reeb-field rows of ``validate_structure`` over a stack, [p], as
    einsums."""
    sup = rm.pointwise_sup
    (_, z1, dz1), (_, z2, dz2) = _per_form(st)
    return {
        "reeb_duality": sup(np.einsum("pai,pbi->pab", st.alphas, st.reebs) - np.eye(2)),
        "reeb_in_dalpha_kernel": sup(np.einsum("pzi,pfij->pzfj", st.reebs, st.dalphas)),
        "reeb_fields_commute": sup(lie_bracket_from(z1, dz1, z2, dz2)),
        "metric_reeb_duality": sup(np.einsum("pij,pzj->pzi", st.geo.g, st.reebs)
                                   - st.alphas),
        "phi_kills_reeb": sup(np.einsum("pij,pzj->pzi", st.phi, st.reebs)),
    }


def _rhs_phi(st):
    """sum_f dalpha_f(phi Y, X) alpha_f(V) - dalpha_f(phi V, X) alpha_f(Y), [x, y, v],
    and phi^T dalpha_f, [y, x], of each form."""
    phi_dalpha = [np.einsum("...ay,...ax->...yx", st.phi, st.dalphas[..., f, :, :])
                  for f in range(2)]
    rhs = 0.0
    for Ai, (ai, _, _) in zip(phi_dalpha, _per_form(st)):
        rhs = rhs + (np.einsum("...yx,...v->...xyv", Ai, ai)
                     - np.einsum("...vx,...y->...xyv", Ai, ai))
    return rhs, phi_dalpha


def lemma_rows(st):
    """The rows of ``lemma_checks`` that read phi^T dalpha_i, R(., ., Z, .),
    grad Z_i or L_{Z_i} g, over a stack, [p], as einsums."""
    sup = rm.pointwise_sup
    geo = st.geo
    forms = _per_form(st)
    nabla_phi = rm.covd_11(st.phi, st.dphi, geo.gamma)
    lhs_phi = np.einsum("...xky,...kv->...xyv", nabla_phi, geo.g)
    rhs_phi, phi_dalpha = _rhs_phi(st)
    lhs_R = contract_third(geo.riem4, forms[0][1] + forms[1][1])
    rhs_R = np.zeros_like(lhs_R)
    for Ai, (ai, _, _) in zip(phi_dalpha, forms):
        rhs_R += (np.einsum("...vx,...y->...xyv", Ai, ai)
                  - np.einsum("...vy,...x->...xyv", Ai, ai))
    nabla_z = [covd_vector(z, dz, geo.gamma) for _, z, dz in forms]
    lie = [lie_derivative_metric(z, dz, geo.g, geo.dg) for _, z, dz in forms]
    phi1, phi2 = (st.phi @ st.proj[..., f, :, :] for f in (1, 0))
    return {
        "reeb_covariant_derivative": np.maximum(
            sup(np.swapaxes(nabla_z[0], -1, -2) + phi1),
            sup(np.swapaxes(nabla_z[1], -1, -2) + phi2)),
        "phi_covariant_derivative": sup(lhs_phi - rhs_phi),
        "reeb_curvature_identity": sup(lhs_R - rhs_R),
        "reeb_fields_killing": np.maximum(sup(lie[0]), sup(lie[1])),
    }


def complex_structures(st):
    """J, T, dJ and dT from phi, dphi and the jets of the forms and fields, by
    the product rule with one outer product per term and form."""
    cp = st.cp
    comps = (cp.alpha1.comps, cp.alpha2.comps, cp.z1.comps, cp.z2.comps)
    values, derivs, _ = rm.field_jets(comps, cp.chart, st.point)
    a1, a2, z1, z2 = (values[..., f, :] for f in range(4))
    da1, da2, dz1, dz2 = (derivs[..., f, :] for f in range(4))  # [m, i]
    J = st.phi - _outer(z1, a2) + _outer(z2, a1)
    T = st.phi + _outer(z1, a2) - _outer(z2, a1)
    dJ = (st.dphi
          - np.einsum("...mk,...j->...mkj", dz1, a2)
          - np.einsum("...k,...mj->...mkj", z1, da2)
          + np.einsum("...mk,...j->...mkj", dz2, a1)
          + np.einsum("...k,...mj->...mkj", z2, da1))
    return J, T, dJ, 2.0 * st.dphi - dJ


def pair_rows(st):
    """The rows of ``validate_structure`` and ``lemma_checks`` that read a sum
    over the two forms, with the sum written one form at a time: the phi^2
    target, the four vertical terms of grad J and the star-Ricci correction."""
    sup = rm.pointwise_sup
    geo, m, n = st.geo, *st.cp.pair_type
    (a1, z1, _), (a2, z2, _) = _per_form(st)
    target = -np.eye(st.cp.dim) + _outer(z1, a1) + _outer(z2, a2)
    da1, da2 = st.dalphas[..., 0, :, :], st.dalphas[..., 1, :, :]
    nabla_J = rm.covd_11(st.J, st.dJ, geo.gamma)
    lhs_J = np.einsum("...xky,...kv->...xyv", nabla_J, geo.g)
    rhs_J = (_rhs_phi(st)[0]
             - np.einsum("...xy,...v->...xyv", da2, a1)
             - np.einsum("...xv,...y->...xyv", da1, a2)
             + np.einsum("...xy,...v->...xyv", da1, a2)
             + np.einsum("...xv,...y->...xyv", da2, a1))
    phi1, phi2 = (st.phi @ st.proj[..., f, :, :] for f in (1, 0))
    correction = ((2 * m - 1) * np.einsum("...ai,...ab,...bj->...ij", phi1, geo.g, phi1)
                  + (2 * n - 1) * np.einsum("...ai,...ab,...bj->...ij", phi2, geo.g, phi2)
                  + 2 * m * _outer(a1, a1) + 2 * n * _outer(a2, a2))
    return {
        "phi_squared_identity": sup(st.phi @ st.phi - target),
        "complex_structure_covariant_derivative": sup(lhs_J - rhs_J),
        "star_ricci_defect": sup(geo.ricci - st.star_ricci - correction),
    }
