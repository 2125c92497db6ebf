"""Second-order forward-mode scalars, at one point or over a stack of points.

A :class:`Jet2` carries a value, a gradient and a symmetric Hessian with
respect to the ``d`` chart coordinates.  Propagation through the arithmetic
operators and the function set of the expression language is the exact
second-order Taylor rule, so polynomials up to degree two differentiate with
no truncation error.  Everything is dense double precision; charts stay
small (d <= ``riemann.MAX_DIM`` = 10).

Over a stack of N points the three carry a leading point axis, ``(N,)``,
``(N, d)`` and ``(N, d, d)``, and every rule broadcasts over it; a gradient
or Hessian that is the same at every point, as a seed's is, leaves it out.
At one point the value is a scalar, and each rule runs the numpy routine a
stack runs (``np.sin`` to ``np.sqrt``, and ``np.power`` for a power), so a
walk at one point gives bit for bit what the stacked walk gives there: a
domain error or a division by a zero value raises, and an overflow leaves a
non-finite entry, which :func:`riemann.field_jets` reports.
"""

from __future__ import annotations

import numpy as np


def _per_point(x):
    """``x`` as a factor of a gradient and of a Hessian, at one point or
    over a stack."""
    if isinstance(x, np.ndarray):
        return x[:, None], x[:, None, None]
    return x, x


class Jet2:
    val: float        # or shape (N,) over a stack
    grad: np.ndarray  # shape (d,) or (N, d)
    hess: np.ndarray  # shape (d, d) or (N, d, d), symmetric

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    # construction ----------------------------------------------------------

    @staticmethod
    def constant(value: float, d: int) -> "Jet2":
        return Jet2(float(value), np.zeros(d), np.zeros((d, d)))

    @staticmethod
    def seed(coord_index: int, value, d: int) -> "Jet2":
        """Jet of the coordinate function ``x_coord_index`` at ``value``, a
        number at one point or an ``(N,)`` array over a stack."""
        if not 0 <= coord_index < d:
            raise IndexError(f"coordinate index {coord_index} out of range for d={d}")
        grad = np.zeros(d)
        grad[coord_index] = 1.0
        val = value if isinstance(value, np.ndarray) else float(value)
        return Jet2(val, grad, np.zeros((d, d)))

    # arithmetic; a number operand is used as it is, not lifted to a jet -----

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet2(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        return Jet2(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet2(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.val * other, self.grad * other, self.hess * other)
        (sg, sh), (og, oh) = _per_point(self.val), _per_point(other.val)
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        return Jet2(
            self.val * other.val,
            self.grad * og + other.grad * sg,
            self.hess * oh + other.hess * sh + cross + cross.swapaxes(-1, -2),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.dim)
        if np.any(other.val == 0.0):
            raise ZeroDivisionError("jet division by zero value")
        q = self.val / other.val
        (qg, qh), (og, oh) = _per_point(q), _per_point(other.val)
        grad = (self.grad - qg * other.grad) / og
        cross = grad[..., :, None] * other.grad[..., None, :]
        hess = (self.hess - qh * other.hess - cross - cross.swapaxes(-1, -2)) / oh
        return Jet2(q, grad, hess)

    def __rtruediv__(self, other):
        return Jet2.constant(other, self.dim) / self

    def __neg__(self):
        return Jet2(-self.val, -self.grad, -self.hess)

    def __pow__(self, exponent):
        c = float(exponent)
        if np.any(self.val < 0.0) and c != int(c):
            raise ValueError("fractional power of a negative value")
        f1 = c * np.power(self.val, c - 1.0) if c != 0.0 else 0.0
        f2 = c * (c - 1.0) * np.power(self.val, c - 2.0) if c * (c - 1.0) != 0.0 else 0.0
        return self._compose(np.power(self.val, c), f1, f2)

    # elementary functions ----------------------------------------------------

    def _compose(self, f0, f1, f2) -> "Jet2":
        (f1g, f1h), (_, f2h) = _per_point(f1), _per_point(f2)
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        return Jet2(f0, f1g * self.grad, f1h * self.hess + f2h * outer)

    def sin(self) -> "Jet2":
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose(c, -s, -c)

    def tan(self) -> "Jet2":
        t = np.tan(self.val)
        sec2 = 1.0 + t * t
        return self._compose(t, sec2, 2.0 * t * sec2)

    def exp(self) -> "Jet2":
        e = np.exp(self.val)
        return self._compose(e, e, e)

    def log(self) -> "Jet2":
        if np.any(self.val <= 0.0):
            raise ValueError("math domain error")
        inv = 1.0 / self.val
        return self._compose(np.log(self.val), inv, -inv * inv)

    def sqrt(self) -> "Jet2":
        if np.any(self.val < 0.0):
            raise ValueError("math domain error")
        r = np.sqrt(self.val)
        return self._compose(r, 0.5 / r, -0.25 / (r * r * r))
