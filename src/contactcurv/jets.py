"""Second-order forward-mode scalars.

A :class:`Jet2` carries a value, a gradient and a symmetric Hessian with
respect to the ``d`` chart coordinates.  Propagation through the arithmetic
operators and the function set of the expression language is the exact
second-order Taylor rule, so polynomials up to degree two differentiate with
no truncation error.  Everything is dense double precision; charts stay
small (d <= ``riemann.MAX_DIM`` = 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Jet2:
    val: float
    grad: np.ndarray  # shape (d,)
    hess: np.ndarray  # shape (d, d), symmetric

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    # construction ----------------------------------------------------------

    @staticmethod
    def constant(value: float, d: int) -> "Jet2":
        return Jet2(float(value), np.zeros(d), np.zeros((d, d)))

    @staticmethod
    def seed(coord_index: int, value: float, d: int) -> "Jet2":
        """Jet of the coordinate function ``x_coord_index`` at ``value``."""
        if not 0 <= coord_index < d:
            raise IndexError(f"coordinate index {coord_index} out of range for d={d}")
        grad = np.zeros(d)
        grad[coord_index] = 1.0
        return Jet2(float(value), grad, np.zeros((d, d)))

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError("jet dimensions differ")
            return other
        return Jet2.constant(float(other), self.dim)

    # arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        return Jet2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Jet2(self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        cross = np.outer(self.grad, o.grad)
        return Jet2(
            self.val * o.val,
            self.grad * o.val + o.grad * self.val,
            self.hess * o.val + o.hess * self.val + cross + cross.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.val == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        q = self.val / o.val
        grad = (self.grad - q * o.grad) / o.val
        cross = np.outer(grad, o.grad)
        hess = (self.hess - q * o.hess - cross - cross.T) / o.val
        return Jet2(q, grad, hess)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return Jet2(-self.val, -self.grad, -self.hess)

    def __pow__(self, exponent):
        if isinstance(exponent, Jet2):
            raise TypeError("jet exponents are not supported")
        c = float(exponent)
        if self.val < 0.0 and c != int(c):
            raise ValueError("fractional power of a negative value")
        f1 = c * self.val ** (c - 1.0) if c != 0.0 else 0.0
        f2 = c * (c - 1.0) * self.val ** (c - 2.0) if c * (c - 1.0) != 0.0 else 0.0
        return self._compose(self.val ** c, f1, f2)

    # elementary functions ----------------------------------------------------

    def _compose(self, f0: float, f1: float, f2: float) -> "Jet2":
        outer = np.outer(self.grad, self.grad)
        return Jet2(f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def sin(self) -> "Jet2":
        s, c = math.sin(self.val), math.cos(self.val)
        return self._compose(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = math.sin(self.val), math.cos(self.val)
        return self._compose(c, -s, -c)

    def tan(self) -> "Jet2":
        t = math.tan(self.val)
        sec2 = 1.0 + t * t
        return self._compose(t, sec2, 2.0 * t * sec2)

    def exp(self) -> "Jet2":
        e = math.exp(self.val)
        return self._compose(e, e, e)

    def log(self) -> "Jet2":
        if self.val <= 0.0:
            raise ValueError("math domain error")
        inv = 1.0 / self.val
        return self._compose(math.log(self.val), inv, -inv * inv)

    def sqrt(self) -> "Jet2":
        if self.val < 0.0:
            raise ValueError("math domain error")
        r = math.sqrt(self.val)
        return self._compose(r, 0.5 / r, -0.25 / (r * r * r))

    def __repr__(self) -> str:
        return f"Jet2({self.val!r}, grad={self.grad!r})"
