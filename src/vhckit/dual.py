"""Forward-mode dual numbers, nestable for higher-order derivatives.

A ``Dual`` carries a value and a single directional derivative. Nesting duals
(``Dual(Dual(x, 1.0), 1.0)``) yields second and higher derivatives. All math
helpers below accept plain floats as well, so model code written against this
module evaluates transparently at any derivative order.
"""

from __future__ import annotations

import math


class Dual:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            v = self.val * inv
            return Dual(v, (self.eps - v * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        v = other * inv
        return Dual(v, -v * self.eps * inv)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return Dual(1.0, 0.0)
            if n == 2:
                return self * self
            if n < 0:
                return 1.0 / (self ** (-n))
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        return exp(n * log(self))

    def __abs__(self):
        return -self if real(self) < 0.0 else self

    # -- comparisons act on the real part ---------------------------------
    def __lt__(self, other):
        return real(self) < real(other)

    def __le__(self, other):
        return real(self) <= real(other)

    def __gt__(self, other):
        return real(self) > real(other)

    def __ge__(self, other):
        return real(self) >= real(other)

    def __float__(self):
        return float(real(self))

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"


def real(x):
    """Innermost real value of a possibly nested dual."""
    while isinstance(x, Dual):
        x = x.val
    return x


def eps(x):
    """One-level derivative part (0.0 for plain numbers)."""
    return x.eps if isinstance(x, Dual) else 0.0


def seed(x, i):
    """Copy coordinate vector ``x`` with a unit dual perturbation on slot i.

    Every entry is lifted one nesting level (slots other than ``i`` get a
    zero perturbation) so that a fresh seed is never confused with dual
    parts already present in ``x``.
    """
    return [Dual(c, 1.0 if j == i else 0.0) for j, c in enumerate(x)]


# -- elementary functions, dispatching on Dual vs float -------------------

def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.eps)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps)
    return math.cos(x)


def tan(x):
    if isinstance(x, Dual):
        t = tan(x.val)
        return Dual(t, (1.0 + t * t) * x.eps)
    return math.tan(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.eps)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val)
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps / (2.0 * s))
    return math.sqrt(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.val), x.eps / (1.0 + x.val * x.val))
    return math.atan(x)


def asin(x):
    if isinstance(x, Dual):
        return Dual(asin(x.val), x.eps / sqrt(1.0 - x.val * x.val))
    return math.asin(x)


def acos(x):
    if isinstance(x, Dual):
        return Dual(acos(x.val), -x.eps / sqrt(1.0 - x.val * x.val))
    return math.acos(x)


def atanh(x):
    if isinstance(x, Dual):
        return Dual(atanh(x.val), x.eps / (1.0 - x.val * x.val))
    return math.atanh(x)


def tanh(x):
    if isinstance(x, Dual):
        t = tanh(x.val)
        return Dual(t, (1.0 - t * t) * x.eps)
    return math.tanh(x)


def sinh(x):
    if isinstance(x, Dual):
        return Dual(sinh(x.val), cosh(x.val) * x.eps)
    return math.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(cosh(x.val), sinh(x.val) * x.eps)
    return math.cosh(x)


pi = math.pi
