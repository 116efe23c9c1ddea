"""Forward-mode dual numbers, nestable for higher-order derivatives.

A ``Dual`` carries a value and a single directional derivative. Nesting duals
(``Dual(Dual(x, 1.0), 1.0)``) yields second and higher derivatives. All math
helpers below accept plain floats as well, so model code written against this
module evaluates transparently at any derivative order.

A value may also be a stack: a numpy array of floats, one entry per point
(``calculus.stacked``), alone or as the parts of a Dual. Arithmetic then
runs once for all the points, and each entry is bit for bit the float that
point gives alone: ``+ - * /`` round alike in numpy, while the elementary
functions, ``**`` (``power``) and the sign of ``abs`` are applied entry by
entry with ``math``'s own functions, since numpy's differ from them in the
last bit.
"""

from __future__ import annotations

import math
import operator

import numpy as np


class Dual:
    __slots__ = ("val", "eps")
    __array_ufunc__ = None      # ndarray op Dual is Dual's reflected op

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
            if n < 0:
                return 1.0 / self._power(-n)
            out = self._power(n)
            # a finite float whose power overflows raises, and so does its dual
            try:
                over = math.isinf(real(out)) and math.isfinite(real(self))
            except TypeError:
                over = np.any(np.isinf(real(out)) & np.isfinite(real(self)))
            if over:
                raise OverflowError("dual power exceeds the float range")
            return out
        if isinstance(n, Dual):
            return exp(n * log(self))
        # a constant exponent: c u^(c-1) du, the rule expr compiles; at the
        # innermost level math.pow raises ValueError for a negative base
        # and a non-integral c
        return Dual(_fpow(self.val, n), n * _fpow(self.val, n - 1) * self.eps)

    def _power(self, n):
        # square-and-multiply for n > 0: log2(n) products, and the same
        # products as repeated multiplication for n <= 3
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else base * out
            n >>= 1
            if not n:
                return out
            base = base * base

    def __rpow__(self, base):
        # base ** x for a plain base: exp(x log base), as in __pow__
        return exp(self * log(base))

    def __abs__(self):
        neg = real(self) < 0.0
        try:
            return -self if neg else self
        except ValueError:      # a stack: the sign of each entry
            return where(neg, -self, self)

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


def _fpow(x, c):
    if isinstance(x, Dual):
        return x ** c
    try:
        return math.pow(x, c)
    except TypeError:
        return _each(math.pow, x, c)


def _each(f, *args):
    """f entry by entry of the stacks among ``args``, as a float array; it
    runs while f's TypeError on them is handled, and re-raises it where no
    argument is a stack."""
    if not any(type(a) is np.ndarray for a in args):
        raise
    args = np.broadcast_arrays(*args)
    return np.fromiter(map(f, *(a.ravel().tolist() for a in args)), float,
                       args[0].size).reshape(args[0].shape)


def power(x, y):
    """x ** y, with Python's float power entry by entry where a stack meets
    a number (numpy's power differs from it in the last bit)."""
    if isinstance(x, Dual) or isinstance(y, Dual) or not (
            type(x) is np.ndarray or type(y) is np.ndarray):
        return x ** y
    return _each(operator.pow, x, y)


def where(mask, x, y):
    """x at the points of a stack where ``mask`` holds and y elsewhere; x
    and y nest Duals alike (TypeError otherwise), and where the mask is
    the same at every point, that one of them is returned as it is."""
    if mask is True or mask is False:
        return x if mask else y
    mask = np.asarray(mask)
    if mask.all():
        return x
    if not mask.any():
        return y
    if isinstance(x, Dual) or isinstance(y, Dual):
        if not (isinstance(x, Dual) and isinstance(y, Dual)):
            raise TypeError("a value is a Dual at some points of a stack only")
        return Dual(where(mask, x.val, y.val), where(mask, x.eps, y.eps))
    return np.where(mask, x, y)


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
    try:
        return math.sin(x)
    except TypeError:
        return _each(math.sin, x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps)
    try:
        return math.cos(x)
    except TypeError:
        return _each(math.cos, x)


def tan(x):
    if isinstance(x, Dual):
        t = tan(x.val)
        return Dual(t, (1.0 + t * t) * x.eps)
    try:
        return math.tan(x)
    except TypeError:
        return _each(math.tan, x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.eps)
    try:
        return math.exp(x)
    except TypeError:
        return _each(math.exp, x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val)
    try:
        return math.log(x)
    except TypeError:
        return _each(math.log, x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps / (2.0 * s))
    try:
        return math.sqrt(x)
    except TypeError:
        return _each(math.sqrt, x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.val), x.eps / (1.0 + x.val * x.val))
    try:
        return math.atan(x)
    except TypeError:
        return _each(math.atan, x)


def asin(x):
    if isinstance(x, Dual):
        return Dual(asin(x.val), x.eps / sqrt(1.0 - x.val * x.val))
    try:
        return math.asin(x)
    except TypeError:
        return _each(math.asin, x)


def acos(x):
    if isinstance(x, Dual):
        return Dual(acos(x.val), -x.eps / sqrt(1.0 - x.val * x.val))
    try:
        return math.acos(x)
    except TypeError:
        return _each(math.acos, x)


def atanh(x):
    if isinstance(x, Dual):
        return Dual(atanh(x.val), x.eps / (1.0 - x.val * x.val))
    try:
        return math.atanh(x)
    except TypeError:
        return _each(math.atanh, x)


def tanh(x):
    if isinstance(x, Dual):
        t = tanh(x.val)
        return Dual(t, (1.0 - t * t) * x.eps)
    try:
        return math.tanh(x)
    except TypeError:
        return _each(math.tanh, x)


def sinh(x):
    if isinstance(x, Dual):
        return Dual(sinh(x.val), cosh(x.val) * x.eps)
    try:
        return math.sinh(x)
    except TypeError:
        return _each(math.sinh, x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(cosh(x.val), sinh(x.val) * x.eps)
    try:
        return math.cosh(x)
    except TypeError:
        return _each(math.cosh, x)


pi = math.pi
