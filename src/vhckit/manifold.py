"""Differential geometry in a single chart: Christoffels, curvature, Ricci.

The coefficient fields memoize their values at float points and at the
seeded dual points that the ``calculus`` operators query; the curvature of
a grid is read at all of its points at once, at a stacked point."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import linalg
from .calculus import _peel, at_points, matrix_partial
from .dual import Dual, seed

TWO_PI = 2.0 * math.pi
GRID_MARGIN = 1e-2   # the decision grids stay this far inside the chart


@dataclass(frozen=True)
class Chart:
    """Coordinate chart: per-coordinate topology flags and domain box, and
    the canonical base point, path, grid span and portrait axis."""

    dim: int
    periodic: tuple
    bounds: tuple  # per-coordinate (lo, hi); (0, 2*pi) for periodic coords

    @property
    def base_point(self):
        """0 on a periodic axis, else the midpoint of the bounds."""
        return tuple(0.0 if p else 0.5 * (lo + hi)
                     for p, (lo, hi) in zip(self.periodic, self.bounds))

    @property
    def path_order(self):
        """Axis order of the canonical path from the base point: periodic
        axes first, then the rest, in coordinate order."""
        return sorted(range(self.dim), key=lambda i: not self.periodic[i])

    @property
    def portrait_axis(self):
        """The first periodic axis, else the last."""
        return next((i for i, p in enumerate(self.periodic) if p),
                    self.dim - 1)

    def span(self, margin=1e-3):
        """Per axis, the (lo, hi) the grids span: (0, 2 pi) on a periodic
        axis (2 pi left out), else the bounds less margin * max(1, hi - lo)."""
        out = []
        for p, (lo, hi) in zip(self.periodic, self.bounds):
            pad = margin * max(1.0, hi - lo)
            out.append((0.0, TWO_PI) if p else (lo + pad, hi - pad))
        return out

    def grid_axes(self, n=17, margin=1e-3):
        return [np.linspace(lo, hi, n, endpoint=not p)
                for p, (lo, hi) in zip(self.periodic, self.span(margin))]

    def grid(self, n=17, margin=1e-3):
        """List of grid points (lists) over the domain box."""
        axes = self.grid_axes(n=n, margin=margin)
        return [list(p) for p in itertools.product(*axes)]


def _swap(v):
    """F + e1 A + e2 B + e1 e2 C as F + e1 B + e2 A + e1 e2 C."""
    if not isinstance(v, Dual):
        return v
    (f, a), (b, c) = [(p.val, p.eps) if isinstance(p, Dual) else (p, 0.0)
                      for p in (v.val, v.eps)]
    return Dual(Dual(f, b), Dual(a, c))


@dataclass(frozen=True)
class _FloatMemo:
    """A field F = ``fn`` on ``chart``, memoized at the points that the
    ``calculus`` operators query: a float point, by value; seed(a, i); and
    seed(seed(a, i), j), evaluated once per unordered pair i <= j, the
    order i > j read off the (j, i) evaluation with e1 and e2 exchanged.
    Every other point goes to ``fn`` as it is. ``read`` takes stacked
    points too (``calculus.at_points``), by the same rule and uncached, as
    their arrays key no entry, so each entry is the value its point reads
    alone."""

    chart: Chart
    fn: callable
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    _MAX = 4096

    def __call__(self, x):
        return self.read(x)

    def read(self, x):
        """F at x; the stacked stages read here, past
        ``ConnectionCoeffs.__call__``, which keys single points."""
        a, ij = x, ()
        while any(isinstance(c, Dual) for c in a):
            d = [c.eps if isinstance(c, Dual) else None for c in a]
            if len(ij) == 2 or d.count(0.0) != len(d) - 1 or 1.0 not in d:
                return self.fn(x)
            ij, a = (d.index(1.0),) + ij, [c.val for c in a]
        pair = tuple(sorted(ij))
        if type(a[0]) is np.ndarray:
            hit = self.fn(reduce(seed, pair, a))
        else:
            key = (tuple(a),) + pair if ij else tuple(map(float, x))
            hit = self._cache.get(key)
            if hit is None:
                if len(self._cache) >= self._MAX:
                    self._cache.clear()
                hit = self._cache[key] = self.fn(
                    reduce(seed, pair, a) if ij else list(key))
        return hit if pair == ij else _peel(hit, _swap)


class ConnectionCoeffs(_FloatMemo):
    """Christoffel coefficient field x -> Gamma[k][i][j]."""

    def __call__(self, x):     # its own: perfbench/tracer.py wraps it here
        return self.read(x)


class Tensor02Field(_FloatMemo):
    """A (0,2)-tensor field x -> T[i][j]."""


def christoffel_from_metric(D, x):
    """Christoffels of the Levi-Civita connection of metric field D at x:
    Gamma[k][i][j] = 1/2 g^{kl} (d_i D_jl + d_j D_il - d_l D_ij)."""
    n = len(x)
    ginv = linalg.inverse(D(x))
    dD = [matrix_partial(D, x, l) for l in range(n)]
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        first = [0.5 * (dD[i][j][l] + dD[j][i][l] - dD[l][i][j])
                 for l in range(n)]
        for k in range(n):
            gamma[k][i][j] = gamma[k][j][i] = sum(
                (g * f for g, f in zip(ginv[k], first)), 0.0)
    return gamma


def curvature_coeffs(gamma, x):
    """Curvature endomorphism coefficients R[l][i][j][k].

    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                + sum_m (Gamma^m_{jk} Gamma^l_{im} - Gamma^m_{ik} Gamma^l_{jm})
    """
    n = len(x)
    G = gamma(x)
    dG = [matrix_partial(gamma, x, i) for i in range(n)]
    R = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    s = dG[i][l][j][k] - dG[j][l][i][k]
                    for m in range(n):
                        s = s + G[m][j][k] * G[l][i][m] - G[m][i][k] * G[l][j][m]
                    R[l][i][j][k] = s
                    R[l][j][i][k] = -s
    return R


def ricci(gamma, x):
    """Ricci tensor Ric[i][j] = sum_k R^k_{kij}."""
    n = len(x)
    R = curvature_coeffs(gamma, x)
    return [[sum(R[k][k][i][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def total_cov_derivative_02(gamma, F, x):
    """Total covariant derivative of a (0,2) tensor: out[i][j][k].

    (nabla F)_{ijk} = d_i F_jk - Gamma^m_{ij} F_mk - Gamma^m_{ik} F_jm.
    """
    n = len(x)
    G = gamma(x)
    Fv = F(x)
    dF = [matrix_partial(F, x, i) for i in range(n)]
    out = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = dF[i][j][k]
                for m in range(n):
                    s = s - G[m][i][j] * Fv[m][k] - G[m][i][k] * Fv[j][m]
                out[i][j][k] = s
    return out


def max_curvature_on_grid(gamma, grid):
    """Largest curvature coefficient magnitude over a list of points, read
    at them at once (``at_points``)."""
    R = at_points(lambda x: [v for mat3 in curvature_coeffs(gamma.read, x)
                             for mat2 in mat3 for row in mat2 for v in row],
                  grid)
    return max([0.0, *np.abs(R).ravel().tolist()])
