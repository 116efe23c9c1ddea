"""Differential geometry in a single chart: Christoffels, curvature, Ricci."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .calculus import _eps2, _peel, matrix_partial
from .dual import Dual, eps, real, seed

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


def _split(x):
    """The values and the dual parts of a point's coordinates."""
    return ([c.val if isinstance(c, Dual) else c for c in x],
            [c.eps if isinstance(c, Dual) else 0.0 for c in x])


class _FloatMemo:
    """Memoized evaluation of F = ``fn``: by value at a float point, and at
    a dual point a + e1 u + e2 v + e1 e2 w over floats (depth <= 2) as
    F + e1 d_u F + e2 d_v F + e1 e2 (d_u d_v F + d_w F), from one evaluation
    at seed(a, i) per d_i F and one at seed(seed(a, i), j), i <= j, per
    d_i d_j F, memoized at a. Those seeded points get their evaluation as
    it is, and a zero direction component evaluates nothing. Deeper points
    go to ``fn``."""

    _MAX = 4096

    def _eval(self, x):
        if any(isinstance(c, Dual) for c in x):
            return self._dual(x)
        key = tuple(map(float, x))
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) >= self._MAX:
                self._cache.clear()
            hit = self.fn(list(key))
            self._cache[key] = hit
        return hit

    def _seeded(self, a, *ij):
        """fn at a seeded in turn along each index of ij, memoized."""
        key = (tuple(a),) + ij
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) >= self._MAX:
                self._cache.clear()
            hit = self._cache[key] = self.fn(functools.reduce(seed, ij, a))
        return hit

    def _dual(self, x):
        a, v = _split(x)
        u = w = []
        if any(isinstance(c, Dual) for c in a + v):
            (a, u), (v, w) = _split(a), _split(v)
            if any(isinstance(c, Dual) for c in a + u + v + w):
                return self.fn(x)
        seeds = [d.index(1.0) for d in (u, v)
                 if d and sorted(d) == [0.0] * (len(d) - 1) + [1.0]]
        if len(seeds) == 1 + bool(u) and seeds == sorted(seeds) \
                and not any(w):
            return self._seeded(a, *seeds)
        F = np.asarray(self._eval(a))

        def along(c, part):   # sum_k c_k part(k) over the nonzero c_k
            return sum((ck * part(k) for k, ck in enumerate(c) if ck),
                       np.zeros_like(F))

        def d(*kl):           # d_k F, or d_k d_l F
            return np.asarray(_peel(self._seeded(a, *sorted(kl)),
                                    _eps2 if len(kl) > 1 else eps))

        parts = [F, along(v, d)] if not u else [
            F, along(u, d), along(v, d),
            along(w, d) + along(u, lambda k: along(v, lambda l: d(k, l)))]
        entries = [Dual(*p) if not u else Dual(Dual(*p[:2]), Dual(*p[2:]))
                   for p in zip(*(q.ravel().tolist() for q in parts))]
        return np.array(entries, dtype=object).reshape(F.shape).tolist()


@dataclass(frozen=True)
class ConnectionCoeffs(_FloatMemo):
    """Christoffel coefficient field x -> Gamma[k][i][j]."""

    chart: Chart
    fn: callable
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x):
        return self._eval(x)


@dataclass(frozen=True)
class Tensor02Field(_FloatMemo):
    chart: Chart
    fn: callable
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x):
        return self._eval(x)


def christoffel_from_metric(D, x):
    """Christoffels of the Levi-Civita connection of metric field D at x:
    Gamma[k][i][j] = sum_l g^{kl} Gamma_{l,ij}, the first kind from
    ``first_kind``."""
    n = len(x)
    ginv = linalg.inverse(D(x))
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    first = first_kind([matrix_partial(D, x, l) for l in range(n)],
                       [(eye[i], eye[j]) for i, j in pairs])
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), f in zip(pairs, first):
        for k in range(n):
            gamma[k][i][j] = gamma[k][j][i] = sum(
                (ginv[k][l] * v for l, v in f.items()), 0.0)
    return gamma


def first_kind(dD, pairs):
    """First-kind Christoffels of D contracted with each (v, w) in ``pairs``,
    from the metric gradient dD = [d_i D]:

        Gamma_{l,ij} v^i w^j,  Gamma_{l,ij} = 1/2 (d_i D_jl + d_j D_il - d_l D_ij).

    This is D Gamma(v, w) for the Levi-Civita Christoffels Gamma of D, so no
    D^{-1} is needed. Returns one {l: value} per pair, over the components
    that a nonzero entry of dD reaches. dD is scanned once; plain-zero
    entries add no work (a Dual is always truthy), so a plain-zero gradient
    gives empty maps.
    """
    # g = d_i D_jl enters Gamma_{l,ij}, Gamma_{l,ji} and -Gamma_{i,jl}
    terms = [(i, j, l, 0.5 * g) for i, dDi in enumerate(dD)
             for j, row in enumerate(dDi) if any(row)
             for l, g in enumerate(row) if g]
    out = []
    for v, w in pairs:
        f = {}
        for i, j, l, h in terms:
            t = h * (v[i] * w[j] + v[j] * w[i])
            f[l] = f[l] + t if l in f else t
            t = h * v[j] * w[l]
            f[i] = f[i] - t if i in f else -t
        out.append(f)
    return out


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
    """Largest curvature coefficient magnitude over a list of points."""
    worst = 0.0
    for p in grid:
        R = curvature_coeffs(gamma, p)
        for mat3 in R:
            for mat2 in mat3:
                for row in mat2:
                    for v in row:
                        worst = max(worst, abs(real(v)))
    return worst
