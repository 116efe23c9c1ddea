"""Differential geometry in a single chart: Christoffels, curvature, Ricci."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .calculus import matrix_partial
from .dual import Dual, real

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Chart:
    """Coordinate chart: per-coordinate topology flags and domain box."""

    dim: int
    periodic: tuple
    bounds: tuple  # per-coordinate (lo, hi); (0, 2*pi) for periodic coords

    def wrap(self, x):
        """Reduce periodic coordinates mod 2*pi."""
        out = list(x)
        for i, per in enumerate(self.periodic):
            if per:
                out[i] = out[i] % TWO_PI
        return out

    def grid_axes(self, n=17, margin=1e-3):
        axes = []
        for i in range(self.dim):
            lo, hi = self.bounds[i]
            if self.periodic[i]:
                axes.append(np.linspace(0.0, TWO_PI, n, endpoint=False))
            else:
                span = hi - lo
                axes.append(np.linspace(lo + margin * max(1.0, span),
                                        hi - margin * max(1.0, span), n))
        return axes

    def grid(self, n=17, margin=1e-3):
        """List of grid points (lists) over the domain box."""
        axes = self.grid_axes(n=n, margin=margin)
        return [list(p) for p in itertools.product(*axes)]


class _FloatMemo:
    """Memoize evaluations at pure-float points (dual points pass through)."""

    _MAX = 4096

    def _eval(self, x):
        if any(isinstance(c, Dual) for c in x):
            return self.fn(x)
        key = tuple(map(float, x))
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) >= self._MAX:
                self._cache.clear()
            hit = self.fn(list(key))
            self._cache[key] = hit
        return hit


@dataclass(frozen=True)
class ConnectionCoeffs(_FloatMemo):
    """Christoffel coefficient field x -> Gamma[k][i][j]."""

    chart: Chart
    fn: callable
    symmetric: bool = True
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x):
        return self._eval(x)


@dataclass(frozen=True)
class Tensor02Field(_FloatMemo):
    chart: Chart
    fn: callable
    symmetric: bool = True
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x):
        return self._eval(x)


def christoffel_from_metric(D, x):
    """Christoffels of the Levi-Civita connection of metric field D at x.

    Gamma[k][i][j] = 1/2 sum_l g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
    """
    n = len(x)
    g = D(x)
    ginv = linalg.inverse(g)
    dg = [matrix_partial(D, x, l) for l in range(n)]
    return _christoffel_kernel(g, ginv, dg, n)


def christoffel_from_metric_grad(D, dD, x):
    """Same as christoffel_from_metric with an explicit metric gradient.

    dD(x) must return the list [d_l g] of partial-derivative matrices.
    """
    n = len(x)
    g = D(x)
    return _christoffel_kernel(g, linalg.inverse(g), dD(x), n)


def _christoffel_kernel(g, ginv, dg, n):
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                s = 0.0
                for l in range(n):
                    s = s + ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                s = 0.5 * s
                gamma[k][i][j] = s
                gamma[k][j][i] = s
    return gamma


def zero_connection(chart):
    n = chart.dim
    zeros = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    return ConnectionCoeffs(chart, lambda x: zeros)


def connection_from_metric(chart, D):
    return ConnectionCoeffs(chart, lambda x: christoffel_from_metric(D, x))


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
