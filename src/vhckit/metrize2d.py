"""Metrizability of two-dimensional connections: Ricci recurrence for curved
ones, and parallel metrics from transport for flat ones. The recurrence,
exactness and closedness stages read their fields at all of their points
in one call (``calculus.at_points``). A stage of the flat solver reads
each leg of the transport once, at all of its points, and builds its
closedness and period rows on the stacked arrays. The
closedness stage is a discrete Chebyshev fit, solved exactly by Stiefel's
exchange method: the simplex method on the dual linear program, after
Barrodale & Phillips (ACM TOMS 1 (1975) 264-270)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import dual as dm
from .calculus import (_rows, antiderivative, at_points, from_slope, per_node,
                       quad, vector_partials)
from .dual import real
from .holonomy import (WindowAntiderivative, axis_transports,
                       cylinder_integrals)
from .manifold import (GRID_MARGIN, Tensor02Field, christoffel_from_metric,
                       ricci, total_cov_derivative_02)

TWO_PI = 2.0 * math.pi
METRIC_CHECK_TOL = 1e-6   # on |nabla g| and |Gamma(g) - Gamma|


# ---------------------------------------------------------------------------
# Ricci recurrence


@dataclass
class RecurrenceData:
    """Ricci recurrence nabla Ric = omega (x) Ric, tested on a grid."""

    ric: object              # Tensor02Field
    residual: float          # max |nabla Ric - omega (x) Ric|, det Ric != 0
    definite: int            # +1, -1: definite, one sign on the grid; else 0
    recurrent: bool
    min_ric_norm: float = 0.0
    indefinite: bool = False  # det Ric < 0 somewhere, which no metric has


def ricci_field(gamma):
    return Tensor02Field(gamma.chart, lambda x: ricci(gamma.read, x))


def _omega(R, dR):
    """The recurrence one-form omega from Ric and nabla Ric at a point.

    omega_i = sum_jk (nabla Ric)_ijk Ric_jk / |Ric|^2 is the exact solution of
    nabla Ric = omega (x) Ric whenever the recurrence holds and the
    least-squares projection otherwise; it is None where Ric vanishes.
    """
    n = len(R)
    norm2 = sum(R[j][k] * R[j][k] for j in range(n) for k in range(n))
    if norm2 == 0.0:
        return None
    return [sum(dR[i][j][k] * R[j][k] for j in range(n)
                for k in range(n)) / norm2 for i in range(n)]


def recurrence_solve(gamma, grid=None, tol=1e-7):
    """Test nabla Ric = omega (x) Ric on a grid and read the sign of Ric there.

    In 2-D every metric has Ric = K g, so an indefinite Ric rules a metric
    out, while a Ric that vanishes or changes sign is a case the recurrence
    test does not decide (``definite`` is 0 and ``indefinite`` False). The
    residual is taken where Ric is nondegenerate. Ric and nabla Ric are
    read at all the grid points at once (``at_points``).
    """
    if grid is None:
        grid = gamma.chart.grid()
    ric = ricci_field(gamma)
    Rs, dRs = at_points(lambda x: (ric.read(x), total_cov_derivative_02(
        gamma.read, ric.read, x)), grid)
    worst, min_norm, indefinite, signs = 0.0, math.inf, False, set()
    for R, dR in zip(Rs, dRs):
        min_norm = min(min_norm, float(np.linalg.norm(R)))
        ev = np.linalg.eigvalsh(0.5 * (R + R.T))
        if ev[0] > 1e-12:
            signs.add(1)
        elif ev[-1] < -1e-12:
            signs.add(-1)
        elif ev[0] < -1e-12 and ev[-1] > 1e-12:
            indefinite = True
        else:
            signs.add(0)        # Ric is degenerate here
            continue
        w = _omega(R, dR)
        for i, j, k in itertools.product(range(len(R)), repeat=3):
            worst = max(worst, abs(float(dR[i][j][k]) - w[i] * R[j][k]))
    definite = signs.pop() if len(signs) == 1 and 0 not in signs else 0
    return RecurrenceData(ric=ric, residual=worst, definite=definite,
                          recurrent=worst < tol, min_ric_norm=min_norm,
                          indefinite=indefinite)


# ---------------------------------------------------------------------------
# Exactness of the recurrence one-form and line-integral potentials
#
# Tracing nabla Ric = omega (x) Ric with Ric^{-1} gives, in 2-D,
#     omega_i = 1/2 d_i log det Ric - trGamma_i,   trGamma_i = Gamma^m_{im},
# so omega needs no derivative of Ric, and for a torsion-free Gamma its curl
# d_0 omega_1 - d_1 omega_0 is Ric_01 - Ric_10: the log-det term is exact.


def exactness_check(rec, grid, tol=1e-6):
    """(exact, curl_max): the recurrence one-form is closed on the grid iff
    the Ricci tensor is symmetric there, with curl_max = max |Ric_01 - Ric_10|.
    A curved chart is simply connected here, so closed means exact."""
    R = at_points(rec.ric.read, grid)
    curl_max = max([0.0, *np.abs(R[:, 0, 1] - R[:, 1, 0]).tolist()])
    return curl_max < tol, curl_max


class LineIntegralField:
    """Potential f(x) = int_ref^x omega along axis-aligned legs in the
    chart's ``path_order``, with slope omega(x) . b along b (``from_slope``).
    Dense antiderivatives are cached per leg, and the cache is cleared when
    it reaches ``_MAX_LEGS``: each distinct non-periodic coordinate value
    adds a leg of node values (a few KB)."""

    _MAX_LEGS = 64

    def __init__(self, omega, chart, ref):
        self.omega = omega
        self.chart = chart
        self.ref = [float(c) for c in ref]
        self._legs = {}
        self._field = from_slope(self._value, lambda a, b: sum(
            wi * bi for wi, bi in zip(omega(a), b)))

    def __call__(self, x):
        return self._field(x)

    def _value(self, x):
        x = [float(c) for c in x]
        total = 0.0
        cur = list(self.ref)
        for leg_pos, i in enumerate(self.chart.path_order):
            if x[i] != cur[i]:
                total += self._leg(leg_pos, i, cur)(x[i])
                cur[i] = x[i]
        return total

    def _leg(self, leg_pos, i, cur):
        key = (leg_pos, i,
               tuple(round(c, 12) for j, c in enumerate(cur) if j != i))
        leg = self._legs.get(key)
        if leg is None:
            if len(self._legs) >= self._MAX_LEGS:
                self._legs.clear()
            fixed = list(cur)

            def comp(t):
                p = list(fixed)
                p[i] = t
                return float(real(self.omega(p)[i]))

            if self.chart.periodic[i]:
                bounds = (-math.inf, math.inf)
            else:
                bounds = self.chart.bounds[i]
            leg = WindowAntiderivative(per_node(comp), x0=cur[i],
                                       initial_window=(cur[i], cur[i]),
                                       bounds=bounds)
            self._legs[key] = leg
        return leg


# ---------------------------------------------------------------------------
# Metric reconstruction from a recurrent definite Ricci tensor


@dataclass
class MetricReport:
    ok: bool
    g: object = None                 # Tensor02Field
    max_nabla_g: float = 0.0
    max_gamma_dev: float = 0.0
    message: str = ""

    def __bool__(self):
        return self.ok


def metric_from_ricci(gamma, rec, ref, b=0.0, check_grid=None):
    """Candidate metric g = sign * exp(-f + b) * Ric with df = omega and
    f(ref) = 0, that is f = 1/2 log(det Ric / det Ric(ref)) - int_ref^x
    trGamma; verified, to METRIC_CHECK_TOL, by parallelism of g and
    agreement of its Levi-Civita connection with gamma."""
    if not rec.recurrent or rec.definite == 0:
        return MetricReport(False, message="Ricci not definite and recurrent")
    sign = rec.definite

    def trace(x):
        G = gamma(x)
        return [G[0][i][0] + G[1][i][1] for i in range(2)]

    def log_det(x, R):
        det = R[0][0] * R[1][1] - R[0][1] * R[1][0]
        if real(det) <= 0.0:
            raise ValueError("Ricci tensor vanishes or degenerates at "
                             f"{[float(real(c)) for c in x]}; the "
                             "recurrence one-form is undefined there")
        return dm.log(det)

    t = LineIntegralField(trace, gamma.chart, ref)
    log_det_ref = log_det(ref, rec.ric(ref))

    def g_fn(x):
        R = rec.ric(x)
        f = 0.5 * (log_det(x, R) - log_det_ref) - t(x)
        scale = sign * dm.exp(-f + b)
        return [[scale * v for v in row] for row in R]

    g = Tensor02Field(gamma.chart, g_fn)
    if check_grid is None:
        check_grid = gamma.chart.grid(n=5)
    max_ng = max_dev = 0.0
    for p in check_grid:
        ng = np.asarray(total_cov_derivative_02(gamma, g, p), dtype=float)
        dev = (np.asarray(christoffel_from_metric(g, p), dtype=float)
               - np.asarray(gamma(p), dtype=float))
        max_ng = max(max_ng, float(np.max(np.abs(ng))))
        max_dev = max(max_dev, float(np.max(np.abs(dev))))
    ok = max_ng < METRIC_CHECK_TOL and max_dev < METRIC_CHECK_TOL
    return MetricReport(ok, g=g, max_nabla_g=max_ng, max_gamma_dev=max_dev,
                        message="" if ok else "verification residual too large")


# ---------------------------------------------------------------------------
# Parallel metrics of flat connections
#
# For a flat torsion-free connection every parallel metric is
# g = P^{-T} S P^{-1}, with S a constant form at a base point and P the
# transport from it (Eisenhart & Veblen, PNAS 8, 1922). With S = [[1, a],
# [a, b]], each decision below is linear in (1, a, b).

_BASIS = np.array([[[1.0, 0.0], [0.0, 0.0]],       # s00, a, b
                   [[0.0, 1.0], [1.0, 0.0]],
                   [[0.0, 0.0], [0.0, 1.0]]])


def _pair(W, i, v):
    """(W e_i)^T E (W v) for each basis form E of (1, a, b): row i of
    W^T E W applied to v, over any leading axes of W and v."""
    u, w = W[..., i], np.einsum("...ij,...j->...i", W, v)
    return np.stack([u[..., 0] * w[..., 0],
                     u[..., 0] * w[..., 1] + u[..., 1] * w[..., 0],
                     u[..., 1] * w[..., 1]], axis=-1)


def _inv2(Y):
    """Inverses of the 2x2 matrices on the last two axes of Y."""
    a, b, c, d = Y[..., 0, 0], Y[..., 0, 1], Y[..., 1, 0], Y[..., 1, 1]
    adj = np.stack([d, -b, -c, a], axis=-1).reshape(Y.shape)
    return adj / (a * d - b * c)[..., None, None]


def _mu_axis(Y, lam, axis):
    """(W e_axis)^T E (W lambda) for each basis form E, W = Y^{-1}: the
    coefficients of (1, a, b) in mu_axis = (W^T S W lambda)_axis on a leg
    from the base point whose transport is Y."""
    return _pair(_inv2(Y), axis, lam)


def _lam(conn, p):
    """lambda at a float point, as a float array, or at a stacked point, as
    an (N, 2) array."""
    v = conn.lam(p)
    if type(p[0]) is np.ndarray:
        return _rows(v, len(p[0]))
    return np.array([float(real(c)) for c in v])


def _on_line(point, axis, t):
    """``point`` with coordinate ``axis`` at t: at an array t, a stacked
    point whose other coordinates are constant arrays."""
    if type(t) is np.ndarray:
        return [t if i == axis else np.full(len(t), float(c))
                for i, c in enumerate(point)]
    return [t if i == axis else c for i, c in enumerate(point)]


class ParallelFrame:
    """Transport P of a flat connection on a 2-D chart with at most one
    periodic coordinate, from the chart's ``base_point`` along its canonical
    path (``path_order``), read at x mod 2 pi on a periodic axis:
    single-valued for every form the holonomy preserves. The base point,
    path order and leg span are the chart's, read once.

    Each piece of the path is a dense leg from base[axis] through one point
    (``leg``): the transport Y, by ``cylinder_integrals`` once around a
    periodic first axis (the generator, ``generator``), else by
    ``holonomy.axis_transports``. ``inverses`` solves the legs that a
    stage is missing together, so that each level of their nodes is one
    stacked read of Gamma_C, and reads each leg once for all the points on
    it (``Dense.at``). The first time D_C or P_C reads a leg, it adds the
    antiderivative F of (Y^{-T} E Y^{-1} lambda)_axis for the basis forms
    E (``_mu_axis``), whose sample reads the leg and lambda at each level's
    nodes at once: the potential of mu = g lambda along the leg is
    tr(G K), K = [[F0, F1/2], [F1/2, F2]], for the metric G at its start."""

    def __init__(self, conn):
        chart = conn.chart
        self.conn, self.periodic, self.cache = conn, chart.periodic, {}
        self.base, self.order = chart.base_point, chart.path_order
        self.span = chart.span(GRID_MARGIN)
        i0 = self.order[0]
        self.holonomy = self.generator = None
        if self.periodic[i0]:
            self.generator = self._leg(i0, self.base, TWO_PI)[0]
            self.holonomy = self.generator(TWO_PI)

    def reduce(self, x):
        x = [float(c) for c in x]
        if self.holonomy is not None:
            x[self.order[0]] %= TWO_PI
        return x

    def inverses(self, points):
        """P(x)^{-1} at each float point, as an (N, 2, 2) array."""
        xs = [self.reduce(p) for p in points]
        x, (i0, i1) = np.array(xs), self.order
        return _inv2(self._read(i0, [self.base] * len(xs), x[:, i0])) @ \
            _inv2(self._read(i1, xs, x[:, i1]))

    def _read(self, axis, points, s):
        """Y(s[n]) on the leg along ``axis`` through points[n], an (N, 2, 2)
        array: the points are grouped by leg, the legs missing from the
        cache solved together (``_legs``), and each leg read once."""
        Y, legs = np.tile(np.eye(2), (len(s), 1, 1)), {}
        for n, (p, t) in enumerate(zip(points, s.tolist())):
            if t != self.base[axis]:
                legs.setdefault(self._key(axis, p, t), (p, []))[1].append(n)
        got = self._legs(axis, [(key, p) for key, (p, _) in legs.items()])
        for leg, (_, ns) in zip(got, legs.values()):
            Y[ns] = leg[0].at(s[ns])
        return Y

    def _key(self, axis, point, s):
        """The cache key (axis, end, line) of the leg along ``axis`` through
        ``point`` that holds s, for s not base[axis]. A periodic axis is
        solved once around, any other to the span's edge on the side of s,
        or to s beyond it; so a leg depends on s and the line alone."""
        lo, hi = self.span[axis]
        b = self.base[axis]
        end = TWO_PI if self.periodic[axis] else \
            hi if b < s <= hi else lo if lo <= s < b else s
        return axis, end, round(point[1 - axis], 12)

    def _legs(self, axis, wanted):
        """[Y, F or None, end] of the leg of each (key, point) in
        ``wanted``: from the cache, or, for those missing, solved from
        base[axis] together (``holonomy.axis_transports``). Beyond 64 legs,
        those off the first axis are dropped."""
        out = [self.cache.get(key) for key, _ in wanted]
        new = [n for n, leg in enumerate(out) if leg is None]
        if new:
            gamma, b = self.conn.gammaC, self.base[axis]
            Ys = [cylinder_integrals(gamma, wanted[n][1], axis) for n in new] \
                if self.periodic[axis] else axis_transports(gamma, axis, [
                    (wanted[n][1], b, wanted[n][0][1]) for n in new])
            for n, Y in zip(new, Ys):
                if len(self.cache) > 64:
                    self.cache = {k: v for k, v in self.cache.items()
                                  if k[0] == self.order[0]}
                key = wanted[n][0]
                out[n] = self.cache[key] = [Y, None, key[1]]
        return out

    def _leg(self, axis, point, s):
        """[Y, F or None, end] of the leg along ``axis`` through ``point``
        that holds s (``_key``)."""
        (leg,) = self._legs(axis, [(self._key(axis, point, s), point)])
        return leg

    def leg(self, axis, point, s, integrals=False):
        """Y(s), or with ``integrals`` F(s), on the leg along ``axis``
        through ``point`` from base[axis]."""
        if s == self.base[axis]:
            return np.zeros(3) if integrals else np.eye(2)
        leg = self._leg(axis, point, s)
        if not integrals:
            return leg[0](s)
        if leg[1] is None:
            def carry(t):
                return _mu_axis(leg[0](t), _lam(
                    self.conn, _on_line(point, axis, t)), axis)

            leg[1] = antiderivative(carry, self.base[axis], leg[2])
        return leg[1](s)

    def fields(self, S):
        """(D_C, P_C) for the base form S: g = P^{-T} S P^{-1}, and the
        potential of mu = g lambda from the base point, with the slopes
        (``from_slope``) of nabla g = 0, d_i g_jk = Gamma^m_ij g_mk +
        Gamma^m_ik g_jm, and of d P_C = mu."""
        S = np.asarray(S, dtype=float)
        (i0, i1), base, last = self.order, self.base, {}

        def K(F):
            return np.array([[F[0], F[1] / 2], [F[1] / 2, F[2]]])

        def evaluate(x):
            # the last point is kept: D_C and P_C are read together
            key = tuple(float(c) for c in x)
            if last.get("x") != key:
                r = self.reduce(key)
                K0 = K(self.leg(i0, base, r[i0], True))
                if self.holonomy is not None and key[i0] // TWO_PI:
                    K0 = K0 + key[i0] // TWO_PI * K(
                        self.leg(i0, base, TWO_PI, True))
                W0 = _inv2(self.leg(i0, base, r[i0]))
                G, W = W0.T @ S @ W0, _inv2(self.leg(i1, r, r[i1]))
                last.update(x=key, g=(W.T @ G @ W).tolist(), P=float(
                    np.sum(S * K0) + np.sum(G * K(self.leg(i1, r, r[i1],
                                                            True)))))
            return last

        def dD_C(a, b):
            G, Gam = D_C(a), self.conn.gammaC(a)
            return [[sum(
                b[i] * (Gam[m][i][j] * G[m][k] + Gam[m][i][k] * G[j][m])
                for i in range(2) for m in range(2))
                for k in range(2)] for j in range(2)]

        def dP_C(a, b):
            G, lam = D_C(a), self.conn.lam(a)
            return sum(b[i] * G[i][j] * lam[j]
                       for i in range(2) for j in range(2))

        D_C = from_slope(lambda x: evaluate(x)["g"], dD_C)
        return D_C, from_slope(lambda x: evaluate(x)["P"], dP_C)


def _fields(conn, points):
    """Gamma_C, lambda and [d_i lambda] at the points, as (N, 2, 2, 2),
    (N, 2) and (N, 2, 2) arrays, read at them at once (``at_points``);
    both partials of lambda are one read (``vector_partials``)."""
    return at_points(lambda x: (conn.gammaC.read(x), conn.lam(x),
                                vector_partials(conn.lam, x)), points)


def _form_rows(conn, frame, points, axis):
    """Coefficients of (1, a, b) at each point in the closedness residual
    (g nabla_1 lambda)_0 - (g nabla_0 lambda)_1 of mu = g lambda, which is
    d_1 mu_0 - d_0 mu_1 since nabla g = 0, and in mu_axis. The fields are
    read once for all the points (``_fields``), and the rows are built on
    the stacked arrays, with g = W^T S W at W = P^{-1}
    (``ParallelFrame.inverses``)."""
    G, lam, dlam = _fields(conn, points)
    # nab[n, i] = nabla_i lambda = d_i lambda + Gamma(., e_i) lambda
    nab = dlam + np.einsum("nkij,nj->nik", G, lam)
    W = frame.inverses(points)
    return (_pair(W, 0, nab[:, 1]) - _pair(W, 1, nab[:, 0]),
            _pair(W, axis, lam))


@dataclass
class LagrangianReport:
    lagrangian: bool
    metrizable: bool = False
    supported: bool = True
    a: float = 0.0
    b: float = 0.0
    closedness_residual: float = math.inf
    D_C: object = None           # callable theta -> 2x2 metric
    P_C: object = None           # callable theta -> potential
    diagnostics: dict = dc_field(default_factory=dict)
    message: str = ""


def _minimax_linear(p, q):
    """min over y of max_i |p_i + (q y)_i|, with one column of q per unknown
    (or a vector for one unknown): (y, the minimum).

    The linear program min t subject to -t <= p + q y <= t has the dual
    max p.(u - v) subject to q^T (u - v) = 0, sum(u + v) = 1 and u, v >= 0,
    with k + 1 rows and 2N columns for k unknowns and N rows of q. The
    revised simplex method solves the dual exactly, and Bland's rule (the
    first improving column enters; the first basic column leaves among tied
    ratios) keeps it finite. y is minus the multipliers of the q rows. This
    is Stiefel's exchange method for the discrete Chebyshev fit (Numer.
    Math. 1 (1959) 1-28), in the linear-programming form of Barrodale &
    Phillips (ACM TOMS 1 (1975) 264-270, Algorithm 495). The unknown of a
    column that depends on the others stays 0; with no unknowns left, the
    minimum is max |p| and no program is solved."""
    p = np.asarray(p, dtype=float)
    Q = np.asarray(q, dtype=float).reshape(len(p), -1)
    y = np.zeros(Q.shape[1])
    # a nonsingular block Q[rows, cols], by complete pivoting. The first
    # basis is u and v on rows[0] and u on the other rows, at u = v = 1/2 on
    # rows[0]: feasible, and nonsingular since the block is
    R, rows, cols = Q.copy(), [], []
    for _ in range(Q.shape[1]):
        i, j = np.unravel_index(np.argmax(np.abs(R)), R.shape)
        if abs(R[i, j]) <= 1e-12 * np.max(np.abs(Q)):
            break
        rows.append(i)
        cols.append(j)
        R -= np.outer(R[:, j] / R[i, j], R[i])
    if cols:
        n, k = len(p), len(cols)
        A = np.vstack([np.hstack([Q[:, cols].T, -Q[:, cols].T]), np.ones(2 * n)])
        c, scale = np.r_[p, -p], np.max(np.abs(A), axis=1)
        basis = [rows[0], rows[0] + n] + rows[1:]
        while True:
            inv = np.linalg.inv(A[:, basis])
            pi = c[basis] @ inv
            d = c - pi @ A
            d[basis] = 0.0
            # improving columns: reduced costs above the rounding of d
            enter = np.flatnonzero(
                d > 1e-14 * (np.max(np.abs(p)) + np.abs(pi) @ scale))
            if not enter.size:
                break
            # the basic solution z = inv e_k, at 0 where it rounds below so
            # that degenerate rows tie, and the entering column's direction w
            z, w = np.maximum(inv[:, k], 0.0), inv @ A[:, enter[0]]
            rs = np.flatnonzero(w > 1e-12 * np.max(np.abs(w)))
            ratio = z[rs] / w[rs]
            basis[min(rs[ratio == ratio.min()], key=basis.__getitem__)] = \
                enter[0]
        y[cols] = -pi[:k]
    return (float(y[0]) if np.ndim(q) == 1 else y), float(np.max(np.abs(p + Q @ y)))


_NOT_ON_GRID = "force one-form is not closed on the grid"
_DEFAULT = ", at a default frame value that no stage pins"


def cylinder_lagrangian_search(conn, grid, tol=1e-8):
    """Lagrangian structure (D_C, P_C) of a flat connection on a 2-D chart
    with at most one periodic coordinate (the name predates the simply
    connected case). The parallel metrics are P^{-T} S P^{-1} with
    S = [[1, a], [a, b]] at the base point, and three linear stages pin S:

    1. holonomy: H^T S H = S around the periodic generator, by least
       squares against the 1e-7 loop threshold;
    2. closedness of mu = g lambda: minimax over 256 samples of the
       generator through the base point, then over ``grid`` for the
       parameters those leave free (only ``grid`` when no coordinate is
       periodic); not supported when it moves a and b only along a line;
    3. period: the loop integral A + b B of mu along the generator.

    A parameter that no stage pins takes a = 0, b = a^2 + 1, and ``grid``
    is checked again; a failure that may turn on such a value is not
    supported.
    """
    frame = ParallelFrame(conn)
    i0, periodic = frame.order[0], frame.holonomy is not None
    x, free = np.array([1.0, 0.0, 0.0]), [False, True, True]
    report = LagrangianReport(False)

    def moving(rows, floor):
        # the free parameters that move ``rows`` by more than floor
        return [k for k in (1, 2) if free[k]
                and np.max(np.abs(rows[:, k])) > floor]

    def pin(ks, values):
        x[ks] = values
        for k in ks:
            free[k] = False

    def tie_break():
        a = 0.0 if free[1] else x[1]
        return np.array([1.0, a, a * a + 1.0 if free[2] else x[2]])

    if periodic:
        H = frame.holonomy
        L = np.array([(H.T @ E @ H - E)[[0, 0, 1], [0, 1, 1]]
                      for E in _BASIS]).T
        ks = moving(L, 1e-7)
        pin(ks, np.linalg.lstsq(L[:, ks], -L @ x, rcond=None)[0])
        S = tie_break()
        if np.max(np.abs(L @ x)) >= 1e-7 or S[2] - S[1] * S[1] <= 1e-12:
            report.message = "generator holonomy preserves no positive " \
                             "definite form"
            report.diagnostics = {"holonomy": H.tolist()}
            return report
    report.metrizable = True

    # closedness: the generator samples, then the grid for the parameters
    # they leave free (one pass over the grid on a plane)
    anchor = [_on_line(frame.base, i0, float(t)) for t in np.linspace(
        0.0, TWO_PI, 256, endpoint=False)] if periodic else grid
    residual, noise = 0.0, None
    for stage, points in enumerate([anchor, grid] if periodic else [grid]):
        R, M = _form_rows(conn, frame, points, i0)
        if noise is None:   # scale of the b-period, from its integrand
            noise = TWO_PI * float(np.mean(np.abs(M[:, 2])))
        ks = moving(R, tol)
        if len(ks) == 2:
            sv = np.linalg.svd(R[:, ks], compute_uv=False)
            if sv[1] <= 1e-9 * sv[0]:
                report.supported = False
                report.message = "closedness of the force one-form leaves " \
                                 "a line of frame values (a, b)"
                return report
        pin(ks, _minimax_linear(R @ x, R[:, ks])[0])
        report.a, report.b = float(x[1]), float(x[2])
        residual = max(residual, float(np.max(np.abs(R @ x))))
        report.closedness_residual = residual
        if residual >= tol:
            report.message = ("no frame value %s closes the force one-form" % (
                {(1,): "a", (2,): "b"}.get(tuple(ks), "(a, b)"))
                if stage == 0 else _NOT_ON_GRID)
            return report

    # a parameter set to its default below is one no closedness row moves;
    # a verdict that might turn on its value is not supported
    defaulted = free[1]
    if periodic:
        pin([1], tie_break()[1])      # a is fixed before the period

        # the rows of mu_0 on the generator leg, at t or at each node of a
        # level; the two period integrals read each level once
        gen, rows = frame.generator, {}

        def mu_row(t):
            key = t.tobytes() if type(t) is np.ndarray else t
            if key not in rows:
                s = t % TWO_PI
                Y = np.where(np.asarray(s == 0.0)[..., None, None], np.eye(2),
                             gen(s))
                lam = _lam(conn, _on_line(frame.base, i0, t))
                rows[key] = _mu_axis(Y, lam, i0)
            return rows[key]

        x0 = x * [1.0, 1.0, 0.0 if free[2] else 1.0]
        A = quad(lambda t: (mu_row(t)[..., None, :] @ x0)[..., 0], 0.0, TWO_PI)
        B = quad(lambda t: mu_row(t)[..., 2], 0.0, TWO_PI) \
            if free[2] else 0.0
        if abs(B) > 1e-8 * max(noise, 1.0):
            pin([2], -A / B)
        elif abs(A) >= max(tol, 1e-8):
            report.supported = not defaulted
            report.message = "force one-form has nonzero period around " \
                             "the generator" + _DEFAULT * defaulted
            return report
    defaulted = defaulted or free[2]
    x = tie_break()
    report.a, report.b = float(x[1]), float(x[2])
    if x[2] - x[1] * x[1] <= 1e-12:
        report.message = "invariant form is not positive definite"
        return report
    # the grid again, at the defaults
    report.closedness_residual = residual = max(
        residual, float(np.max(np.abs(R @ x))))
    if residual >= tol:
        report.supported = not defaulted
        report.message = _NOT_ON_GRID + _DEFAULT * defaulted
        return report
    report.lagrangian = True
    report.D_C, report.P_C = frame.fields([[1.0, x[1]], [x[1], x[2]]])
    return report
