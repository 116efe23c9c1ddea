"""Parallel transport, holonomy over loops, and metrizability decisions for
flat connections and one-dimensional constraint manifolds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from operator import mul

import numpy as np
from scipy.integrate import solve_ivp

from .calculus import CurveSampler, integrate_ode, line_segment
from .dual import Dual, real
from .manifold import max_curvature_on_grid

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LoopDescriptor:
    """Piecewise curve that starts and ends at the same point (mod periodicity)."""

    base_point: tuple
    segments: tuple          # of CurveSampler
    tag: str = ""


@dataclass(frozen=True)
class TransportMap:
    matrix: np.ndarray
    descriptor: object = None
    tol: float = 1e-10

    def __post_init__(self):
        if abs(np.linalg.det(self.matrix)) < 1e-12:
            raise ValueError("transport map must be invertible")


def _transport_rhs(gamma, path):
    # dX^k/dt = -Gamma^k_ij v^i X^j, one copy per transported column. The
    # dimensions are tiny (1-3), so plain Python loops beat array machinery.
    def rhs(t, X):
        point, vel = path(t)
        G = gamma([float(c) for c in point])
        v = [float(c) for c in vel]
        d = len(v)
        A = [[-sum(vi * float(Gki[j]) for vi, Gki in zip(v, Gk))
              for j in range(d)] for Gk in G]
        cols = list(zip(*X.reshape(d, -1).tolist()))
        return np.array([[sum(map(mul, row, col)) for col in cols]
                         for row in A]).ravel()
    return rhs


def transport_matrix(gamma, path, dim, tol=1e-10):
    """Transport the full basis along a path: columns are transported e_i."""
    X = np.eye(dim)
    pieces = sorted(b for b in path.breakpoints
                    if path.t_start < b < path.t_end)
    knots = [path.t_start] + pieces + [path.t_end]
    for a, b in zip(knots[:-1], knots[1:]):
        traj = integrate_ode(_transport_rhs(gamma, path), a, X.ravel(), b, tol=tol)
        X = traj.end_state.reshape(dim, dim)
    return X


def _compose_transports(gamma, segments, dim, tol):
    """Transport matrix along consecutive segments, composed right-to-left."""
    M = np.eye(dim)
    for seg in segments:
        M = transport_matrix(gamma, seg, dim, tol=tol) @ M
    return M


def loop_transport(gamma, loop, tol=1e-10):
    """Transport map around a loop; segment maps compose right-to-left."""
    M = _compose_transports(gamma, loop.segments, len(loop.base_point), tol)
    return TransportMap(M, loop, tol)


def reverse_path(path):
    """Orientation-reversed CurveSampler."""
    t0, t1 = path.t_start, path.t_end

    def fn(t):
        point, vel = path(t0 + t1 - t)
        return point, [-v for v in vel]

    bps = tuple(t0 + t1 - b for b in path.breakpoints)
    return CurveSampler(fn, t0, t1, bps)


class SmoothFromDerivative:
    """Scalar function with a known derivative field, dual-differentiable.

    Values come from ``value_fn`` (typically a dense ODE solution); duals are
    peeled one level at a time using ``deriv_fn`` via the chain rule, so the
    object can sit inside any differentiation pipeline.
    """

    def __init__(self, value_fn, deriv_fn):
        self.value_fn = value_fn
        self.deriv_fn = deriv_fn

    def __call__(self, x):
        if isinstance(x, Dual):
            return Dual(self(x.val), self.deriv_fn(x.val) * x.eps)
        return self.value_fn(float(x))


class PeriodicAntiderivative:
    """F(x) = int_0^x f(z) dz for f periodic with period 2*pi.

    Solved densely once over one period; values elsewhere use
    F(2*pi*k + s) = k*F(2*pi) + F(s).
    """

    def __init__(self, f, tol=1e-12):
        self.f = f
        sol = solve_ivp(lambda t, y: [f(t)], (0.0, TWO_PI), [0.0],
                        method="DOP853", rtol=tol, atol=tol,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(sol.message)
        self._sol = sol.sol
        self.period_value = float(sol.y[0, -1])

    def __call__(self, x):
        x = float(x)
        k = math.floor(x / TWO_PI)
        s = x - TWO_PI * k
        return k * self.period_value + float(self._sol(s)[0])


class WindowAntiderivative:
    """F(x) = int_x0^x f(z) dz on the real line, dense over a growing window."""

    def __init__(self, f, tol=1e-12, x0=0.0, initial_window=None,
                 bounds=(-math.inf, math.inf)):
        self.f = f
        self.tol = tol
        self.x0 = float(x0)
        self.bounds = bounds
        self._lo = self._hi = self.x0
        self._sols = []
        if initial_window is None:
            initial_window = (self.x0, self.x0 + TWO_PI)
        self.extend(initial_window[0])
        self.extend(initial_window[1])

    def extend(self, x):
        # Chunked growth, clipped to the domain bounds so the integrand is
        # never sampled outside (or at) a chart boundary it was not built
        # for. Near a finite bound the window overshoots most of the
        # remaining gap so that repeated nearby queries do not each trigger
        # a fresh solve.
        while x > self._hi:
            new_hi = self._hi + TWO_PI
            if new_hi > self.bounds[1]:
                new_hi = max(x, self.bounds[1]
                             - 0.05 * (self.bounds[1] - self._hi))
            sol = solve_ivp(lambda t, y: [self.f(t)], (self._hi, new_hi),
                            [self(self._hi)], method="DOP853",
                            rtol=self.tol, atol=self.tol, dense_output=True,
                            first_step=0.125 * (new_hi - self._hi) or None)
            self._sols.append(((self._hi, new_hi), sol.sol))
            self._hi = new_hi
        while x < self._lo:
            new_lo = self._lo - TWO_PI
            if new_lo < self.bounds[0]:
                new_lo = min(x, self.bounds[0]
                             + 0.05 * (self._lo - self.bounds[0]))
            sol = solve_ivp(lambda t, y: [self.f(t)], (self._lo, new_lo),
                            [self(self._lo)], method="DOP853",
                            rtol=self.tol, atol=self.tol, dense_output=True,
                            first_step=0.125 * (self._lo - new_lo) or None)
            self._sols.append(((new_lo, self._lo), sol.sol))
            self._lo = new_lo

    def __call__(self, x):
        x = float(x)
        if x == self.x0:
            return 0.0
        self.extend(x)
        for (a, b), s in self._sols:
            if min(a, b) - 1e-12 <= x <= max(a, b) + 1e-12:
                return float(s(x)[0])
        raise RuntimeError("window lookup failed")


def circle_mod(x):
    """Reduce mod 2*pi, preserving dual parts."""
    k = math.floor(real(x) / TWO_PI)
    return x - TWO_PI * k


@dataclass
class OneDimReport:
    metrizable: bool
    lagrangian: bool
    topology: str
    M_hat: object = None        # callable on R
    P_hat: object = None
    M: object = None            # callable on Theta (set when lagrangian)
    P_C: object = None
    int_psi2: float = 0.0
    int_psi1M: float = 0.0


def _one_dim_fields(psi1, psi2, topology, tol):
    """Shared construction of M_hat / P_hat for Theta in {R, S1}."""
    if topology == "S1":
        p2 = lambda x: float(real(psi2(circle_mod(x))))
        p1 = lambda x: float(real(psi1(circle_mod(x)))) if psi1 else 0.0
        psi2_lift = lambda x: psi2(circle_mod(x))
        psi1_lift = (lambda x: psi1(circle_mod(x))) if psi1 else (lambda x: 0.0)
        J = PeriodicAntiderivative(p2, tol=tol)
    else:
        p2 = lambda x: float(real(psi2(x)))
        p1 = lambda x: float(real(psi1(x))) if psi1 else 0.0
        psi2_lift = psi2
        psi1_lift = psi1 if psi1 else (lambda x: 0.0)
        J = WindowAntiderivative(p2, tol=tol)
    M_hat = SmoothFromDerivative(
        lambda x: math.exp(-2.0 * J(x)),
        lambda x: -2.0 * psi2_lift(x) * M_hat(x) if isinstance(x, Dual)
        else -2.0 * p2(x) * math.exp(-2.0 * J(x)))
    # P_hat need not be periodic even when psi1 is, so always use the lift
    ph_rate = lambda x: -p1(x) * math.exp(-2.0 * J(x))
    PH = WindowAntiderivative(ph_rate, tol=tol)
    P_hat = SmoothFromDerivative(
        lambda x: PH(x),
        lambda x: -psi1_lift(x) * M_hat(x))
    return J, M_hat, P_hat


def lagrangian_1d(psi1, psi2, topology, tol=1e-10, decision_tol=1e-9):
    """Full 1-D decision: Lagrangian iff M_hat and P_hat are 2*pi-periodic
    (S1), always on R. Returns the reconstructed (M, P_C) on success."""
    J, M_hat, P_hat = _one_dim_fields(psi1, psi2, topology, tol)
    if topology == "S1":
        int_psi2 = J.period_value
        metr = abs(int_psi2) < decision_tol
        int_psi1M = -P_hat(TWO_PI)
        lag = metr and abs(int_psi1M) < decision_tol
    else:
        int_psi2 = 0.0
        int_psi1M = 0.0
        metr = True
        lag = True
    report = OneDimReport(metrizable=metr, lagrangian=lag, topology=topology,
                          M_hat=M_hat, P_hat=P_hat,
                          int_psi2=int_psi2, int_psi1M=int_psi1M)
    if metr:
        report.M = (lambda th: M_hat(circle_mod(th))) if topology == "S1" else M_hat
    if lag:
        report.P_C = (lambda th: P_hat(circle_mod(th))) if topology == "S1" else P_hat
    return report


@dataclass
class FlatMetrizabilityReport:
    metrizable: bool
    g0: np.ndarray = None
    transports: list = dc_field(default_factory=list)
    nullspace_dim: int = 0
    max_curvature: float = 0.0
    message: str = ""

    def __bool__(self):
        return self.metrizable


class FlatnessError(RuntimeError):
    pass


def _sym_basis(d):
    basis = []
    for i in range(d):
        for j in range(i, d):
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
    return basis


def flat_metrizability(gamma, generators, grid=None, flat_tol=1e-8,
                       tol=1e-10, spd_resolution=1e-2):
    """Invariant SPD form under the generator transports of a flat connection.

    Solves P^T G P - G = 0 over symmetric G for every generator transport P,
    then searches the solution space for a positive definite element.
    """
    if grid is None:
        grid = gamma.chart.grid()
    worst = max_curvature_on_grid(gamma, grid)
    if worst > flat_tol:
        raise FlatnessError(
            f"flatness certificate failed: max |R| = {worst:g} > {flat_tol:g}")
    d = gamma.chart.dim
    transports = [loop_transport(gamma, g, tol=tol) for g in generators]
    basis = _sym_basis(d)
    if transports:
        # linear operator G -> (P^T G P - G for each generator), column per
        # symmetric basis element
        cols = []
        for E in basis:
            col = []
            for tm in transports:
                P = tm.matrix
                img = P.T @ E @ P - E
                col.extend(img[i, j] for i in range(d) for j in range(i, d))
            cols.append(col)
        A = np.asarray(cols, dtype=float).T
        _, sv, Vt = np.linalg.svd(A)
        rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0])))
        null = Vt[rank:].T
    else:
        null = np.eye(len(basis))
    ns_dim = null.shape[1]
    report = FlatMetrizabilityReport(False, transports=transports,
                                     nullspace_dim=ns_dim, max_curvature=worst)
    if ns_dim == 0:
        report.message = "no invariant symmetric form"
        return report

    def to_matrix(coeffs):
        G = np.zeros((d, d))
        for c, E in zip(coeffs, basis):
            G += c * E
        return G

    def invariance_residual(G):
        return max(float(np.max(np.abs(tm.matrix.T @ G @ tm.matrix - G)))
                   for tm in transports) if transports else 0.0

    # prefer the identity when it is invariant
    eye = np.eye(d)
    if invariance_residual(eye) < 1e-8:
        report.metrizable = True
        report.g0 = eye
        return report

    best_G, best_min_eig = None, -np.inf
    for c in _sphere_sweep(ns_dim, spd_resolution):
        G = to_matrix(null @ c)
        w = np.linalg.eigvalsh(G)
        m = float(w[0] / max(abs(w[-1]), 1e-300))
        if m > best_min_eig:
            best_min_eig = m
            best_G = G
    if best_G is not None and best_min_eig > 1e-6:
        G = best_G
        if abs(G[0, 0]) > 1e-9:
            G = G / G[0, 0]
        report.metrizable = True
        report.g0 = G
    else:
        report.message = "no invariant SPD form"
    return report


def _sphere_sweep(r, resolution):
    """Deterministic sweep of unit-norm coefficient vectors in R^r."""
    if r == 1:
        yield np.array([1.0])
        yield np.array([-1.0])
        return
    n = max(8, int(round(math.pi / max(resolution, 1e-3))))
    if r == 2:
        for k in range(2 * n):
            a = math.pi * k / n
            yield np.array([math.cos(a), math.sin(a)])
        return
    if r == 3:
        for k1 in range(n):
            b = math.pi * k1 / (n - 1)
            for k2 in range(2 * n):
                a = math.pi * k2 / n
                yield np.array([math.sin(b) * math.cos(a),
                                math.sin(b) * math.sin(a),
                                math.cos(b)])
        return
    # higher dims: coarse random-but-seeded sweep
    rng = np.random.default_rng(0)
    for _ in range(20000):
        v = rng.normal(size=r)
        yield v / np.linalg.norm(v)


def canonical_path_segments(chart, start, target):
    """Axis-aligned path from start to target: periodic legs first."""
    start = list(map(float, start))
    target = list(map(float, target))
    order = [i for i in range(chart.dim) if chart.periodic[i]] + \
            [i for i in range(chart.dim) if not chart.periodic[i]]
    segs = []
    cur = list(start)
    for i in order:
        if cur[i] != target[i]:
            nxt = list(cur)
            nxt[i] = target[i]
            segs.append(line_segment(cur, nxt))
            cur = nxt
    return segs


def metric_by_transport(gamma, g0, theta0, target, path=None, tol=1e-10):
    """Bilinear form at ``target`` obtained by transporting g0 from theta0."""
    d = gamma.chart.dim
    if path is None:
        segments = canonical_path_segments(gamma.chart, theta0, target)
    elif isinstance(path, LoopDescriptor):
        segments = list(path.segments)
    elif isinstance(path, CurveSampler):
        segments = [path]
    else:
        segments = list(path)
    P = _compose_transports(gamma, segments, d, tol)
    Pinv = np.linalg.inv(P)
    return Pinv.T @ np.asarray(g0, dtype=float) @ Pinv


@dataclass
class CylinderTransportData:
    """Primitives I1, I2 of the transport ODE on a cylinder R x S1 whose only
    connection coefficients are Gamma^1_22(theta2) and Gamma^2_22(theta2)."""

    I1: object
    I2: object
    g1: object      # Gamma^1_22 as a function of theta2
    g2: object      # Gamma^2_22 as a function of theta2
    I1_loop: float
    I2_loop: float


class CylinderStructureError(RuntimeError):
    pass


def cylinder_integrals(gamma, grid_n=15, structure_tol=1e-8, tol=1e-12):
    """I1(t) = -int_0^t Gamma^2_22, I2(t) = int_0^t Gamma^1_22 exp(I1)."""
    chart = gamma.chart
    if chart.dim != 2 or chart.periodic != (False, True):
        raise CylinderStructureError("expected a chart of type R x S1")
    lo, hi = chart.bounds[0]
    th1_samples = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 3)
    th2_samples = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    ref = {}
    for t2 in th2_samples:
        G0 = np.asarray(gamma([float(th1_samples[0]), float(t2)]), dtype=float)
        ref[float(t2)] = G0
        for t1 in th1_samples[1:]:
            G = np.asarray(gamma([float(t1), float(t2)]), dtype=float)
            if np.max(np.abs(G - G0)) > structure_tol:
                raise CylinderStructureError(
                    "connection coefficients depend on theta1")
        mask = np.zeros_like(G0, dtype=bool)
        mask[0, 1, 1] = mask[1, 1, 1] = True
        if np.max(np.abs(G0[~mask])) > structure_tol:
            raise CylinderStructureError(
                "connection has coefficients outside Gamma^k_22")

    anchor = float(th1_samples[0])
    g1 = lambda t: gamma([anchor, circle_mod(t)])[0][1][1]
    g2 = lambda t: gamma([anchor, circle_mod(t)])[1][1][1]

    def rhs(t, y):
        return [-float(real(g2(t))), float(real(g1(t))) * math.exp(y[0])]

    sol = solve_ivp(rhs, (0.0, TWO_PI), [0.0, 0.0], rtol=tol, atol=tol,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(sol.message)
    dense = sol.sol
    I1_loop = float(sol.y[0, -1])
    I2_loop = float(sol.y[1, -1])

    def I1_val(t):
        t = float(t)
        k = math.floor(t / TWO_PI)
        s = t - TWO_PI * k
        return k * I1_loop + float(dense(s)[0])

    def I2_val(t):
        t = float(t)
        k = math.floor(t / TWO_PI)
        s = t - TWO_PI * k
        # I2(2*pi*k + s) = I2(2*pi*k) + exp(I1(2*pi*k)) * I2(s)
        acc = 0.0
        if k != 0:
            # geometric accumulation of whole periods
            e = math.exp(I1_loop)
            if abs(I1_loop) < 1e-14:
                acc = k * I2_loop
            else:
                acc = I2_loop * (e ** k - 1.0) / (e - 1.0) if k > 0 else \
                    -I2_loop * (e ** k) * (e ** (-k) - 1.0) / (e - 1.0)
        return acc + math.exp(k * I1_loop) * float(dense(s)[1])

    I1 = SmoothFromDerivative(I1_val, lambda t: -g2(t))
    from .dual import exp as dexp
    I2 = SmoothFromDerivative(I2_val, lambda t: g1(t) * dexp(I1(t)))
    return CylinderTransportData(I1, I2, g1, g2, I1_loop, I2_loop)
