"""Parallel transport, holonomy over loops, and metrizability decisions for
flat connections and one-dimensional constraint manifolds.

Transport and the antiderivatives (``WindowAntiderivative``,
``PeriodicAntiderivative``, ``cylinder_integrals``) all solve their ODEs with
``calculus.integrate_ode``: transport with RK45, one solve per path piece,
and the antiderivatives with DOP853 and dense output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import dual as dm
from .calculus import CurveSampler, integrate_ode
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
    """Transport the full basis along a path: columns are transported e_i.

    Each piece [a, b] between the path's breakpoints is integrated on its
    own, with the path sampled at t clamped to [nextafter(a, b),
    nextafter(b, a)]. A piecewise sampler returns the next piece's velocity
    at a knot, and ``reverse_path`` moves that sample to a piece's left end;
    the clamp keeps both ends on the piece, so the adaptive solver sees a
    smooth right-hand side and rejects no steps at the knot.
    """
    X = np.eye(dim)
    pieces = sorted(b for b in path.breakpoints
                    if path.t_start < b < path.t_end)
    knots = [path.t_start] + pieces + [path.t_end]
    for a, b in zip(knots[:-1], knots[1:]):
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)
        rhs = _transport_rhs(gamma, lambda t: path(min(max(t, lo), hi)))
        X = integrate_ode(rhs, a, X.ravel(), b, tol).end_state
        X = X.reshape(dim, dim)
    return X


def loop_transport(gamma, loop, tol=1e-10):
    """Transport map around a loop; segment maps compose right-to-left."""
    dim = len(loop.base_point)
    M = np.eye(dim)
    for seg in loop.segments:
        M = transport_matrix(gamma, seg, dim, tol=tol) @ M
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
        # Chunked growth towards x, one period at a time, clipped to the
        # domain bounds so the integrand is never sampled outside (or at) a
        # chart boundary it was not built for. Near a finite bound the window
        # overshoots most of the remaining gap so that repeated nearby
        # queries do not each trigger a fresh solve.
        while x > self._hi or x < self._lo:
            up = x > self._hi
            edge, bound = (self._hi, self.bounds[1]) if up else \
                (self._lo, self.bounds[0])
            new = edge + (TWO_PI if up else -TWO_PI)
            if (new > bound) if up else (new < bound):
                new = bound - 0.05 * (bound - edge)
                new = max(x, new) if up else min(x, new)
            traj = integrate_ode(lambda t, y: [self.f(t)], edge,
                                 [self._at(edge)], new, self.tol,
                                 method="DOP853",
                                 first_step=0.125 * abs(new - edge))
            self._sols.append((min(edge, new), max(edge, new), traj.at))
            if up:
                self._hi = new
            else:
                self._lo = new

    def __call__(self, x):
        return self._at(float(x))

    def _at(self, x):
        if x == self.x0:
            return 0.0
        self.extend(x)
        for a, b, s in self._sols:
            if a - 1e-12 <= x <= b + 1e-12:
                return float(s(x)[0])
        raise RuntimeError("window lookup failed")


class PeriodicAntiderivative(WindowAntiderivative):
    """F(x) = int_0^x f(z) dz for f periodic with period 2*pi.

    Dense over the window [0, 2*pi]; values elsewhere use
    F(2*pi*k + s) = k*F(2*pi) + F(s).
    """

    def __init__(self, f, tol=1e-12):
        super().__init__(f, tol=tol)
        self.period_value = self._at(TWO_PI)

    def __call__(self, x):
        x = float(x)
        k = math.floor(x / TWO_PI)
        s = min(max(x - TWO_PI * k, 0.0), TWO_PI)
        return k * self.period_value + self._at(s)


def circle_mod(x):
    """Reduce mod 2*pi, preserving dual parts."""
    k = math.floor(real(x) / TWO_PI)
    return x - TWO_PI * k


@dataclass
class OneDimReport:
    metrizable: bool
    lagrangian: bool
    topology: str
    M: object = None            # callable on Theta (set when lagrangian)
    P_C: object = None
    int_psi2: float = 0.0
    int_psi1M: float = 0.0


def _one_dim_fields(psi1, psi2, topology, tol):
    """Shared construction of M_hat / P_hat for Theta in {R, S1}."""
    lift = circle_mod if topology == "S1" else (lambda x: x)
    psi2_lift = lambda x: psi2(lift(x))
    psi1_lift = (lambda x: psi1(lift(x))) if psi1 else (lambda x: 0.0)
    p2 = lambda x: float(real(psi2_lift(x)))
    p1 = lambda x: float(real(psi1_lift(x)))
    J = (PeriodicAntiderivative if topology == "S1" else
         WindowAntiderivative)(p2, tol=tol)
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
    max_curvature: float = 0.0

    def __bool__(self):
        return self.metrizable


class FlatnessError(RuntimeError):
    pass


def flat_metrizability(gamma, grid=None, flat_tol=1e-8):
    """Metrizability of a flat connection on a simply connected chart.

    Raises FlatnessError unless the curvature is certified to vanish on the
    grid. Flat transport on a simply connected chart does not depend on the
    path, so every constant form at the base point extends to a parallel
    metric; the report carries g0 = I.
    """
    if grid is None:
        grid = gamma.chart.grid()
    worst = max_curvature_on_grid(gamma, grid)
    if worst > flat_tol:
        raise FlatnessError(
            f"flatness certificate failed: max |R| = {worst:g} > {flat_tol:g}")
    return FlatMetrizabilityReport(True, g0=np.eye(gamma.chart.dim),
                                   max_curvature=worst)


@dataclass
class CylinderTransportData:
    """Primitives I1, I2 of the transport ODE on a cylinder R x S1 whose only
    connection coefficients are Gamma^1_22(theta2) and Gamma^2_22(theta2);
    2pi-periodic, as they are built only for a trivial generator holonomy."""

    I1: object
    I2: object
    I1_loop: float
    I2_loop: float


class CylinderStructureError(RuntimeError):
    pass


class GeneratorHolonomyError(CylinderStructureError):
    """Transport around the periodic generator is not the identity."""

    def __init__(self, I1_loop, I2_loop):
        super().__init__("generator holonomy is not trivial")
        self.loops = {"I1_loop": I1_loop, "I2_loop": I2_loop}


def cylinder_integrals(gamma, grid_n=15, structure_tol=1e-8, tol=1e-12):
    """I1(t) = -int_0^t Gamma^2_22, I2(t) = int_0^t Gamma^1_22 exp(I1)."""
    chart = gamma.chart
    if chart.dim != 2 or chart.periodic != (False, True):
        raise CylinderStructureError("expected a chart of type R x S1")
    lo, hi = chart.bounds[0]
    th1_samples = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 3)
    th2_samples = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    for t2 in th2_samples:
        G0 = np.asarray(gamma([float(th1_samples[0]), float(t2)]), dtype=float)
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

    traj = integrate_ode(rhs, 0.0, [0.0, 0.0], TWO_PI, tol, method="DOP853")
    I1_loop, I2_loop = (float(v) for v in traj.end_state)
    if max(abs(I1_loop), abs(I2_loop)) >= 1e-7:
        raise GeneratorHolonomyError(I1_loop, I2_loop)
    I1 = SmoothFromDerivative(lambda t: float(traj.at(circle_mod(t))[0]),
                              lambda t: -g2(t))
    I2 = SmoothFromDerivative(lambda t: float(traj.at(circle_mod(t))[1]),
                              lambda t: g1(t) * dm.exp(I1(t)))
    return CylinderTransportData(I1, I2, I1_loop, I2_loop)
