"""Parallel transport, holonomy over loops, and the metrizability decision
for one-dimensional constraint manifolds.

Transport and the antiderivatives are solved on Chebyshev samples
(``calculus.transport`` and ``calculus.antiderivative``) of the transport
coefficient A(t) = -Gamma(p(t))(v(t)) of each path piece, or of an
antiderivative's integrand on each new window. ``transport_matrix`` keeps
the end value; ``axis_transports``, ``cylinder_integrals`` and the
antiderivatives are dense.

The coefficient of a leg along a coordinate axis reads Gamma at each
level's nodes in one stacked read, and the legs of ``axis_transports``
share that read. A general path's coefficient reads Gamma node by node
through the memo (``calculus.per_node``): its pieces take 17 to 65 nodes a
level, below where a stacked read of Gamma pays for its fixed cost, and
the memo answers a loop's reverse pass. The integrands of the 1-D
decision read node by node too."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (CurveSampler, IntegrationError, _rows,
                       antiderivative, from_slope, per_node, transport,
                       transports)
from .dual import real

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LoopDescriptor:
    """Piecewise curve that starts and ends at the same point (mod periodicity)."""

    base_point: tuple
    segments: tuple          # of CurveSampler
    tag: str = ""


class DegenerateTransport(IntegrationError):
    """A transport map whose |det| is not above its floor ``tol``."""

    def __init__(self, det, tol):
        super().__init__(f"transport map |det| {det:.3g} is not above its "
                         f"tolerance {tol:g}")
        self.det, self.tol = det, tol


@dataclass(frozen=True)
class TransportMap:
    matrix: np.ndarray
    descriptor: object = None
    tol: float = 1e-10

    def __post_init__(self):
        # the floor that ``vhckit holonomy --tol`` sets
        det = abs(np.linalg.det(self.matrix))
        if not det > self.tol:
            raise DegenerateTransport(det, self.tol)


def _coefficient(gamma, path):
    """A(t) with X' = A(t) X the transport along ``path``:
    A^k_j = -Gamma^k_ij v^i at (point, v) = path(t), read node by node
    through the memo of ``gamma`` (``per_node``)."""
    def A(t):
        point, vel = path(t)
        G = np.array(gamma([float(c) for c in point]), dtype=float)
        return -(np.array(vel, dtype=float) @ G)
    return per_node(A)


def _axis_coefficient(gamma, points, axis):
    """A(t, k) = -Gamma(x)(e_axis, .) at x = points[k] with x[axis] = t:
    the coefficient of the transport along coordinate ``axis`` through
    points[k]. At arrays t and k it reads Gamma once, at their stacked
    points, past the memo's call (``read``); at floats, through the
    memo."""
    P = np.array(points, dtype=float)
    vel = np.eye(P.shape[1])[axis]
    read = getattr(gamma, "read", gamma)

    def A(t, k):
        if type(t) is np.ndarray:
            x = [np.array(c) for c in P[k.astype(np.intp)].T]
            x[axis] = t
            G = _rows(read(x), len(t))
        else:
            x = P[int(k)].tolist()
            x[axis] = t
            G = np.array(gamma(x), dtype=float)
        return -(vel @ G)
    return A


def transport_matrix(gamma, path, dim):
    """Transport the full basis along a path: columns are transported e_i.

    Each piece [a, b] between the path's breakpoints is solved on its own,
    with the path sampled at t clamped to [nextafter(a, b), nextafter(b,
    a)]. A piecewise sampler returns the next piece's velocity at a knot,
    and ``reverse_path`` moves that sample to a piece's left end; the clamp
    keeps both ends on the piece, so its sample sees a smooth coefficient.
    """
    X = np.eye(dim)
    pieces = sorted(b for b in path.breakpoints
                    if path.t_start < b < path.t_end)
    knots = [path.t_start] + pieces + [path.t_end]
    for a, b in zip(knots[:-1], knots[1:]):
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)
        A = _coefficient(gamma, lambda t: path(min(max(t, lo), hi)))
        X = transport(A, a, b, X).end
    return X


def loop_transport(gamma, loop, tol=1e-10):
    """Transport map around a loop; segment maps compose right-to-left. A
    map whose |det| is not above ``tol`` raises ``DegenerateTransport``."""
    dim = len(loop.base_point)
    M = np.eye(dim)
    for seg in loop.segments:
        M = transport_matrix(gamma, seg, dim) @ M
    return TransportMap(M, loop, tol)


def reverse_path(path):
    """Orientation-reversed CurveSampler."""
    t0, t1 = path.t_start, path.t_end

    def fn(t):
        point, vel = path(t0 + t1 - t)
        return point, [-v for v in vel]

    bps = tuple(t0 + t1 - b for b in path.breakpoints)
    return CurveSampler(fn, t0, t1, bps)


class WindowAntiderivative:
    """F(x) = int_x0^x f(z) dz on the real line, dense over a growing
    window; each new window is a ``calculus.antiderivative`` of f."""

    def __init__(self, f, x0=0.0, initial_window=None,
                 bounds=(-math.inf, math.inf)):
        self.f = f
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
            F = antiderivative(self.f, edge, new, self._at(edge))
            self._sols.append((min(edge, new), max(edge, new), F))
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
        for a, b, F in self._sols:
            if a - 1e-12 <= x <= b + 1e-12:
                return float(F(x))
        raise RuntimeError("window lookup failed")


class PeriodicAntiderivative(WindowAntiderivative):
    """F(x) = int_0^x f(z) dz for f periodic with period 2*pi.

    Dense over the window [0, 2*pi]; values elsewhere use
    F(2*pi*k + s) = k*F(2*pi) + F(s).
    """

    def __init__(self, f):
        super().__init__(f)
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


def _one_dim_fields(psi1, psi2, topology):
    """Shared construction of M_hat / P_hat for Theta in {R, S1}."""
    lift = circle_mod if topology == "S1" else (lambda x: x)
    psi2_lift = lambda x: psi2(lift(x))
    psi1_lift = (lambda x: psi1(lift(x))) if psi1 else (lambda x: 0.0)
    p2 = lambda x: float(real(psi2_lift(x)))
    p1 = lambda x: float(real(psi1_lift(x)))
    J = (PeriodicAntiderivative(per_node(p2)) if topology == "S1" else
         WindowAntiderivative(per_node(p2)))
    M_hat = from_slope(lambda x: math.exp(-2.0 * J(x)),
                       lambda a, b: -2.0 * psi2_lift(a) * M_hat(a) * b)
    # P_hat need not be periodic even when psi1 is, so always use the lift
    ph_rate = lambda x: -p1(x) * math.exp(-2.0 * J(x))
    P_hat = from_slope(WindowAntiderivative(per_node(ph_rate)),
                       lambda a, b: -psi1_lift(a) * M_hat(a) * b)
    return J, M_hat, P_hat


def lagrangian_1d(psi1, psi2, topology, decision_tol=1e-9):
    """Full 1-D decision: Lagrangian iff M_hat and P_hat are 2*pi-periodic
    (S1), always on R. Returns the reconstructed (M, P_C) on success."""
    J, M_hat, P_hat = _one_dim_fields(psi1, psi2, topology)
    int_psi2 = int_psi1M = 0.0
    metr = lag = True
    if topology == "S1":
        int_psi2, int_psi1M = J.period_value, -P_hat(TWO_PI)
        metr = abs(int_psi2) < decision_tol
        lag = metr and abs(int_psi1M) < decision_tol
    report = OneDimReport(metrizable=metr, lagrangian=lag, topology=topology,
                          int_psi2=int_psi2, int_psi1M=int_psi1M)
    if metr:
        report.M = (lambda th: M_hat(circle_mod(th))) if topology == "S1" else M_hat
    if lag:
        report.P_C = (lambda th: P_hat(circle_mod(th))) if topology == "S1" else P_hat
    return report


def axis_transports(gamma, axis, legs):
    """Dense transports of the basis along coordinate ``axis``, one per leg
    (point, lo, hi) through ``point`` from s = lo to hi: Y(s) with
    Y(lo) = I. The legs are sampled together (``calculus.transports``):
    each level of their nodes is one stacked read of Gamma."""
    A = _axis_coefficient(gamma, [p for p, _, _ in legs], axis)
    return transports(A, [(lo, hi, k) for k, (_, lo, hi) in enumerate(legs)],
                      np.eye(len(legs[0][0])))


def axis_transport(gamma, point, axis, lo, hi):
    """Dense transport of the basis along coordinate ``axis`` through
    ``point``, from s = lo to hi: the one-leg ``axis_transports``."""
    (Y,) = axis_transports(gamma, axis, [(point, lo, hi)])
    return Y


def cylinder_integrals(gamma, point, axis):
    """Dense transport once around the periodic generator ``axis``, from
    coordinate 0 through ``point``; its end is the generator holonomy."""
    return axis_transport(gamma, point, axis, 0.0, TWO_PI)
