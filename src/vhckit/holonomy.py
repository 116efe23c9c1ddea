"""Parallel transport, holonomy over loops, and the metrizability decision
for one-dimensional constraint manifolds.

Transport and the antiderivatives all solve their ODEs with
``calculus.integrate_ode`` (DOP853). ``transport_matrix`` makes one solve
per path piece and keeps no interpolant; ``WindowAntiderivative``,
``PeriodicAntiderivative`` and ``axis_transport`` keep dense output.
Both read their right-hand side from a sample: the transport coefficient
A(t) = -Gamma(p(t))(v(t)) of each path piece (each leg of
``axis_transport``), and an antiderivative's integrand on each new window,
is analytic on every model's pieces, so it is sampled once at nested
Chebyshev-Lobatto nodes and the solver integrates its barycentric
interpolant. Where the Chebyshev coefficients do not converge by the last
level of ``CHEB_LEVELS`` (a kink, a near-singular chart edge), or a sample
is not finite, the solver reads Gamma or the integrand itself. The
coefficients are a DCT-I, taken with numpy's FFT."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import CurveSampler, IntegrationError, from_slope, integrate_ode
from .dual import real

TWO_PI = 2.0 * math.pi

# Transport samples each path piece's coefficient at n + 1 nested
# Chebyshev-Lobatto nodes, n from this ladder, until the tail of its
# Chebyshev coefficients is below CHEB_TAIL (relative to max(1, max |A|)).
CHEB_LEVELS = (16, 32, 64, 128, 256)
CHEB_TAIL = 1e-14


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
        # a determinant not above the solve's tolerance has no correct digit
        det = abs(np.linalg.det(self.matrix))
        if not det > self.tol:
            raise IntegrationError(f"transport map |det| {det:.3g} is not "
                                   f"above its tolerance {self.tol:g}")


def _coefficient(gamma, path):
    """A(t) with X' = A(t) X the transport along ``path``:
    A^k_j = -Gamma^k_ij v^i at (point, v) = path(t)."""
    def A(t):
        point, vel = path(t)
        G = gamma([float(c) for c in point])
        v = [float(c) for c in vel]
        return np.array([[-sum(vi * float(Gki[j]) for vi, Gki in zip(v, Gk))
                          for j in range(len(v))] for Gk in G])
    return A


def _dct1(G):
    """DCT-I of the rows of G (scipy.fft.dct(G, type=1, axis=0)): the real
    FFT of the even extension G_0, ..., G_n, G_(n-1), ..., G_1."""
    return np.fft.rfft(np.vstack([G, G[-2:0:-1]]), axis=0).real


def _chebyshev(A, a, b):
    """Barycentric interpolant of A on [a, b] from its samples at the
    Chebyshev-Lobatto nodes of the first level of CHEB_LEVELS whose
    Chebyshev coefficients (the DCT-I of the samples) are below CHEB_TAIL
    times max(1, max |A|) over their last quarter; each level doubles the
    one before, so it reuses its samples. None if no level gets there or a
    sample is not finite."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    F = None
    for n in CHEB_LEVELS:
        x = np.cos(np.pi * np.arange(n + 1) / n)
        t = mid + half * x
        t[0], t[-1] = b, a
        if F is None:
            F = np.array([A(s) for s in t])
        else:
            odd = np.array([A(s) for s in t[1::2]])
            F = np.insert(odd, range(len(F)), F, axis=0)
        if not np.all(np.isfinite(F)):
            return None
        c = np.abs(_dct1(F.reshape(n + 1, -1))) / n
        if np.max(c[3 * n // 4:]) <= CHEB_TAIL * max(1.0, np.max(np.abs(F))):
            break
    else:
        return None
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    # a column of ones gives the barycentric denominator in the same product
    shape = F.shape[1:]
    F = np.hstack([F.reshape(n + 1, -1), np.ones((n + 1, 1))])
    node = {u: j for j, u in enumerate(x.tolist())}

    def interpolant(s):
        u = (s - mid) / half
        if u in node:
            return F[node[u], :-1].reshape(shape)
        v = w / (u - x) @ F
        return (v[:-1] / v[-1]).reshape(shape)
    return interpolant


def _transport_rhs(gamma, path, a, b):
    """Right-hand side of the transport on the piece [a, b] of ``path``, one
    copy per column of X: A(t) X with A read from its Chebyshev sample, or
    from gamma at every call where the sample does not converge."""
    A = _coefficient(gamma, path)
    A = _chebyshev(A, a, b) or A

    def rhs(t, X):
        At = A(t)
        return (At @ X.reshape(len(At), -1)).ravel()
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
        rhs = _transport_rhs(gamma, lambda t: path(min(max(t, lo), hi)),
                             a, b)
        X = integrate_ode(rhs, a, X.ravel(), b, tol, dense=False).end_state
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


class WindowAntiderivative:
    """F(x) = int_x0^x f(z) dz on the real line, dense over a growing
    window; each new window integrates f's Chebyshev sample on it."""

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
            f = _chebyshev(self.f, edge, new) or self.f
            traj = integrate_ode(lambda t, y: [f(t)], edge,
                                 [self._at(edge)], new, self.tol,
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
    J = (PeriodicAntiderivative(p2, tol=tol) if topology == "S1" else
         WindowAntiderivative(p2, tol=tol))
    M_hat = from_slope(lambda x: math.exp(-2.0 * J(x)),
                       lambda a, b: -2.0 * psi2_lift(a) * M_hat(a) * b)
    # P_hat need not be periodic even when psi1 is, so always use the lift
    ph_rate = lambda x: -p1(x) * math.exp(-2.0 * J(x))
    P_hat = from_slope(WindowAntiderivative(ph_rate, tol=tol),
                       lambda a, b: -psi1_lift(a) * M_hat(a) * b)
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


def axis_transport(gamma, points, axis, lo, hi, tol=1e-12, first_step=None,
                   carry=None):
    """Dense transport of the basis along coordinate ``axis``, from s = lo
    to hi, through each of ``points`` in one solve: a Trajectory whose state
    holds, per point, the flattened Y(s) with Y(lo) = I, followed by the
    integrals from lo of ``carry(p, Y)`` when it is given. With
    ``first_step`` the leg length, legs on which the connection and
    ``carry`` are constant take one step."""
    d = len(points[0])
    vel = [1.0 if i == axis else 0.0 for i in range(d)]

    def on(q, s):
        return [s if i == axis else c for i, c in enumerate(q)]

    legs = [(q, _transport_rhs(gamma, lambda s, q=q: (on(q, s), vel), lo, hi))
            for q in points]
    y0 = np.eye(d).ravel()
    if carry is not None:
        y0 = np.concatenate([y0, 0.0 * carry(points[0], np.eye(d))])

    def rhs(s, y):
        out = []
        for (q, leg), yq in zip(legs, y.reshape(len(points), -1)):
            out.append(leg(s, yq[:d * d]))
            if carry is not None:
                out.append(carry(on(q, s), yq[:d * d].reshape(d, d)))
        return np.concatenate(out)

    return integrate_ode(rhs, lo, np.tile(y0, len(points)), hi, tol,
                         first_step=first_step)


def cylinder_integrals(gamma, point, axis, tol=1e-12, carry=None):
    """Dense transport once around the periodic generator ``axis``, from
    coordinate 0 through ``point`` (with ``carry`` as in
    ``axis_transport``); its end state starts with the generator holonomy."""
    return axis_transport(gamma, [point], axis, 0.0, TWO_PI, tol,
                          carry=carry)
