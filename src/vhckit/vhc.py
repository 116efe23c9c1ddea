"""Control-theoretic core: regularity, projection, induced connection,
constrained dynamics, and constraint-enforcing feedback."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from . import linalg
from .calculus import jacobian, matrix_partial, second_partial
from .dual import real
from .manifold import Chart, ConnectionCoeffs, first_kind


# max |dphi^T B| below which the inputs count as orthogonal to C
ORTHOGONALITY_TOL = 1e-9


class RegularityError(RuntimeError):
    """The matrix (Bperp D dphi) is singular: the VHC is not regular there."""


@dataclass(frozen=True)
class LagrangianControlSystem:
    """Mechanical control system D(q) qdd + C(q,qd) qd + gradP(q) = B(q) tau."""

    chart: Chart
    D: callable                 # inertia matrix field, n x n
    P: callable                 # potential
    gradP: callable             # gradient of P, n components
    B: callable                 # input matrix field, n x m
    Bperp: callable             # left annihilator field, (n-m) x n
    m: int
    h: callable = None          # optional constraint function, m components
    dD: callable = None         # optional analytic metric gradient [d_l D]

    @property
    def n(self):
        return self.chart.dim

    def metric_grad(self, x):
        """[d_l D] at x: the analytic dD, else one matrix_partial per axis."""
        if self.dD is not None:
            return self.dD(x)
        return [matrix_partial(self.D, x, l) for l in range(self.n)]


@dataclass(frozen=True)
class ConstraintParametrization:
    """Regular parametrization phi of the constraint manifold."""

    chart: Chart                # reduced chart, dim n - m
    phi: callable               # theta -> x, n components
    dphi: callable = None       # n x (n-m)
    d2phi: callable = None      # [a][i][j]

    def __post_init__(self):
        phi = self.phi
        if self.dphi is None:
            object.__setattr__(self, "dphi", lambda th: jacobian(phi, th))
        if self.d2phi is None:
            def d2phi(th):
                # [a][i][j] from the symmetric pairs i <= j
                th = list(th)
                d = len(th)
                hess = [[None] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i, d):
                        hess[i][j] = hess[j][i] = second_partial(phi, th, i, j)
                return [[[hij[a] for hij in hi] for hi in hess]
                        for a in range(len(hess[0][0]))]

            object.__setattr__(self, "d2phi", d2phi)


def reduction_matrix(sys, par, theta, columns):
    """X = A^{-1} Bperp (D c_k + f_k), A = Bperp D dphi, at x = phi(theta):
    the one projection of ambient data onto the reduced chart. ``columns(x,
    dphi)`` lists a pair (c_k, f_k) per column of X, an ambient vector and an
    ambient covector, either of which may be None. x, dphi, D and Bperp are
    evaluated once, and A is solved once."""
    theta = list(theta)
    x = par.phi(theta)
    dphi = par.dphi(theta)
    cols = columns(x, dphi)
    D_cols = list(zip(*sys.D(x)))
    dphi_cols = list(zip(*dphi))
    A, rhs = [], []
    for bp in sys.Bperp(x):
        bpd = [sum(map(mul, bp, col)) for col in D_cols]
        A.append([sum(map(mul, bpd, col)) for col in dphi_cols])
        rhs.append([sum(map(mul, bp, f)) if c is None
                    else sum(map(mul, bpd, c)) if f is None
                    else sum(map(mul, bpd, c)) + sum(map(mul, bp, f))
                    for c, f in cols])
    try:
        return linalg.solve(A, rhs)
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"(Bperp D dphi) singular at theta="
            f"{[float(real(t)) for t in theta]}") from e


def _connection_columns(sys, par, theta, x, dphi, pairs):
    """The GammaC columns (d2phi_ij, Gamma1(dphi_i, dphi_j)) for the pairs
    (i, j); Gamma1 is None for a plain-zero metric gradient."""
    d2phi = par.d2phi(theta)
    cols = list(zip(*dphi))
    forces = first_kind(sys.metric_grad(x),
                        [(cols[i], cols[j]) for i, j in pairs])
    return [([a[i][j] for a in d2phi],
             [f.get(l, 0.0) for l in range(len(x))] if f else None)
            for (i, j), f in zip(pairs, forces)]


@dataclass
class RegularityReport:
    regular: bool
    min_singular_value: float
    worst_theta: list
    tol: float
    max_dphiT_B: float = 0.0     # orthogonality of the inputs to C

    def __bool__(self):
        return self.regular


def check_regularity(sys, par, grid=None, tol=1e-8):
    """Smallest scaled singular value of [dphi | D^{-1} B] over a grid, and
    from the same evaluations max |dphi^T B|."""
    if grid is None:
        grid = par.chart.grid()
    best = np.inf
    worst = None
    ortho = 0.0
    for th in grid:
        x = par.phi(list(th))
        D = np.asarray(sys.D(x), dtype=float)
        B = np.asarray(sys.B(x), dtype=float)
        dphi = np.asarray(par.dphi(list(th)), dtype=float)
        M = np.hstack([dphi, np.linalg.solve(D, B)])
        if M.shape[0] != M.shape[1]:
            raise ValueError("dimension mismatch: need k = m = n - dim(theta)")
        sv = np.linalg.svd(M, compute_uv=False)
        margin = sv[-1] / sv[0]
        if margin < best:
            best = margin
            worst = list(th)
        ortho = max(ortho, float(np.max(np.abs(dphi.T @ B))))
    return RegularityReport(bool(best > tol), float(best), worst, tol, ortho)


def induced_christoffels(sys, par, theta):
    """Christoffels of the induced connection on the reduced chart.

    GammaC[:, i, j] = A^{-1} Bperp (D d2phi_ij + Gamma1(dphi_i, dphi_j)) with
    A = Bperp D dphi: one reduction_matrix column per pair i <= j.
    """
    d = len(theta)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    X = reduction_matrix(
        sys, par, theta,
        lambda x, dphi: _connection_columns(sys, par, theta, x, dphi, pairs))
    out = [[[0.0] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for p, (i, j) in enumerate(pairs):
            out[k][i][j] = out[k][j][i] = X[k][p]
    return out


def reduced_potential(sys, par, theta):
    """lambda(theta) = (Bperp D dphi)^{-1} Bperp gradP at x = phi(theta)."""
    X = reduction_matrix(sys, par, theta,
                         lambda x, dphi: [(None, sys.gradP(x))])
    return [row[0] for row in X]


@dataclass(frozen=True)
class InducedConnection:
    chart: Chart
    gammaC: ConnectionCoeffs
    lam: callable               # reduced potential field


def induced_connection(sys, par):
    """Bundle the induced Christoffels and reduced potential as fields."""
    gammaC = ConnectionCoeffs(par.chart,
                              lambda th: induced_christoffels(sys, par, th))
    return InducedConnection(par.chart, gammaC,
                             lambda th: reduced_potential(sys, par, th))


def constrained_rhs(sys, par, state):
    """Reduced accelerations: thdd^k = -GammaC^k_ij thd^i thd^j - lambda^k.

    Contracted form: thdd = -A^{-1} Bperp (D c + Gamma1(u, u) + gradP), the
    single reduction_matrix column (c, Gamma1(u, u) + gradP), with u = dphi
    thd the lifted velocity, c the curvature term d2phi[thd, thd] of the lift
    and Gamma1 the first-kind Christoffels of D.
    """
    d = par.chart.dim
    theta, thdot = list(state[:d]), list(state[d:])

    def columns(x, dphi):
        u = linalg.mat_vec(dphi, thdot)
        c = [sum(h[i][j] * thdot[i] * thdot[j]
                 for i in range(d) for j in range(d))
             for h in par.d2phi(theta)]
        f = list(sys.gradP(x))
        for l, v in first_kind(sys.metric_grad(x), [(u, u)])[0].items():
            f[l] = f[l] + v
        return [(c, f)]

    return [-row[0] for row in reduction_matrix(sys, par, theta, columns)]


def psi_functions(sys, par, theta):
    """(Psi1, Psi2) of the scalar constrained dynamics thdd = Psi1 + Psi2 thd^2:
    (-lambda, -GammaC) from one reduction_matrix solve of both columns."""
    if par.chart.dim != 1:
        raise ValueError("psi_functions requires degree of underactuation 1")
    (lam, gam), = reduction_matrix(
        sys, par, theta,
        lambda x, dphi: [(None, sys.gradP(x))] + _connection_columns(
            sys, par, theta, x, dphi, [(0, 0)]))
    return (-lam, -gam)


def stabilizing_feedback(sys, q, qdot, gains=(0.0, 0.0)):
    """Input-output linearizing feedback for the output e = h(q).

    Returns (tau, qdd) as lists: tau solves  hdd = -Kp h - Kd hd  along the
    closed loop  D qdd = B tau - gradP - Gamma1(qd, qd)  (Gamma1 the first-
    kind Christoffels of D), and qdd is the full system's acceleration under
    tau. Both come from two ``linalg.solve`` calls: one stacked solve
    D^{-1} [B | gradP + Gamma1(qd, qd)] (n x (m+1)) and one of the m x m
    decoupling matrix dh D^{-1} B. With gains (0, 0) and an on-constraint
    state tau is the unique feedback rendering the constraint manifold
    invariant.
    """
    if sys.h is None:
        raise ValueError("system has no constraint function h")
    q, qdot = list(q), list(qdot)
    m = sys.m
    kp, kd = gains
    dh = jacobian(sys.h, q)                             # m x n
    f = list(sys.gradP(q))
    for l, v in first_kind(sys.metric_grad(q), [(qdot, qdot)])[0].items():
        f[l] = f[l] + v
    X = linalg.solve(sys.D(q), [list(row) + [fl]
                                for row, fl in zip(sys.B(q), f)])
    DinvB = [row[:m] for row in X]
    drift = [-row[m] for row in X]
    b = linalg.mat_mul(dh, DinvB)                       # m x m
    if abs(linalg.det(b)) < 1e-12:
        raise RegularityError("decoupling matrix dh D^{-1} B singular")
    # qdot^T hess(h_r) qdot is the second derivative of s -> h_r(q + s qdot)
    # at s = 0: one directional second_partial for every component
    qHq = second_partial(
        lambda s: sys.h([qi + s[0] * vi for qi, vi in zip(q, qdot)]),
        [0.0], 0, 0)
    rhs = [[-kp * e - kd * de - c - dd] for e, de, c, dd in zip(
        sys.h(q), linalg.mat_vec(dh, qdot), qHq, linalg.mat_vec(dh, drift))]
    tau = [row[0] for row in linalg.solve(b, rhs)]
    return tau, [a + v for a, v in zip(drift, linalg.mat_vec(DinvB, tau))]


def orthogonality_check(sys, par, grid=None, tol=ORTHOGONALITY_TOL):
    """(ok, worst): ok iff dphi^T B vanishes on the grid (control forces
    orthogonal to C). The sweep stops at the first grid point where
    max |dphi^T B| reaches tol, and worst is that first violation; with
    none, it is the largest value on the grid."""
    if grid is None:
        grid = par.chart.grid()
    worst = 0.0
    for th in grid:
        x = par.phi(list(th))
        B = np.asarray(sys.B(x), dtype=float)
        dphi = np.asarray(par.dphi(list(th)), dtype=float)
        v = float(np.max(np.abs(dphi.T @ B)))
        if v >= tol:
            return False, v
        worst = max(worst, v)
    return True, worst


def restricted_structure(sys, par, grid=None):
    """Pullback metric dphi^T D dphi and restricted potential P(phi(theta)).

    Only valid when the control accelerations are orthogonal to the
    constraint manifold; refuses otherwise.
    """
    ok, worst = orthogonality_check(sys, par, grid=grid)
    if not ok:
        raise ValueError(
            f"control accelerations not orthogonal to C (max |dphi^T B| = {worst:g})")

    def metric(th):
        th = list(th)
        dphi = par.dphi(th)
        D = sys.D(par.phi(th))
        return linalg.mat_mul(linalg.transpose(dphi), linalg.mat_mul(D, dphi))

    def potential(th):
        return sys.P(par.phi(list(th)))

    return metric, potential
