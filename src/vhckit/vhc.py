"""Control-theoretic core: regularity, projection, induced connection,
constrained dynamics, and constraint-enforcing feedback."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from . import linalg
from .calculus import jacobian, second_partial
from .dual import real
from .manifold import Chart, ConnectionCoeffs, connection_from_metric


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
    christoffels: ConnectionCoeffs = None   # optional analytic shortcut

    @property
    def n(self):
        return self.chart.dim

    def connection(self):
        if self.christoffels is not None:
            return self.christoffels
        return connection_from_metric(self.chart, self.D)

    def gamma(self, x):
        return self.connection()(x)


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


def reduction_matrix(sys, par, theta):
    """T(theta) = (Bperp D dphi)^{-1} Bperp D at x = phi(theta)."""
    x = par.phi(list(theta))
    D = sys.D(x)
    Bp = sys.Bperp(x)
    dphi = par.dphi(list(theta))
    BpD = linalg.mat_mul(Bp, D)
    A = linalg.mat_mul(BpD, dphi)
    try:
        return linalg.solve(A, BpD)
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"(Bperp D dphi) singular at theta={[real(t) for t in theta]}") from e


@dataclass
class RegularityReport:
    regular: bool
    min_singular_value: float
    worst_theta: list
    tol: float

    def __bool__(self):
        return self.regular


def check_regularity(sys, par, grid=None, tol=1e-8):
    """Smallest scaled singular value of [dphi | D^{-1} B] over a grid."""
    if grid is None:
        grid = par.chart.grid()
    best = np.inf
    worst = None
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
    return RegularityReport(bool(best > tol), float(best), worst, tol)


def induced_christoffels(sys, par, theta):
    """Christoffels of the induced connection on the reduced chart.

    GammaC[k][i][j] = sum_a T[k][a] * (d2phi^a_ij + dphi_i^T Gamma^a dphi_j).
    """
    theta = list(theta)
    x = par.phi(theta)
    T = reduction_matrix(sys, par, theta)
    dphi = par.dphi(theta)
    d2phi = par.d2phi(theta)
    G = sys.gamma(x)
    n = sys.n
    d = len(theta)
    # flat ambient metrics give plain-zero Christoffels; skip their terms
    # rather than multiply zeros through nested duals (a Dual is always
    # truthy, so only plain zeros drop out)
    terms = [[(b, c, g) for b, row in enumerate(Ga) if any(row)
              for c, g in enumerate(row) if g] for Ga in G]
    out = [[[0.0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            col = []
            for a in range(n):
                s = d2phi[a][i][j]
                for b, c, g in terms[a]:
                    s = s + g * dphi[b][i] * dphi[c][j]
                col.append(s)
            for k in range(d):
                v = sum(map(mul, T[k], col))
                out[k][i][j] = v
                out[k][j][i] = v
    return out


def reduced_potential(sys, par, theta):
    """lambda(theta) = (Bperp D dphi)^{-1} Bperp gradP at x = phi(theta)."""
    theta = list(theta)
    x = par.phi(theta)
    Bp = sys.Bperp(x)
    BpD = linalg.mat_mul(Bp, sys.D(x))
    A = linalg.mat_mul(BpD, par.dphi(theta))
    rhs = linalg.mat_vec(Bp, sys.gradP(x))
    try:
        return linalg.solve(A, rhs)
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"(Bperp D dphi) singular at theta={[real(t) for t in theta]}") from e


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

    Contracted form: thdd = -A^{-1} (Bperp D c + Bperp gradP) with A the
    reduction system matrix and c the ambient acceleration of the lifted
    curve, so only one d x d solve is needed per evaluation.
    """
    d = par.chart.dim
    theta, thdot = list(state[:d]), list(state[d:])
    x = par.phi(theta)
    dphi = par.dphi(theta)
    d2phi = par.d2phi(theta)
    D = sys.D(x)
    Bp = sys.Bperp(x)
    BpD = linalg.mat_mul(Bp, D)
    A = linalg.mat_mul(BpD, dphi)
    G = sys.gamma(x)
    n = sys.n
    u = [sum(dphi[a][i] * thdot[i] for i in range(d)) for a in range(n)]
    c = []
    for a in range(n):
        s = 0.0
        for i in range(d):
            for j in range(d):
                s = s + d2phi[a][i][j] * thdot[i] * thdot[j]
        for b in range(n):
            for e in range(n):
                s = s + G[a][b][e] * u[b] * u[e]
        c.append(s)
    gradP = sys.gradP(x)
    w = [sum(BpD[k][a] * c[a] for a in range(n))
         + sum(Bp[k][a] * gradP[a] for a in range(n)) for k in range(d)]
    try:
        sol = linalg.solve(A, w)
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"(Bperp D dphi) singular at theta={[real(t) for t in theta]}"
        ) from e
    return [-v for v in sol]


def psi_functions(sys, par, theta):
    """(Psi1, Psi2) of the scalar constrained dynamics thdd = Psi1 + Psi2 thd^2."""
    if par.chart.dim != 1:
        raise ValueError("psi_functions requires degree of underactuation 1")
    theta = list(theta)
    x = par.phi(theta)
    Bp = sys.Bperp(x)[0]
    D = sys.D(x)
    dphi = [row[0] for row in par.dphi(theta)]
    d2phi = [mat[0][0] for mat in par.d2phi(theta)]
    G = sys.gamma(x)
    n = sys.n
    BpD = [sum(Bp[i] * D[i][a] for i in range(n)) for a in range(n)]
    den = sum(BpD[a] * dphi[a] for a in range(n))
    if abs(real(den)) < 1e-14:
        raise RegularityError("Bperp D phi' vanished")
    num2 = sum(BpD[a] * d2phi[a] for a in range(n))
    for a in range(n):
        num2 = num2 + BpD[a] * sum(G[a][b][c] * dphi[b] * dphi[c]
                                   for b in range(n) for c in range(n))
    gp = sys.gradP(x)
    num1 = sum(Bp[i] * gp[i] for i in range(n))
    return (-num1 / den, -num2 / den)


def stabilizing_feedback(sys, q, qdot, gains=(0.0, 0.0)):
    """Input-output linearizing feedback for the output e = h(q).

    Returns (tau, qdd): tau solves  hdd = -Kp h - Kd hd  along the closed
    loop, and qdd is the full system's acceleration under tau, from one
    stacked solve D^{-1} [B | gradP]. With gains (0, 0) and an on-constraint
    state tau is the unique feedback rendering the constraint manifold
    invariant.
    """
    if sys.h is None:
        raise ValueError("system has no constraint function h")
    q, qdot = list(q), list(qdot)
    n, m = sys.n, sys.m
    kp, kd = gains
    dh = np.asarray(jacobian(sys.h, q), dtype=float)     # m x n
    D = np.asarray(sys.D(q), dtype=float)
    Dinv_BP = np.linalg.solve(D, np.column_stack(
        [np.asarray(sys.B(q), dtype=float),
         np.asarray(sys.gradP(q), dtype=float)]))
    DinvB = Dinv_BP[:, :m]
    b = dh @ DinvB                                      # m x m
    if abs(np.linalg.det(b)) < 1e-12:
        raise RegularityError("decoupling matrix dh D^{-1} B singular")
    G = sys.gamma(q)
    quad = np.asarray([sum(G[k][i][j] * qdot[i] * qdot[j]
                           for i in range(n) for j in range(n))
                       for k in range(n)])
    drift = -quad - Dinv_BP[:, m]
    # qdot^T hess(h_r) qdot is the second derivative of s -> h_r(q + s qdot)
    # at s = 0: one directional second_partial for every component
    qHq = second_partial(
        lambda s: sys.h([qi + s[0] * vi for qi, vi in zip(q, qdot)]),
        [0.0], 0, 0)
    rhs = (-kp * np.asarray(sys.h(q), dtype=float) - kd * (dh @ qdot)
           - np.asarray(qHq, dtype=float) - dh @ drift)
    tau = np.linalg.solve(b, rhs)
    return tau, drift + DinvB @ tau


def orthogonality_check(sys, par, grid=None, tol=1e-9):
    """True iff dphi^T B vanishes on the grid (control forces orthogonal to C)."""
    if grid is None:
        grid = par.chart.grid()
    worst = 0.0
    for th in grid:
        x = par.phi(list(th))
        B = np.asarray(sys.B(x), dtype=float)
        dphi = np.asarray(par.dphi(list(th)), dtype=float)
        worst = max(worst, float(np.max(np.abs(dphi.T @ B))))
    return worst < tol, worst


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
