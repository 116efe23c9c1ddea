"""Control-theoretic core: regularity, projection, induced connection,
constrained dynamics, and constraint-enforcing feedback.

The projection ``reduction_matrix``, which takes declared column names,
and the force gradP + Gamma1(qd, qd) of ``stabilizing_feedback`` run as
straight-line Python functions, generated once per shape on first use, that
share one emitter of the first-kind contraction Gamma1 and add each sum
left to right from 0, as loops over nested lists do; at a seeded point
they run on its Duals. At a stacked point (``calculus.at_points``) a
variant of the kernel, generated alike, and ``linalg.stacked_solve`` run
once for all the points: each entry is that point's own value, bit for
bit."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .calculus import jacobian, matrix_partial, second_partial
from .dual import real
from .linalg import _function, _list, _tup
from .manifold import Chart, ConnectionCoeffs


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
    dh: callable = None         # optional analytic Jacobian of h, m x n

    @property
    def n(self):
        return self.chart.dim

    def metric_grad(self, x):
        """[d_l D] at x: the analytic dD, else one matrix_partial per axis."""
        if self.dD is not None:
            return self.dD(x)
        return [matrix_partial(self.D, x, l) for l in range(self.n)]

    def h_jacobian(self, x):
        """dh at x: the analytic dh, else the dual jacobian of h."""
        if self.dh is not None:
            return self.dh(x)
        return jacobian(self.h, x)


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


def reduction_matrix(sys, par, theta, columns, thdot=None):
    """X = A^{-1} Bperp (D c + f), A = Bperp D dphi, at x = phi(theta): the
    one projection of ambient data onto the reduced chart, with a column
    for each name in the tuple ``columns`` (Gamma1 the first-kind
    Christoffels of D): "gradP", f = gradP and no c; a pair (i, j),
    c = d2phi_ij and f = Gamma1(dphi_i, dphi_j), no f where the metric
    gradient dD is all plain zeros; "accel", c = d2phi[thdot, thdot] and
    f = gradP + Gamma1(u, u) with u = dphi thdot. Each field is evaluated
    once, d2phi, gradP and dD only if a column needs them, the kernel
    generated for the shape and the columns builds A and the right-hand
    side, and A is solved once, at a float or seeded theta alike. At a
    stacked theta (numpy arrays, or Duals of them, ``calculus.at_points``)
    the stacked kernel and solve run once for all its points, and a
    singular point raises ``linalg.SingularMatrixError`` itself."""
    theta = list(theta)
    x = par.phi(theta)
    dphi = par.dphi(theta)
    lifted = set(columns) != {"gradP"}
    d2phi = par.d2phi(theta) if lifted else None
    gradP = sys.gradP(x) if "gradP" in columns or "accel" in columns else None
    dD = sys.metric_grad(x) if lifted else None
    D, Bp = sys.D(x), sys.Bperp(x)
    shape = (len(x), len(Bp), len(theta), columns)
    if type(real(theta[0])) is np.ndarray:
        return linalg.stacked_solve(*_reduction(*shape, True)(
            D, Bp, dphi, d2phi, thdot, gradP, dD))
    try:
        return linalg.solve(*_reduction(*shape)(
            D, Bp, dphi, d2phi, thdot, gradP, dD))
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"(Bperp D dphi) singular at theta={_floats(theta)}") from e


def _floats(point):
    return [float(real(t)) for t in point]


# -- straight-line kernels ----------------------------------------------------
# Generated once per shape, on first use. Each sum is written as ``0 + a + b
# ...``, a fold from 0 in the order of the loops over nested lists that the
# kernels replace, so floats and duals get those loops' values bit for bit.

def _sum(terms):
    return " + ".join(["0", *terms])


def _gamma1(n, columns, stacked=False):
    """Lines that unpack dD and set F{p}_{l}, for each column p of
    reduction_matrix's ``columns`` with a Gamma1 term, to its f:
    Gamma1(dphi_i, dphi_j)_l for a pair (i, j), None where no term reaches
    l, and G{l} + Gamma1(U, U)_l for "accel". Gamma1(v, w)_l =
    Gamma_{l,ij} v^i w^j, Gamma_{l,ij} = 1/2 (d_i D_jl + d_j D_il - d_l D_ij):
    dD is scanned once, each entry g = d_i D_jl adding to Gamma_{l,ij} and
    Gamma_{l,ji} and subtracting from Gamma_{i,jl}, and a plain-zero entry
    is skipped at run time (a Dual is always truthy). With ``stacked`` an
    entry that is a stack is never skipped: where it is zero, its terms
    are signed zeros, and every F reaches the right-hand side only through
    a sum from 0, which they leave as it is, bit for bit; a non-finite
    factor there is an invalid operation, which a stacked read raises."""
    N = range(n)
    vecs = {p: ("U{}".format,) * 2 if c == "accel"
            else tuple(f"P{{}}_{a}".format for a in c)
            for p, c in enumerate(columns) if c != "gradP"}
    lines = [
        f" {_tup(_tup(_tup(f'g{i}_{j}_{l}' for l in N) for j in N) for i in N)}"
        " = dD",
        " " + " = ".join(f"F{p}_{l}" for p in vecs for l in N) + " = None"]
    for i, j, l in itertools.product(N, N, N):
        g = f"g{i}_{j}_{l}"
        lines += [f" if type({g}) is Stack or {g}:" if stacked else
                  f" if {g}:", f"  h = 0.5 * {g}"]
        for p, (v, w) in vecs.items():
            lines += [f"  t = h * ({v(i)} * {w(j)} + {v(j)} * {w(i)})",
                      f"  F{p}_{l} = t if F{p}_{l} is None else F{p}_{l} + t",
                      f"  t = h * {v(j)} * {w(l)}",
                      f"  F{p}_{i} = -t if F{p}_{i} is None else F{p}_{i} - t"]
    return lines + [f" F{p}_{l} = G{l} if F{p}_{l} is None else G{l} + F{p}_{l}"
                    for p, c in enumerate(columns) if c == "accel" for l in N]


@functools.lru_cache(maxsize=None)
def _reduction(n, r, d, columns, stacked=False):
    """(D, Bperp, dphi, d2phi, thdot, gradP, dD) -> (A, rhs) of
    reduction_matrix for n ambient and d reduced coordinates, r rows of
    Bperp and the declared ``columns``: E = Bperp D, A = E dphi and, per
    column p, rhs = E C{p} + Bperp F{p}. ``stacked`` compiles it for
    stacks (``_gamma1``)."""
    N, R = range(n), range(d)
    lines = [
        "def run(D, Bp, dphi, d2phi, thd, gradP, dD):",
        f" {_tup(_tup(f'D{i}_{k}' for k in N) for i in N)} = D",
        f" {_tup(_tup(f'B{s}_{i}' for i in N) for s in range(r))} = Bp",
        f" {_tup(_tup(f'P{i}_{a}' for a in R) for i in N)} = dphi"]
    if "gradP" in columns or "accel" in columns:
        lines.append(f" {_tup(f'G{l}' for l in N)} = gradP")
    if "accel" in columns:
        lines.append(f" {_tup(f'T{a}' for a in R)} = thd")
        lines += [f" U{i} = " + _sum(f"P{i}_{a} * T{a}" for a in R) for i in N]
    if set(columns) != {"gradP"}:
        H = _tup(_tup(_tup(f"H{k}_{i}_{j}" for j in R) for i in R) for k in N)
        lines += [f" {H} = d2phi", *_gamma1(n, columns, stacked)]
    pairs = [p for p, col in enumerate(columns) if isinstance(col, tuple)]
    if pairs:
        # no term at all: dD is plain zero, and the pairs have no f
        lines.append(" Z = " + " and ".join(f"F{pairs[0]}_{l} is None"
                                            for l in N))
    for p, col in enumerate(columns):
        if col == "gradP":
            lines += [f" F{p}_{l} = G{l}" for l in N]
        elif col == "accel":
            lines += [f" C{p}_{k} = " + _sum(f"H{k}_{i}_{j} * T{i} * T{j}"
                                              for i in R for j in R)
                      for k in N]
        else:
            lines += [f" C{p}_{k} = H{k}_{col[0]}_{col[1]}" for k in N]
            lines += [f" F{p}_{l} = 0.0 if F{p}_{l} is None else F{p}_{l}"
                      for l in N]
    A, rhs = [], []
    for s in range(r):
        lines += [f" E{s}_{k} = " + _sum(f"B{s}_{i} * D{i}_{k}" for i in N)
                  for k in N]
        A.append(_list(_sum(f"E{s}_{k} * P{k}_{a}" for k in N) for a in R))
        row = []
        for p, col in enumerate(columns):
            ec = _sum(f"E{s}_{k} * C{p}_{k}" for k in N)
            bf = _sum(f"B{s}_{i} * F{p}_{i}" for i in N)
            row.append(bf if col == "gradP" else f"{ec} + ({bf})"
                       if col == "accel" else f"{ec} if Z else {ec} + ({bf})")
        rhs.append(_list(row))
    lines.append(f" return {_list(A)}, {_list(rhs)}")
    return _function(lines, "reduction_matrix", type=type, Stack=np.ndarray)


@functools.lru_cache(maxsize=None)
def _force(n):
    """(qdot, gradP, dD) -> gradP + Gamma1(qdot, qdot) of
    stabilizing_feedback, for n coordinates: the "accel" column's f."""
    N = range(n)
    lines = ["def run(qd, gradP, dD):", f" {_tup(f'U{i}' for i in N)} = qd",
             f" {_tup(f'G{l}' for l in N)} = gradP", *_gamma1(n, ("accel",)),
             f" return {_list(f'F0_{l}' for l in N)}"]
    return _function(lines, "stabilizing_feedback")


@dataclass
class RegularityReport:
    regular: bool
    min_singular_value: float
    max_dphiT_B: float = 0.0     # orthogonality of the inputs to C

    def __bool__(self):
        return self.regular


def check_regularity(sys, par, grid=None, tol=1e-8):
    """Smallest scaled singular value of [dphi | D^{-1} B] over a grid, and
    from the same evaluations max |dphi^T B|."""
    if grid is None:
        grid = par.chart.grid()
    best = np.inf
    ortho = 0.0
    for th in grid:
        x = par.phi(list(th))
        D = np.asarray(sys.D(x), dtype=float)
        B = np.asarray(sys.B(x), dtype=float)
        dphi = np.asarray(par.dphi(list(th)), dtype=float)
        try:
            DinvB = np.linalg.solve(D, B)
        except np.linalg.LinAlgError as e:
            raise RegularityError(f"inertia matrix D singular at theta="
                                  f"{_floats(th)}, q={_floats(x)}") from e
        M = np.hstack([dphi, DinvB])
        if M.shape[0] != M.shape[1]:
            raise ValueError("dimension mismatch: need k = m = n - dim(theta)")
        sv = np.linalg.svd(M, compute_uv=False)
        best = min(best, sv[-1] / sv[0])
        ortho = max(ortho, float(np.max(np.abs(dphi.T @ B))))
    return RegularityReport(bool(best > tol), float(best), ortho)


def induced_christoffels(sys, par, theta):
    """Christoffels of the induced connection on the reduced chart.

    GammaC[:, i, j] = A^{-1} Bperp (D d2phi_ij + Gamma1(dphi_i, dphi_j)) with
    A = Bperp D dphi: one reduction_matrix column per pair i <= j.
    """
    d = len(theta)
    pairs = tuple((i, j) for i in range(d) for j in range(i, d))
    X = reduction_matrix(sys, par, theta, pairs)
    out = [[[0.0] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for p, (i, j) in enumerate(pairs):
            out[k][i][j] = out[k][j][i] = X[k][p]
    return out


def reduced_potential(sys, par, theta):
    """lambda(theta) = (Bperp D dphi)^{-1} Bperp gradP at x = phi(theta)."""
    return [row[0] for row in reduction_matrix(sys, par, theta, ("gradP",))]


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
    """Reduced accelerations: thdd^k = -GammaC^k_ij thd^i thd^j - lambda^k,
    in contracted form -A^{-1} Bperp (D c + gradP + Gamma1(u, u)): the
    "accel" column of reduction_matrix, with u = dphi thd the lifted
    velocity and c = d2phi[thd, thd] the curvature of the lift."""
    d = par.chart.dim
    X = reduction_matrix(sys, par, state[:d], ("accel",), list(state[d:]))
    return [-row[0] for row in X]


def psi_functions(sys, par, theta):
    """(Psi1, Psi2) of the scalar constrained dynamics thdd = Psi1 + Psi2 thd^2:
    (-lambda, -GammaC) from one reduction_matrix solve of both columns."""
    if par.chart.dim != 1:
        raise ValueError("psi_functions requires degree of underactuation 1")
    (lam, gam), = reduction_matrix(sys, par, theta, ("gradP", (0, 0)))
    return (-lam, -gam)


def stabilizing_feedback(sys, q, qdot, gains=(0.0, 0.0)):
    """Input-output linearizing feedback for the output e = h(q).

    Returns (tau, qdd) as lists: tau solves  hdd = -Kp h - Kd hd  along the
    closed loop  D qdd = B tau - gradP - Gamma1(qd, qd)  (Gamma1 the first-
    kind Christoffels of D), and qdd is the full system's acceleration under
    tau. dh is the system's ``h_jacobian``, gradP + Gamma1(qd, qd) comes
    from the force code generated for constrained_rhs's column, and qd^T
    hess(h) qd from one directional second_partial. Both outputs come from
    two ``linalg.solve`` calls: one stacked solve D^{-1} [B | gradP +
    Gamma1(qd, qd)] (n x (m+1)) and one of the m x m decoupling matrix
    dh D^{-1} B. With gains (0, 0) and an on-constraint state tau is the
    unique feedback rendering the constraint manifold invariant.
    """
    if sys.h is None:
        raise ValueError("system has no constraint function h")
    q, qdot = list(q), list(qdot)
    m = sys.m
    kp, kd = gains
    dh = sys.h_jacobian(q)                              # m x n
    f = _force(len(q))(qdot, sys.gradP(q), sys.metric_grad(q))
    try:
        X = linalg.solve(sys.D(q), [list(row) + [fl]
                                    for row, fl in zip(sys.B(q), f)])
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"inertia matrix D singular at q={_floats(q)}") from e
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
