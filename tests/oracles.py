"""Reference constructions the tests compare the package against, which the
package itself does not need."""

from operator import mul

import numpy as np

from vhckit import linalg
from vhckit.dual import real
from vhckit.manifold import (ConnectionCoeffs, christoffel_from_metric,
                             first_kind)
from vhckit.vhc import RegularityError


def connection_from_metric(chart, D):
    """The Levi-Civita connection of the metric field D on chart."""
    return ConnectionCoeffs(chart, lambda x: christoffel_from_metric(D, x))


def minimax_by_linprog(p, Q):
    """max_i |p_i + (Q y)_i| at HiGHS's solution y of min t subject to
    -t <= p + Q y <= t: the oracle of metrize2d._minimax_linear."""
    from scipy.optimize import linprog

    p, Q = np.asarray(p, dtype=float), np.asarray(Q, dtype=float)
    k, one = Q.shape[1], np.ones((len(p), 1))
    res = linprog(np.r_[np.zeros(k), 1.0],
                  A_ub=np.block([[Q, -one], [-Q, -one]]), b_ub=np.r_[-p, p],
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.success, res.message
    return float(np.max(np.abs(p + Q @ res.x[:k])))


def reduction_matrix(sys, par, theta, columns):
    """vhckit.vhc.reduction_matrix as loops over nested lists: the oracle of
    its generated projection, which must agree bit for bit."""
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


def rhs_column(sys, par, theta, thdot, x, dphi):
    """vhckit.vhc.constrained_rhs's column (c, gradP + Gamma1(u, u)) from
    first_kind's dict: the oracle of its generated column."""
    d = len(theta)
    u = linalg.mat_vec(dphi, thdot)
    c = [sum(h[i][j] * thdot[i] * thdot[j]
             for i in range(d) for j in range(d))
         for h in par.d2phi(theta)]
    f = list(sys.gradP(x))
    for l, v in first_kind(sys.metric_grad(x), [(u, u)])[0].items():
        f[l] = f[l] + v
    return c, f


def constrained_rhs(sys, par, state):
    """vhckit.vhc.constrained_rhs on the two oracles above."""
    d = par.chart.dim
    theta, thdot = list(state[:d]), list(state[d:])
    X = reduction_matrix(
        sys, par, theta,
        lambda x, dphi: [rhs_column(sys, par, theta, thdot, x, dphi)])
    return [-row[0] for row in X]
