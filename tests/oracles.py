"""Reference constructions the tests compare the package against, which the
package itself does not need."""

from operator import mul

import numpy as np

from vhckit import linalg
from vhckit.dual import Dual, real
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


def _eliminate(a, rhs):
    """Forward elimination with partial pivoting (the first row of largest
    |real| part), in place on the rows of ``a`` and ``rhs``: returns the
    reciprocal pivots and the number of row swaps."""
    n = len(a)
    invs, swaps = [None] * n, 0
    for col in range(n):
        piv = col
        for r in range(col + 1, n):
            if abs(real(a[r][col])) > abs(real(a[piv][col])):
                piv = r
        if real(a[piv][col]) == 0.0:
            raise linalg.SingularMatrixError("singular matrix in solve()")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            swaps += 1
        prow, prhs = a[col], rhs[col]
        inv = invs[col] = 1.0 / prow[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col] * inv
            if not isinstance(f, Dual) and f == 0.0:
                continue
            for c in range(col + 1, n):
                row[c] = row[c] - f * prow[c]
            rhs[r] = [v - f * w for v, w in zip(rhs[r], prhs)]
    return invs, swaps


def solve(A, B):
    """vhckit.linalg.solve as loops over the rows: the oracle of its
    generated elimination, which must agree bit for bit."""
    n = len(A)
    rhs = list(B)
    a = [list(row) for row in A]
    invs, _ = _eliminate(a, rhs)
    x = [None] * n
    for r in range(n - 1, -1, -1):
        row, s, inv = a[r], rhs[r], invs[r]
        for k in range(r + 1, n):
            ark = row[k]
            s = [u - ark * w for u, w in zip(s, x[k])]
        x[r] = [u * inv for u in s]
    return x


def det(A):
    """vhckit.linalg.det from the loops' pivots and row swaps."""
    a = [list(row) for row in A]
    try:
        _, swaps = _eliminate(a, [[] for _ in a])
    except linalg.SingularMatrixError:
        return 0.0
    d = -1.0 if swaps % 2 else 1.0
    for i, row in enumerate(a):
        d = d * row[i]
    return d


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
        return solve(A, rhs)
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
