"""Reference constructions the tests compare the package against, which the
package itself does not need."""

import itertools
import math
from functools import reduce
from operator import add, mul

import numpy as np

from vhckit import linalg
from vhckit.calculus import (CHEB_LEVELS, MIN_PIECE, SPLIT_LEVELS, Dense,
                             IntegrationError, Piece, _fundamental,
                             _integration_matrix, _nodes, _resolved,
                             integrate_ode, vector_partial)
from vhckit.dual import Dual, real
from vhckit.manifold import (ConnectionCoeffs, Tensor02Field,
                             christoffel_from_metric, curvature_coeffs, ricci,
                             total_cov_derivative_02)
from vhckit.metrize2d import _BASIS, RecurrenceData
from vhckit.vhc import RegularityError


def connection_from_metric(chart, D):
    """The Levi-Civita connection of the metric field D on chart."""
    return ConnectionCoeffs(chart, lambda x: christoffel_from_metric(D, x))


def transport_on_gamma(gamma, path, dim, tol=1e-12):
    """transport_matrix by DOP853 on gamma itself at every step, piece by
    piece between the path's breakpoints with the same clamp, and the
    coefficient A^k_j = -Gamma^k_ij v^i summed by loops: the oracle of the
    Chebyshev transport."""
    X = np.eye(dim)
    knots = sorted(b for b in path.breakpoints
                   if path.t_start < b < path.t_end)
    knots = [path.t_start] + knots + [path.t_end]
    for a, b in zip(knots[:-1], knots[1:]):
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)

        def rhs(t, y):
            point, v = path(min(max(t, lo), hi))
            G = gamma([float(c) for c in point])
            A = np.array([[-sum(vi * float(Gki[j]) for vi, Gki in zip(v, Gk))
                           for j in range(dim)] for Gk in G])
            return (A @ y.reshape(dim, dim)).ravel()

        X = integrate_ode(rhs, a, X.ravel(), b, tol).end_state
        X = X.reshape(dim, dim)
    return X


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


def _dot(a, b):
    """sum(map(mul, a, b)) folded left from 0 on every CPython: 3.12's
    float ``sum`` adds with compensation, the generated kernels do not."""
    return reduce(add, map(mul, a, b), 0)


def reduction_matrix(sys, par, theta, columns):
    """vhckit.vhc.reduction_matrix as loops over nested lists, with
    ``columns(x, dphi)`` listing a pair (c, f) per column, an ambient vector
    and an ambient covector, either of which may be None: the oracle of its
    generated kernel, which must agree bit for bit."""
    theta = list(theta)
    x = par.phi(theta)
    dphi = par.dphi(theta)
    cols = columns(x, dphi)
    D_cols = list(zip(*sys.D(x)))
    dphi_cols = list(zip(*dphi))
    A, rhs = [], []
    for bp in sys.Bperp(x):
        bpd = [_dot(bp, col) for col in D_cols]
        A.append([_dot(bpd, col) for col in dphi_cols])
        rhs.append([_dot(bp, f) if c is None
                    else _dot(bpd, c) if f is None
                    else _dot(bpd, c) + _dot(bp, f)
                    for c, f in cols])
    try:
        return solve(A, rhs)
    except linalg.SingularMatrixError as e:
        raise RegularityError(
            f"(Bperp D dphi) singular at theta="
            f"{[float(real(t)) for t in theta]}") from e


def first_kind(dD, pairs):
    """First-kind Christoffels of D contracted with each (v, w) in ``pairs``,
    from the metric gradient dD = [d_i D]:

        Gamma_{l,ij} v^i w^j,  Gamma_{l,ij} = 1/2 (d_i D_jl + d_j D_il - d_l D_ij).

    This is D Gamma(v, w) for the Levi-Civita Christoffels Gamma of D.
    Returns one {l: value} per pair, over the components that a nonzero
    entry of dD reaches. dD is scanned once; plain-zero entries add no work
    (a Dual is always truthy), so a plain-zero gradient gives empty maps:
    the loop reference of the package's generated Gamma1 code.
    """
    # g = d_i D_jl enters Gamma_{l,ij}, Gamma_{l,ji} and -Gamma_{i,jl}
    terms = [(i, j, l, 0.5 * g) for i, dDi in enumerate(dD)
             for j, row in enumerate(dDi) if any(row)
             for l, g in enumerate(row) if g]
    out = []
    for v, w in pairs:
        f = {}
        for i, j, l, h in terms:
            t = h * (v[i] * w[j] + v[j] * w[i])
            f[l] = f[l] + t if l in f else t
            t = h * v[j] * w[l]
            f[i] = f[i] - t if i in f else -t
        out.append(f)
    return out


def declared_columns(sys, par, theta, names, thdot=None):
    """The ``columns(x, dphi)`` of vhckit.vhc.reduction_matrix's declared
    column ``names`` ("gradP", a pair (i, j), "accel"), built by first_kind's
    loops from one evaluation of each field they need."""
    def columns(x, dphi):
        lifted = set(names) != {"gradP"}
        d2phi = par.d2phi(theta) if lifted else None
        gradP = sys.gradP(x) if "gradP" in names or "accel" in names else None
        dD = sys.metric_grad(x) if lifted else None
        vecs, cols = list(zip(*dphi)), []
        for name in names:
            if name == "accel":
                u = [_dot(row, thdot) for row in dphi]
                cols.append((u, u))
            elif name != "gradP":
                cols.append((vecs[name[0]], vecs[name[1]]))
        forces = iter(first_kind(dD, cols) if cols else ())
        out = []
        for name in names:
            if name == "gradP":
                out.append((None, gradP))
            elif name == "accel":
                c = [reduce(add, (h[i][j] * a * b
                                  for i, a in enumerate(thdot)
                                  for j, b in enumerate(thdot)), 0)
                     for h in d2phi]
                f = list(gradP)
                for l, v in next(forces).items():
                    f[l] = f[l] + v
                out.append((c, f))
            else:
                f = next(forces)
                out.append(([a[name[0]][name[1]] for a in d2phi],
                            [f.get(l, 0.0) for l in range(len(x))]
                            if f else None))
        return out

    return columns


def constrained_rhs(sys, par, state):
    """vhckit.vhc.constrained_rhs on the two oracles above."""
    d = par.chart.dim
    theta, thdot = list(state[:d]), list(state[d:])
    X = reduction_matrix(sys, par, theta, declared_columns(
        sys, par, theta, ("accel",), thdot))
    return [-row[0] for row in X]


# -- the Chebyshev sampler, node by node ---------------------------------------
# vhckit.calculus's sample, pieces, antiderivative and transport as they read
# their integrand before a level's nodes were one read: f at each node in
# turn, and one span at a time, halved by its own loop (``_split``). The
# oracles of the stacked and many-span reads.

def sample(f, a, b, levels=CHEB_LEVELS):
    """vhckit.calculus.sample, with f read at each node alone."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    F = None
    for n in levels:
        t = mid + half * _nodes(n)[0]
        t[0], t[-1] = b, a
        new = np.array([f(s) for s in (t if F is None else t[1::2]).tolist()],
                       dtype=float)
        F = new if F is None else np.insert(new, range(len(F)), F, axis=0)
        if not np.all(np.isfinite(F)):
            return None
        if _resolved(F, max(1.0, float(np.max(np.abs(F))))):
            return Piece(a, b, F)
    return None


def _split(solve, a, b, span):
    """solve(lo, hi) on consecutive spans from a to b: a span where it
    gives None is halved, and one narrower than MIN_PIECE of ``span``
    raises ``IntegrationError``."""
    out, todo = [], [(a, b)]
    while todo:
        lo, hi = todo.pop()
        r = solve(lo, hi)
        if r is not None:
            out.append(r)
            continue
        if abs(hi - lo) <= MIN_PIECE * span:
            raise IntegrationError(f"no Chebyshev sample resolves the span "
                                   f"between {lo:.17g} and {hi:.17g}")
        mid = 0.5 * (lo + hi)
        todo += [(mid, hi), (lo, mid)]
    return out


def pieces(f, a, b):
    """vhckit.calculus.pieces on ``sample`` above: halved depth first."""
    return _split(lambda lo, hi: sample(
        f, lo, hi, CHEB_LEVELS if (lo, hi) == (a, b) else SPLIT_LEVELS),
        a, b, abs(b - a))


def antiderivative(f, a, b, F0=0.0):
    """vhckit.calculus.antiderivative on ``pieces`` above."""
    parts = []
    for p in pieces(f, a, b):
        F = F0 + p.half * (_integration_matrix(len(p.values) - 1) @ p.values)
        parts.append(Piece(p.a, p.b, F))
        F0 = F[0]
    return Dense(parts)


def transport(A, a, b, Y0):
    """vhckit.calculus.transport on ``pieces`` above."""
    Y, parts = np.asarray(Y0, dtype=float), []
    for p in pieces(A, a, b):
        for block in _split(lambda lo, hi: _fundamental(p, lo, hi),
                            p.a, p.b, abs(b - a)):
            parts.append(Piece(block.a, block.b, block.values @ Y))
            Y = parts[-1].values[0]
    return Dense(parts)


def axis_transport(gamma, point, axis, lo, hi):
    """vhckit.holonomy.axis_transport on ``transport`` above, with Gamma
    read at each node alone, through the memo's call."""
    d = len(point)
    vel = np.array([1.0 if i == axis else 0.0 for i in range(d)])

    def A(s):
        x = [s if i == axis else float(c) for i, c in enumerate(point)]
        return -(vel @ np.array(gamma(x), dtype=float))

    return transport(A, lo, hi, np.eye(d))


def dense_bits(Y):
    """The float.hex tree of a Dense: each piece's ends and node values."""
    return [(p.a.hex(), p.b.hex(),
             [v.hex() for v in p.values.ravel().tolist()]) for p in Y.parts]


def _inv2(Y):
    """Inverse of one 2x2 matrix by its adjugate."""
    a, b, c, d = np.ravel(Y)
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def frame_inverse(frame, x):
    """vhckit.metrize2d.ParallelFrame.inverses at one float point, with its
    two legs read at that point alone: the oracle of the stacked reads."""
    x = frame.reduce(x)
    i0, i1 = frame.order
    return _inv2(frame.leg(i0, frame.base, x[i0])) @ \
        _inv2(frame.leg(i1, x, x[i1]))


def forms(W):
    """W^T E W for each basis form E of (1, a, b)."""
    return np.einsum("ki,ekl,lj->eij", W, _BASIS, W)


def form_rows(conn, frame, points, axis):
    """vhckit.metrize2d._form_rows point by point, with the forms of
    frame_inverse: the oracle of its rows on stacked arrays."""
    closed, mu = [], []
    for p in points:
        G = np.asarray(conn.gammaC(p), dtype=float)
        lam = np.array([float(real(v)) for v in conn.lam(p)])
        nab = [np.array([float(real(d)) for d in vector_partial(conn.lam, p, i)])
               + G[:, i, :] @ lam for i in range(2)]
        g = forms(frame_inverse(frame, p))
        closed.append(g[:, 0] @ nab[1] - g[:, 1] @ nab[0])
        mu.append(g[:, axis] @ lam)
    return np.array(closed), np.array(mu)


def bits(v, k=None):
    """The float.hex tree of a value (a number, Dual or nested lists), or
    with k of point k of a stacked value, whose arrays hold one entry per
    point and whose plain numbers are the same at every point."""
    if isinstance(v, Dual):
        return ("Dual", bits(v.val, k), bits(v.eps, k))
    if isinstance(v, (list, tuple)):
        return [bits(c, k) for c in v]
    if k is not None and isinstance(v, np.ndarray):
        v = v[k]
    return float(v).hex()


def points_fields(conn, points):
    """Gamma_C, lambda and [d_i lambda] read point by point, as the flat
    solver read them before its stacked reads: the oracle of
    ``metrize2d._fields``."""
    G, lam, dlam = [], [], []
    for p in points:
        G.append(conn.gammaC(p))
        lam.append([float(real(v)) for v in conn.lam(p)])
        dlam.append([[float(real(d)) for d in vector_partial(conn.lam, p, i)]
                     for i in range(2)])
    return np.array(G, dtype=float), np.array(lam), np.array(dlam)


# -- the curved route's stages, point by point ---------------------------------
# As they read their grids before their stacked reads: the oracles of
# manifold.max_curvature_on_grid, metrize2d.recurrence_solve and
# metrize2d.exactness_check.

def max_curvature_on_grid(gamma, grid):
    """Largest curvature coefficient magnitude, one point at a time."""
    worst = 0.0
    for p in grid:
        for mat3 in curvature_coeffs(gamma, p):
            for mat2 in mat3:
                for row in mat2:
                    for v in row:
                        worst = max(worst, abs(real(v)))
    return worst


def ricci_field(gamma):
    """Ric of gamma, read through gamma's own call."""
    return Tensor02Field(gamma.chart, lambda x: ricci(gamma, x))


def recurrence_at(gamma, ric, x):
    """Ric, nabla Ric and the recurrence one-form omega at the point x; omega
    is None where Ric vanishes."""
    n = len(x)
    R = ric(x)
    dR = total_cov_derivative_02(gamma, ric, x)
    norm2 = sum(R[j][k] * R[j][k] for j in range(n) for k in range(n))
    if real(norm2) == 0.0:
        return R, dR, None
    return R, dR, [sum(dR[i][j][k] * R[j][k] for j in range(n)
                       for k in range(n)) / norm2 for i in range(n)]


def recurrence_solve(gamma, grid, tol=1e-7):
    """The Ricci recurrence test and the sign of Ric, one point at a time."""
    ric = ricci_field(gamma)
    worst, min_norm, indefinite, signs = 0.0, math.inf, False, set()
    for p in grid:
        R, dR, w = recurrence_at(gamma, ric, p)
        R = np.asarray([[float(real(v)) for v in row] for row in R])
        min_norm = min(min_norm, float(np.linalg.norm(R)))
        ev = np.linalg.eigvalsh(0.5 * (R + R.T))
        if ev[0] > 1e-12:
            signs.add(1)
        elif ev[-1] < -1e-12:
            signs.add(-1)
        elif ev[0] < -1e-12 and ev[-1] > 1e-12:
            indefinite = True
        else:
            signs.add(0)
            continue
        w = [float(real(v)) for v in w]
        for i, j, k in itertools.product(range(len(p)), repeat=3):
            worst = max(worst, abs(float(real(dR[i][j][k])) - w[i] * R[j][k]))
    definite = signs.pop() if len(signs) == 1 and 0 not in signs else 0
    return RecurrenceData(ric=ric, residual=worst, definite=definite,
                          recurrent=worst < tol, min_ric_norm=min_norm,
                          indefinite=indefinite)


def exactness_check(rec, grid, tol=1e-6):
    """(exact, max |Ric_01 - Ric_10|), one point at a time."""
    curl_max = 0.0
    for p in grid:
        R = rec.ric(p)
        curl_max = max(curl_max, abs(float(real(R[0][1] - R[1][0]))))
    return curl_max < tol, curl_max
