"""Shared numerical kernels: differentiation, Chebyshev integration and
the ODE stepper.

Every derivative in vhckit is taken by the operators below, by seeding dual
numbers; fields must accept dual arguments and stacked points (see
``vhckit.dual`` and ``at_points``). Every
definite integral, antiderivative and parallel transport is solved on a
Chebyshev sample of its integrand or coefficient (``quad``,
``antiderivative``, ``transport``), and the simulations' ODEs by
``integrate_ode``, the embedded Runge-Kutta pair DOP853; both are written
here, so importing the package loads no scipy. A sample reads each level
of its nodes in one call, by the rule of ``at_points``, and many spans
read their levels together (``transports``)."""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .dual import Dual, eps, real, seed

_EPS = sys.float_info.epsilon


class DomainError(ValueError):
    pass


class IntegrationError(RuntimeError):
    pass


_NESTED = (list, tuple)


def _peel(v, part):
    """Apply ``part`` to every entry of a scalar, vector, matrix or rank-3
    value; the depth is read once, from the first entries."""
    if not isinstance(v, _NESTED):
        return part(v)
    if not v or not isinstance(v[0], _NESTED):
        return [part(c) for c in v]
    if not v[0] or not isinstance(v[0][0], _NESTED):
        return [[part(c) for c in row] for row in v]
    return [[[part(c) for c in row] for row in mat] for mat in v]


def _eps2(v):
    return eps(eps(v))


def _lift(v, d):
    """Dual(v, d) entrywise over nested lists."""
    if isinstance(v, _NESTED):
        return [_lift(vi, di) for vi, di in zip(v, d)]
    return Dual(v, d)


def from_slope(value, slope):
    """The field f with f(x) = value(x) at float points and slope(a, b) its
    derivative at a along b, for x a number or a list of coordinates. A
    dual argument x = a + b eps is peeled one level, f(x) = f(a) +
    slope(a, b) eps entrywise; a and b may be duals themselves, so ``slope``
    must accept them, and derivatives of any order go through."""
    def field(x):
        if isinstance(x, Dual):
            return _lift(field(x.val), slope(x.val, x.eps))
        if isinstance(x, _NESTED) and any(isinstance(c, Dual) for c in x):
            a = [c.val if isinstance(c, Dual) else c for c in x]
            return _lift(field(a), slope(a, [eps(c) for c in x]))
        return value(x)
    return field


def partial(f, x, i):
    """First partial derivative of a scalar-valued field at x."""
    if i >= len(x):
        raise DomainError(f"index {i} out of range for arity {len(x)}")
    return eps(f(seed(x, i)))


def second_partial(f, x, i, j):
    """Second partial derivative d_i d_j of a field at x; the field may be
    scalar-, vector-, matrix- or rank-3-valued."""
    return _peel(f(seed(seed(x, i), j)), _eps2)


def gradient(f, x):
    return [partial(f, x, i) for i in range(len(x))]


def vector_partial(f, x, i):
    """Partial derivative of a vector-valued field: returns a list."""
    return [eps(c) for c in f(seed(x, i))]


def jacobian(f, x):
    """Jacobian of a vector field as rows-of-components [a][i] = df^a/dx^i."""
    cols = [vector_partial(f, x, i) for i in range(len(x))]
    return [list(row) for row in zip(*cols)]


def matrix_partial(f, x, i):
    """Partial derivative of a matrix- or rank-3-valued field: nested lists."""
    return _peel(f(seed(x, i)), eps)


def vector_partials(f, x):
    """[vector_partial(f, x, i) for each axis i]. At a stacked point it
    reads f once, at a stack of one block of the points per axis, block i
    seeded along axis i: entry by entry the seeded points' own values."""
    d = len(x)
    if type(real(x[0])) is not np.ndarray:
        return [vector_partial(f, x, i) for i in range(d)]
    n = len(real(x[0]))
    v = f([Dual(np.tile(c, d), np.repeat(np.eye(d)[i], n))
           for i, c in enumerate(x)])
    return [[c[i * n:(i + 1) * n] if type(c) is np.ndarray else c
             for c in map(eps, v)] for i in range(d)]


def stacked(f, points):
    """f at each of the points in one call: an (N, ...) float array of its
    real parts. The call reads a stacked point, whose coordinates are
    arrays with one entry per point, so f runs its arithmetic once for all
    of them, each entry bit for bit that point's own value
    (``vhckit.dual``). f's value there is nested lists whose entries are
    such arrays, or constants, which are broadcast; or an array with one
    row per point. It raises where the points cannot share one run: a
    field that branches on a coordinate's value, a solve singular at one
    point, or a division by zero or invalid operation, which Python raises
    on a float and numpy flags on an array. f may return a tuple of
    values, each read alike. Fewer than two points raise ValueError, since
    an array of one entry converts to a float."""
    if len(points) < 2:
        raise ValueError("a stack needs at least two points")
    x = list(np.asarray(points, dtype=float).T.copy())
    with np.errstate(divide="raise", over="ignore", invalid="raise"):
        return _rows(f(x), len(points))


def _rows(v, n):
    """A value at n points, as (n, ...) float arrays of its real parts."""
    if type(v) is tuple:
        return tuple(_rows(c, n) for c in v)
    if type(v) is np.ndarray and v.ndim:
        if len(v) != n:
            raise ValueError(f"{len(v)} rows for {n} points")
        return v.astype(float, copy=False)
    return np.moveaxis(np.array(_peel(v, lambda c: np.broadcast_to(
        real(c), (n,))), dtype=float), -1, 0)


def _row(v):
    """A value at one point, as (1, ...) float arrays of its real parts."""
    if type(v) is tuple:
        return tuple(map(_row, v))
    return np.array(_peel(v, real), dtype=float)[None]


def _reads(f, points, sizes):
    """f at the points, as ``stacked`` returns it, cut into consecutive
    groups of ``sizes`` points: one stacked read, or, where that raises and
    for fewer than two points, each group's points read one by one up to
    the first that raises, whose error stands for the group. So each row,
    and each error, is the one its point gives alone. A warning raised as
    an error is not read again: no stacked read should warn."""
    if len(points) > 1:
        try:
            rows = stacked(f, points)
        except Warning:
            raise
        except Exception:
            pass
        else:
            if len(sizes) == 1:
                return [rows]
            cuts = [0, *accumulate(sizes)]
            cut = (lambda a, b: tuple(r[a:b] for r in rows)) \
                if type(rows) is tuple else (lambda a, b: rows[a:b])
            return [cut(a, b) for a, b in zip(cuts, cuts[1:])]
    if type(points) is np.ndarray:
        points = points.tolist()
    out, lo = [], 0
    for m in sizes:
        try:
            rows = [_row(f(p)) for p in points[lo:lo + m]]
            out.append(tuple(map(np.concatenate, zip(*rows)))
                       if type(rows[0]) is tuple else np.concatenate(rows))
        except Exception as e:
            out.append(e)
        lo += m
    return out


def at_points(f, points):
    """f at each of the points, as ``stacked`` returns it: one stacked read,
    or, where that raises and for fewer than two points, f at each point in
    turn, so that an error is the one a point raises alone (``_reads``).
    So f is read at a stacked point or at one point, and must give each
    point's value alone either way: at a stacked point its arithmetic runs
    entry by entry, and nothing may mix the entries (a sum or norm over
    them)."""
    (rows,) = _reads(f, points, [len(points)])
    if isinstance(rows, Exception):
        raise rows
    return rows


class per_node:
    """The integrand f of one float, read node by node: a sample of it
    (``_sample``) calls f at each node alone, as floats, and makes no
    stacked read; at an array of nodes, it is the array of f at each. For
    integrands that take floats only."""

    def __init__(self, f):
        self.f = f

    def __call__(self, t):
        f = self.f
        if type(t) is np.ndarray:
            return np.array([f(s) for s in t.tolist()], dtype=float)
        return f(t)


def _of_t(f):
    """The integrand f(t) as ``_sample`` reads one: f(t, k), k unread."""
    return f if type(f) is per_node else (lambda t, k: f(t))


# -- Chebyshev integration ---------------------------------------------------
#
# f on [a, b] is sampled at nested Chebyshev-Lobatto nodes until its
# Chebyshev coefficients converge, on pieces halved where they do not. An
# antiderivative is then one product with the integration matrix, and
# transport solves Y = Y(lo) + int A Y on the nodes (Greengard, SIAM J.
# Numer. Anal. 28 (1991) 1071-1080; Trefethen, ATAP (2013), ch. 19).

CHEB_LEVELS = (16, 32, 64, 128, 256)
CHEB_TAIL = 1e-14
SPLIT_LEVELS = CHEB_LEVELS[:3]    # a halved span samples at most 65 nodes
MIN_PIECE = 2.0 ** -40            # of the span: a narrower piece raises
BLOCK = 32                        # transport's nodes per block, less one


def _dct1(G):
    """DCT-I of the rows of G (scipy.fft.dct(G, type=1, axis=0)): the real
    FFT of the even extension G_0, ..., G_n, G_(n-1), ..., G_1."""
    return np.fft.rfft(np.vstack([G, G[-2:0:-1]]), axis=0).real


def _resolved(F, scale):
    """Whether the Chebyshev coefficients of the node values F (a row per
    node) are below CHEB_TAIL times ``scale`` over their last quarter."""
    n = len(F) - 1
    c = np.abs(_dct1(F.reshape(n + 1, -1))) / n
    return np.max(c[3 * n // 4:]) <= CHEB_TAIL * scale


@lru_cache(maxsize=None)
def _nodes(n):
    """The nodes cos(pi k / n), k = 0, ..., n, and barycentric weights."""
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    return np.cos(np.pi * np.arange(n + 1) / n), w


@lru_cache(maxsize=None)
def _integration_matrix(n):
    """Q with (Q f)_k the integral from -1 to x_k of the polynomial through
    the values f at the nodes x of ``_nodes(n)``: the integrals S of the
    T_j from -1 times f's Chebyshev coefficients C f (a DCT-I), with
    T_j(x_k) = cos(pi j k / n)."""
    j, k = np.arange(n + 2)[:, None], np.arange(n + 1)
    T = np.cos(j * k % (2 * n) * (np.pi / n))
    S = np.empty((n + 1, n + 1))     # in place: n = 256 takes 0.5 MB each
    S[0], S[1], m = T[1] + 1.0, 0.25 * (T[2] - 1.0), j[2:n + 1]
    np.divide(T[3:], 2 * m + 2, out=S[2:])
    S[2:] -= T[1:n] / (2 * m - 2) + (-1.0) ** m / (m * m - 1)
    C = np.multiply(T[:n + 1], 2.0 / n, out=T[:n + 1])
    C[:, [0, n]] *= 0.5
    C[[0, n]] *= 0.5
    Q = S.T @ C
    Q[-1] = 0.0
    return Q


class Piece:
    """Values at the Chebyshev-Lobatto nodes of [a, b], a row per node from
    b to a. At a, b and the nodes it returns their rows; elsewhere it
    interpolates them barycentrically, with a column of ones for the
    denominator, so that constant data stays exact."""

    def __init__(self, a, b, values):
        self.a, self.b, self.values = a, b, values
        self.mid, self.half = 0.5 * (a + b), 0.5 * (b - a)
        self._aug = None

    def __call__(self, t):
        if t == self.b:
            return self.values[0]
        if t == self.a:
            return self.values[-1]
        return self.at(np.array([t]))[0]

    def _weights(self, t):
        x, w = _nodes(len(self.values) - 1)
        if self._aug is None:
            self._aug = np.c_[self.values.reshape(len(x), -1), np.ones(len(x))]
        d = np.subtract.outer((t - self.mid) / self.half, x)
        hit = d == 0.0
        W = w / np.where(hit, 1.0, d)
        rows = hit.any(axis=1)
        W[rows] = hit[rows]
        return W

    def _values(self, v, t):
        return (v[:, :-1] / v[:, -1:]).reshape(t.shape + self.values.shape[1:])

    def at(self, t):
        """Values at each point of the array t, from one product for all of
        them; a row may differ from the point's own (``__call__``) in the
        last bit, as the product may order its sums otherwise."""
        return self._values(self._weights(t) @ self._aug, t)

    def each(self, t):
        """Values at each point of the array t, each bit for bit the
        point's own: one product per point, as ``__call__`` makes."""
        return self._values((self._weights(t)[:, None] @ self._aug)[:, 0], t)


class Dense:
    """A function of t on consecutive pieces from a to b; ``end`` is its
    value at b."""

    def __init__(self, parts):
        self.parts, self.end = parts, parts[-1].values[0]
        self._sign = 1.0 if parts[-1].b > parts[0].a else -1.0
        self._keys = [self._sign * p.b for p in parts[:-1]]

    def __call__(self, t):
        """The value at t, or at each point of an array t its own value, as
        at that float (``Piece.each``)."""
        if type(t) is np.ndarray:
            return self._read(t, Piece.each)
        return self.parts[bisect_left(self._keys, self._sign * t)](t)

    def at(self, t):
        """Values at each point of the array t, with one product per piece
        that holds some (``Piece.at``)."""
        return self._read(np.asarray(t, dtype=float), Piece.at)

    def _read(self, t, read):
        """read(piece, t) for the points of each piece: the pieces of
        ``__call__``, and a piece's end rows at its ends."""
        k = np.searchsorted(self._keys, self._sign * t)
        out = np.empty(t.shape + self.end.shape)
        for j in set(k.tolist()):
            p, sel = self.parts[j], k == j
            out[sel] = read(p, t[sel])
            out[sel & (t == p.b)] = p.values[0]
            out[sel & (t == p.a)] = p.values[-1]
        return out


def _levels(a, b, levels):
    """The sample of one span (``sample``), as a generator: it yields each
    level's new nodes, as an array, and is sent their rows; then it yields
    the Piece of the first level that resolves, or None."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    F = None
    for n in levels:
        t = mid + half * _nodes(n)[0]
        t[0], t[-1] = b, a
        new = yield t if F is None else t[1::2]
        F = new if F is None else np.insert(new, range(len(F)), F, axis=0)
        if not np.all(np.isfinite(F)):
            break
        if _resolved(F, max(1.0, float(np.max(np.abs(F))))):
            yield Piece(a, b, F)
    yield None


def _sample(f, spans):
    """The samples of f(t, k) on the spans (a, b, k, levels), taken
    together: their levels advance in lockstep, and each level's new nodes,
    over all the spans not yet resolved, are one read (``_level``). Per
    span: its Piece, None, or the error that its nodes raise. A span after
    the first that raises is read no further, as a run span by span would
    not reach it."""
    runs = [_levels(a, b, levels) for a, b, _, levels in spans]
    out, todo = [None] * len(spans), [(j, next(r)) for j, r in enumerate(runs)]
    while todo:
        got, nxt = _level(f, [(t, spans[j][2]) for j, t in todo]), []
        for (j, _), rows in zip(todo, got):
            if isinstance(rows, Exception):
                out[j] = rows
                break
            step = runs[j].send(rows)
            if type(step) is np.ndarray:
                nxt.append((j, step))
            else:
                out[j] = step
        todo = nxt
    return out


def _level(f, parts):
    """f at the nodes t of each span k of parts [(t, k)], one row per node:
    one read (``_reads``) of all the points (t, k), or, for a ``per_node``
    f, each node alone. Per part: its rows, or the error of its first node
    that raises; a ``per_node`` f reads no part after that."""
    if type(f) is per_node:
        out = []
        try:
            for t, _ in parts:
                out.append(f(t))
        except Exception as e:
            out.append(e)
        return out
    sizes, lo = [len(t) for t, _ in parts], 0
    points = np.empty((2, sum(sizes)))
    for (t, k), m in zip(parts, sizes):
        points[0, lo:lo + m], points[1, lo:lo + m] = t, k
        lo += m
    return _reads(lambda x: f(*x), points.T, sizes)


def sample(f, a, b, levels=CHEB_LEVELS):
    """f on [a, b] at the nodes of the first level of ``levels`` whose
    Chebyshev coefficients are below CHEB_TAIL times max(1, max |f|) over
    their last quarter, as a Piece; each level doubles the one before, so it
    reuses its samples. None if no level gets there or a value is not
    finite.

    f reads each level's new nodes in one call: it gets them as a float
    array and returns its values with one row per node, as a field does
    at a stacked point (``stacked``). Where that call raises (f takes only
    floats, branches on t, or divides by zero), the level is read node by
    node, so that each value and each error is the one its node gives
    alone; a ``per_node`` f is read node by node. This is the one-span
    case of ``_sample``."""
    (got,) = _sample(_of_t(f), [(a, b, 0, levels)])
    if isinstance(got, Exception):
        raise got
    return got


def _split(solve, spans):
    """solve on consecutive pieces from a to b of each span (a, b, width),
    the spans' next pieces taken together: solve gets the list of (lo, hi,
    j), j the span's index, and gives a result for each. A piece whose
    result is None is halved, depth first, and one narrower than MIN_PIECE
    of its span's width gives ``IntegrationError``. Per span: its results
    in order, which end with the error it meets, if any; the spans after
    the first that meets one get none, as a run span by span would not
    reach them."""
    done, todo = [[] for _ in spans], [[(a, b)] for a, b, _ in spans]
    live = range(len(spans))
    while live:
        for j, r in zip(live, solve([todo[j][-1] + (j,) for j in live])):
            lo, hi = todo[j].pop()
            if r is None:
                if abs(hi - lo) > MIN_PIECE * spans[j][2]:
                    mid = 0.5 * (lo + hi)
                    todo[j] += [(mid, hi), (lo, mid)]
                    continue
                r = IntegrationError(f"no Chebyshev sample resolves the span "
                                     f"between {lo:.17g} and {hi:.17g}")
            done[j].append(r)
            if isinstance(r, Exception):
                del done[j + 1:], todo[j:]
                break
        live = [j for j, stack in enumerate(todo) if stack]
    return done


def _checked(results):
    """A span's results from ``_split``, raising the error they end with."""
    if isinstance(results[-1], Exception):
        raise results[-1]
    return results


def _pieces(f, spans):
    """The pieces of f(t, k) on each span (a, b, k), as ``pieces`` finds
    them (``_split``), sampled together (``_sample``)."""
    return _split(lambda todo: _sample(f, [
        (lo, hi, spans[j][2],
         CHEB_LEVELS if (lo, hi) == spans[j][:2] else SPLIT_LEVELS)
        for lo, hi, j in todo]), [(a, b, abs(b - a)) for a, b, _ in spans])


def pieces(f, a, b):
    """Samples of f (``sample``) on consecutive pieces from a to b: a span
    that no level resolves, or where a value is not finite, is halved
    (``_split``), and a half samples at most 65 nodes."""
    (parts,) = _pieces(_of_t(f), [(a, b, 0)])
    return _checked(parts)


def antiderivative(f, a, b, F0=0.0):
    """F(t) = F0 + int_a^t f on [a, b] (either order), as a Dense: on each
    piece of f, F at the nodes is one product with the integration
    matrix."""
    parts = []
    for p in pieces(f, a, b):
        F = F0 + p.half * (_integration_matrix(len(p.values) - 1) @ p.values)
        parts.append(Piece(p.a, p.b, F))
        F0 = F[0]
    return Dense(parts)


def quad(f, a, b):
    """Integral of ``f`` over [a, b]: the end of its antiderivative
    (Clenshaw-Curtis on each piece)."""
    return float(antiderivative(f, a, b).end)


def _fundamental(A, lo, hi):
    """Phi' = A Phi on [lo, hi], Phi(lo) = I, at the BLOCK + 1 nodes, as a
    Piece, with A read from its Piece: the collocation system
    (I - h Q A) Phi = I. None if Phi's Chebyshev tail is not below
    CHEB_TAIL times its least size over the nodes, so that a decaying
    solution keeps its relative accuracy."""
    half = 0.5 * (hi - lo)
    t = 0.5 * (lo + hi) + half * _nodes(BLOCK)[0]
    t[0], t[-1] = hi, lo
    At = A.at(t)
    m, d = At.shape[:2]
    M = (-half * _integration_matrix(BLOCK)[:, None, :, None]
         * At.transpose(1, 0, 2)[None]).reshape(m * d, m * d)
    M[np.diag_indices(m * d)] += 1.0
    try:
        Phi = np.linalg.solve(M, np.tile(np.eye(d), (m, 1))).reshape(m, d, d)
    except np.linalg.LinAlgError:
        return None
    scale = np.min(np.max(np.abs(Phi), axis=(1, 2)))
    if np.all(np.isfinite(Phi)) and _resolved(Phi, scale):
        return Piece(lo, hi, Phi)
    return None


def transports(A, spans, Y0):
    """Y' = A(t, k) Y on each span (a, b, k) (either order) from Y(a) = Y0,
    as a list of Dense: A is sampled on all the spans together
    (``_pieces``), and each piece solved on blocks (``_fundamental``),
    halved where they do not resolve (``_split``). The spans are solved in
    order, so the error raised is the one the first span that fails
    raises."""
    out = []
    for (a, b, _), parts in zip(spans, _pieces(A, spans)):
        Y, dense = np.asarray(Y0, dtype=float), []
        for p in _checked(parts):
            (blocks,) = _split(lambda todo: [_fundamental(p, lo, hi)
                                             for lo, hi, _ in todo],
                               [(p.a, p.b, abs(b - a))])
            for block in _checked(blocks):
                dense.append(Piece(block.a, block.b, block.values @ Y))
                Y = dense[-1].values[0]
        out.append(Dense(dense))
    return out


def transport(A, a, b, Y0):
    """Y' = A(t) Y on [a, b] (either order) from Y(a) = Y0, as a Dense: the
    one-span case of ``transports``."""
    (Y,) = transports(_of_t(A), [(a, b, 0)], Y0)
    return Y


@dataclass(frozen=True)
class CurveSampler:
    """Piecewise-smooth curve t -> (point, velocity) in chart coordinates."""

    fn: callable
    t_start: float
    t_end: float
    breakpoints: tuple = ()

    def __call__(self, t):
        return self.fn(t)


def line_segment(p, q, t_start=0.0, t_end=1.0):
    """Straight segment from p to q, affine in t."""
    p = [float(c) for c in p]
    q = [float(c) for c in q]
    dt = t_end - t_start
    vel = [(b - a) / dt for a, b in zip(p, q)]

    def fn(t):
        s = (t - t_start) / dt
        return ([a + s * (b - a) for a, b in zip(p, q)], list(vel))

    return CurveSampler(fn, t_start, t_end)


class Trajectory:
    """ODE solution at the solver's nodes or at requested times."""

    def __init__(self, times, states):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.diagnostics = {}

    @property
    def end_state(self):
        return self.states[-1].copy()


# -- DOP853 ------------------------------------------------------------------
#
# A port of scipy 1.17.1's integrate/_ivp (rk.py, common.py,
# dop853_coefficients.py) for Dormand-Prince 8(5,3) (Hairer's DOP853), with
# its tableau, error norm, step controller, initial step and degree-7 dense
# output from three more stages, so that steps, right-hand-side calls and
# states are scipy's. Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed.
# (1993), II.4-5 and II.6 (dense output).

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8       # -1 / (error order + 1)

_C = [0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778]
_A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386,
     0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]]
_E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034,
                0.02265179219836082, 0])
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864,
                -0.35032884874997366, 0.3341791187130175,
                0.08192320648511571, -0.022355307863886294, 0])
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]])

# stage s (1 to 15) is the sum of the earlier stages with weights _A[s], at
# t + _C[s] h; stages 1 to 11 make the step, whose solution weights are
# _A[12], and 13 to 15 the dense output
_STAGES = [(s, np.array(_A[s], dtype=float), _C[s]) for s in range(1, 16)]
_B = np.array(_A[12])


def _rms(x):
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    # squared norms as scipy takes them, root then square, so that the step
    # sizes match its bit for bit
    err5_2, err3_2 = np.sqrt(err5.dot(err5)) ** 2, np.sqrt(err3.dot(err3)) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _dense(rhs, K, t_old, h, y_old, y, f):
    """The step's degree-7 interpolant, after three more stages."""
    for s, a, c in _STAGES[12:]:
        K[s] = rhs(t_old + c * h, y_old + np.dot(K[:s].T, a) * h)
    dy = y - y_old
    F = np.empty((7, len(y)))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2 * dy - h * (f + K[0])
    F[3:] = h * np.dot(_D, K)
    F = F[::-1]

    def poly(t):
        x = (t - t_old) / h
        z = np.zeros_like(y_old)
        for i, row in enumerate(F):
            z += row
            z *= x if i % 2 == 0 else 1 - x
        return z + y_old
    return poly


def _initial_step(rhs, t0, y0, f0, t1, direction, max_step, tol, rtol):
    """Hairer, Norsett & Wanner's starting step (II.4), as scipy's
    ``select_initial_step``: one explicit Euler probe."""
    span = abs(t1 - t0)
    scale = tol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0 * direction, y0 + h0 * direction * f0),
                    dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, span, max_step)


# A pole overflows the error norm to inf or nan, which rejects the step (by
# _MIN_FACTOR) until it collapses: that ends as an IntegrationError, with no
# numpy warning on the way.
@np.errstate(over="ignore", invalid="ignore")
def integrate_ode(rhs, t0, x0, t1, tol, max_step=np.inf, t_eval=None):
    """Integrate ``x' = rhs(t, x)`` from t0 to t1 (either direction) with
    DOP853 at rtol = atol = ``tol``, for the simulations (``vhckit.sim``):
    the nodes, or the states at ``t_eval`` (sorted in the direction of
    integration) from the interpolant of the step that holds them, at three
    more RHS calls per such step. ``rhs`` gets the state as a float ndarray
    and may return a list. A right-hand side that is not finite at the
    start, or a step that must shrink below the spacing of floats (a pole,
    a NaN on the way), raises ``IntegrationError``."""
    t0, t1 = float(t0), float(t1)
    y = np.asarray(x0, dtype=float)
    if t1 == t0:
        return Trajectory([t0], [y])
    f = np.asarray(rhs(t0, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise IntegrationError(f"right-hand side is not finite at t = {t0:g}")
    direction = 1.0 if t1 > t0 else -1.0
    rtol = max(tol, 100 * _EPS)
    h_abs = _initial_step(rhs, t0, y, f, t1, direction, max_step, tol, rtol)
    K = np.empty((len(_STAGES) + 1, y.size))
    rows = [(s, K[:s].T, a, c) for s, a, c in _STAGES[:11]]
    KB, Kerr = K[:12].T, K[:13]
    t, times, states = t0, [t0], [y]
    if t_eval is not None:
        times, states, done = [], [], 0
        keys = [direction * float(s) for s in t_eval]
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"step size {h_abs:.3g} fell below the spacing of "
                    f"floats at t = {t:.15g}")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, Ks, a, c in rows:
                K[s] = rhs(t + c * h, y + np.dot(Ks, a) * h)
            y_new = y + h * np.dot(KB, _B)
            f_new = K[12] = np.asarray(rhs(t + h, y_new), dtype=float)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(Kerr, h, scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else \
                    min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t_eval is None:
            times.append(t)
            states.append(y)
            continue
        stop = bisect_right(keys, direction * t, done)
        if stop > done:
            poly = _dense(rhs, K, t_old, h, y_old, y, f)
            times.extend(t_eval[done:stop])
            states.extend(poly(s) for s in t_eval[done:stop])
            done = stop
    return Trajectory(times, states)
