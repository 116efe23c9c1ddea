"""Derivative, quadrature, and ODE utilities against independent oracles."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad, solve_ivp

from vhckit import calculus, dual as dm
from vhckit.calculus import (IntegrationError, Trajectory, antiderivative,
                             from_slope, gradient, integrate_ode, jacobian,
                             line_segment, matrix_partial, partial, pieces,
                             quad, second_partial, transport, vector_partial)
from vhckit.dual import Dual, eps, real


def simpson_doubling(f, a, b, tol=1e-12, max_iter=22):
    """Independent adaptive-Simpson oracle by interval doubling."""
    n = 8
    prev = None
    for _ in range(max_iter):
        xs = np.linspace(a, b, n + 1)
        ys = np.asarray([f(x) for x in xs])
        h = (b - a) / n
        val = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                         + 2.0 * ys[2:-2:2].sum())
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n *= 2
    return prev


def test_partial_and_gradient_closed_form():
    f = lambda x: dm.sin(x[0]) * x[1] + x[1] ** 3
    x = [0.7, 1.2]
    assert partial(f, x, 0) == pytest.approx(math.cos(0.7) * 1.2, rel=1e-12)
    assert partial(f, x, 1) == pytest.approx(math.sin(0.7) + 3 * 1.2 ** 2,
                                             rel=1e-12)
    g = gradient(f, x)
    assert g[0] == pytest.approx(math.cos(0.7) * 1.2, rel=1e-12)


def test_from_slope_peels_each_dual_level():
    # a scalar field on the line, given by its value sin and its slope cos
    f = from_slope(math.sin, lambda a, b: dm.cos(a) * b)
    assert f(0.7) == math.sin(0.7)
    d = f(Dual(0.7, 2.0))
    assert real(d) == math.sin(0.7) and eps(d) == math.cos(0.7) * 2.0
    # depth 2: the slope is peeled again at a dual point
    assert second_partial(lambda x: f(x[0]), [0.7], 0, 0) == \
        pytest.approx(-math.sin(0.7), abs=1e-14)
    # a matrix field of two coordinates, with a matrix-valued slope
    g = from_slope(
        lambda x: [[x[0] * x[1], x[0] ** 2], [math.sin(x[1]), 1.0]],
        lambda a, b: [[a[1] * b[0] + a[0] * b[1], 2.0 * a[0] * b[0]],
                      [dm.cos(a[1]) * b[1], 0.0]])
    x = [0.7, 1.3]
    assert g(x) == [[0.7 * 1.3, 0.7 ** 2], [math.sin(1.3), 1.0]]
    assert matrix_partial(g, x, 0) == [[1.3, 1.4], [0.0, 0.0]]
    assert matrix_partial(g, x, 1) == [[0.7, 0.0], [math.cos(1.3), 0.0]]
    want = {(0, 0): [[0.0, 2.0], [0.0, 0.0]],
            (0, 1): [[1.0, 0.0], [0.0, 0.0]],
            (1, 1): [[0.0, 0.0], [-math.sin(1.3), 0.0]]}
    for (i, j), second in want.items():
        for got in (second_partial(g, x, i, j), second_partial(g, x, j, i)):
            assert np.allclose(got, second, rtol=0.0, atol=1e-14)


def test_second_partial_mixed_and_diagonal():
    f = lambda x: dm.exp(x[0] * x[1])
    x = [0.4, -0.8]
    e = math.exp(x[0] * x[1])
    assert second_partial(f, x, 0, 0) == pytest.approx(x[1] ** 2 * e,
                                                       rel=1e-10)
    assert second_partial(f, x, 0, 1) == pytest.approx(
        (1.0 + x[0] * x[1]) * e, rel=1e-10)


def test_second_partial_pole_adjacent():
    # cot has severe cancellation under finite differences near its pole;
    # the dual path must stay exact.
    f = lambda x: dm.cos(x[0]) / dm.sin(x[0])
    u = 0.05
    assert second_partial(f, [u], 0, 0) == pytest.approx(
        2.0 * math.cos(u) / math.sin(u) ** 3, rel=1e-9)


def test_jacobian_and_vector_partial():
    f = lambda x: [x[0] * x[1], dm.cos(x[0])]
    x = [0.3, 2.0]
    J = jacobian(f, x)
    assert J[0][0] == pytest.approx(2.0, rel=1e-12)
    assert J[0][1] == pytest.approx(0.3, rel=1e-12)
    assert J[1][0] == pytest.approx(-math.sin(0.3), rel=1e-12)
    col = vector_partial(f, x, 1)
    assert col[0] == pytest.approx(0.3, rel=1e-12)
    assert col[1] == pytest.approx(0.0, abs=1e-15)


def test_matrix_partial():
    M = lambda x: [[x[0] ** 2, x[1]], [0.0, dm.sin(x[1])]]
    x = [1.5, 0.6]
    dM = matrix_partial(M, x, 0)
    assert dM[0][0] == pytest.approx(3.0, rel=1e-12)
    assert dM[1][1] == pytest.approx(0.0, abs=1e-15)


def test_second_and_matrix_partial_of_nested_fields():
    f = lambda x: [x[0] * x[0] * x[1], dm.sin(x[1])]
    x = [0.7, 1.3]
    assert second_partial(f, x, 0, 1) == pytest.approx([2 * x[0], 0.0],
                                                       abs=1e-15)
    assert second_partial(f, x, 1, 1) == pytest.approx(
        [0.0, -math.sin(x[1])], rel=1e-12)
    G = lambda x: [[[x[0] * x[1], 0.0], [dm.exp(x[1]), x[0]]]]
    dG = matrix_partial(G, x, 1)
    assert np.allclose(dG, [[[x[0], 0.0], [math.exp(x[1]), 0.0]]],
                       rtol=1e-12, atol=0.0)
    H = second_partial(G, x, 0, 1)
    assert H[0][0][0] == pytest.approx(1.0, rel=1e-12)
    assert H[0][1] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_quad_against_simpson_doubling():
    f = lambda t: math.exp(math.sin(3.0 * t)) + t * t
    ours = quad(f, 0.0, 2.0)
    oracle = simpson_doubling(f, 0.0, 2.0)
    assert ours == pytest.approx(oracle, abs=1e-10)


def test_quad_exact_polynomial():
    assert quad(lambda t: 3.0 * t * t, 0.0, 2.0) == pytest.approx(8.0,
                                                                  rel=1e-12)


@pytest.mark.parametrize("n", calculus.CHEB_LEVELS)
def test_integration_matrix_is_exact_on_polynomials(n):
    x = calculus._nodes(n)[0]
    Q = calculus._integration_matrix(n)
    for k in (0, 1, 2, 7, n):
        want = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(Q @ x ** k - want)) <= 1e-14 * n


def test_antiderivative_is_dense_in_either_direction():
    for a, b in ((0.0, 3.0), (3.0, 0.0)):
        F = antiderivative(math.cos, a, b, F0=0.5)
        for t in (a, 0.3, 1.7, b):
            assert F(t) == pytest.approx(0.5 + math.sin(t) - math.sin(a),
                                         abs=1e-14)
        assert F.end == F(b)


def test_pieces_halve_a_kink_and_raise_at_a_pole():
    parts = pieces(lambda t: abs(t - 0.3), 0.0, 1.0)
    assert len(parts) > 2
    assert [p.a for p in parts[1:]] == [p.b for p in parts[:-1]]
    assert parts[0].a == 0.0 and parts[-1].b == 1.0
    assert all(len(p.values) <= 65 for p in parts[1:])
    with pytest.raises(IntegrationError, match="no Chebyshev sample"):
        pieces(lambda t: 1.0 / (t - 0.3), 0.0, 1.0)


def test_transport_matches_the_matrix_exponential():
    # Y' = A Y with A constant: Y(t) = expm(A t) Y0, here a damped rotation
    A = np.array([[-0.3, 2.0], [-2.0, -0.3]])
    Y0 = np.array([[1.0, 0.5], [0.0, 2.0]])
    Y = transport(lambda t: A, 0.0, 5.0, Y0)

    def expm(t):
        c, s = math.cos(2.0 * t), math.sin(2.0 * t)
        return math.exp(-0.3 * t) * np.array([[c, s], [-s, c]])

    for t in (0.0, 1.1, 3.7, 5.0):
        assert np.max(np.abs(Y(t) - expm(t) @ Y0)) <= 1e-14
    assert np.array_equal(Y.end, Y(5.0))


@pytest.mark.parametrize("a, b", [(0.0, 6.0), (6.0, -1.0)],
                         ids=["forward", "backward"])
def test_dense_at_matches_its_call(a, b):
    # the stacked read groups points by piece as __call__ does: its nodes
    # and piece ends are their rows, and elsewhere only the order of the
    # barycentric sums differs
    def A(t):
        return np.array([[0.0, 1.0 + math.sin(3.0 * t)],
                         [-math.exp(math.cos(t)), 0.1 * t]])

    Y = transport(A, a, b, np.eye(2))
    assert len(Y.parts) > 2
    nodes = []
    for p in Y.parts:
        x = calculus._nodes(len(p.values) - 1)[0]
        t = p.mid + p.half * x
        # the points that Piece.at reads as nodes
        nodes += [p.a, p.b, *t[(t - p.mid) / p.half == x]]
    assert len(nodes) > 40
    assert np.array_equal(Y.at(np.array(nodes)), [Y(t) for t in nodes])
    t = np.random.default_rng(5).uniform(min(a, b), max(a, b), 500)
    scale = max(np.max(np.abs(p.values)) for p in Y.parts)
    assert np.max(np.abs(Y.at(t) - [Y(s) for s in t])) <= 1e-15 * scale
    assert Y.at(np.array([b]))[0].tolist() == Y.end.tolist()
    # a jump at the joint, and ends that do not map exactly onto +-1: the
    # joint is the end of the piece before it, as in __call__
    s0, s1, s2 = (0.1, 0.7, 1.3) if b > a else (1.3, 0.7, 0.1)
    J = calculus.Dense([calculus.sample(math.sin, s0, s1),
                        calculus.sample(math.cos, s1, s2)])
    ends = np.array([s0, s1, s2])
    assert J.at(ends).tolist() == [J(s) for s in ends] \
        == [math.sin(s0), math.sin(s1), math.cos(s2)]


# the solve_ivp method that integrate_ode ports, for scipy as the oracle
SCIPY_PAIR = ["DOP853"]


@pytest.mark.parametrize("method", SCIPY_PAIR)
def test_integrate_ode_exponential_decay(method):
    traj = integrate_ode(lambda t, x: [-x[0]], 0.0, [1.0], 2.0, 1e-12)
    assert traj.end_state[0] == pytest.approx(math.exp(-2.0), abs=1e-8)
    ref = solve_ivp(lambda t, x: [-x[0]], (0.0, 2.0), [1.0], method=method,
                    rtol=1e-12, atol=1e-12)
    assert traj.end_state[0] == pytest.approx(ref.y[0, -1], rel=1e-14)


@pytest.mark.parametrize("method", SCIPY_PAIR)
def test_integrate_ode_rejects_non_finite_start(method):
    # a NaN derivative makes a NaN first step, which no step-size test
    # rejects: the loop would never end. scipy's does not end without a
    # first step; with one, it gives up only after shrinking it to nothing
    calls = []

    def rhs(t, x):
        calls.append(t)
        return [x[0] * math.nan]

    with pytest.raises(IntegrationError, match="not finite at t = 0.5"):
        integrate_ode(rhs, 0.5, [1.0], 2.0, 1e-10)
    assert calls == [0.5]
    ref = solve_ivp(rhs, (0.5, 2.0), [1.0], method=method, rtol=1e-10,
                    atol=1e-10, first_step=0.1)
    assert not ref.success and ref.nfev > 100


def test_no_module_imports_scipy():
    # the stepper, the quadrature, the DCT and the minimax solver are the
    # package's own: scipy is an oracle of the tests only
    imports = []
    for path in sorted(Path(calculus.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            imports.extend((path.name, m) for m in mods
                           if m.split(".")[0] == "scipy")
    assert imports == []


def _vdp(t, y):
    return [y[1], 2.0 * (1.0 - y[0] ** 2) * y[1] - y[0]]


def _forced(t, y):
    return np.array([-y[0] + math.sin(3.0 * t), y[0] - 0.5 * y[1] * y[1]])


@pytest.mark.parametrize("option", [None, "max_step", "t_eval"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "nodes"])
@pytest.mark.parametrize("case", [(_vdp, 0.0, [2.0, 0.0], 7.0),
                                  (_forced, 1.0, [0.3, -0.2], -4.0)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("method", SCIPY_PAIR)
def test_integrate_ode_matches_solve_ivp(method, case, dense, option):
    # scipy's solve_ivp is the oracle of the port: the same nodes and RHS
    # calls, and the same states to roundoff; with ``dense``, the step
    # interpolants too, read through t_eval between and at scipy's nodes
    fn, t0, y0, t1 = case
    kw = {"max_step": {"max_step": 0.37},
          "t_eval": {"t_eval": np.linspace(t0, t1, 13)}}.get(option, {})
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return fn(t, y)

    ref = solve_ivp(fn, (t0, t1), y0, method=method, rtol=1e-10,
                    atol=1e-10, **kw)
    ours = integrate_ode(rhs, t0, y0, t1, 1e-10, **kw)
    assert ref.success
    assert np.array_equal(ours.times, ref.t)
    assert calls[0] == ref.nfev
    scale = np.maximum(1.0, np.abs(ref.y.T))
    assert np.max(np.abs(ours.states - ref.y.T) / scale) <= 1e-14
    if not dense:
        return
    kw.pop("t_eval", None)
    sol = solve_ivp(fn, (t0, t1), y0, method=method, rtol=1e-10,
                    atol=1e-10, dense_output=True, **kw).sol
    ts = np.sort(np.concatenate([0.5 * (sol.ts[1:] + sol.ts[:-1]), sol.ts]))
    ts = ts if t1 > t0 else ts[::-1]
    got = integrate_ode(fn, t0, y0, t1, 1e-10, t_eval=ts, **kw).states
    want = np.array([sol(t) for t in ts])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) \
        <= 1e-14


@pytest.mark.parametrize("method", SCIPY_PAIR)
def test_nan_mid_solve_is_an_integration_error(method):
    # past t = 1 every stage is NaN: the step shrinks to the spacing of
    # floats, where scipy gives up too, after the same RHS calls
    def fn(t, y):
        return [-y[0] if t <= 1.0 else math.nan]

    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return fn(t, y)

    ref = solve_ivp(fn, (0.0, 2.0), [1.0], method=method, rtol=1e-10,
                    atol=1e-10, dense_output=False)
    assert not ref.success
    with pytest.raises(IntegrationError,
                       match=r"fell below the spacing of floats at t = ") as e:
        integrate_ode(rhs, 0.0, [1.0], 2.0, 1e-10)
    t = float(str(e.value).rsplit("= ", 1)[1])
    assert 1.0 - 1e-12 < t <= 1.0
    assert "step size " in str(e.value)
    assert calls[0] == ref.nfev


def test_pole_is_an_integration_error_without_warnings():
    # y' = 1e150 / (1 - t)^2 overflows the error norm near t = 1: each such
    # step is rejected until the step collapses, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError,
                           match="fell below the spacing of floats") as e:
            integrate_ode(lambda t, y: [1e150 / (1.0 - t) ** 2], 0.0, [0.0],
                          2.0, 1e-6)
    assert 1.0 - 1e-9 < float(str(e.value).rsplit("= ", 1)[1]) < 1.0


@pytest.mark.parametrize("f, a, b", [
    (lambda t: math.exp(math.sin(t)) * math.cos(3.0 * t) + 0.1,
     0.0, 2.0 * math.pi),
    (lambda t: t ** 7 - 3.0 * t ** 2 + 1.0, -1.0, 2.0),
    (lambda t: 1.0 / (1e-3 + t) ** 1.5, 0.0, 1.0),
], ids=["periodic", "polynomial", "endpoint-peaked"])
def test_quad_matches_scipy_quad(f, a, b):
    want = scipy_quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=200)[0]
    assert quad(f, a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_integrate_ode_harmonic_oscillator_dense():
    traj = integrate_ode(lambda t, x: [x[1], -x[0]], 0.0, [1.0, 0.0],
                         2.0 * math.pi, tol=1e-12)
    assert traj.end_state[0] == pytest.approx(1.0, abs=1e-8)
    assert traj.end_state[1] == pytest.approx(0.0, abs=1e-8)
    # a t_eval state between nodes is read from the step's interpolant
    mid = integrate_ode(lambda t, x: [x[1], -x[0]], 0.0, [1.0, 0.0],
                        2.0 * math.pi, tol=1e-12,
                        t_eval=[math.pi / 2.0]).states[0]
    assert mid[0] == pytest.approx(0.0, abs=1e-7)
    assert mid[1] == pytest.approx(-1.0, abs=1e-7)
    assert isinstance(traj, Trajectory)
    assert traj.times[0] == 0.0


def test_integrate_ode_without_dense_output_keeps_nodes_only():
    grid = np.linspace(0.0, math.pi, 5)
    traj = integrate_ode(lambda t, x: [x[1], -x[0]], 0.0, [1.0, 0.0],
                         math.pi, tol=1e-12, t_eval=grid)
    assert np.array_equal(traj.times, grid)
    assert traj.states[2] == pytest.approx([0.0, -1.0], abs=1e-9)
    assert not hasattr(traj, "at")


def test_line_segment_endpoints_and_velocity():
    seg = line_segment([0.0, 1.0], [2.0, -1.0])
    p0, v0 = seg(0.0)
    p1, _ = seg(1.0)
    assert p0 == pytest.approx([0.0, 1.0])
    assert p1 == pytest.approx([2.0, -1.0])
    assert v0 == pytest.approx([2.0, -2.0])


def test_at_points_reads_a_stack_or_each_point(monkeypatch):
    # one stacked read of f's tuple of values, or the points one by one
    # where it raises, to the same rows; a single point is read directly
    def f(x):
        return dm.sin(x[0]) * x[1], [vector_partial(
            lambda y: [y[0] * y[1], dm.exp(y[1])], x, 1), [2.0, x[0]]]

    points = [[0.1, 0.2], [0.3, -0.4], [1.5, 2.0]]
    want = (np.array([f(p)[0] for p in points]),
            np.array([[[float(real(v)) for v in f(p)[1][0]], [2.0, p[0]]]
                      for p in points]))
    stacks, read = [], calculus.stacked

    def recorded(g, pts, fails=False):
        stacks.append(len(pts))
        if fails:
            raise ValueError("no stacked read")
        return read(g, pts)

    monkeypatch.setattr(calculus, "stacked", recorded)
    got = calculus.at_points(f, points)
    monkeypatch.setattr(calculus, "stacked",
                        lambda g, pts: recorded(g, pts, True))
    alone = calculus.at_points(f, points)
    one = calculus.at_points(f, points[:1])
    assert stacks == [3, 3]
    for rows in (got, alone):
        assert [r.shape for r in rows] == [(3,), (3, 2, 2)]
        assert [[v.hex() for v in r.ravel().tolist()] for r in rows] == \
            [[v.hex() for v in w.ravel().tolist()] for w in want]
    assert [r.tolist() for r in one] == [w[:1].tolist() for w in want]


def test_a_level_is_one_read_or_each_node_alone():
    # an integrand that takes arrays reads each level's new nodes in one
    # call; one that takes floats only is read node by node; both give the
    # same Piece, bit for bit
    levels, seen = [], []

    def f(t):
        levels.append(np.size(t))
        return t * t * t - 2.0 * t

    def g(t):
        t = float(t)            # an array of more than one entry raises
        seen.append(t)
        return t * t * t - 2.0 * t

    p, q = calculus.sample(f, 0.0, 3.0), calculus.sample(g, 0.0, 3.0)
    assert levels == [17]
    assert len(seen) == len(p.values) and all(type(t) is float for t in seen)
    assert [v.hex() for v in p.values.tolist()] == \
        [v.hex() for v in q.values.tolist()]


def test_a_level_that_warns_is_not_read_again():
    # under -W error a warning from a level's read is an error of the run,
    # not a reason to read its nodes one by one
    calls = []

    def f(t):
        calls.append(t)
        if isinstance(t, np.ndarray):
            warnings.warn("a level", RuntimeWarning)
        return 0.0 * t

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            pieces(f, 0.0, 1.0)
    assert len(calls) == 1


def test_a_per_node_integrand_makes_no_stacked_read(monkeypatch):
    # a per_node integrand is read at each node alone, as floats, with no
    # stacked read, to the same Piece as an integrand that takes arrays;
    # its first failing node raises its own error
    stacks, read = [], calculus.stacked

    def recorded(f, points):
        stacks.append(len(points))
        return read(f, points)

    monkeypatch.setattr(calculus, "stacked", recorded)
    seen = []

    def g(t):
        seen.append(t)
        return t * t * t - 2.0 * t

    p = calculus.sample(calculus.per_node(g), 0.0, 3.0)
    assert stacks == [] and all(type(t) is float for t in seen)
    assert len(seen) == len(p.values)
    q = calculus.sample(lambda t: t * t * t - 2.0 * t, 0.0, 3.0)
    assert stacks == [17]
    assert [v.hex() for v in p.values.tolist()] == \
        [v.hex() for v in q.values.tolist()]
    with pytest.raises(ZeroDivisionError):
        antiderivative(calculus.per_node(lambda t: 1.0 / (t - 1.5)), 0.0, 3.0)
    assert stacks == [17]
