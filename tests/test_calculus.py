"""Derivative, quadrature, and ODE utilities against independent oracles."""

import math

import numpy as np
import pytest

from vhckit import dual as dm
from vhckit.calculus import (Trajectory, gradient, integrate_ode, jacobian,
                             line_segment, matrix_partial, partial, quad,
                             second_partial, vector_partial)


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
    ours = quad(f, 0.0, 2.0, tol=1e-12)
    oracle = simpson_doubling(f, 0.0, 2.0)
    assert ours == pytest.approx(oracle, abs=1e-10)


def test_quad_exact_polynomial():
    assert quad(lambda t: 3.0 * t * t, 0.0, 2.0) == pytest.approx(8.0,
                                                                  rel=1e-12)


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_integrate_ode_exponential_decay(method):
    traj = integrate_ode(lambda t, x: [-x[0]], 0.0, [1.0], 2.0,
                         method=method, tol=1e-12, step=1e-3)
    assert traj.end_state[0] == pytest.approx(math.exp(-2.0), abs=1e-8)


def test_rk4_one_rhs_call_per_stage():
    calls = []

    def rhs(t, x):
        calls.append(t)
        return [x[1], -math.sin(x[0]) + 0.1 * t]

    n = 16
    traj = integrate_ode(rhs, 0.0, [0.3, 0.0], 2.0, method="rk4",
                         step=2.0 / n)
    # one evaluation at the start, then four stages per step: the first
    # stage of a step is the derivative already taken at its start node
    assert len(calls) == 1 + 4 * n
    f = lambda t, x: np.asarray([x[1], -math.sin(x[0]) + 0.1 * t])
    h = 2.0 / n
    t, x = 0.0, np.asarray([0.3, 0.0])
    for k in range(n):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        assert np.array_equal(traj.states[k + 1], x)
    # values of the earlier five-evaluation step, bit for bit
    assert traj.end_state.tolist() == [-0.012736009295940293,
                                       -0.13115188536621425]
    assert traj.at(1.3).tolist() == [0.11620629689641704,
                                     -0.21387880419404573]


def test_integrate_ode_harmonic_oscillator_dense():
    traj = integrate_ode(lambda t, x: [x[1], -x[0]], 0.0, [1.0, 0.0],
                         2.0 * math.pi, tol=1e-12)
    assert traj.end_state[0] == pytest.approx(1.0, abs=1e-8)
    assert traj.end_state[1] == pytest.approx(0.0, abs=1e-8)
    mid = traj.at(math.pi / 2.0)
    assert mid[0] == pytest.approx(0.0, abs=1e-7)
    assert mid[1] == pytest.approx(-1.0, abs=1e-7)
    assert isinstance(traj, Trajectory)
    assert traj.times[0] == 0.0


def test_line_segment_endpoints_and_velocity():
    seg = line_segment([0.0, 1.0], [2.0, -1.0])
    p0, v0 = seg(0.0)
    p1, _ = seg(1.0)
    assert p0 == pytest.approx([0.0, 1.0])
    assert p1 == pytest.approx([2.0, -1.0])
    assert v0 == pytest.approx([2.0, -2.0])
