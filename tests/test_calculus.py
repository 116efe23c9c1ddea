"""Derivative, quadrature, and ODE utilities against independent oracles."""

import math
from pathlib import Path

import numpy as np
import pytest

from vhckit import calculus, dual as dm
from vhckit.calculus import (IntegrationError, Trajectory, gradient,
                             integrate_ode, jacobian, line_segment,
                             matrix_partial, partial, quad, second_partial,
                             vector_partial)


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


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_integrate_ode_exponential_decay(method):
    traj = integrate_ode(lambda t, x: [-x[0]], 0.0, [1.0], 2.0, 1e-12,
                         method=method)
    assert traj.end_state[0] == pytest.approx(math.exp(-2.0), abs=1e-8)


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_integrate_ode_rejects_non_finite_start(method):
    # scipy takes a NaN first step from a NaN derivative and never returns
    calls = []

    def rhs(t, x):
        calls.append(t)
        return [x[0] * math.nan]

    with pytest.raises(IntegrationError, match="not finite at t = 0.5"):
        integrate_ode(rhs, 0.5, [1.0], 2.0, 1e-10, method=method)
    assert calls == [0.5]


def test_solve_ivp_is_called_only_in_calculus():
    src = Path(calculus.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if "solve_ivp" in p.read_text())
    assert users == ["calculus.py"]


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
