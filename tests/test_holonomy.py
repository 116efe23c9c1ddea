"""Parallel transport, loop holonomy, antiderivative caches, and the
one-dimensional metrizability decision."""

import math

import numpy as np
import pytest

from vhckit.calculus import CurveSampler, line_segment, quad
from vhckit.dual import Dual, eps, real
from vhckit.holonomy import (CylinderStructureError, FlatnessError,
                             GeneratorHolonomyError, LoopDescriptor,
                             PeriodicAntiderivative, SmoothFromDerivative,
                             WindowAntiderivative, circle_mod,
                             cylinder_integrals, flat_metrizability,
                             lagrangian_1d, loop_transport, reverse_path,
                             transport_matrix)
from vhckit.manifold import (Chart, ConnectionCoeffs, connection_from_metric,
                             zero_connection)
from vhckit.models import _coordinate_loop, get_model
from vhckit.vhc import induced_connection

TWO_PI = 2.0 * math.pi


def _flat_chart():
    return Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))


def test_transport_flat_connection_is_identity():
    gamma = zero_connection(_flat_chart())
    seg = line_segment([0.0, 0.0], [1.0, 1.5])
    M = transport_matrix(gamma, seg, 2)
    assert np.allclose(M, np.eye(2), atol=1e-12)
    v = transport_matrix(gamma, seg, 2) @ np.array([0.3, -0.7])
    assert np.allclose(v, [0.3, -0.7], atol=1e-12)


def test_circle_scalar_loop_transport():
    alpha = 0.3
    b = get_model("circle", alpha=alpha)
    conn = induced_connection(b.system, b.parametrization)
    tm = loop_transport(conn.gammaC, b.generators[0])
    # scalar ODE: X' = -tan(alpha) X around one turn
    assert tm.matrix[0][0] == pytest.approx(math.exp(-TWO_PI *
                                                     math.tan(alpha)),
                                            rel=1e-9)


def test_reverse_path_gives_inverse_transport():
    b = get_model("sphere")
    conn = induced_connection(b.system, b.parametrization)
    seg = line_segment([0.8, 0.1], [1.8, 1.2])
    M = transport_matrix(conn.gammaC, seg, 2)
    Minv = transport_matrix(conn.gammaC, reverse_path(seg), 2)
    assert np.allclose(M @ Minv, np.eye(2), atol=1e-9)


def test_transport_map_inverse_and_composition():
    b = get_model("sphere")
    conn = induced_connection(b.system, b.parametrization)
    p0, p1, p2 = [0.9, -0.4], [1.5, 0.6], [2.1, -0.2]
    s01 = line_segment(p0, p1)
    s12 = line_segment(p1, p2)
    path = LoopDescriptor(tuple(p0), (s01, s12))
    M = loop_transport(conn.gammaC, path).matrix
    M1 = transport_matrix(conn.gammaC, s01, 2)
    M2 = transport_matrix(conn.gammaC, s12, 2)
    assert np.allclose(M, M2 @ M1, atol=1e-10)


def test_transport_integrates_each_piece_inside_its_interval():
    # The sampler returns the next piece's velocity at each knot, as a
    # piecewise path does; reverse_path moves that sample to the left end.
    b = get_model("sphere")
    conn = induced_connection(b.system, b.parametrization)
    calls = [0]

    def gamma(x):
        calls[0] += 1
        return conn.gammaC(x)

    points = [[0.9, -0.4], [1.5, 0.6], [2.1, -0.2], [0.9, -0.4]]

    def fn(t):
        i = min(int(t), 2)
        p, q = points[i], points[i + 1]
        return ([a + (t - i) * (c - a) for a, c in zip(p, q)],
                [c - a for a, c in zip(p, q)])

    poly = CurveSampler(fn, 0.0, 3.0, breakpoints=(1.0, 2.0))
    segs = [line_segment(p, q) for p, q in zip(points[:-1], points[1:])]
    for whole, parts in ((poly, segs),
                         (reverse_path(poly),
                          [reverse_path(s) for s in reversed(segs)])):
        calls[0] = 0
        M = np.eye(2)
        for s in parts:
            M = transport_matrix(gamma, s, 2) @ M
        per_segment = calls[0]
        calls[0] = 0
        M_whole = transport_matrix(gamma, whole, 2)
        assert float(np.max(np.abs(M_whole - M))) < 1e-10
        assert calls[0] <= 1.5 * per_segment


def test_periodic_antiderivative_vs_quad():
    f = lambda t: math.exp(math.sin(t)) - 1.0
    F = PeriodicAntiderivative(f, tol=1e-12)
    for x in [0.5, 2.0, 5.0, TWO_PI + 1.0, -0.7 + 2 * TWO_PI, -0.7,
              -TWO_PI - 2.5]:
        assert F(x) == pytest.approx(quad(f, 0.0, x, tol=1e-12), abs=1e-9)


def test_window_antiderivative_vs_quad_and_bounds():
    f = lambda t: 1.0 / (1.0 + t * t)
    F = WindowAntiderivative(f, tol=1e-12, x0=0.0,
                             initial_window=(0.0, 0.0), bounds=(-5.0, 5.0))
    for x in [0.5, -1.2, 4.5, -4.8]:
        assert F(x) == pytest.approx(math.atan(x), abs=1e-10)


def test_smooth_from_derivative_dual_peel():
    F = SmoothFromDerivative(math.sin, math.cos)
    d = F(Dual(0.7, 2.0))
    assert real(d) == pytest.approx(math.sin(0.7))
    assert eps(d) == pytest.approx(2.0 * math.cos(0.7), rel=1e-12)


def test_circle_mod_preserves_duals():
    d = circle_mod(Dual(TWO_PI + 0.3, 1.0))
    assert real(d) == pytest.approx(0.3)
    assert eps(d) == 1.0


def test_one_dim_decision_alpha_zero():
    b = get_model("circle", alpha=0.0)
    from vhckit.vhc import psi_functions
    psi1 = lambda t: psi_functions(b.system, b.parametrization, [t])[0]
    psi2 = lambda t: psi_functions(b.system, b.parametrization, [t])[1]
    rep = lagrangian_1d(psi1, psi2, "S1")
    assert rep.metrizable and rep.lagrangian
    for th in [0.0, 1.0, 4.0]:
        assert float(rep.M(th)) == pytest.approx(1.0, abs=1e-10)
        assert float(rep.P_C(th)) == pytest.approx(0.0, abs=1e-10)


def test_one_dim_decision_alpha_non_metrizable():
    b = get_model("circle", alpha=0.3)
    from vhckit.vhc import psi_functions
    psi2 = lambda t: psi_functions(b.system, b.parametrization, [t])[1]
    rep = lagrangian_1d(None, psi2, "S1")
    assert not rep.metrizable
    assert rep.int_psi2 == pytest.approx(-TWO_PI * math.tan(0.3), abs=1e-9)


def test_one_dim_on_line_always_lagrangian():
    rep = lagrangian_1d(lambda t: 0.2, lambda t: math.sin(t), "R")
    assert rep.metrizable and rep.lagrangian
    # M' = -2 psi2 M along the line
    x = 0.9
    h = 1e-6
    dM = (rep.M(x + h) - rep.M(x - h)) / (2 * h)
    assert dM == pytest.approx(-2.0 * math.sin(x) * rep.M(x), rel=1e-5)


def test_flat_metrizability_zero_connection():
    gamma = zero_connection(_flat_chart())
    rep = flat_metrizability(gamma)
    assert rep.metrizable
    g0 = np.asarray(rep.g0, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (g0 + g0.T))
    assert w[0] > 0.0


def test_flat_metrizability_rejects_curved_connection():
    def g(x):
        import vhckit.dual as dm
        e = dm.exp(x[0] * x[0])
        return [[e, 0.0], [0.0, e]]

    gamma = connection_from_metric(_flat_chart(), g)
    with pytest.raises(FlatnessError, match="flatness certificate"):
        flat_metrizability(gamma, grid=_flat_chart().grid(3))


def test_cylinder_integrals_dpc_loops_close():
    b = get_model("dpc-b")
    conn = induced_connection(b.system, b.parametrization)
    cyl = cylinder_integrals(conn.gammaC)
    assert abs(cyl.I1_loop) < 1e-9
    assert abs(cyl.I2_loop) < 1e-9
    # I1' = -Gamma^2_22 along the fiber
    t = 1.3
    d = cyl.I1(Dual(t, 1.0))
    g = conn.gammaC([0.0, t])
    assert eps(d) == pytest.approx(-float(g[1][1][1]), abs=1e-9)


def test_cylinder_integrals_reject_wrong_structure():
    chart = Chart(2, (False, True), ((-2.0, 2.0), (0.0, TWO_PI)))

    def bad(x):
        g = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        g[0][0][0] = 1.0          # disallowed entry for a flat cylinder frame
        return g

    gamma = ConnectionCoeffs(chart, bad)
    with pytest.raises(CylinderStructureError):
        cylinder_integrals(gamma)


def test_cylinder_integrals_refuse_nontrivial_holonomy():
    # Gamma^2_22 = 0.1 alone: I1 = -0.1 t is not 2pi-periodic, so its
    # values cannot be read on one period
    chart = Chart(2, (False, True), ((-2.0, 2.0), (0.0, TWO_PI)))

    def coeffs(x):
        g = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        g[1][1][1] = 0.1
        return g

    with pytest.raises(GeneratorHolonomyError, match="holonomy") as err:
        cylinder_integrals(ConnectionCoeffs(chart, coeffs))
    assert err.value.loops["I1_loop"] == pytest.approx(-0.2 * math.pi,
                                                       rel=1e-9)


def test_coordinate_loop_descriptor():
    loop = _coordinate_loop([0.0, 0.5], 1, "fiber")
    assert isinstance(loop, LoopDescriptor)
    seg = loop.segments[0]
    p0, v0 = seg(0.0)
    p1, _ = seg(TWO_PI)
    assert p0 == pytest.approx([0.0, 0.5])
    assert p1[1] == pytest.approx(0.5 + TWO_PI)
    assert v0 == pytest.approx([0.0, 1.0])
