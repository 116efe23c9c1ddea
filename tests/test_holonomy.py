"""Parallel transport, loop holonomy, antiderivative caches, and the
one-dimensional metrizability decision."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct

from vhckit import calculus, holonomy
from vhckit.calculus import CurveSampler, line_segment, quad
from vhckit.cli import bundle_from_config
from vhckit.dual import Dual, eps, real
from vhckit.holonomy import (LoopDescriptor, PeriodicAntiderivative,
                             WindowAntiderivative, axis_transport,
                             axis_transports, circle_mod,
                             cylinder_integrals, lagrangian_1d, loop_transport,
                             reverse_path, transport_matrix)
from vhckit.manifold import Chart, ConnectionCoeffs
from vhckit.models import _coordinate_loop, get_model
from vhckit.vhc import induced_connection

import oracles
from oracles import transport_on_gamma

TWO_PI = 2.0 * math.pi
CONFIGS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "configs.py"


def _flat_chart():
    return Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))


def zero_connection(chart):
    zeros = [[[0.0] * chart.dim for _ in range(chart.dim)]
             for _ in range(chart.dim)]
    return ConnectionCoeffs(chart, lambda x: zeros)


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
    F = PeriodicAntiderivative(f)
    for x in [0.5, 2.0, 5.0, TWO_PI + 1.0, -0.7 + 2 * TWO_PI, -0.7,
              -TWO_PI - 2.5]:
        assert F(x) == pytest.approx(quad(f, 0.0, x), abs=1e-9)


def test_window_antiderivative_vs_quad_and_bounds():
    f = lambda t: 1.0 / (1.0 + t * t)
    F = WindowAntiderivative(f, x0=0.0, initial_window=(0.0, 0.0),
                             bounds=(-5.0, 5.0))
    for x in [0.5, -1.2, 4.5, -4.8]:
        assert F(x) == pytest.approx(math.atan(x), abs=1e-10)


def _smooth(t):
    return math.exp(math.sin(t)) * math.cos(3.0 * t) + 1.0


def test_window_antiderivative_samples_a_smooth_integrand(count_calls):
    # each window integrates the Chebyshev sample of f: at most 257 calls
    f = count_calls(_smooth)
    F = WindowAntiderivative(f)
    for x in [0.5, 5.0, -2.0, 9.0, -7.5, 14.0]:
        assert F(x) == pytest.approx(quad(_smooth, 0.0, x), abs=1e-12)
    assert len(F._sols) >= 4 and f.calls <= 257 * len(F._sols)


@pytest.mark.parametrize("kind", ["kinked", "non-finite"])
def test_window_antiderivative_falls_back_to_the_integrand(kind):
    # no Chebyshev sample of |t - 1.3| converges, and a sample with a NaN
    # (here the first) is not used: the window samples f again on halves of
    # its span, to rounding on each side of the kink (DOP853 on f was off
    # by 2.4e-12), or to 1e-12. |t - 1.3| reads a level's nodes at once,
    # and _smooth each node alone: the count is of nodes either way
    spoiled, nodes = [], [0]

    def f(t):
        if kind == "kinked":
            return abs(t - 1.3)
        if not spoiled:
            spoiled.append(t)
            return math.nan
        return _smooth(t)

    def counted(t):
        nodes[0] += np.size(t)
        return f(t)

    F = WindowAntiderivative(counted)
    assert nodes[0] > {"kinked": 257, "non-finite": 17}[kind]
    for x in [0.5, 1.3, 2.0, 5.0, TWO_PI]:
        if kind == "kinked":
            want, tol = 0.5 * (abs(x - 1.3) * (x - 1.3) + 1.3 * 1.3), 1e-13
        else:
            want, tol = quad(_smooth, 0.0, x), 1e-12
        assert F(x) == pytest.approx(want, abs=tol)


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


def test_axis_transport_trivial_leg_is_one_step():
    # a leg on which the connection vanishes is one block, exact
    leg = axis_transport(zero_connection(_flat_chart()), [0.3, -0.2], 1,
                         -1.5, 1.5)
    assert len(leg.parts) == 1
    assert np.array_equal(leg.end, np.eye(2))
    assert np.array_equal(leg(0.7), np.eye(2))


def test_cylinder_integrals_dpc_loops_close():
    b = get_model("dpc-b")
    conn = induced_connection(b.system, b.parametrization)
    Y = cylinder_integrals(conn.gammaC, [0.0, 0.0], 1)
    assert np.max(np.abs(Y.end - np.eye(2))) < 1e-9
    # the dense transport agrees with transport along the segment, an
    # independent solve on its own Chebyshev sample
    Y = Y(1.3)
    M = transport_matrix(conn.gammaC, line_segment([0.0, 0.0], [0.0, 1.3]), 2)
    assert np.max(np.abs(Y - M)) < 1e-8


def test_cylinder_integrals_generator_holonomy():
    # Gamma^2_22 = 0.1 alone: the generator holonomy is diag(1, e^{-0.2 pi})
    chart = Chart(2, (False, True), ((-2.0, 2.0), (0.0, TWO_PI)))

    def coeffs(x):
        g = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        g[1][1][1] = 0.1
        return g

    H = cylinder_integrals(ConnectionCoeffs(chart, coeffs), [0.0, 0.0],
                           1).end
    assert math.log(H[1][1]) == pytest.approx(-0.2 * math.pi, rel=1e-9)
    assert H[0][0] == 1.0 and H[0][1] == 0.0 and H[1][0] == 0.0


def test_coordinate_loop_descriptor():
    loop = _coordinate_loop([0.0, 0.5], 1, "fiber")
    assert isinstance(loop, LoopDescriptor)
    seg = loop.segments[0]
    p0, v0 = seg(0.0)
    p1, _ = seg(TWO_PI)
    assert p0 == pytest.approx([0.0, 0.5])
    assert p1[1] == pytest.approx(0.5 + TWO_PI)
    assert v0 == pytest.approx([0.0, 1.0])


def _polyline(points):
    """One CurveSampler through ``points``, a unit of t per segment."""
    k = len(points) - 1

    def fn(t):
        i = min(int(t), k - 1)
        p, q = points[i], points[i + 1]
        return ([a + (t - i) * (c - a) for a, c in zip(p, q)],
                [c - a for a, c in zip(p, q)])

    return CurveSampler(fn, 0.0, float(k), tuple(float(i) for i in range(1, k)))


# a box inside each chart, off its bounds
_SAMPLED_CASES = {
    "circle": ({"alpha": 0.3}, [(0.0, TWO_PI)]),
    "sphere": ({}, [(0.5, 2.6), (-2.0, 2.0)]),
    "dpc-b": ({}, [(-1.5, 1.5), (0.0, TWO_PI)]),
}


@pytest.mark.parametrize("built", ["builtin", "config"])
@pytest.mark.parametrize("name", sorted(_SAMPLED_CASES))
def test_sampled_transport_matches_direct_gamma(name, built):
    params, box = _SAMPLED_CASES[name]
    if built == "builtin":
        b = get_model(name, **params)
    else:
        cfg = runpy.run_path(str(CONFIGS_PY))["CONFIGS"][name]
        b = bundle_from_config(cfg, overrides=params)
    gamma = induced_connection(b.system, b.parametrization).gammaC
    d = len(box)
    rng = np.random.default_rng(7)
    paths = []
    for _ in range(3):
        pts = [[rng.uniform(lo, hi) for lo, hi in box] for _ in range(4)]
        paths += [line_segment(pts[0], pts[1]), _polyline(pts)]
    for p in paths:
        M = transport_matrix(gamma, p, d)
        assert np.max(np.abs(M - transport_on_gamma(gamma, p, d))) < 1e-9


def test_kinked_connection_is_transported_on_gamma():
    # |x - 0.2| and |y + 0.1| kink the coefficient inside the pieces, so
    # no Chebyshev sample of a whole piece converges: each is halved until
    # its parts resolve, on either side of a kink or across a kink that
    # rounding hides. The laws hold to rounding; DOP853 on gamma missed
    # most of each kink and met them to 4e-8 at its default tol.
    def coeffs(x):
        g = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        g[0][0][1] = g[0][1][0] = 0.3 * abs(x[0] - 0.2) + 0.1
        g[1][1][1] = 0.4 * abs(x[1] + 0.1)
        g[1][0][0] = 0.2 * x[1]
        return g

    gamma = ConnectionCoeffs(_flat_chart(), coeffs)
    points = [[-0.5, -0.6], [0.8, 0.5], [0.1, 0.9], [-0.5, -0.6]]
    segs = [line_segment(p, q) for p, q in zip(points[:-1], points[1:])]
    whole = _polyline(points)
    M, R = np.eye(2), np.eye(2)
    for s in segs:
        M = transport_matrix(gamma, s, 2) @ M
        R = R @ transport_matrix(gamma, reverse_path(s), 2)
    W = transport_matrix(gamma, whole, 2)
    B = transport_matrix(gamma, reverse_path(whole), 2)
    assert np.max(np.abs(W - M)) < 1e-12
    for back, forth in ((B, M), (R, M), (R, W), (B, W)):
        assert np.max(np.abs(back @ forth - np.eye(2))) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.25])
def test_circle_holonomy_has_relative_accuracy(alpha):
    # X' = -tan(alpha) X: each block of the solve keeps its relative
    # accuracy, so a map of 6e-9 (alpha = 1.25) keeps its digits too
    b = get_model("circle", alpha=alpha)
    conn = induced_connection(b.system, b.parametrization)
    H = loop_transport(conn.gammaC, b.generators[0]).matrix[0][0]
    want = math.exp(-TWO_PI * math.tan(alpha))
    assert abs(H / want - 1.0) < 1e-12


def test_chebyshev_coefficients_match_scipy_dct():
    # the DCT-I behind each Chebyshev sample is numpy's FFT of the even
    # extension; scipy's dct is its oracle, on random samples and on the
    # dpc-b generator's coefficient at every level
    rng = np.random.default_rng(3)
    samples = [rng.normal(size=(33, 4))]
    conn = induced_connection(get_model("dpc-b").system,
                              get_model("dpc-b").parametrization)
    A = holonomy._coefficient(conn.gammaC, lambda t: ([0.0, t], [0.0, 1.0]))
    for n in calculus.CHEB_LEVELS:
        x = math.pi + math.pi * np.cos(np.pi * np.arange(n + 1) / n)
        samples.append(np.array([A(t) for t in x]).reshape(n + 1, -1))
    for G in samples:
        want = dct(G, type=1, axis=0)
        assert np.max(np.abs(calculus._dct1(G) - want)) <= \
            1e-14 * np.max(np.abs(want))


def test_cylinder_integrals_samples_the_connection_once():
    # the dpc-b generator converges at the last level, 257 nodes; on gamma
    # at every step the solve took about 1,750 evaluations. The count is of
    # points, stacked or single
    b = get_model("dpc-b")
    conn = induced_connection(b.system, b.parametrization)
    calls = [0]

    def gamma(x):
        calls[0] += np.size(x[0])
        return conn.gammaC(x)

    Y = cylinder_integrals(gamma, [0.0, 0.0], 1)
    assert calls[0] <= 257
    assert np.max(np.abs(Y.end - np.eye(2))) < 1e-9


def _line_connection(fn):
    """Gamma with Gamma^0_00 = fn(x), Gamma^1_01 = Gamma^1_10 = 0.3 and the
    rest 0, on the square of side 4."""
    chart = _flat_chart()

    def coeffs(x):
        g = [[[0.0 * x[0]] * 2 for _ in range(2)] for _ in range(2)]
        g[0][0][0] = fn(x)
        g[1][0][1] = g[1][1][0] = 0.3 + 0.0 * x[1]
        return g

    return ConnectionCoeffs(chart, coeffs)


def test_legs_read_together_are_each_leg_alone():
    # legs along axis 0 through several lines, one through the kink of
    # |x0 - x1/2 - 0.1|, read in one stack per level: each leg is bit for
    # bit the leg alone and the oracle's, which reads each node alone; the
    # kinked leg is halved
    gamma = _line_connection(lambda x: abs(x[0] - 0.5 * x[1] - 0.1))
    legs = [([0.0, y], 0.0, end) for y in (-1.0, 0.4, 1.2)
            for end in (-1.5, 1.5)]
    together = axis_transports(gamma, 0, legs)
    alone = [axis_transport(gamma, p, 0, lo, hi) for p, lo, hi in legs]
    for Y, Z, (p, lo, hi) in zip(together, alone, legs):
        assert oracles.dense_bits(Y) == oracles.dense_bits(Z) == \
            oracles.dense_bits(oracles.axis_transport(gamma, p, 0, lo, hi))
    assert max(len(Y.parts) for Y in together) > 10


@pytest.mark.parametrize("order", ["pole first", "error first"])
def test_legs_read_together_raise_as_one_leg_at_a_time(order):
    # a leg through the pole of 1/(x0 - x1) never resolves and halves down
    # to 2^-40 of its span; a leg on x1 = 1.7 raises at its first node. The
    # legs read together raise the error of the first leg that fails, with
    # its message, as the legs one at a time do
    def fn(x):
        if np.any(x[1] == 1.7):
            raise ValueError("a field undefined on x1 = 1.7")
        return 1.0 / (x[0] - x[1])

    gamma = _line_connection(fn)
    legs = [([0.0, -1.0], 0.0, 1.5), ([0.0, 0.55], 0.0, 1.5),
            ([0.0, 1.7], 0.0, 1.5)]
    legs = [legs[0]] + (legs[1:] if order == "pole first" else legs[:0:-1])
    errors = []
    for run in (lambda: axis_transports(gamma, 0, legs),
                lambda: [axis_transport(gamma, p, 0, lo, hi)
                         for p, lo, hi in legs]):
        with pytest.raises(Exception) as e:
            run()
        errors.append((type(e.value), str(e.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is (calculus.IntegrationError if order == "pole first"
                            else ValueError)
