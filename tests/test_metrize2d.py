"""Two-dimensional metrizability: Ricci recurrence, exactness, metric
reconstruction, and the flat-cylinder Lagrangian search."""

import dataclasses
import json
import math

import numpy as np
import pytest

import vhckit.dual as dm
from vhckit.dual import real
from vhckit.manifold import (Chart, christoffel_from_metric, ConnectionCoeffs,
                             connection_from_metric, ricci)
from vhckit.metrize2d import (LineIntegralField, _minimax_linear,
                              cylinder_lagrangian_search,
                              exactness_check, metric_from_ricci,
                              recurrence_solve)
from vhckit.models import get_model
from vhckit.pipeline import AnalysisResult, _analyze_2d_flat, analyze
from vhckit.sim import reduced_energy, simulate_constrained
from vhckit.vhc import InducedConnection, induced_connection

TWO_PI = 2.0 * math.pi

A_STAR = (math.sqrt(2.0) - 2.0) / 3.0


def _sphere_conn():
    b = get_model("sphere")
    return b, induced_connection(b.system, b.parametrization)


def test_recurrence_sphere_closed_forms():
    b, conn = _sphere_conn()
    grid = b.chart.grid(5, 1e-2)
    rec = recurrence_solve(conn.gammaC, grid)
    assert rec.recurrent
    assert rec.definite == 1
    assert rec.residual < 1e-10
    for p in grid[::6]:
        w = [float(real(v)) for v in rec.omega(p)]
        expect = b.expected["omega"](p)
        assert w[0] == pytest.approx(float(expect[0]), abs=1e-9)
        assert w[1] == pytest.approx(float(expect[1]), abs=1e-12)


def test_exactness_check_detects_non_closed_form():
    chart = Chart(2, (False, False), ((-1.0, 1.0), (-1.0, 1.0)))
    closed = lambda x: [x[1], x[0]]            # d(xy)
    not_closed = lambda x: [-x[1], x[0]]       # curl = 2
    ok = exactness_check(closed, chart, grid=chart.grid(5))
    bad = exactness_check(not_closed, chart, grid=chart.grid(5))
    assert ok.exact and ok.curl_max < 1e-10
    assert not bad.exact and bad.curl_max == pytest.approx(2.0, rel=1e-9)


def test_exactness_check_periodic_loop_integral():
    chart = Chart(2, (False, True), ((-1.0, 1.0), (0.0, TWO_PI)))
    # closed but not exact on the cylinder: omega = dtheta2
    omega = lambda x: [0.0, 1.0]
    rep = exactness_check(omega, chart, grid=chart.grid(4))
    assert rep.curl_max < 1e-12
    assert rep.loop_max == pytest.approx(TWO_PI, rel=1e-10)
    assert not rep.exact


def test_potential_from_oneform_recovers_function():
    chart = Chart(2, (False, False), ((-1.0, 1.0), (-1.0, 1.0)))
    f_true = lambda x: math.sin(x[0]) * math.exp(x[1])
    omega = lambda x: [dm.cos(x[0]) * dm.exp(x[1]),
                       dm.sin(x[0]) * dm.exp(x[1])]
    ref = [0.2, -0.3]
    f = LineIntegralField(omega, chart, ref, tol=1e-12)
    for p in chart.grid(4):
        assert f(p) == pytest.approx(f_true(p) - f_true(ref), abs=1e-9)


def test_line_integral_leg_cache_is_bounded():
    chart = Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))
    omega = lambda x: [x[1], x[0]]              # d(x0 * x1)
    f = LineIntegralField(omega, chart, [0.0, 0.0], tol=1e-12)
    cap = LineIntegralField._MAX_LEGS
    count = cap + 20
    for k in range(count):
        x0 = -1.5 + 3.0 * k / count             # a new leg per point
        assert f([x0, 0.5]) == pytest.approx(0.5 * x0, abs=1e-10)
        assert len(f._legs) <= cap
    # legs built again after a clear give the same potential
    assert f([-1.5, 0.5]) == pytest.approx(-0.75, abs=1e-10)


def test_metric_from_ricci_sphere_matches_gauge():
    b, conn = _sphere_conn()
    grid = b.chart.grid(5, 1e-2)
    rec = recurrence_solve(conn.gammaC, grid)
    rep = metric_from_ricci(conn.gammaC, rec, b.expected["gauge_ref"],
                            b=b.expected["gauge_b"],
                            check_grid=b.chart.grid(3, 0.2))
    assert rep.ok
    assert rep.max_nabla_g < 1e-10
    assert rep.max_gamma_dev < 1e-10
    for p in grid[::7]:
        g = rep.g(p)
        expect = b.expected["D_C"](p)
        for i in range(2):
            for j in range(2):
                assert float(real(g[i][j])) == pytest.approx(
                    float(expect[i][j]), abs=1e-9)


def test_metric_levi_civita_round_trip_single():
    # reconstruct a conformal metric from its connection alone
    chart = Chart(2, (False, False), ((-0.5, 0.5), (-0.5, 0.5)))

    def g(x):
        e = dm.exp(2.0 * (0.7 * dm.cos(x[0]) + 0.5 * dm.cos(x[1])))
        return [[e, 0.0], [0.0, e]]

    gamma = connection_from_metric(chart, g)
    grid = chart.grid(5)
    rec = recurrence_solve(gamma, grid)
    assert rec.recurrent and rec.definite != 0
    rep = metric_from_ricci(gamma, rec, [0.0, 0.0],
                            check_grid=chart.grid(3, 0.2))
    assert rep.ok
    ratios = []
    for p in grid:
        got = rep.g(p)
        want = g(p)
        ratios.append(float(real(got[0][0])) / float(real(want[0][0])))
        assert float(real(got[0][1])) == pytest.approx(0.0, abs=1e-8)
    assert np.std(ratios) < 1e-8


def test_recurrence_sign_changing_curvature_is_undecided():
    # e^{2 s^3}(ds^2 + dt^2) has Gauss curvature -6 s e^{-2 s^3}: Ric = K g
    # vanishes on s = 0 (a point of the odd grid) and changes sign there
    chart = Chart(2, (False, False), ((-0.5, 0.5), (-0.5, 0.5)))

    def g(x):
        e = dm.exp(2.0 * x[0] * x[0] * x[0])
        return [[e, 0.0], [0.0, e]]

    rec = recurrence_solve(connection_from_metric(chart, g), chart.grid(7))
    assert rec.recurrent and rec.residual < 1e-12
    assert rec.definite == 0 and not rec.indefinite
    assert rec.min_ric_norm == 0.0
    with pytest.raises(ValueError, match="vanishes"):
        rec.omega([0.0, 0.1])


def test_recurrence_indefinite_ricci():
    # Gamma^1_22 = -s, Gamma^2_11 = t: Ric = [[1, st], [st, -1]] is
    # indefinite, which no metric connection has
    chart = Chart(2, (False, False), ((-0.5, 0.5), (-0.5, 0.5)))

    def coeffs(x):
        G = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        G[0][1][1] = -x[0]
        G[1][0][0] = x[1]
        return G

    rec = recurrence_solve(ConnectionCoeffs(chart, coeffs), chart.grid(5))
    assert rec.indefinite and rec.definite == 0


def test_minimax_linear_against_brute_force():
    rng = np.random.default_rng(3)
    inputs = [(rng.normal(size=40), rng.normal(size=40)) for _ in range(20)]
    # q = 0: every frame value gives the same residual max |p|
    inputs.append((rng.normal(size=40), np.zeros(40)))
    for p, q in inputs:
        a, res = _minimax_linear(p, q)
        grid = np.linspace(a - 1.0, a + 1.0, 20001)
        brute = min(np.max(np.abs(p[None, :] + g * q[None, :]))
                    for g in grid)
        assert res <= brute + 1e-9


def test_cylinder_search_dpc_b():
    b = get_model("dpc-b")
    conn = induced_connection(b.system, b.parametrization)
    rep = cylinder_lagrangian_search(conn)
    assert rep.lagrangian and rep.metrizable
    assert rep.a == pytest.approx(A_STAR, abs=1e-9)
    assert rep.closedness_residual < 1e-8
    assert rep.b == pytest.approx(A_STAR ** 2 + 1.0, abs=1e-9)
    assert rep.spd_ok and rep.exact_ok
    # D_C is symmetric positive definite around the cylinder
    for t in np.linspace(0.0, TWO_PI, 7, endpoint=False):
        M = np.asarray([[float(real(v)) for v in row]
                        for row in rep.D_C([0.0, float(t)])])
        assert np.linalg.eigvalsh(M)[0] > 0.0
    # the potential is independent of theta1 up to the linear term
    p0 = float(real(rep.P_C([0.0, 1.0])))
    p1 = float(real(rep.P_C([1.0, 1.0])))
    assert p1 - p0 == pytest.approx(rep.mu1_const, abs=1e-9)


def _induced_metric(bundle, th):
    """Kinetic metric dphi^T D(phi) dphi induced on the constraint at th."""
    par = bundle.parametrization
    D = np.asarray([[float(real(v)) for v in row]
                    for row in bundle.system.D(par.phi(th))])
    J = np.asarray([[float(real(v)) for v in row] for row in par.dphi(th)])
    return J.T @ D @ J


def test_cylinder_frame_is_cart_momentum_dpc_b():
    # In case (b) the cart theta1 is cyclic and unactuated, so its momentum,
    # row 1 of the induced metric, is conserved: any Lagrangian structure
    # has D_C[0][1] / D_C[0][0] = M12 / M11 at every theta2. The frame value
    # comes from kinetic energy alone, so gravity cannot move it.
    b = get_model("dpc-b")
    D_C = analyze(b).artifacts["D_C"]
    worst = 0.0
    for t in np.linspace(0.0, TWO_PI, 64, endpoint=False):
        th = [0.0, float(t)]
        Dc = [[float(real(v)) for v in row] for row in D_C(th)]
        M = _induced_metric(b, th)
        worst = max(worst, abs(Dc[0][1] / Dc[0][0] - M[0, 1] / M[0, 0]))
    assert worst < 1e-9, f"D_C row 1 off the cart momentum by {worst:.2e}"
    a4 = analyze(get_model("dpc-b", gravity=4.0)).details["a"]
    a20 = analyze(get_model("dpc-b", gravity=20.0)).details["a"]
    assert a4 == pytest.approx(a20, abs=1e-12)
    assert a4 == pytest.approx(A_STAR, abs=1e-9)


def test_cylinder_search_dpc_a_fails_closedness():
    b = get_model("dpc-a")
    conn = induced_connection(b.system, b.parametrization)
    rep = cylinder_lagrangian_search(conn)
    assert not rep.lagrangian
    assert rep.metrizable
    assert rep.closedness_residual > 1.0


def test_cylinder_search_refuses_nontrivial_holonomy():
    # Gamma^2_22 = 0.1 alone: I1 = -0.1 t gains -0.2 pi per turn, so no
    # metric built from the transports is single-valued on the cylinder
    chart = Chart(2, (False, True), ((-2.0, 2.0), (0.0, TWO_PI)))

    def coeffs(x):
        g = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        g[1][1][1] = 0.1
        return g

    conn = InducedConnection(chart, ConnectionCoeffs(chart, coeffs),
                             lambda th: [0.0, 0.0])
    rep = cylinder_lagrangian_search(conn)
    assert not rep.lagrangian and not rep.metrizable
    assert "holonomy" in rep.message
    assert rep.diagnostics["I1_loop"] == pytest.approx(-0.2 * math.pi,
                                                       rel=1e-9)
    assert rep.D_C is None
    # the pipeline reports the loops in place of frame values it never
    # computed, and the report stays strict JSON
    res = _analyze_2d_flat(conn, AnalysisResult("synthetic", "unsupported",
                                                 False), 1e-8)
    assert res.verdict == "not-lagrangian" and "holonomy" in res.details["reason"]
    assert res.details["I1_loop"] == rep.diagnostics["I1_loop"]
    assert "closedness_residual" not in res.details and "a" not in res.details
    json.dumps(res.to_dict(), allow_nan=False)


def test_dpc_b_with_cart_spring_report_is_strict_json():
    # a spring on the cart makes the reduced force depend on theta1, so the
    # search stops before its frame search
    b = get_model("dpc-b")
    sys = b.system

    def gradP(q):
        g = list(sys.gradP(q))
        g[0] = g[0] + q[0]
        return g

    spring = dataclasses.replace(
        sys, P=lambda q: sys.P(q) + 0.5 * q[0] * q[0], gradP=gradP)
    res = analyze(dataclasses.replace(b, system=spring))
    assert res.verdict == "not-lagrangian"
    assert res.details["reason"] == "reduced force depends on theta1"
    assert res.details["lam_dev"] > 1e-3
    assert "closedness_residual" not in res.details
    json.dumps(res.to_dict(), allow_nan=False)


@pytest.mark.parametrize("model", ["dpc-a", "dpc-b"])
def test_dpc_without_gravity_is_lagrangian(model):
    # zero reduced force: every frame value closes the force one-form, and
    # the reconstructed energy is conserved along the reduced flow
    b = get_model(model, gravity=0.0)
    res = analyze(b)
    assert res.verdict == "lagrangian"
    assert res.details["closedness_residual"] == 0.0
    traj = simulate_constrained(b.system, b.parametrization, [0.0, 0.5],
                                [0.4, 1.0], (0.0, 3.0))
    D_C, P_C = res.artifacts["D_C"], res.artifacts["P_C"]
    energy = [reduced_energy(D_C, P_C, s[:2], s[2:]) for s in traj.states]
    assert (max(energy) - min(energy)) / abs(energy[0]) < 1e-9


def test_dpc_b_structure_is_periodic_in_theta2():
    res = analyze(get_model("dpc-b"))
    D_C, P_C = res.artifacts["D_C"], res.artifacts["P_C"]
    worst_d = worst_p = 0.0
    for t in np.linspace(-3.0, 9.0, 13):
        for th1 in (-1.0, 0.4):
            a = np.asarray([[float(real(v)) for v in row]
                            for row in D_C([th1, float(t)])])
            b = np.asarray([[float(real(v)) for v in row]
                            for row in D_C([th1, float(t) + TWO_PI])])
            worst_d = max(worst_d, float(np.max(np.abs(a - b))))
            worst_p = max(worst_p, abs(float(real(P_C([th1, float(t)])))
                                       - float(real(P_C([th1, float(t)
                                                         + TWO_PI])))))
    assert worst_d < 1e-9
    assert worst_p < 1e-6
