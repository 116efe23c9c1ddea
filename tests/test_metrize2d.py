"""Two-dimensional metrizability: Ricci recurrence, exactness, metric
reconstruction, and the flat-cylinder Lagrangian search."""

import dataclasses
import json
import math

import numpy as np
import pytest

import vhckit.dual as dm
from vhckit.calculus import partial
from vhckit.dual import real
from vhckit.manifold import (Chart, christoffel_from_metric, ConnectionCoeffs,
                             connection_from_metric, ricci)
from vhckit.metrize2d import (LineIntegralField, _minimax_linear,
                              _recurrence_at, cylinder_lagrangian_search,
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
        w = [float(real(v))
             for v in _recurrence_at(conn.gammaC, rec.ric, p)[2]]
        expect = b.expected["omega"](p)
        assert w[0] == pytest.approx(float(expect[0]), abs=1e-9)
        assert w[1] == pytest.approx(float(expect[1]), abs=1e-12)


def test_omega_is_half_log_det_ricci_minus_trace_on_sphere():
    # tracing nabla Ric = omega (x) Ric with Ric^{-1}: omega_i =
    # 1/2 d_i log det Ric - Gamma^m_{im}, wherever the recurrence holds
    b, conn = _sphere_conn()
    grid = b.chart.grid(5, 1e-2)
    rec = recurrence_solve(conn.gammaC, grid)

    def log_det(x):
        R = rec.ric(x)
        return dm.log(R[0][0] * R[1][1] - R[0][1] * R[1][0])

    for p in grid:
        w = _recurrence_at(conn.gammaC, rec.ric, p)[2]
        G = conn.gammaC(p)
        for i in range(2):
            expect = (0.5 * partial(log_det, p, i)
                      - sum(G[m][i][m] for m in range(2)))
            assert float(real(w[i])) == pytest.approx(float(expect), abs=1e-10)


def _sym_ricci(sp, X, G):
    """Ric[i][j] = sum_k R^k_{kij}, with R^l_{ijk} as in
    manifold.curvature_coeffs."""
    def R(l, i, j, k):
        return (sp.diff(G[l][j][k], X[i]) - sp.diff(G[l][i][k], X[j])
                + sum(G[m][j][k] * G[l][i][m] - G[m][i][k] * G[l][j][m]
                      for m in range(2)))
    return [[sum(R(k, k, i, j) for k in range(2)) for j in range(2)]
            for i in range(2)]


def test_trace_identities_symbolic():
    # an oracle independent of the dual-number kernels for the two
    # identities the curved 2-D path rests on
    sp = pytest.importorskip("sympy")
    X = sp.symbols("x y")

    def tr(G):
        return [G[0][i][0] + G[1][i][1] for i in range(2)]

    # the symbolic Ricci tensor is manifold.ricci's: compare at a point for
    # a concrete torsion-free connection
    def concrete(x):
        return [[[(k + 1) * x[0] * x[1] + (i + j + 1) * x[1] * x[1]
                  + (2 * k - i - j) * x[0] for j in range(2)]
                 for i in range(2)] for k in range(2)]

    chart = Chart(2, (False, False), ((-1.0, 1.0), (-1.0, 1.0)))
    p = [0.3, -0.7]
    got = ricci(ConnectionCoeffs(chart, concrete), p)
    want = _sym_ricci(sp, X, concrete(X))
    for i in range(2):
        for j in range(2):
            assert float(real(got[i][j])) == pytest.approx(
                float(want[i][j].subs(dict(zip(X, p)))), abs=1e-12)

    # curl omega = Ric_01 - Ric_10 for a generic torsion-free connection:
    # omega = 1/2 d log det Ric - trGamma, and the log-det term is exact
    G = [[[sp.Function("G%d%d%d" % ((k,) + tuple(sorted((i, j)))))(*X)
           for j in range(2)] for i in range(2)] for k in range(2)]
    Ric = _sym_ricci(sp, X, G)
    t = tr(G)
    curl = -(sp.diff(t[1], X[0]) - sp.diff(t[0], X[1]))
    assert sp.simplify(Ric[0][1] - Ric[1][0] - curl) == 0

    # nabla Ric = omega (x) Ric with omega = 1/2 d log det Ric - trGamma for
    # the Levi-Civita connection of a conformal metric e^{2u} (dx^2 + dy^2)
    u = sp.Function("u")(*X)
    g = sp.exp(2 * u) * sp.eye(2)
    gi = g.inv()
    G = [[[sum(gi[k, l] * (sp.diff(g[j, l], X[i]) + sp.diff(g[i, l], X[j])
                           - sp.diff(g[i, j], X[l])) for l in range(2)) / 2
           for j in range(2)] for i in range(2)] for k in range(2)]
    Ric = _sym_ricci(sp, X, G)
    t = tr(G)
    det = Ric[0][0] * Ric[1][1] - Ric[0][1] * Ric[1][0]
    for i in range(2):
        w = sp.diff(sp.log(det), X[i]) / 2 - t[i]
        for j in range(2):
            for k in range(2):
                # (nabla Ric)_ijk as in manifold.total_cov_derivative_02
                nab = sp.diff(Ric[j][k], X[i]) - sum(
                    G[m][i][j] * Ric[m][k] + G[m][i][k] * Ric[j][m]
                    for m in range(2))
                assert sp.simplify(nab - w * Ric[j][k]) == 0


def test_exactness_check_detects_non_closed_form():
    # torsion-free, Gamma^0_00 = y alone: trGamma = (y, 0), so the
    # recurrence one-form has curl 1, and Ric = [[0, 0], [-1, 0]]
    chart = Chart(2, (False, False), ((-1.0, 1.0), (-1.0, 1.0)))

    def coeffs(x):
        G = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        G[0][0][0] = x[1]
        return G

    grid = chart.grid(5)
    rec = recurrence_solve(ConnectionCoeffs(chart, coeffs), grid)
    exact, curl = exactness_check(rec, grid)
    assert not exact and curl == pytest.approx(1.0, rel=1e-12)
    b, conn = _sphere_conn()
    grid = b.chart.grid(5, 1e-2)
    exact, curl = exactness_check(recurrence_solve(conn.gammaC, grid), grid)
    assert exact and curl < 1e-10


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

    gamma = connection_from_metric(chart, g)
    rec = recurrence_solve(gamma, chart.grid(7))
    assert rec.recurrent and rec.residual < 1e-12
    assert rec.definite == 0 and not rec.indefinite
    assert rec.min_ric_norm == 0.0
    assert _recurrence_at(gamma, rec.ric, [0.0, 0.1])[2] is None
    # the metric candidate refuses a point where det Ric = 0
    with pytest.raises(ValueError, match="vanishes"):
        metric_from_ricci(gamma, dataclasses.replace(rec, definite=1),
                          [0.0, 0.1])


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
