"""Two-dimensional metrizability: Ricci recurrence, exactness, metric
reconstruction, and parallel metrics of flat connections."""

import dataclasses
import json
import math
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

import vhckit.dual as dm
from vhckit import calculus, metrize2d, pipeline
from vhckit.calculus import partial, vector_partial
from vhckit.cli import EXIT_ERROR, bundle_from_config, main
from vhckit.dual import Dual, eps, real
from vhckit.manifold import (GRID_MARGIN, Chart, christoffel_from_metric,
                             ConnectionCoeffs, curvature_coeffs,
                             max_curvature_on_grid, ricci,
                             total_cov_derivative_02)
from vhckit.holonomy import axis_transport
from vhckit.metrize2d import (LineIntegralField, ParallelFrame,
                              _minimax_linear, _omega,
                              cylinder_lagrangian_search, exactness_check,
                              metric_from_ricci, recurrence_solve,
                              ricci_field)
from vhckit.models import get_model
from vhckit.pipeline import AnalysisResult, _analyze_2d_flat, analyze
from vhckit.sim import reduced_energy, simulate_constrained
from vhckit.linalg import SingularMatrixError
from vhckit.vhc import (ConstraintParametrization, InducedConnection,
                        LagrangianControlSystem, RegularityError,
                        induced_connection, reduction_matrix)

import oracles
from oracles import connection_from_metric, minimax_by_linprog
from test_cli import (EXIT_UNSUPPORTED, FLAT_CASES, NEGATIVE_CONFIG,
                      SIGN_CHANGE_CONFIG)

TWO_PI = 2.0 * math.pi

A_STAR = (math.sqrt(2.0) - 2.0) / 3.0

CONFIGS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "configs.py"


def _sphere_conn():
    b = get_model("sphere")
    return b, induced_connection(b.system, b.parametrization)


def _omega_at(gamma, ric, p):
    """The recurrence one-form at the point p."""
    return _omega(ric(p), total_cov_derivative_02(gamma, ric, p))


def test_recurrence_sphere_closed_forms():
    b, conn = _sphere_conn()
    grid = b.chart.grid(5, 1e-2)
    rec = recurrence_solve(conn.gammaC, grid)
    assert rec.recurrent
    assert rec.definite == 1
    assert rec.residual < 1e-10
    for p in grid[::6]:
        w = [float(real(v))
             for v in _omega_at(conn.gammaC, rec.ric, p)]
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
        w = _omega_at(conn.gammaC, rec.ric, p)
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
    f = LineIntegralField(omega, chart, ref)
    for p in chart.grid(4):
        assert f(p) == pytest.approx(f_true(p) - f_true(ref), abs=1e-9)


def test_line_integral_leg_cache_is_bounded():
    chart = Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))
    omega = lambda x: [x[1], x[0]]              # d(x0 * x1)
    f = LineIntegralField(omega, chart, [0.0, 0.0])
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
    assert _omega_at(gamma, rec.ric, [0.0, 0.1]) is None
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


def _minimax_data(kind, k, n, rng):
    p, Q = rng.normal(size=n), rng.normal(size=(n, k))
    if kind == "zero-column":
        Q[:, -1] = 0.0
    elif kind == "duplicated-rows":
        rows = np.repeat(np.arange(n), 2)[:n]
        p, Q = p[rows], Q[rows]
    elif kind == "ties":
        p, Q = np.round(p, 1), np.round(Q, 1)
    elif kind.startswith("scaled-"):
        s = float(kind[len("scaled-"):])
        p, Q = s * p, s * Q
    return p, Q


@pytest.mark.parametrize("k, kind", [
    (k, kind) for k in (0, 1, 2)
    for kind in ("random", "zero-column", "duplicated-rows", "ties",
                 "scaled-1e6", "scaled-1e-6")
    if (k, kind) != (0, "zero-column")])
def test_minimax_linear_matches_linprog(k, kind):
    # HiGHS is the oracle, at the sizes of the problems the tests pose: 256
    # generator samples, grids of 3 x 3 to 11 x 11 points, and the 40 rows
    # of the brute-force test above
    rng = np.random.default_rng(7)
    for n in (9, 25, 40, 49, 81, 121, 256):
        for _ in range(3):
            p, Q = _minimax_data(kind, k, n, rng)
            y, res = _minimax_linear(p, Q)
            assert y.shape == (k,)
            assert res == np.max(np.abs(p + Q @ y))
            scale = max(np.max(np.abs(p)), np.max(np.abs(Q), initial=0.0))
            assert res <= minimax_by_linprog(p, Q) + 1e-12 * scale
            if k == 0:
                assert res == np.max(np.abs(p))


def test_dpc_b_frame_value_to_rounding():
    # the generator's transport and closedness rows are exact to rounding:
    # a is the cart-momentum value (criterion 5), where DOP853 at 1e-12 left
    # it 9.4e-14 off
    b = get_model("dpc-b")
    a = analyze(b).details["a"]
    assert abs(a - A_STAR) <= 1e-15


def test_cylinder_search_dpc_b():
    b = get_model("dpc-b")
    conn = induced_connection(b.system, b.parametrization)
    rep = cylinder_lagrangian_search(conn, b.chart.grid(7, 1e-2))
    assert rep.lagrangian and rep.metrizable
    assert rep.a == pytest.approx(A_STAR, abs=1e-9)
    assert rep.closedness_residual < 1e-8
    assert rep.b == pytest.approx(A_STAR ** 2 + 1.0, abs=1e-9)
    # D_C is symmetric positive definite around the cylinder, and the base
    # form is [[1, a], [a, b]] at theta = (0, 0)
    for t in np.linspace(0.0, TWO_PI, 7, endpoint=False):
        M = np.asarray([[float(real(v)) for v in row]
                        for row in rep.D_C([0.0, float(t)])])
        assert np.linalg.eigvalsh(M)[0] > 0.0
    assert np.allclose(rep.D_C([0.0, 0.0]), [[1.0, rep.a], [rep.a, rep.b]],
                       atol=1e-12)
    # the cart force mu_1 = (D_C lambda)_1 is constant, so P_C is linear in
    # theta1
    mu1 = (np.asarray(rep.D_C([0.0, 1.0])) @ np.asarray(
        conn.lam([0.0, 1.0])))[0]
    p0 = float(real(rep.P_C([0.0, 1.0])))
    p1 = float(real(rep.P_C([1.0, 1.0])))
    assert p1 - p0 == pytest.approx(mu1, abs=1e-9)
    # dual arguments: d D_C from nabla g = 0 and d P_C = mu, against
    # central differences off the generator
    x, h = [0.7, 1.3], 1e-5
    for i in range(2):
        xd = [Dual(c, float(i == j)) for j, c in enumerate(x)]
        xp, xm = list(x), list(x)
        xp[i] += h
        xm[i] -= h
        fd = (np.asarray(rep.D_C(xp)) - np.asarray(rep.D_C(xm))) / (2 * h)
        got = np.array([[eps(v) for v in row] for row in rep.D_C(xd)])
        assert np.max(np.abs(got - fd)) < 1e-6
        assert eps(rep.P_C(xd)) == pytest.approx(
            (rep.P_C(xp) - rep.P_C(xm)) / (2 * h), abs=1e-6)


def test_flat_fields_do_not_depend_on_read_history():
    # D_C and P_C at a point are the same whether it is read first or after
    # hundreds of other reads, inside and outside the grid's span (the cart
    # span is (-1.96, 1.96))
    b = get_model("dpc-b")
    conn = induced_connection(b.system, b.parametrization)
    grid = b.chart.grid(7, 1e-2)
    points = [[0.7, 1.3], [-1.2, 4.0], [3.1, 2.2]]
    first = []
    for x in points:
        rep = cylinder_lagrangian_search(conn, grid)
        first.append((rep.D_C(x), rep.P_C(x)))
    rep = cylinder_lagrangian_search(conn, grid)
    rng = np.random.default_rng(3)
    for x in rng.uniform([-3.5, -7.0], [3.5, 7.0], size=(300, 2)):
        rep.D_C(list(x)), rep.P_C(list(x))
    assert [(rep.D_C(x), rep.P_C(x)) for x in points] == first


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
    rep = cylinder_lagrangian_search(conn, b.chart.grid(7, 1e-2))
    assert not rep.lagrangian
    assert rep.metrizable
    assert rep.closedness_residual > 1.0


def _flat_bundle(case):
    kind, name = case.split(":")
    if kind == "builtin":
        return get_model(name)
    if kind == "config":
        return bundle_from_config(runpy.run_path(str(CONFIGS_PY))["CONFIGS"][name])
    return bundle_from_config(FLAT_CASES[name][0])


@pytest.mark.parametrize("case", ["builtin:dpc-a", "builtin:dpc-b",
                                  "config:dpc-a", "config:dpc-b"]
                         + ["flat:" + c for c in FLAT_CASES])
def test_stacked_rows_match_the_per_point_oracle(monkeypatch, case):
    # every closedness stage of an analyze, anchor and grid: the rows built
    # on stacked arrays against the forms of each point's own inverse, to
    # the largest entry of either kind of row (the annulus's closedness rows
    # are rounding)
    stages, form_rows = [], metrize2d._form_rows

    def recorded(conn, frame, points, axis):
        rows = form_rows(conn, frame, points, axis)
        stages.append(rows + oracles.form_rows(conn, frame, points, axis))
        return rows

    monkeypatch.setattr(metrize2d, "_form_rows", recorded)
    analyze(_flat_bundle(case))
    assert stages
    for R, M, R0, M0 in stages:
        assert R.shape == R0.shape and M.shape == M0.shape
        scale = max(np.max(np.abs(R0)), np.max(np.abs(M0)))
        assert np.max(np.abs(R - R0)) <= 1e-13 * scale
        assert np.max(np.abs(M - M0)) <= 1e-13 * scale


@pytest.mark.parametrize("case", ["builtin:dpc-b", "flat:annulus",
                                  "flat:saddle-exact"])
def test_inverses_match_the_per_point_oracle(case):
    # off the grid's span, beyond 2 pi on a periodic axis, and on the base
    # point's lines, where a leg is the identity
    bundle = _flat_bundle(case)
    frame = ParallelFrame(induced_connection(bundle.system,
                                             bundle.parametrization))
    i0, i1 = frame.order
    b0, b1 = frame.base[i0], frame.base[i1]
    coords = [(b0, b1), (b0, b1 + 0.4), (b0 + 0.3, b1), (b0 - 0.3, b1 - 0.2),
              (b0 + 0.2, b1 + 0.9), (b0 + 0.2, b1 - 0.9)]
    if frame.holonomy is not None:
        coords += [(t, c) for t in (TWO_PI, 7.0, -1.0, 4.0 * math.pi + 0.3)
                   for c in (b1, b1 + 0.4)]
    points = [[0.0, 0.0] for _ in coords]
    for p, (c0, c1) in zip(points, coords):
        p[i0], p[i1] = c0, c1
    W = frame.inverses(points)
    want = np.array([oracles.frame_inverse(frame, p) for p in points])
    assert W.shape == (len(points), 2, 2)
    assert np.max(np.abs(W - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(W[0], np.eye(2))


@pytest.mark.parametrize("model", ["dpc-a", "dpc-b"])
def test_anchor_stage_reads_the_generator_once_per_piece(monkeypatch, model):
    # the 256 anchor points lie on the generator: one Piece.at per piece
    # that holds some, where a read per point made 244-248
    reads, stages = [0], []
    piece_at, form_rows = calculus.Piece.at, metrize2d._form_rows

    def counted(self, t):
        reads[0] += 1
        return piece_at(self, t)

    def staged(conn, frame, points, axis):
        before = reads[0]
        rows = form_rows(conn, frame, points, axis)
        generator = frame._leg(frame.order[0], frame.base, 1.0)[0]
        stages.append((len(points), reads[0] - before, len(generator.parts)))
        return rows

    monkeypatch.setattr(calculus.Piece, "at", counted)
    monkeypatch.setattr(metrize2d, "_form_rows", staged)
    analyze(get_model(model))
    points, n, pieces = stages[0]
    assert points == 256
    assert 0 < n <= pieces


@pytest.mark.parametrize("model", ["dpc-a", "dpc-b"])
def test_period_row_matches_the_oracle_forms(model):
    # the period's integrand and the carry of D_C and P_C: mu_axis from the
    # generator's Y(t) against the forms of the oracle inverse
    b = get_model(model)
    conn = induced_connection(b.system, b.parametrization)
    frame = ParallelFrame(conn)
    i0 = frame.order[0]
    for t in np.linspace(0.0, TWO_PI, 41):
        p = [float(t) if i == i0 else c for i, c in enumerate(frame.base)]
        lam = np.array([float(real(v)) for v in conn.lam(p)])
        got = metrize2d._mu_axis(frame.leg(i0, frame.base, t % TWO_PI), lam,
                                 i0)
        want = oracles.forms(oracles.frame_inverse(frame, p))[:, i0] @ lam
        assert np.max(np.abs(got - want)) <= \
            1e-14 * max(1.0, np.max(np.abs(want)))


def test_cylinder_search_refuses_nontrivial_holonomy():
    # Gamma^2_22 = 0.1 alone: the generator holonomy diag(1, e^{-0.2 pi})
    # preserves only the degenerate forms diag(s, 0), so no metric built
    # from the transports is single-valued on the cylinder
    chart = Chart(2, (False, True), ((-2.0, 2.0), (0.0, TWO_PI)))

    def coeffs(x):
        g = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
        g[1][1][1] = 0.1
        return g

    conn = InducedConnection(chart, ConnectionCoeffs(chart, coeffs),
                             lambda th: [0.0, 0.0])
    rep = cylinder_lagrangian_search(conn, chart.grid(3))
    assert not rep.lagrangian and not rep.metrizable
    assert "holonomy" in rep.message
    H = rep.diagnostics["holonomy"]
    assert math.log(H[1][1]) == pytest.approx(-0.2 * math.pi, rel=1e-9)
    assert rep.D_C is None
    # the pipeline reports the holonomy in place of frame values it never
    # computed, and the report stays strict JSON
    res = _analyze_2d_flat(conn, AnalysisResult("synthetic", "unsupported",
                                                 False), chart.grid(3), 1e-8)
    assert res.verdict == "not-lagrangian" and "holonomy" in res.details["reason"]
    assert res.details["holonomy"] == H
    assert "closedness_residual" not in res.details and "a" not in res.details
    json.dumps(res.to_dict(), allow_nan=False)


def test_flat_search_zero_connection_plane():
    # a flat plane with Gamma = 0 and no force: every constant form is
    # parallel, and the tie-break gives D_C = I, P_C = 0
    chart = Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))
    zeros = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    conn = InducedConnection(chart, ConnectionCoeffs(chart, lambda x: zeros),
                             lambda th: [0.0, 0.0])
    rep = cylinder_lagrangian_search(conn, chart.grid(3))
    assert rep.lagrangian and rep.metrizable
    assert (rep.a, rep.b, rep.closedness_residual) == (0.0, 1.0, 0.0)
    assert rep.D_C([1.2, -0.7]) == [[1.0, 0.0], [0.0, 1.0]]
    assert rep.P_C([1.2, -0.7]) == 0.0


def test_dpc_b_with_cart_spring_report_is_strict_json():
    # a spring on the cart makes the reduced force depend on theta1: the
    # closedness rows then move both a and b, and no pair closes the force
    # one-form
    b = get_model("dpc-b")
    sys = b.system

    def gradP(q):
        g = list(sys.gradP(q))
        g[0] = g[0] + q[0]
        return g

    spring = dataclasses.replace(
        sys, P=lambda q: sys.P(q) + 0.5 * q[0] * q[0], gradP=gradP)
    res = analyze(dataclasses.replace(b, system=spring))
    assert res.verdict == "not-lagrangian" and res.metrizable
    assert res.details["reason"] == \
        "no frame value (a, b) closes the force one-form"
    assert res.details["closedness_residual"] > 1e-3
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


# -- stacked field reads -------------------------------------------------------

def _zero_plane():
    chart = Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))
    zeros = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    return chart, InducedConnection(
        chart, ConnectionCoeffs(chart, lambda x: zeros), lambda th: [0.0, 0.0])


def _cart_spring():
    b = get_model("dpc-b")
    sys = b.system

    def gradP(q):
        g = list(sys.gradP(q))
        g[0] = g[0] + q[0]
        return g

    spring = dataclasses.replace(
        sys, P=lambda q: sys.P(q) + 0.5 * q[0] * q[0], gradP=gradP)
    return dataclasses.replace(b, system=spring)


def _bits(a):
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize("case", ["builtin:dpc-a", "builtin:dpc-b",
                                  "config:dpc-a", "config:dpc-b"]
                         + ["flat:" + c for c in FLAT_CASES]
                         + ["bare:zero-plane", "bare:cart-spring"])
def test_stacked_reads_are_the_point_reads(monkeypatch, case):
    # every closedness stage: Gamma_C, lambda and d lambda read at the
    # stacked points, against conn.gammaC(p), conn.lam(p) and
    # vector_partial point by point, bit for bit; the stacked reads
    # themselves must not raise
    stages, form_rows = [], metrize2d._form_rows

    def recorded(conn, frame, points, axis):
        want = oracles.points_fields(conn, points)
        direct = (calculus.stacked(conn.gammaC.fn, points),
                  calculus.stacked(conn.lam, points),
                  np.stack([calculus.stacked(
                      lambda x: vector_partial(conn.lam, x, i), points)
                      for i in range(2)], 1))
        for got in (direct, metrize2d._fields(conn, points)):
            assert [g.shape for g in got] == [w.shape for w in want]
            assert list(map(_bits, got)) == list(map(_bits, want))
        stages.append(len(points))
        return form_rows(conn, frame, points, axis)

    monkeypatch.setattr(metrize2d, "_form_rows", recorded)
    if case == "bare:zero-plane":
        chart, conn = _zero_plane()
        cylinder_lagrangian_search(conn, chart.grid(3))
    else:
        analyze(_cart_spring() if case == "bare:cart-spring"
                else _flat_bundle(case))
    assert stages


def _one_by_one(monkeypatch, run):
    """run() with the stacked reads failing, so that every stage reads its
    points one by one, as the flat solver did before the stacked reads."""
    def fails(f, points):
        raise ValueError("no stacked read")

    with monkeypatch.context() as m:
        m.setattr(calculus, "stacked", fails)
        return run()


def _stacked_raises(monkeypatch, run):
    """run() and what the first stacked read that raised raised, with any
    warning recorded."""
    raised, read = [], calculus.stacked

    def recorded(f, points):
        try:
            return read(f, points)
        except Exception as e:
            raised.append(e)
            raise

    with monkeypatch.context() as m, warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        m.setattr(calculus, "stacked", recorded)
        out = run()
    assert not [x for x in w if issubclass(x.category, RuntimeWarning)]
    return out, raised[0] if raised else None


def _report(rep):
    return (rep.lagrangian, rep.metrizable, rep.supported, rep.message,
            float(rep.a).hex(), float(rep.b).hex(),
            float(rep.closedness_residual).hex())


def test_a_field_that_branches_reads_its_points_one_by_one(monkeypatch):
    # lambda branches on th[0] < 0: the stacked read raises, and the stage
    # reads its points one by one, to the report of the reads point by point
    chart, conn = _zero_plane()
    conn = dataclasses.replace(conn, lam=lambda th: [
        th[1] * th[1], 0.0 * th[0]] if th[0] < 0 else [th[1], th[0]])

    def run():
        return cylinder_lagrangian_search(conn, chart.grid(5))

    rep, error = _stacked_raises(monkeypatch, run)
    assert isinstance(error, ValueError)    # the truth of an array
    assert _report(rep) == _report(_one_by_one(monkeypatch, run))
    assert not rep.lagrangian and rep.metrizable
    assert rep.message == "no frame value b closes the force one-form"


def test_a_division_by_zero_at_one_anchor_point_is_the_point_s_error(
        monkeypatch, tmp_path, capsys):
    # P = 1/q2 on the annulus: lambda divides by q2 = 0 at the anchor point
    # t = 0 alone. The stacked read raises FloatingPointError, and the
    # point's own ZeroDivisionError ends the command, with exit code 1
    cfg = dict(FLAT_CASES["annulus"][0], name="annulus-pole", P="1/q2")
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(cfg))

    def run():
        code = main(["analyze", "--config", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    got, error = _stacked_raises(monkeypatch, run)
    assert isinstance(error, FloatingPointError)
    assert got == _one_by_one(monkeypatch, run) == (
        EXIT_ERROR, "", "error: ZeroDivisionError: float division by zero\n")


def test_a_singular_point_in_a_stack_names_its_theta(monkeypatch):
    # A = Bperp D dphi is singular where theta0 = 0.25: the stacked read
    # raises SingularMatrixError, and the points read one by one raise the
    # RegularityError that names the singular point
    chart = Chart(2, (False, False), ((-1.0, 1.0), (-1.0, 1.0)))
    system = LagrangianControlSystem(
        chart=Chart(3, (False,) * 3, ((-2.0, 2.0),) * 3),
        D=lambda q: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        P=lambda q: 0.5 * (q[0] * q[0] + q[1] * q[1]),
        gradP=lambda q: [q[0], q[1], 0.0 * q[0]],
        B=lambda q: [[0.0], [0.0], [1.0]],
        Bperp=lambda q: [[1.0, 0.0, 0.0], [0.0, q[0] - 0.25, 0.0]], m=1)
    par = ConstraintParametrization(chart, phi=lambda th: [th[0], th[1], 0.0])
    conn = induced_connection(system, par)
    points = [[0.5, 0.1], [0.25, 0.0], [-0.3, 0.2]]
    with pytest.raises(SingularMatrixError):
        reduction_matrix(system, par, [np.array(c) for c in zip(*points)],
                         ("gradP",))

    def run():
        with pytest.raises(RegularityError) as e:
            metrize2d._fields(conn, points)
        return str(e.value)

    message, error = _stacked_raises(monkeypatch, run)
    assert isinstance(error, SingularMatrixError)
    assert message == _one_by_one(monkeypatch, run) == \
        "(Bperp D dphi) singular at theta=[0.25, 0.0]"


def test_a_stacked_read_that_warns_is_not_read_again():
    # under -W error a warning from a stacked read is an error of the run,
    # not a reason to read the points one by one
    chart, conn = _zero_plane()

    def lam(th):
        if isinstance(th[0], np.ndarray):
            warnings.warn("a stack", RuntimeWarning)
        return [0.0, 0.0]

    conn = dataclasses.replace(conn, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            metrize2d._fields(conn, [[0.0, 0.0], [0.5, 0.5]])


# -- the curvature, recurrence and exactness stages at stacked points ----------

STAGE_CASES = (["builtin:" + m for m in ("circle", "sphere", "dpc-a", "dpc-b")]
               + ["config:" + m for m in ("circle", "sphere", "dpc-a",
                                           "dpc-b")]
               + ["flat:" + c for c in FLAT_CASES]
               + ["curved:negative", "curved:sign-change"])


def _stage_bundle(case):
    kind, name = case.split(":")
    if kind == "curved":
        return bundle_from_config(NEGATIVE_CONFIG if name == "negative"
                                  else SIGN_CHANGE_CONFIG)
    return _flat_bundle(case)


def _stacked_reads(monkeypatch):
    """The stacked reads of calculus.at_points from now on: (number of
    points, what the read raised or None) for each."""
    reads, read = [], calculus.stacked

    def recorded(f, points):
        try:
            out = read(f, points)
        except Exception as e:
            reads.append((len(points), e))
            raise
        reads.append((len(points), None))
        return out

    monkeypatch.setattr(calculus, "stacked", recorded)
    return reads


def _hex(v):
    return float(v).hex()


@pytest.mark.parametrize("case", STAGE_CASES)
def test_stacked_stages_are_the_point_loops(monkeypatch, case):
    # every curvature coefficient, Ric and nabla Ric at the analysis grid's
    # stacked point against each point's own, and the three stages against
    # their loops over the points (tests/oracles.py), bit for bit; no
    # stacked read of the stages, or of the case's analyze, falls back to
    # the points
    bundle = _stage_bundle(case)
    conn = induced_connection(bundle.system, bundle.parametrization)
    ref = induced_connection(bundle.system, bundle.parametrization).gammaC
    gamma, chart = conn.gammaC, conn.chart
    grid = chart.grid(7, GRID_MARGIN)
    ric, ref_ric = ricci_field(gamma), oracles.ricci_field(ref)
    x = [np.array(c) for c in zip(*grid)]
    with np.errstate(divide="raise", over="ignore", invalid="raise"):
        R = curvature_coeffs(gamma.read, x)
        Ric = ric.read(x)
        dRic = total_cov_derivative_02(gamma.read, ric.read, x)
    for k, p in enumerate(grid):
        assert oracles.bits(R, k) == oracles.bits(curvature_coeffs(ref, p))
        assert oracles.bits(Ric, k) == oracles.bits(ref_ric(p))
        assert oracles.bits(dRic, k) == oracles.bits(
            total_cov_derivative_02(ref, ref_ric, p))

    reads, lookups, lookup = _stacked_reads(monkeypatch), [], \
        ConnectionCoeffs.__call__
    monkeypatch.setattr(ConnectionCoeffs, "__call__",
                        lambda g, x: lookups.append(x) or lookup(g, x))
    assert _hex(max_curvature_on_grid(gamma, grid)) == \
        _hex(oracles.max_curvature_on_grid(ref, grid))
    rec, want = recurrence_solve(gamma, grid), oracles.recurrence_solve(ref,
                                                                        grid)
    assert (_hex(rec.residual), rec.definite, rec.recurrent,
            _hex(rec.min_ric_norm), rec.indefinite) == \
        (_hex(want.residual), want.definite, want.recurrent,
         _hex(want.min_ric_norm), want.indefinite)
    if chart.dim == 2:
        check = chart.grid(5, GRID_MARGIN)
        exact, curl = exactness_check(rec, check)
        want_exact, want_curl = oracles.exactness_check(want, check)
        assert (exact, _hex(curl)) == (want_exact, _hex(want_curl))
    analyze(bundle)
    assert reads and not [e for _, e in reads if e is not None]
    # a stack reads Gamma_C past the memo's call, which keys single points
    assert not [x for x in lookups if isinstance(real(x[0]), np.ndarray)]


def _branching_gamma(monkeypatch):
    """Make pipeline's Gamma_C branch on a coordinate's value, which a
    stacked point cannot do: the truth of an array of comparisons raises."""
    def connection(system, par):
        conn = induced_connection(system, par)
        fn = conn.gammaC.fn

        def gamma(th):
            if th[0] < math.inf:
                return fn(th)
            raise AssertionError("a coordinate is not finite")

        return dataclasses.replace(
            conn, gammaC=ConnectionCoeffs(conn.chart, gamma))

    monkeypatch.setattr(pipeline, "induced_connection", connection)


@pytest.mark.parametrize("name", ["sphere", "dpc-b"])
def test_a_branching_gamma_reads_each_stage_point_by_point(monkeypatch,
                                                           name):
    # each stage's stacked read raises, and each stage reads its points one
    # by one: the report is the one the stacked stages give with a field
    # that does not branch, and the one the points give read one by one
    plain = json.dumps(analyze(get_model(name)).to_dict())
    with monkeypatch.context() as m:
        _branching_gamma(m)
        reads = _stacked_reads(m)
        got = json.dumps(analyze(get_model(name)).to_dict())
    assert got == plain
    # the reads that raise, by their number of points. sphere: curvature,
    # recurrence and exactness; its trace-Gamma legs read node by node and
    # raise nothing. dpc-b: curvature, the five levels of the generator leg,
    # the closedness stage at the generator samples, the grid's fields, and
    # its 14 legs at their first level, one read of 14 x 17 nodes
    raised = [n for n, e in reads if e is not None]
    assert raised == {"sphere": [49, 49, 25],
                      "dpc-b": [49, 17, 16, 32, 64, 128, 256, 49, 238]}[name]
    assert all(isinstance(e, ValueError) for _, e in reads if e is not None)
    with monkeypatch.context() as m:
        _branching_gamma(m)
        assert json.dumps(_one_by_one(
            m, lambda: analyze(get_model(name))).to_dict()) == plain


def test_a_pole_between_grid_points_keeps_its_report(tmp_path, capsys,
                                                     monkeypatch):
    # tests/test_cli.py's pole config: the stacked stages read no point at
    # the pole and do not fall back; the trace-Gamma line integral through
    # it ends the run as unsupported, with the message, exit code, empty
    # stderr and report of the points read one by one
    cfg = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["sphere"]
    cfg = dict(cfg, reduced=dict(cfg["reduced"], bounds=[[-0.5, math.pi],
                                                         [-math.pi, math.pi]]))
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(cfg))

    def run():
        code = main(["analyze", "--config", str(path), "--grid", "5"])
        return (code, *capsys.readouterr())

    with monkeypatch.context() as m:
        reads = _stacked_reads(m)
        code, out, err = run()
    assert reads and not [e for _, e in reads if e is not None]
    assert (code, err) == (EXIT_UNSUPPORTED, "")
    assert json.loads(out)["details"]["reason"].startswith(
        "IntegrationError in a decision stage: no Chebyshev sample resolves "
        "the span between ")
    assert _one_by_one(monkeypatch, run) == (code, out, err)


@pytest.mark.parametrize("grid_n", [1, 2])
@pytest.mark.parametrize("name, verdict", [
    ("circle", "lagrangian"), ("sphere", "lagrangian"),
    ("dpc-a", "not-lagrangian"), ("dpc-b", "lagrangian")])
def test_single_point_grids_keep_their_verdicts(monkeypatch, name, verdict,
                                                grid_n):
    # a stage of one point reads it directly, and no stacked read raises
    reads = _stacked_reads(monkeypatch)
    assert analyze(get_model(name), grid_n=grid_n).verdict == verdict
    assert all(n > 1 and e is None for n, e in reads)


# -- the legs, periods and carries on stacked Chebyshev nodes ------------------

LEG_CASES = (["builtin:dpc-a", "builtin:dpc-b", "config:dpc-a", "config:dpc-b"]
             + ["flat:" + c for c in FLAT_CASES])


def _recorded_solves(m):
    """Record every leg (holonomy.axis_transports and cylinder_integrals),
    antiderivative and quad of the flat solver: (inputs, result)."""
    legs, integrals, quads = [], [], []
    many, around = metrize2d.axis_transports, metrize2d.cylinder_integrals
    anti, quad = metrize2d.antiderivative, metrize2d.quad

    def axis_transports(gamma, axis, wanted):
        out = many(gamma, axis, wanted)
        legs.extend((gamma, p, axis, lo, hi, Y)
                    for (p, lo, hi), Y in zip(wanted, out))
        return out

    def cylinder_integrals(gamma, point, axis):
        Y = around(gamma, point, axis)
        legs.append((gamma, point, axis, 0.0, TWO_PI, Y))
        return Y

    def antiderivative(f, a, b, F0=0.0):
        F = anti(f, a, b, F0)
        integrals.append((f, a, b, F0, F))
        return F

    def quad_(f, a, b):
        v = quad(f, a, b)
        quads.append((f, a, b, v))
        return v

    m.setattr(metrize2d, "axis_transports", axis_transports)
    m.setattr(metrize2d, "cylinder_integrals", cylinder_integrals)
    m.setattr(metrize2d, "antiderivative", antiderivative)
    m.setattr(metrize2d, "quad", quad_)
    return legs, integrals, quads


@pytest.mark.parametrize("case", LEG_CASES)
def test_legs_periods_and_carries_are_the_node_by_node_oracle(monkeypatch,
                                                              case):
    # every leg of the transport (the generator, the grid's legs read
    # together), every period integral and every antiderivative of a carry
    # that D_C and P_C read, against the sampler that reads its integrand
    # at each node alone and one span at a time (tests/oracles.py), bit for
    # bit; no stacked read raises
    bundle = _flat_bundle(case)
    reads = _stacked_reads(monkeypatch)
    legs, integrals, quads = _recorded_solves(monkeypatch)
    res = analyze(bundle)
    assert legs
    if res.verdict == "lagrangian":
        D_C, P_C = res.artifacts["D_C"], res.artifacts["P_C"]
        for p in bundle.chart.grid(3, 0.1):
            D_C(p), P_C(p)
        assert integrals
    for gamma, p, axis, lo, hi, Y in legs:
        assert oracles.dense_bits(Y) == oracles.dense_bits(
            oracles.axis_transport(gamma, p, axis, lo, hi))
    for f, a, b, F0, F in integrals:
        assert oracles.dense_bits(F) == oracles.dense_bits(
            oracles.antiderivative(f, a, b, F0))
    for f, a, b, v in quads:
        assert v.hex() == float(oracles.antiderivative(f, a, b).end).hex()
    assert reads and not [e for _, e in reads if e is not None]
    if case.endswith("dpc-b"):
        assert len(quads) == 2 and \
            res.details["a"] == pytest.approx(A_STAR, abs=1e-16)


def _branching_lam(monkeypatch):
    """Make pipeline's lambda branch on a coordinate's value, as
    _branching_gamma does Gamma_C."""
    def connection(system, par):
        conn = induced_connection(system, par)

        def lam(th):
            if th[0] < math.inf:
                return conn.lam(th)
            raise AssertionError("a coordinate is not finite")

        return dataclasses.replace(conn, lam=lam)

    monkeypatch.setattr(pipeline, "induced_connection", connection)


@pytest.mark.parametrize("field", ["gamma", "lambda"])
def test_a_branching_field_reads_the_legs_and_periods_node_by_node(
        monkeypatch, field):
    # dpc-b with Gamma_C (the legs) or lambda (the closedness stages, the
    # periods and the carries) branching: their stacked reads raise, each
    # level is read node by node, and the report, D_C and P_C are the ones
    # the stacked reads give
    def run():
        res = analyze(get_model("dpc-b"))
        D_C, P_C = res.artifacts["D_C"], res.artifacts["P_C"]
        return json.dumps(res.to_dict()), [
            oracles.bits(D_C(p)) + [oracles.bits(P_C(p))]
            for p in ([0.3, 1.1], [-0.4, 5.0])]

    plain = run()
    with monkeypatch.context() as m:
        (_branching_gamma if field == "gamma" else _branching_lam)(m)
        legs, integrals, quads = _recorded_solves(m)
        reads = _stacked_reads(m)
        got = run()
    assert got == plain
    assert legs and integrals and len(quads) == 2
    raised = [e for _, e in reads if e is not None]
    assert raised and all(isinstance(e, ValueError) for e in raised)
    with monkeypatch.context() as m:
        (_branching_gamma if field == "gamma" else _branching_lam)(m)
        assert _one_by_one(m, run) == plain


def _one_leg_at_a_time(monkeypatch):
    """Solve the flat solver's legs one at a time, as before they were
    sampled together."""
    def axis_transports(gamma, axis, legs):
        return [axis_transport(gamma, p, axis, lo, hi) for p, lo, hi in legs]

    monkeypatch.setattr(metrize2d, "axis_transports", axis_transports)


def test_legs_through_a_pole_raise_as_one_leg_at_a_time(tmp_path, capsys,
                                                        monkeypatch):
    # the annulus with r in (-0.5, 2): the legs along r from the base point
    # r = 0.75 towards -0.5 cross the pole of Gamma_C at r = 0, between grid
    # points. The legs read together end the run as unsupported with the
    # IntegrationError of the first leg to fail, as one leg at a time does
    cfg = json.loads(json.dumps(FLAT_CASES["annulus"][0]))
    cfg["reduced"]["bounds"][0] = [-0.5, 2.0]
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(cfg))

    def run():
        code = main(["analyze", "--config", str(path)])
        return (code, *capsys.readouterr())

    code, out, err = run()
    assert (code, err) == (EXIT_UNSUPPORTED, "")
    assert json.loads(out)["details"]["reason"].startswith(
        "IntegrationError in a decision stage: no Chebyshev sample resolves "
        "the span between ")
    with monkeypatch.context() as m:
        _one_leg_at_a_time(m)
        assert run() == (code, out, err)
