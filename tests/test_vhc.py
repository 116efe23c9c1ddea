"""Induced connection, reduced potential, regularity, and the invariance
feedback, validated on the bundled models and by structural identities."""

import dataclasses
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

import vhckit.linalg
import vhckit.vhc
from vhckit.calculus import jacobian, second_partial
from vhckit.cli import bundle_from_config
from vhckit.models import get_model
from vhckit.vhc import (ConstraintParametrization, RegularityError,
                        check_regularity,
                        constrained_rhs, induced_christoffels,
                        induced_connection, orthogonality_check,
                        psi_functions, reduced_potential,
                        restricted_structure, stabilizing_feedback)

import oracles
from oracles import connection_from_metric

CONFIGS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "configs.py"


@pytest.mark.parametrize("alpha", [0.0, 0.3, -0.4])
def test_circle_induced_christoffel(alpha):
    b = get_model("circle", alpha=alpha)
    for th in np.linspace(0.1, 2.0 * math.pi, 8, endpoint=False):
        gamma = induced_christoffels(b.system, b.parametrization, [float(th)])
        assert gamma[0][0][0] == pytest.approx(math.tan(alpha), abs=1e-11)


def test_reduction_matrix_left_inverse_of_dphi():
    # T = (Bperp D dphi)^{-1} Bperp D satisfies T dphi = I: the columns
    # c_k = dphi_k give T dphi
    b = get_model("sphere")
    for th in [[0.7, 0.3], [1.9, -1.0], [2.4, 2.0]]:
        TD = oracles.reduction_matrix(
            b.system, b.parametrization, th,
            lambda x, dphi: [(list(col), None) for col in zip(*dphi)])
        assert np.allclose(np.asarray(TD, dtype=float), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("name, kw, factor, th", [
    pytest.param("sphere", {}, 3.0, [1.2, 0.4], id="sphere-x3"),
    pytest.param("circle", {"alpha": 0.3}, 1e-15, [1.2], id="circle-x1e-15"),
])
def test_annihilator_scaling_invariance(name, kw, factor, th):
    # Rescaling the rows of Bperp must leave the induced objects unchanged,
    # however small the scale: regularity is a property of A, not of |A|.
    base = get_model(name, **kw)
    scaled = get_model(name, **kw)
    orig_bp = scaled.system.Bperp
    object.__setattr__(scaled.system, "Bperp",
                       lambda q: [[factor * v for v in row]
                                  for row in orig_bp(q)])
    d = len(th)
    g1 = induced_christoffels(base.system, base.parametrization, th)
    g2 = induced_christoffels(scaled.system, scaled.parametrization, th)
    for k in range(d):
        for i in range(d):
            for j in range(d):
                assert g1[k][i][j] == pytest.approx(g2[k][i][j], abs=1e-12)
    l1 = reduced_potential(base.system, base.parametrization, th)
    l2 = reduced_potential(scaled.system, scaled.parametrization, th)
    assert l1 == pytest.approx(l2, abs=1e-12)
    if d == 1:
        p1 = psi_functions(base.system, base.parametrization, th)
        p2 = psi_functions(scaled.system, scaled.parametrization, th)
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_induced_christoffels_evaluates_phi_and_dphi_once():
    # one reduction solve per call: phi and dphi are evaluated once, not once
    # by induced_christoffels and again by reduction_matrix
    par = _dpc_bundle("dpc-b-config").parametrization
    calls = {"phi": 0, "dphi": 0}

    def counted(name):
        fn = getattr(par, name)

        def wrapped(th):
            calls[name] += 1
            return fn(th)

        return wrapped

    wrapped = ConstraintParametrization(par.chart, counted("phi"),
                                        counted("dphi"), par.d2phi)
    sys = _dpc_bundle("dpc-b-config").system
    induced_christoffels(sys, wrapped, [0.3, 1.1])
    assert calls == {"phi": 1, "dphi": 1}


@pytest.mark.parametrize("name", ["circle", "sphere", "dpc-a", "dpc-b"])
def test_models_are_regular(name):
    b = get_model(name)
    rep = check_regularity(b.system, b.parametrization)
    assert rep.regular, f"min singular value {rep.min_singular_value}"


def test_orthogonality_circle():
    ok0, _ = orthogonality_check(get_model("circle", alpha=0.0).system,
                                 get_model("circle", alpha=0.0).parametrization)
    ok3, worst = orthogonality_check(get_model("circle", alpha=0.3).system,
                                     get_model("circle", alpha=0.3).parametrization)
    assert ok0
    assert not ok3 and worst > 1e-3


def test_restricted_structure_circle_orthogonal():
    b = get_model("circle", alpha=0.0)
    metric, potential = restricted_structure(b.system, b.parametrization)
    # pullback of the euclidean metric on the unit circle is 1
    assert metric([0.8])[0][0] == pytest.approx(1.0, rel=1e-12)
    assert potential([0.8]) == pytest.approx(0.0, abs=1e-12)


def test_restricted_structure_refuses_non_orthogonal():
    b = get_model("circle", alpha=0.3)
    with pytest.raises(ValueError):
        restricted_structure(b.system, b.parametrization)


def test_psi_functions_circle():
    b = get_model("circle", alpha=0.3)
    for th in [0.2, 1.5, 4.0]:
        psi1, psi2 = psi_functions(b.system, b.parametrization, [th])
        assert float(psi2) == pytest.approx(-math.tan(0.3), abs=1e-11)
        assert float(psi1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_analyze_1d_solves_each_point_once(alpha, monkeypatch):
    # Psi1 and Psi2 come from one solve: the 1-D decision reads both at many
    # of the same points and must not solve any point twice
    from vhckit.pipeline import analyze
    points = []
    psi = vhckit.vhc.psi_functions

    def counted(sys, par, theta):
        points.append(float(theta[0]))
        return psi(sys, par, theta)

    monkeypatch.setattr(vhckit.vhc, "psi_functions", counted)
    analyze(get_model("circle", alpha=alpha))
    assert points and len(points) == len(set(points))


def test_constrained_rhs_matches_full_closed_loop():
    # The reduced acceleration must agree with the full dynamics under the
    # invariance feedback, mapped through the parametrization.
    b = get_model("dpc-b")
    sys, par = b.system, b.parametrization
    for theta, thdot in [([0.3, 1.1], [0.5, -0.7]),
                         ([-0.5, 4.0], [1.0, 0.3])]:
        acc = [float(a) for a in constrained_rhs(sys, par, theta + thdot)]
        q = [float(v) for v in par.phi(theta)]
        dphi = [[float(v) for v in row] for row in par.dphi(theta)]
        d2phi = par.d2phi(theta)
        qd = [sum(dphi[i][k] * thdot[k] for k in range(2))
              for i in range(sys.n)]
        _, qdd = stabilizing_feedback(sys, q, qd, gains=(0.0, 0.0))
        # qdd = dphi thdd + d2phi[thdot, thdot]
        for i in range(sys.n):
            curv = sum(float(d2phi[i][a][bb]) * thdot[a] * thdot[bb]
                       for a in range(2) for bb in range(2))
            pred = sum(dphi[i][k] * acc[k] for k in range(2)) + curv
            assert qdd[i] == pytest.approx(pred, abs=1e-9)


def _feedback_reference(sys, q, qd, gains):
    # tau from the full Hessian of every h_r: hdd = dh qdd + qd^T hess(h_r) qd,
    # and qdd from its own solve D qdd = B tau - gradP - D quad
    kp, kd = gains
    n = sys.n
    dh = np.asarray(jacobian(sys.h, q), dtype=float)
    D = np.asarray(sys.D(q), dtype=float)
    B = np.asarray(sys.B(q), dtype=float)
    gradP = np.asarray(sys.gradP(q), dtype=float)
    G = connection_from_metric(sys.chart, sys.D)(q)
    quad = np.asarray([sum(G[k][i][j] * qd[i] * qd[j] for i in range(n)
                           for j in range(n)) for k in range(n)], dtype=float)
    drift = -quad - np.linalg.solve(D, gradP)
    rhs = []
    for r in range(sys.m):
        hess = np.asarray([[second_partial(lambda x: sys.h(x)[r], q, i, j)
                            for j in range(n)] for i in range(n)], dtype=float)
        rhs.append(-kp * sys.h(q)[r] - kd * dh[r] @ qd - qd @ hess @ qd
                   - dh[r] @ drift)
    tau = np.linalg.solve(dh @ np.linalg.solve(D, B), rhs)
    return tau, np.linalg.solve(D, B @ tau - gradP) - quad


@pytest.mark.parametrize("name", ["dpc-a", "dpc-b"])
def test_feedback_matches_hessian_reference(name, monkeypatch):
    b = get_model(name)
    sys = b.system
    calls = []

    def counted(*args):
        calls.append(args)
        return second_partial(*args)

    monkeypatch.setattr(vhckit.vhc, "second_partial", counted)
    rng = np.random.default_rng(17)
    for k in range(4):
        theta = [rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)]
        q = [float(v) for v in b.parametrization.phi(theta)]
        q[2] += rng.uniform(-0.1, 0.1)          # off the constraint too
        qd = rng.normal(size=sys.n)
        gains = (16.0, 8.0) if k % 2 else (0.0, 0.0)
        tau, qdd = stabilizing_feedback(sys, q, qd, gains=gains)
        ref_tau, ref_qdd = _feedback_reference(sys, q, qd, gains)
        np.testing.assert_allclose(tau, ref_tau, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(qdd, ref_qdd, rtol=1e-12, atol=1e-12)
        assert len(calls) == k + 1


@pytest.mark.parametrize("factor, singular", [(0.99, True), (1.01, False)],
                         ids=["below", "above"])
def test_singular_decoupling_matrix_raises(factor, singular):
    # dh D^{-1} B scales with h: scale dpc-b's h so that it sits just below
    # or just above the 1e-12 threshold, with the hand-written dh scaled
    # alike and with no dh (the dual jacobian of the scaled h)
    b = get_model("dpc-b")
    sys = b.system
    q = [float(v) for v in b.parametrization.phi([0.3, 1.2])]
    qd = [0.2, 0.5, -0.3]
    dh = np.asarray(jacobian(sys.h, q), dtype=float)
    DinvB = np.linalg.solve(np.asarray(sys.D(q), dtype=float),
                            np.asarray(sys.B(q), dtype=float))
    c = factor * 1e-12 / abs(float((dh @ DinvB)[0, 0]))

    def h(x):
        return [c * v for v in sys.h(x)]

    def scaled_dh(x):
        return [[c * v for v in row] for row in sys.dh(x)]

    for scaled in (dataclasses.replace(sys, h=h, dh=scaled_dh),
                   dataclasses.replace(sys, h=h, dh=None)):
        if singular:
            with pytest.raises(RegularityError, match="decoupling matrix"):
                stabilizing_feedback(scaled, q, qd, gains=(16.0, 8.0))
        else:
            # the output dynamics are linear in h: scaling it moves neither
            # input
            _, qdd = stabilizing_feedback(scaled, q, qd, gains=(16.0, 8.0))
            _, ref = stabilizing_feedback(sys, q, qd, gains=(16.0, 8.0))
            np.testing.assert_allclose(qdd, ref, rtol=1e-9, atol=1e-12)


def test_induced_connection_bundle():
    b = get_model("sphere")
    conn = induced_connection(b.system, b.parametrization)
    th = [1.0, 0.2]
    g = conn.gammaC(th)
    s, c = math.sin(1.0), math.cos(1.0)
    assert float(g[0][0][0]) == pytest.approx(-s * c / (c * c + 1.0),
                                              abs=1e-12)
    lam = conn.lam(th)
    assert float(lam[0]) == pytest.approx(0.0, abs=1e-12)


def _dpc_bundle(name):
    # dpc-a, dpc-b, or their JSON config twins, whose metric gradient is the
    # generic matrix_partial one
    if name.endswith("-config"):
        # run_path executes the file without writing under perfbench/
        configs = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]
        return bundle_from_config(configs[name[:-len("-config")]])
    return get_model(name)


DPC_NAMES = ["dpc-a", "dpc-b", "dpc-a-config", "dpc-b-config"]


def _second_kind_rhs(sys, par, theta, thdot):
    # thdd = -T (d2phi[thd, thd] + Gamma(u, u)) - lambda with Gamma the
    # second-kind Christoffels of D, T the reduction matrix, u = dphi thd
    x = par.phi(theta)
    dphi = np.asarray(par.dphi(theta), dtype=float)
    d2phi = np.asarray(par.d2phi(theta), dtype=float)
    G = np.asarray(connection_from_metric(sys.chart, sys.D)(x), dtype=float)
    D = np.asarray(sys.D(x), dtype=float)
    Bp = np.asarray(sys.Bperp(x), dtype=float)
    u = dphi @ thdot
    acc = (np.einsum("aij,i,j->a", d2phi, thdot, thdot)
           + np.einsum("abc,b,c->a", G, u, u))
    T = np.linalg.solve(Bp @ D @ dphi, Bp @ D)
    lam = np.linalg.solve(Bp @ D @ dphi,
                          Bp @ np.asarray(sys.gradP(x), dtype=float))
    return -T @ acc - lam


@pytest.mark.parametrize("name", DPC_NAMES)
def test_first_kind_contraction_is_metric_times_second_kind(name):
    sys = _dpc_bundle(name).system
    gamma = connection_from_metric(sys.chart, sys.D)
    rng = np.random.default_rng(29)
    for _ in range(20):
        q = [rng.uniform(lo, hi) for lo, hi in sys.chart.bounds]
        v, w = list(rng.normal(size=sys.n)), list(rng.normal(size=sys.n))
        D = np.asarray(sys.D(q), dtype=float)
        ref = D @ np.einsum("kij,i,j->k", np.asarray(gamma(q), dtype=float),
                            v, w)
        # the contraction is symmetric in (v, w)
        g1, g1_swapped = oracles.first_kind(sys.metric_grad(q),
                                            [(v, w), (w, v)])
        got = [g1.get(l, 0.0) for l in range(sys.n)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(
            [g1_swapped.get(l, 0.0) for l in range(sys.n)], got,
            rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("name", DPC_NAMES)
def test_constrained_rhs_matches_second_kind_reference(name):
    b = _dpc_bundle(name)
    sys, par = b.system, b.parametrization
    rng = np.random.default_rng(31)
    for _ in range(20):
        theta = [rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)]
        thdot = rng.normal(size=2)
        acc = constrained_rhs(sys, par, theta + list(thdot))
        np.testing.assert_allclose(
            np.asarray(acc, dtype=float),
            _second_kind_rhs(sys, par, theta, thdot), rtol=1e-12, atol=1e-12)


def test_dpc_b_dynamics_invert_no_matrix(monkeypatch):
    # the first-kind Christoffels need no D^{-1}: neither the reduced right-
    # hand side nor the closed-loop feedback inverts a matrix
    calls = []
    inverse = vhckit.linalg.inverse

    def counted(A):
        calls.append(A)
        return inverse(A)

    monkeypatch.setattr(vhckit.linalg, "inverse", counted)
    b = get_model("dpc-b")
    sys, par = b.system, b.parametrization
    constrained_rhs(sys, par, [0.3, 1.1, 0.5, -0.7])
    assert calls == []
    q = [float(v) for v in par.phi([-0.2, 2.5])]
    stabilizing_feedback(sys, q, [0.4, -0.3, 0.8], gains=(16.0, 8.0))
    assert calls == []


@pytest.mark.parametrize("name, jacobians", [("dpc-b", 0),
                                              ("dpc-b-config", 1)])
def test_feedback_work_per_call(name, jacobians, monkeypatch, count_calls):
    # the built-in reads dh from its hand-written hook, so h is evaluated
    # once at the float point and once at the depth-2 dual of the
    # directional second_partial; the config twin has no dh and adds one
    # dual jacobian, three depth-1 evaluations of h
    b = _dpc_bundle(name)
    h = count_calls(b.system.h)
    sys = dataclasses.replace(b.system, h=h)
    calls = {"jacobian": 0, "second_partial": 0}

    def counted(fname):
        fn = getattr(vhckit.vhc, fname)

        def wrapped(*args):
            calls[fname] += 1
            return fn(*args)

        return wrapped

    for fname in calls:
        monkeypatch.setattr(vhckit.vhc, fname, counted(fname))
    q = [float(v) for v in b.parametrization.phi([-0.2, 2.5])]
    stabilizing_feedback(sys, q, [0.4, -0.3, 0.8], gains=(16.0, 8.0))
    assert calls == {"jacobian": jacobians, "second_partial": 1}
    assert h.by_depth == ({0: 1, 1: 3, 2: 1} if jacobians else {0: 1, 2: 1})


@pytest.mark.parametrize("name", ["dpc-a", "dpc-b-config"])
def test_feedback_makes_no_numpy_solve(name, monkeypatch):
    # the closed-loop solves and the decoupling determinant run on the
    # toolkit's own linalg, in floats
    b = _dpc_bundle(name)
    sys, par = b.system, b.parametrization
    q = [float(v) for v in par.phi([-0.2, 2.5])]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    tau, qdd = stabilizing_feedback(sys, q, [0.4, -0.3, 0.8],
                                    gains=(16.0, 8.0))
    assert len(tau) == sys.m and len(qdd) == sys.n
    assert all(type(v) is float for v in tau + qdd)
