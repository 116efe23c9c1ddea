"""Induced connection, reduced potential, regularity, and the invariance
feedback, validated on the bundled models and by structural identities."""

import math

import numpy as np
import pytest

import vhckit.vhc
from vhckit.calculus import jacobian, second_partial
from vhckit.models import get_model
from vhckit.vhc import (ConstraintParametrization, check_regularity,
                        constrained_rhs, induced_christoffels,
                        induced_connection, orthogonality_check,
                        psi_functions, reduced_potential, reduction_matrix,
                        restricted_structure, stabilizing_feedback)


@pytest.mark.parametrize("alpha", [0.0, 0.3, -0.4])
def test_circle_induced_christoffel(alpha):
    b = get_model("circle", alpha=alpha)
    for th in np.linspace(0.1, 2.0 * math.pi, 8, endpoint=False):
        gamma = induced_christoffels(b.system, b.parametrization, [float(th)])
        assert gamma[0][0][0] == pytest.approx(math.tan(alpha), abs=1e-11)


def test_reduction_matrix_left_inverse_of_dphi():
    # T = (Bperp D dphi)^{-1} Bperp D satisfies T dphi = I
    b = get_model("sphere")
    for th in [[0.7, 0.3], [1.9, -1.0], [2.4, 2.0]]:
        T = reduction_matrix(b.system, b.parametrization, th)
        dphi = b.parametrization.dphi(th)
        TD = np.asarray(T, dtype=float) @ np.asarray(dphi, dtype=float)
        assert np.allclose(TD, np.eye(2), atol=1e-12)


def test_annihilator_scaling_invariance():
    # Rescaling the rows of Bperp must leave the induced objects unchanged.
    base = get_model("sphere")
    scaled = get_model("sphere")
    orig_bp = scaled.system.Bperp
    object.__setattr__(scaled.system, "Bperp",
                       lambda q: [[3.0 * v for v in row]
                                  for row in orig_bp(q)])
    th = [1.2, 0.4]
    g1 = induced_christoffels(base.system, base.parametrization, th)
    g2 = induced_christoffels(scaled.system, scaled.parametrization, th)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert g1[k][i][j] == pytest.approx(g2[k][i][j], abs=1e-12)
    l1 = reduced_potential(base.system, base.parametrization, th)
    l2 = reduced_potential(scaled.system, scaled.parametrization, th)
    assert l1[0] == pytest.approx(l2[0], abs=1e-12)


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
    G = sys.gamma(q)
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
