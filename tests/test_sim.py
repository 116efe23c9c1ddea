"""Reduced and full simulations, orbit classification, CSV export."""

import csv
import dataclasses
import math

import numpy as np
import pytest

import vhckit.sim
import vhckit.vhc
from vhckit.calculus import Trajectory
from vhckit.models import get_model
from vhckit.sim import (classify_orbit, csv_text, phase_portrait,
                        reduced_energy, simulate_constrained, simulate_full)

TWO_PI = 2.0 * math.pi


def test_equilibrium_stays_constant():
    b = get_model("circle", alpha=0.0)
    traj = simulate_constrained(b.system, b.parametrization, [0.7], [0.0],
                                (0.0, 3.0))
    assert np.max(np.abs(traj.states[:, 0] - 0.7)) < 1e-10
    assert np.max(np.abs(traj.states[:, 1])) < 1e-10


def test_circle_geodesic_constant_speed():
    b = get_model("circle", alpha=0.0)
    traj = simulate_constrained(b.system, b.parametrization, [0.0], [1.3],
                                (0.0, 5.0))
    # free particle on the circle: theta(t) = 1.3 t
    assert traj.end_state[0] == pytest.approx(6.5, abs=1e-8)
    assert traj.end_state[1] == pytest.approx(1.3, abs=1e-10)
    assert traj.diagnostics["energy_drift"] < 1e-10


def test_orthogonality_checked_once_per_simulation(monkeypatch):
    import vhckit.vhc as vhc_mod
    b = get_model("circle", alpha=0.0)
    calls = []
    check = vhc_mod.orthogonality_check

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(vhc_mod, "orthogonality_check", counted)
    traj = simulate_constrained(b.system, b.parametrization, [0.2], [1.1],
                                (0.0, 1.0))
    assert len(calls) == 1
    # the energy diagnostics are those of the checked restricted structure
    metric, potential = vhc_mod.restricted_structure(b.system,
                                                     b.parametrization)
    e0 = reduced_energy(metric, potential, traj.states[0][:1],
                        traj.states[0][1:])
    assert traj.diagnostics["energy0"] == e0
    assert traj.diagnostics["energy_drift"] < 1e-10


def test_reduced_energy_helper():
    metric = lambda th: [[2.0]]
    potential = lambda th: 3.0 * th[0]
    assert reduced_energy(metric, potential, [1.0], [2.0]) == pytest.approx(
        0.5 * 2.0 * 4.0 + 3.0)


def test_full_simulation_keeps_constraint_dpc():
    b = get_model("dpc-b")
    traj = simulate_full(b.system, b.parametrization, [0.0, 2.5], [0.2, 0.5],
                         (0.0, 2.0), gains=(16.0, 8.0))
    assert traj.diagnostics["max_h"] < 1e-7
    assert traj.diagnostics["max_hdot"] < 1e-6


def test_full_simulation_evaluates_D_once_per_rhs_call(monkeypatch):
    # the closed loop's D^{-1}B, D^{-1}gradP and qdd come from one solve
    b = get_model("dpc-b")
    counts = {"D": 0, "feedback": 0}

    def D(q):
        counts["D"] += 1
        return b.system.D(q)

    def feedback(*args, **kwargs):
        counts["feedback"] += 1
        return vhckit.vhc.stabilizing_feedback(*args, **kwargs)

    monkeypatch.setattr(vhckit.sim, "stabilizing_feedback", feedback)
    sys_ = dataclasses.replace(b.system, D=D)
    simulate_full(sys_, b.parametrization, [0.0, 2.5], [0.2, 0.5], (0.0, 0.2),
                  gains=(16.0, 8.0))
    assert counts["feedback"] > 0
    assert counts["D"] == counts["feedback"]


def test_full_simulation_matches_reduced_on_constraint():
    b = get_model("dpc-b")
    theta0, thdot0 = [0.1, 1.0], [0.3, 0.8]
    full = simulate_full(b.system, b.parametrization, theta0, thdot0,
                         (0.0, 1.5), gains=(16.0, 8.0))
    red = simulate_constrained(b.system, b.parametrization, theta0, thdot0,
                               (0.0, 1.5))
    q_end = [float(v) for v in b.parametrization.phi(
        [red.end_state[0], red.end_state[1]])]
    assert full.end_state[0] == pytest.approx(q_end[0], abs=1e-6)
    assert full.end_state[1] == pytest.approx(q_end[1], abs=1e-6)


def test_classify_orbit_synthetic():
    rocking = Trajectory(times=np.linspace(0, 1, 5),
                         states=np.asarray([[0.1 * math.sin(t), 0.0]
                                            for t in np.linspace(0, 1, 5)]))
    rotating = Trajectory(times=np.linspace(0, 1, 5),
                          states=np.asarray([[7.0 * t, 0.0]
                                             for t in np.linspace(0, 1, 5)]))
    assert classify_orbit(rocking, 0, 2) == "rocking"
    assert classify_orbit(rotating, 0, 2) == "rotating"


def test_phase_portrait_dpc_kinds():
    b = get_model("dpc-b")
    ics = [([0.0, math.pi], [0.0, 0.5]),    # small swing around the top
           ([0.0, 0.0], [0.0, 6.0])]        # fast full revolution
    orbits = phase_portrait(b.system, b.parametrization, ics, t_final=6.0)
    kinds = {o.kind for o in orbits}
    assert "rocking" in kinds
    assert "rotating" in kinds


def test_export_csv_roundtrip(tmp_path):
    b = get_model("circle", alpha=0.0)
    traj = simulate_constrained(b.system, b.parametrization, [0.0], [1.0],
                                (0.0, 1.0))
    path = tmp_path / "traj.csv"
    path.write_text(csv_text(traj, columns=["theta", "thetad"], n_samples=11),
                    newline="")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "theta", "thetad"]
    assert len(rows) == 12
    # 17 significant digits survive a float round trip exactly
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-8)
    assert float(rows[-1][0]) == 1.0
