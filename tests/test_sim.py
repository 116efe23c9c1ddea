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


def test_simulation_kernels_see_plain_floats(monkeypatch):
    # scipy's state reaches the reduced and closed-loop kernels as Python
    # floats, not numpy scalars
    seen = {"reduced": set(), "full": set()}

    def recording(fn, key, slots):
        def wrapper(*args, **kwargs):
            for k in slots:
                seen[key].update(type(v) for v in args[k])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vhckit.sim, "constrained_rhs", recording(
        vhckit.sim.constrained_rhs, "reduced", (2,)))
    monkeypatch.setattr(vhckit.sim, "stabilizing_feedback", recording(
        vhckit.sim.stabilizing_feedback, "full", (1, 2)))
    b = get_model("dpc-b")
    simulate_constrained(b.system, b.parametrization, [0.1, 1.0], [0.3, 0.8],
                         (0.0, 0.5))
    simulate_full(b.system, b.parametrization, [0.1, 1.0], [0.3, 0.8],
                  (0.0, 0.5), gains=(16.0, 8.0))
    assert seen == {"reduced": {float}, "full": {float}}


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
    assert classify_orbit(rocking, 0) == "rocking"
    assert classify_orbit(rotating, 0) == "rotating"


def test_phase_portrait_dpc_kinds():
    b = get_model("dpc-b")
    ics = [([0.0, math.pi], [0.0, 0.5]),    # small swing around the top
           ([0.0, 0.0], [0.0, 6.0])]        # fast full revolution
    orbits = phase_portrait(b.system, b.parametrization, ics, t_final=6.0)
    kinds = {o.kind for o in orbits}
    assert "rocking" in kinds
    assert "rotating" in kinds


def test_phase_portrait_kinds_are_pinned(dpc_a, dpc_b, sphere):
    # the kinds of the earlier RK45 runs under a 1e-2 step cap, in order:
    # criterion 11's starts, and the sphere (no periodic coordinate, so
    # the last one) from starts drawn as `vhckit portrait` draws them but
    # off the pole theta1 = 0
    ics = [([0.0, math.pi], [0.0, 0.5]), ([0.0, 0.0], [0.0, 6.0])]
    for bundle in (dpc_a, dpc_b):
        orbits = phase_portrait(bundle.system, bundle.parametrization, ics,
                                t_final=10.0, coord=1, max_step=0.1)
        assert [o.kind for o in orbits] == ["rocking", "rotating"]
    for seed, want in enumerate(["OOOOOOOO", "OOOOO-O-", "OOOOOOOO"]):
        rng = np.random.default_rng(seed)
        ics = []
        for _ in range(8):
            theta2 = float(rng.uniform(0.0, TWO_PI))
            ics.append(([1.0, theta2], [0.0, float(rng.uniform(-3.0, 3.0))]))
        orbits = phase_portrait(sphere.system, sphere.parametrization, ics,
                                tol=1e-9)
        assert "".join("O" if o.kind == "rotating" else "-"
                       for o in orbits) == want


def test_export_csv_roundtrip(tmp_path):
    b = get_model("circle", alpha=0.0)
    traj = simulate_constrained(b.system, b.parametrization, [0.0], [1.0],
                                (0.0, 1.0), t_eval=np.linspace(0.0, 1.0, 11))
    path = tmp_path / "traj.csv"
    path.write_text(csv_text(traj, columns=["theta", "thetad"]), newline="")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "theta", "thetad"]
    assert len(rows) == 12
    # 17 significant digits survive a float round trip exactly
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-8)
    assert float(rows[-1][0]) == 1.0


# RHS calls to T = 20 (T = 2 for the closed loop) at the default tol and
# step policy, DOP853 without a step cap. Each run is pinned to a 1.5x window,
# which RK45 (57, 1,317 and 2,967 calls) and the old policy, RK45 under a
# 1e-2 step cap (12,027, 12,009 and 2,967), fall outside.
@pytest.mark.parametrize("name, theta0, thdot0, full, calls", [
    ("circle", [0.0], [0.0], False, 111),
    ("sphere", [1.0, 0.2], [0.0, 0.5], False, 723),
    ("dpc-b", [0.0, 0.0], [0.0, 1.0], True, 1371),
], ids=["circle", "sphere", "dpc-b-full"])
def test_simulations_step_by_accuracy(name, theta0, thdot0, full, calls,
                                      monkeypatch):
    counts = {"rhs": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["rhs"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vhckit.sim, "constrained_rhs",
                        counted(vhckit.sim.constrained_rhs))
    monkeypatch.setattr(vhckit.sim, "stabilizing_feedback",
                        counted(vhckit.sim.stabilizing_feedback))
    b = get_model(name)
    if full:
        simulate_full(b.system, b.parametrization, theta0, thdot0, (0.0, 2.0))
    else:
        simulate_constrained(b.system, b.parametrization, theta0, thdot0,
                             (0.0, 20.0))
    assert calls / 1.5 < counts["rhs"] < 1.5 * calls
