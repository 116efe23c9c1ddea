"""Simulation of the reduced constrained dynamics and of the full closed
loop, plus phase portraits and CSV export."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .calculus import integrate_ode, jacobian
from .dual import real
from .vhc import constrained_rhs, restricted_structure, stabilizing_feedback

TWO_PI = 2.0 * math.pi

DEFAULT_SIM_TOL = 1e-10
DEFAULT_MAX_STEP = 1e-2


def reduced_energy(metric, potential, theta, thdot):
    """E = 1/2 thdot^T M(theta) thdot + P_C(theta)."""
    d = len(theta)
    M = metric(list(theta))
    kin = 0.5 * sum(float(real(M[i][j])) * thdot[i] * thdot[j]
                    for i in range(d) for j in range(d))
    return kin + float(real(potential(list(theta))))


def simulate_constrained(sys, par, theta0, thdot0, t_span, tol=DEFAULT_SIM_TOL,
                         max_step=DEFAULT_MAX_STEP):
    """Integrate the reduced dynamics on the constraint manifold.

    When the inputs act orthogonally to the manifold the restricted
    mechanical energy is conserved; its drift is recorded in the trajectory
    diagnostics in that case.
    """
    d = par.chart.dim
    state0 = list(theta0) + list(thdot0)

    def rhs(t, s):
        acc = constrained_rhs(sys, par, list(s))
        return list(s[d:]) + [float(real(a)) for a in acc]

    traj = integrate_ode(rhs, float(t_span[0]), state0, float(t_span[1]),
                         tol, max_step=max_step)
    try:
        metric, potential = restricted_structure(sys, par)
    except ValueError:
        return traj
    e0 = reduced_energy(metric, potential, traj.states[0][:d],
                        traj.states[0][d:])
    drift = 0.0
    for s in traj.states:
        drift = max(drift, abs(reduced_energy(metric, potential,
                                              s[:d], s[d:]) - e0))
    traj.diagnostics["energy0"] = e0
    traj.diagnostics["energy_drift"] = drift
    return traj


def simulate_full(sys, par, theta0, thdot0, t_span, gains=(100.0, 20.0),
                  tol=DEFAULT_SIM_TOL, max_step=DEFAULT_MAX_STEP,
                  perturbation=None):
    """Closed-loop simulation of the full system under the constraint-
    enforcing feedback, started on (or near) the constraint manifold.

    Diagnostics record the worst constraint violation max |h| and |hdot|
    along the trajectory.
    """
    n = sys.n
    q0 = [float(real(v)) for v in par.phi(list(theta0))]
    dphi = [[float(real(v)) for v in row] for row in par.dphi(list(theta0))]
    qd0 = [sum(dphi[i][k] * thdot0[k] for k in range(len(thdot0)))
           for i in range(n)]
    if perturbation is not None:
        dq, dqd = perturbation
        q0 = [a + b for a, b in zip(q0, dq)]
        qd0 = [a + b for a, b in zip(qd0, dqd)]

    def rhs(t, s):
        q, qd = list(s[:n]), list(s[n:])
        _, qdd = stabilizing_feedback(sys, q, qd, gains=gains)
        return list(qd) + [float(v) for v in qdd]

    traj = integrate_ode(rhs, float(t_span[0]), q0 + qd0, float(t_span[1]),
                         tol, max_step=max_step)
    worst_h = 0.0
    worst_hd = 0.0
    if sys.h is not None:
        for s in traj.states:
            q, qd = list(s[:n]), list(s[n:])
            hval = [float(real(v)) for v in sys.h(q)]
            dh = [[float(real(v)) for v in row] for row in jacobian(sys.h, q)]
            worst_h = max(worst_h, max(abs(v) for v in hval))
            worst_hd = max(worst_hd,
                           max(abs(sum(row[i] * qd[i] for i in range(n)))
                               for row in dh))
    traj.diagnostics["max_h"] = worst_h
    traj.diagnostics["max_hdot"] = worst_hd
    return traj


@dataclass
class Orbit:
    theta0: list
    thdot0: list
    kind: str               # "rocking" or "rotating"
    trajectory: object


def classify_orbit(traj, coord, dim):
    """Rotating when the lifted displacement of the periodic coordinate
    exceeds a full turn, rocking otherwise."""
    vals = traj.states[:, coord]
    if float(np.max(vals) - np.min(vals)) >= TWO_PI:
        return "rotating"
    return "rocking"


def phase_portrait(sys, par, initial_conditions, t_final=20.0, coord=None,
                   tol=DEFAULT_SIM_TOL, max_step=DEFAULT_MAX_STEP):
    """Simulate a family of reduced initial conditions and classify each
    orbit of the (periodic) portrait coordinate."""
    d = par.chart.dim
    if coord is None:
        periodic = [i for i in range(d) if par.chart.periodic[i]]
        coord = periodic[0] if periodic else d - 1
    orbits = []
    for theta0, thdot0 in initial_conditions:
        traj = simulate_constrained(sys, par, theta0, thdot0,
                                    (0.0, t_final), tol=tol,
                                    max_step=max_step)
        orbits.append(Orbit(list(theta0), list(thdot0),
                            classify_orbit(traj, coord, d), traj))
    return orbits


def csv_text(traj, columns=None, n_samples=None):
    """A trajectory as CSV text with 17 significant digits."""
    states = traj.states
    times = traj.times
    if n_samples is not None:
        ts = np.linspace(times[0], times[-1], n_samples)
        states = np.asarray([traj.at(t) for t in ts])
        times = ts
    width = states.shape[1]
    if columns is None:
        columns = [f"x{i}" for i in range(width)]
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t"] + list(columns))
    for t, row in zip(times, states):
        w.writerow([f"{float(t):.17g}"] + [f"{float(v):.17g}" for v in row])
    return buf.getvalue()
