"""Simulation of the reduced constrained dynamics and of the full closed
loop, phase portraits and CSV export. Simulations step by accuracy
(``calculus.integrate_ode``, DOP853, which only they run; no cap unless
``max_step`` is given), so readers see the solver's nodes, where it
controls the error, or the ``t_eval`` times.
Right-hand sides and readers take the solver's states as Python float lists
(``tolist()``), never as numpy scalars, which make every dual operation on
them slower. The reduced right-hand side is ``vhc.constrained_rhs``, the
"accel" column of ``vhc.reduction_matrix``, whose kernel is generated once
per shape, so a portrait compiles it on its first call and reuses it for
every orbit."""

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


def reduced_energy(metric, potential, theta, thdot):
    """E = 1/2 thdot^T M(theta) thdot + P_C(theta)."""
    d = len(theta)
    M = metric(list(theta))
    kin = 0.5 * sum(float(real(M[i][j])) * thdot[i] * thdot[j]
                    for i in range(d) for j in range(d))
    return kin + float(real(potential(list(theta))))


def _solve(rhs, state0, t_span, tol, max_step, t_eval):
    return integrate_ode(rhs, float(t_span[0]), state0, float(t_span[1]),
                         tol, max_step=max_step, t_eval=t_eval)


def simulate_constrained(sys, par, theta0, thdot0, t_span, tol=DEFAULT_SIM_TOL,
                         max_step=np.inf, t_eval=None):
    """Integrate the reduced dynamics on the constraint manifold.

    When the inputs act orthogonally to the manifold the restricted
    mechanical energy is conserved; its drift is recorded in the trajectory
    diagnostics in that case.
    """
    d = par.chart.dim
    state0 = list(theta0) + list(thdot0)

    def rhs(t, s):
        s = s.tolist()
        return s[d:] + constrained_rhs(sys, par, s)

    traj = _solve(rhs, state0, t_span, tol, max_step, t_eval)
    try:
        metric, potential = restricted_structure(sys, par)
    except ValueError:
        return traj
    energy = [reduced_energy(metric, potential, s[:d], s[d:])
              for s in traj.states.tolist()]
    traj.diagnostics["energy0"] = energy[0]
    traj.diagnostics["energy_drift"] = max(abs(e - energy[0]) for e in energy)
    return traj


def simulate_full(sys, par, theta0, thdot0, t_span, gains=(100.0, 20.0),
                  tol=DEFAULT_SIM_TOL, max_step=np.inf, perturbation=None,
                  t_eval=None):
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
        s = s.tolist()
        qd = s[n:]
        return qd + stabilizing_feedback(sys, s[:n], qd, gains=gains)[1]

    traj = _solve(rhs, q0 + qd0, t_span, tol, max_step, t_eval)
    worst_h = worst_hd = 0.0
    if sys.h is not None:
        for s in traj.states.tolist():
            q, qd = s[:n], s[n:]
            worst_h = max([worst_h] + [abs(v) for v in sys.h(q)])
            worst_hd = max([worst_hd] + [
                abs(sum(r[i] * qd[i] for i in range(n)))
                for r in jacobian(sys.h, q)])
    traj.diagnostics["max_h"] = worst_h
    traj.diagnostics["max_hdot"] = worst_hd
    return traj


@dataclass
class Orbit:
    theta0: list
    thdot0: list
    kind: str               # "rocking" or "rotating"
    trajectory: object


def classify_orbit(traj, coord):
    """Rotating when the lifted displacement of the periodic coordinate
    exceeds a full turn, rocking otherwise. Read at the nodes, a rotating
    orbit (monotone in the lifted coordinate) shows its full range, and a
    rocking one no more than its true range."""
    vals = traj.states[:, coord]
    if float(np.max(vals) - np.min(vals)) >= TWO_PI:
        return "rotating"
    return "rocking"


def phase_portrait(sys, par, initial_conditions, t_final=20.0, coord=None,
                   tol=DEFAULT_SIM_TOL, max_step=np.inf):
    """Simulate a family of reduced initial conditions and classify each
    orbit by ``coord``, by default the chart's ``portrait_axis``."""
    if coord is None:
        coord = par.chart.portrait_axis
    orbits = []
    for theta0, thdot0 in initial_conditions:
        traj = simulate_constrained(sys, par, theta0, thdot0,
                                    (0.0, t_final), tol=tol,
                                    max_step=max_step)
        orbits.append(Orbit(list(theta0), list(thdot0),
                            classify_orbit(traj, coord), traj))
    return orbits


def csv_text(traj, columns):
    """A trajectory's times and states as CSV text with 17 significant
    digits, under the header ``t`` and ``columns``."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t"] + list(columns))
    for t, row in zip(traj.times, traj.states):
        w.writerow([f"{float(t):.17g}"] + [f"{float(v):.17g}" for v in row])
    return buf.getvalue()
