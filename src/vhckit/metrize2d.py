"""Metrizability of two-dimensional curved connections via Ricci recurrence,
and the cylinder search for Lagrangian structures of flat connections."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize_scalar

from . import dual as dm
from .calculus import partial, quad
from .dual import Dual, real
from .holonomy import (GeneratorHolonomyError, PeriodicAntiderivative,
                       SmoothFromDerivative, WindowAntiderivative, circle_mod,
                       cylinder_integrals)
from .manifold import (Tensor02Field, christoffel_from_metric, ricci,
                       total_cov_derivative_02)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Ricci recurrence


@dataclass
class RecurrenceData:
    """Ricci recurrence nabla Ric = omega (x) Ric, tested on a grid."""

    ric: object              # Tensor02Field
    residual: float          # max |nabla Ric - omega (x) Ric|, det Ric != 0
    definite: int            # +1, -1: definite, one sign on the grid; else 0
    recurrent: bool
    min_ric_norm: float = 0.0
    indefinite: bool = False  # det Ric < 0 somewhere, which no metric has


def ricci_field(gamma):
    return Tensor02Field(gamma.chart, lambda x: ricci(gamma, x))


def _recurrence_at(gamma, ric, x):
    """Ric, nabla Ric and the recurrence one-form omega at x.

    omega_i = sum_jk (nabla Ric)_ijk Ric_jk / |Ric|^2 is the exact solution of
    nabla Ric = omega (x) Ric whenever the recurrence holds and the
    least-squares projection otherwise; it is None where Ric vanishes. Dual
    inputs propagate.
    """
    n = len(x)
    R = ric(x)
    dR = total_cov_derivative_02(gamma, ric, x)
    norm2 = sum(R[j][k] * R[j][k] for j in range(n) for k in range(n))
    if real(norm2) == 0.0:
        return R, dR, None
    return R, dR, [sum(dR[i][j][k] * R[j][k] for j in range(n)
                       for k in range(n)) / norm2 for i in range(n)]


def recurrence_solve(gamma, grid=None, tol=1e-7):
    """Test nabla Ric = omega (x) Ric on a grid and read the sign of Ric there.

    In 2-D every metric has Ric = K g, so an indefinite Ric rules a metric
    out, while a Ric that vanishes or changes sign is a case the recurrence
    test does not decide (``definite`` is 0 and ``indefinite`` False). The
    residual is taken where Ric is nondegenerate.
    """
    if grid is None:
        grid = gamma.chart.grid()
    ric = ricci_field(gamma)
    worst, min_norm, indefinite, signs = 0.0, math.inf, False, set()
    for p in grid:
        R, dR, w = _recurrence_at(gamma, ric, p)
        R = np.asarray([[float(real(v)) for v in row] for row in R])
        min_norm = min(min_norm, float(np.linalg.norm(R)))
        ev = np.linalg.eigvalsh(0.5 * (R + R.T))
        if ev[0] > 1e-12:
            signs.add(1)
        elif ev[-1] < -1e-12:
            signs.add(-1)
        elif ev[0] < -1e-12 and ev[-1] > 1e-12:
            indefinite = True
        else:
            signs.add(0)        # Ric is degenerate here
            continue
        w = [float(real(v)) for v in w]
        for i, j, k in itertools.product(range(len(p)), repeat=3):
            worst = max(worst, abs(float(real(dR[i][j][k])) - w[i] * R[j][k]))
    definite = signs.pop() if len(signs) == 1 and 0 not in signs else 0
    return RecurrenceData(ric=ric, residual=worst, definite=definite,
                          recurrent=worst < tol, min_ric_norm=min_norm,
                          indefinite=indefinite)


# ---------------------------------------------------------------------------
# Exactness of the recurrence one-form and line-integral potentials
#
# Tracing nabla Ric = omega (x) Ric with Ric^{-1} gives, in 2-D,
#     omega_i = 1/2 d_i log det Ric - trGamma_i,   trGamma_i = Gamma^m_{im},
# so omega needs no derivative of Ric, and for a torsion-free Gamma its curl
# d_0 omega_1 - d_1 omega_0 is Ric_01 - Ric_10: the log-det term is exact.


def exactness_check(rec, grid, tol=1e-6):
    """(exact, curl_max): the recurrence one-form is closed on the grid iff
    the Ricci tensor is symmetric there, with curl_max = max |Ric_01 - Ric_10|.
    A curved chart is simply connected here, so closed means exact."""
    curl_max = 0.0
    for p in grid:
        R = rec.ric(p)
        curl_max = max(curl_max, abs(float(real(R[0][1] - R[1][0]))))
    return curl_max < tol, curl_max


class LineIntegralField:
    """Potential f(x) = int_ref^x omega along the canonical axis-aligned path
    (periodic coordinates first). Dense quadratures are cached per leg, and
    dual arguments are peeled with f'(x)[b] = omega(x) . b. The leg cache is
    cleared when it reaches ``_MAX_LEGS``: each distinct non-periodic
    coordinate value adds a leg of dense output (tens of KB)."""

    _MAX_LEGS = 64

    def __init__(self, omega, chart, ref, tol=1e-10):
        self.omega = omega
        self.chart = chart
        self.ref = [float(c) for c in ref]
        self.tol = tol
        self.order = [i for i in range(chart.dim) if chart.periodic[i]] + \
                     [i for i in range(chart.dim) if not chart.periodic[i]]
        self._legs = {}

    def __call__(self, x):
        if any(isinstance(c, Dual) for c in x):
            a = [c.val if isinstance(c, Dual) else c for c in x]
            b = [c.eps if isinstance(c, Dual) else 0.0 for c in x]
            w = self.omega(a)
            slope = sum(wi * bi for wi, bi in zip(w, b))
            return Dual(self(a), slope)
        return self._value([float(c) for c in x])

    def _value(self, x):
        total = 0.0
        cur = list(self.ref)
        for leg_pos, i in enumerate(self.order):
            if x[i] != cur[i]:
                total += self._leg(leg_pos, i, cur)(x[i])
                cur[i] = x[i]
        return total

    def _leg(self, leg_pos, i, cur):
        key = (leg_pos, i,
               tuple(round(c, 12) for j, c in enumerate(cur) if j != i))
        leg = self._legs.get(key)
        if leg is None:
            if len(self._legs) >= self._MAX_LEGS:
                self._legs.clear()
            fixed = list(cur)

            def comp(t):
                p = list(fixed)
                p[i] = t
                return float(real(self.omega(p)[i]))

            if self.chart.periodic[i]:
                bounds = (-math.inf, math.inf)
            else:
                bounds = self.chart.bounds[i]
            leg = WindowAntiderivative(comp, tol=self.tol, x0=cur[i],
                                       initial_window=(cur[i], cur[i]),
                                       bounds=bounds)
            self._legs[key] = leg
        return leg


# ---------------------------------------------------------------------------
# Metric reconstruction from a recurrent definite Ricci tensor


@dataclass
class MetricReport:
    ok: bool
    g: object = None                 # Tensor02Field
    sign: int = 0
    b: float = 0.0
    max_nabla_g: float = 0.0
    max_gamma_dev: float = 0.0
    message: str = ""

    def __bool__(self):
        return self.ok


def metric_from_ricci(gamma, rec, ref, b=0.0, check_grid=None,
                      check_tol=1e-6, tol=1e-10):
    """Candidate metric g = sign * exp(-f + b) * Ric with df = omega and
    f(ref) = 0, that is f = 1/2 log(det Ric / det Ric(ref)) - int_ref^x
    trGamma; verified by parallelism of g and agreement of its Levi-Civita
    connection with gamma."""
    if not rec.recurrent or rec.definite == 0:
        return MetricReport(False, message="Ricci not definite and recurrent")
    sign = rec.definite

    def trace(x):
        G = gamma(x)
        return [G[0][i][0] + G[1][i][1] for i in range(2)]

    def log_det(x, R):
        det = R[0][0] * R[1][1] - R[0][1] * R[1][0]
        if real(det) <= 0.0:
            raise ValueError("Ricci tensor vanishes or degenerates at "
                             f"{[float(real(c)) for c in x]}; the "
                             "recurrence one-form is undefined there")
        return dm.log(det)

    t = LineIntegralField(trace, gamma.chart, ref, tol=tol)
    log_det_ref = log_det(ref, rec.ric(ref))

    def g_fn(x):
        R = rec.ric(x)
        f = 0.5 * (log_det(x, R) - log_det_ref) - t(x)
        scale = sign * dm.exp(-f + b)
        return [[scale * v for v in row] for row in R]

    g = Tensor02Field(gamma.chart, g_fn)
    if check_grid is None:
        check_grid = gamma.chart.grid(n=5)
    max_ng = max_dev = 0.0
    for p in check_grid:
        ng = np.asarray(total_cov_derivative_02(gamma, g, p), dtype=float)
        dev = (np.asarray(christoffel_from_metric(g, p), dtype=float)
               - np.asarray(gamma(p), dtype=float))
        max_ng = max(max_ng, float(np.max(np.abs(ng))))
        max_dev = max(max_dev, float(np.max(np.abs(dev))))
    ok = max_ng < check_tol and max_dev < check_tol
    return MetricReport(ok, g=g, sign=sign, b=b,
                        max_nabla_g=max_ng, max_gamma_dev=max_dev,
                        message="" if ok else "verification residual too large")


# ---------------------------------------------------------------------------
# Cylinder search for flat connections on R x S1


@dataclass
class LagrangianReport:
    lagrangian: bool
    metrizable: bool = False
    a: float = 0.0
    b: float = 0.0
    mu1_const: float = 0.0
    closedness_residual: float = math.inf
    spd_ok: bool = False
    exact_ok: bool = False
    D_C: object = None           # callable theta -> 2x2 metric
    P_C: object = None           # callable theta -> potential
    diagnostics: dict = dc_field(default_factory=dict)
    message: str = ""

    def __bool__(self):
        return self.lagrangian


def _minimax_linear(p, q):
    """Minimize max_i |p_i + a q_i| over a (convex piecewise linear)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not np.any(q):
        # every a gives the same residual
        return 0.0, float(np.max(np.abs(p)))

    def cost(a):
        return float(np.max(np.abs(p + a * q)))

    scale = max(1.0, float(np.max(np.abs(p))) / max(1e-12, float(np.max(np.abs(q)))))
    res = minimize_scalar(cost, bracket=(-scale, 0.0, scale), method="golden",
                          options={"xtol": 1e-14})
    best_a, best = float(res.x), float(res.fun)
    # polish with crossing candidates of the active lines
    idx = np.argsort(np.abs(p + best_a * q))[-8:]
    for i in idx:
        for j in idx:
            denom = q[i] + q[j]
            if abs(denom) > 1e-14:
                a = -(p[i] + p[j]) / denom
                if cost(a) < best:
                    best_a, best = float(a), cost(a)
        if abs(q[i]) > 1e-14:
            a = -p[i] / q[i]
            if cost(a) < best:
                best_a, best = float(a), cost(a)
    return best_a, best


def cylinder_lagrangian_search(conn, grid_n=256, tol=1e-8,
                               structure_tol=1e-8, quad_tol=1e-10):
    """Lagrangian structure (D_C, P_C) for a flat cylinder connection.

    The transports pin the metric up to the frame values [[1, a], [a, b]];
    closedness of the force one-form is linear in ``a``, so the minimax
    residual over one period decides existence. ``b`` is then fixed by
    exactness around the periodic generator (or chosen freely when it drops
    out).
    """
    chart = conn.chart
    try:
        cyl = cylinder_integrals(conn.gammaC, structure_tol=structure_tol)
    except GeneratorHolonomyError as e:
        return LagrangianReport(False, message=str(e), diagnostics=e.loops)
    lo, hi = chart.bounds[0]
    anchors = [lo + 0.25 * (hi - lo), 0.5 * (lo + hi), hi - 0.25 * (hi - lo)]
    anchor = anchors[1]

    def lam_at(t):
        return conn.lam([anchor, circle_mod(t)])

    # the reduced force must not depend on theta1 for the ansatz to close
    lam_dev = 0.0
    for t2 in np.linspace(0.0, TWO_PI, 7, endpoint=False):
        vals = [np.asarray([float(real(v)) for v in conn.lam([a, float(t2)])])
                for a in anchors]
        lam_dev = max(lam_dev, max(float(np.max(np.abs(v - vals[0])))
                                   for v in vals[1:]))
    if lam_dev > structure_tol:
        return LagrangianReport(False, metrizable=True,
                                message="reduced force depends on theta1",
                                diagnostics={"lam_dev": lam_dev})

    def frame(t, a, b=None):
        # D_C[0][1] and D_C[1][1] at theta2 = t: the frame [[1, a], [a, b]]
        # at theta2 = 0, carried by the transport; [1][1] only when b is given
        e1 = dm.exp(-cyl.I1(t))
        i2 = cyl.I2(t)
        off = e1 * (i2 + a)
        if b is None:
            return off, None
        return off, e1 * e1 * (i2 * i2 + 2.0 * a * i2 + b)

    def mu(t, a, b=None):
        # the force one-form mu = D_C lambda at theta2 = t; mu_2 only when b
        # is given
        lam = lam_at(t)
        off, low = frame(t, a, b)
        mu1 = lam[0] + off * lam[1]
        return mu1, (None if b is None else off * lam[0] + low * lam[1])

    def mu1_slope(t, a):
        return float(real(partial(lambda x: mu(x[0], a)[0], [float(t)], 0)))

    ts = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    p = np.array([mu1_slope(t, 0.0) for t in ts])
    q = np.array([mu1_slope(t, 1.0) for t in ts]) - p
    a_best, residual = _minimax_linear(p, q)
    report = LagrangianReport(False, metrizable=True, a=a_best,
                              closedness_residual=residual,
                              diagnostics={"I1_loop": cyl.I1_loop,
                                           "I2_loop": cyl.I2_loop,
                                           "lam_dev": lam_dev})
    if residual >= tol:
        report.message = "no frame value a closes the force one-form"
        return report

    a = a_best
    c = float(np.mean([float(real(mu(float(t), a)[0])) for t in ts]))

    # mu_2 is affine in b, so its generator period is A + b B; exactness
    # needs that period to vanish. mu_2 at b = 0 and b = 1, taken together,
    # gives both integrands.
    def mu2_affine(t):
        m0, m1 = mu(t, a, np.array([0.0, 1.0]))[1]
        return m0, m1 - m0

    A = quad(lambda t: mu2_affine(t)[0], 0.0, TWO_PI, tol=quad_tol)
    B = quad(lambda t: mu2_affine(t)[1], 0.0, TWO_PI, tol=quad_tol)
    scale_B = quad(lambda t: abs(mu2_affine(t)[1]), 0.0, TWO_PI, tol=1e-8)
    if abs(B) > 1e-8 * max(scale_B, 1.0):
        b = -A / B              # the period has nonzero slope in b
    elif abs(A) < max(tol, 1e-8):
        b = a * a + 1.0         # b drops out of the period; any SPD b works
    else:
        report.message = "force one-form has nonzero period around the generator"
        return report
    spd_ok = b - a * a > 1e-12
    report.b, report.exact_ok, report.spd_ok = b, True, spd_ok
    report.mu1_const = c
    if not spd_ok:
        report.message = "invariant form is not positive definite"
        return report

    def D_C(theta):
        off, low = frame(theta[1], a, b)
        return [[1.0, off], [off, low]]

    def mu2(t):
        return mu(t, a, b)[1]

    V = SmoothFromDerivative(
        PeriodicAntiderivative(lambda t: float(real(mu2(t))), tol=quad_tol),
        mu2)

    def P_C(theta):
        return c * theta[0] + V(theta[1])

    report.lagrangian = True
    report.D_C = D_C
    report.P_C = P_C
    report.diagnostics["mu2_loop_after_b"] = A + b * B
    return report
