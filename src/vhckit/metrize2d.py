"""Metrizability of two-dimensional curved connections via Ricci recurrence,
and the cylinder search for Lagrangian structures of flat connections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize_scalar

from . import dual as dm
from .calculus import partial, quad, vector_partial
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
    """Least-squares recurrence one-form for the Ricci tensor."""

    omega: object            # callable: point -> [w_1, ..., w_n]
    ric: object              # Tensor02Field
    residual: float          # max |nabla Ric - omega (x) Ric| over the grid
    definite: int            # +1, -1 definite, 0 otherwise
    recurrent: bool
    min_ric_norm: float = 0.0


def ricci_field(gamma):
    return Tensor02Field(gamma.chart, lambda x: ricci(gamma, x))


def recurrence_omega(gamma, ric=None):
    """Pointwise closed-form solution of nabla Ric = omega (x) Ric.

    omega_i = sum_jk (nabla Ric)_ijk Ric_jk / sum_jk Ric_jk^2, which is the
    exact solution whenever the recurrence holds and the least-squares
    projection otherwise. Dual inputs propagate.
    """
    if ric is None:
        ric = ricci_field(gamma)

    memo = {}

    def omega(x):
        n = len(x)
        plain = not any(isinstance(c, Dual) for c in x)
        if plain:
            key = tuple(float(c) for c in x)
            hit = memo.get(key)
            if hit is not None:
                return hit
        R = ric(x)
        dR = total_cov_derivative_02(gamma, ric, x)
        denom = sum(R[j][k] * R[j][k] for j in range(n) for k in range(n))
        w = [sum(dR[i][j][k] * R[j][k] for j in range(n) for k in range(n))
             / denom for i in range(n)]
        if plain:
            if len(memo) >= 4096:
                memo.clear()
            memo[key] = w
        return w

    return omega


def definiteness(ric, grid, tol=1e-12):
    """Sign of the Ricci tensor on a grid: +1, -1, or 0 when indefinite or
    degenerate anywhere."""
    sign = None
    for p in grid:
        R = np.asarray([[float(real(v)) for v in row] for row in ric(p)])
        w = np.linalg.eigvalsh(0.5 * (R + R.T))
        if w[0] > tol:
            s = 1
        elif w[-1] < -tol:
            s = -1
        else:
            return 0
        if sign is None:
            sign = s
        elif sign != s:
            return 0
    return sign if sign is not None else 0


def recurrence_solve(gamma, grid=None, tol=1e-7):
    """Test nabla Ric = omega (x) Ric on a grid and return the data."""
    if grid is None:
        grid = gamma.chart.grid()
    ric = ricci_field(gamma)
    omega = recurrence_omega(gamma, ric)
    worst = 0.0
    min_norm = math.inf
    for p in grid:
        n = len(p)
        R = [[float(real(v)) for v in row] for row in ric(p)]
        dR = total_cov_derivative_02(gamma, ric, p)
        denom = sum(v * v for row in R for v in row)
        w = [float(real(sum(dR[i][j][k] * R[j][k]
                            for j in range(n) for k in range(n)))) / denom
             for i in range(n)]
        min_norm = min(min_norm, math.sqrt(denom))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    worst = max(worst, abs(float(real(dR[i][j][k]))
                                           - w[i] * R[j][k]))
    defn = definiteness(ric, grid)
    return RecurrenceData(omega=omega, ric=ric, residual=worst,
                          definite=defn, recurrent=worst < tol,
                          min_ric_norm=min_norm)


# ---------------------------------------------------------------------------
# Exactness of one-forms and line-integral potentials


@dataclass
class ExactnessReport:
    exact: bool
    curl_max: float
    loop_max: float


def exactness_check(omega, chart, grid=None, loop_sections=3, tol=1e-6,
                    quad_tol=1e-10):
    """Closedness (dual-derivative curl on the grid) plus vanishing loop
    integrals around every periodic coordinate."""
    if grid is None:
        grid = chart.grid()
    n = chart.dim
    curl_max = 0.0
    for p in grid:
        # domega[a][b] = d_a omega_b
        domega = [[float(real(v)) for v in vector_partial(omega, p, a)]
                  for a in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                curl_max = max(curl_max, abs(domega[i][j] - domega[j][i]))
    loop_max = 0.0
    axes = chart.grid_axes(n=loop_sections + 2)
    for i in range(n):
        if not chart.periodic[i]:
            continue
        sections = [[ax[k] for ax in axes] for k in range(1, loop_sections + 1)]
        for base in sections:
            def comp(t):
                p = list(base)
                p[i] = t
                return float(real(omega(p)[i]))
            loop_max = max(loop_max, abs(quad(comp, 0.0, TWO_PI, tol=quad_tol)))
    return ExactnessReport(curl_max < tol and loop_max < tol,
                           curl_max, loop_max)


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


def potential_from_oneform(omega, chart, ref, tol=1e-10):
    """Anchored potential with f(ref) = 0; run exactness_check first."""
    return LineIntegralField(omega, chart, ref, tol=tol)


# ---------------------------------------------------------------------------
# Metric reconstruction from a recurrent definite Ricci tensor


@dataclass
class MetricReport:
    ok: bool
    g: object = None                 # Tensor02Field
    f: object = None                 # recurrence potential
    sign: int = 0
    b: float = 0.0
    max_nabla_g: float = 0.0
    max_gamma_dev: float = 0.0
    message: str = ""

    def __bool__(self):
        return self.ok


def metric_from_ricci(gamma, rec, ref, b=0.0, check_grid=None,
                      check_tol=1e-6, tol=1e-10):
    """Candidate metric g = sign * exp(-f + b) * Ric with f the anchored
    potential of the recurrence one-form; verified by parallelism of g and
    agreement of its Levi-Civita connection with gamma."""
    if not rec.recurrent or rec.definite == 0:
        return MetricReport(False, message="Ricci not definite and recurrent")
    sign = rec.definite
    f = potential_from_oneform(rec.omega, gamma.chart, ref, tol=tol)

    def g_fn(x):
        scale = sign * dm.exp(-f(x) + b)
        R = rec.ric(x)
        return [[scale * v for v in row] for row in R]

    g = Tensor02Field(gamma.chart, g_fn)
    if check_grid is None:
        check_grid = gamma.chart.grid(n=5)
    max_ng = 0.0
    max_dev = 0.0
    n = gamma.chart.dim
    for p in check_grid:
        ng = total_cov_derivative_02(gamma, g, p)
        for blk in ng:
            for row in blk:
                for v in row:
                    max_ng = max(max_ng, abs(float(real(v))))
        Gm = christoffel_from_metric(g, p)
        Gc = gamma(p)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    max_dev = max(max_dev, abs(float(real(Gm[k][i][j]))
                                               - float(real(Gc[k][i][j]))))
    ok = max_ng < check_tol and max_dev < check_tol
    return MetricReport(ok, g=g, f=f, sign=sign, b=b,
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

    I1, I2 = cyl.I1, cyl.I2

    def mu1(t, a):
        lam = lam_at(t)
        return lam[0] + dm.exp(-I1(t)) * (I2(t) + a) * lam[1]

    ts = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    p = np.empty(grid_n)
    q = np.empty(grid_n)

    def mu1_slope(t, a):
        return float(real(partial(lambda x: mu1(x[0], a), [float(t)], 0)))

    for k, t in enumerate(ts):
        p[k] = mu1_slope(t, 0.0)
        q[k] = mu1_slope(t, 1.0) - p[k]
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
    c = float(np.mean([float(real(mu1(float(t), a))) for t in ts]))

    # mu_2(t; b) = e^{-I1}(I2+a) lam_1 + e^{-2 I1}(I2^2 + 2 a I2 + b) lam_2;
    # exactness needs the loop integral of mu_2 to vanish, linear in b
    def mu2_parts(t):
        lam = [float(real(v)) for v in lam_at(t)]
        e1 = math.exp(-float(real(I1(t))))
        i2 = float(real(I2(t)))
        base = e1 * (i2 + a) * lam[0] + e1 * e1 * (i2 * i2 + 2.0 * a * i2) * lam[1]
        slope = e1 * e1 * lam[1]
        return base, slope

    A = quad(lambda t: mu2_parts(t)[0], 0.0, TWO_PI, tol=quad_tol)
    B = quad(lambda t: mu2_parts(t)[1], 0.0, TWO_PI, tol=quad_tol)
    scale_B = quad(lambda t: abs(mu2_parts(t)[1]), 0.0, TWO_PI, tol=1e-8)
    if abs(B) > 1e-8 * max(scale_B, 1.0):
        # the generator period of mu_2 is linear in b with nonzero slope
        b = -A / B
        exact_ok = True
    elif abs(A) < max(tol, 1e-8):
        # b drops out of the period; any SPD choice works
        b = a * a + 1.0
        exact_ok = True
    else:
        report.message = "force one-form has nonzero period around the generator"
        return report
    spd_ok = b - a * a > 1e-12
    report.b, report.exact_ok, report.spd_ok = b, exact_ok, spd_ok
    report.mu1_const = c
    if not spd_ok:
        report.message = "invariant form is not positive definite"
        return report

    def D_C(theta):
        t = theta[1]
        e1 = dm.exp(-I1(t))
        i2 = I2(t)
        off = e1 * (i2 + a)
        low = e1 * e1 * (i2 * i2 + 2.0 * a * i2 + b)
        return [[1.0, off], [off, low]]

    def mu2_smooth(t):
        lam = lam_at(t)
        e1 = dm.exp(-I1(t))
        i2 = I2(t)
        return e1 * (i2 + a) * lam[0] + e1 * e1 * (i2 * i2 + 2.0 * a * i2 + b) * lam[1]

    V_dense = PeriodicAntiderivative(lambda t: float(real(mu2_smooth(t))),
                                     tol=quad_tol)
    V = SmoothFromDerivative(V_dense, mu2_smooth)

    def P_C(theta):
        return c * theta[0] + V(theta[1])

    report.lagrangian = True
    report.D_C = D_C
    report.P_C = P_C
    report.diagnostics["mu2_loop_after_b"] = A + b * B
    return report
