"""End-to-end analysis: given a system and a VHC parametrization, decide
whether the reduced dynamics are metrizable / Lagrangian and reconstruct the
structure when they are."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .calculus import vector_partial
from .dual import real
from .holonomy import (FlatnessError, flat_metrizability, lagrangian_1d)
from .manifold import max_curvature_on_grid
from .metrize2d import (cylinder_lagrangian_search, exactness_check,
                        metric_from_ricci, potential_from_oneform,
                        recurrence_solve)
from .vhc import check_regularity, induced_connection, orthogonality_check

VERDICT_LAGRANGIAN = "lagrangian"
VERDICT_NOT_LAGRANGIAN = "not-lagrangian"
VERDICT_UNSUPPORTED = "unsupported"


@dataclass
class AnalysisResult:
    model: str
    verdict: str
    metrizable: bool
    details: dict = dc_field(default_factory=dict)    # JSON-safe numbers
    artifacts: dict = dc_field(default_factory=dict)  # callables, reports

    def to_dict(self):
        return {"model": self.model, "verdict": self.verdict,
                "metrizable": self.metrizable, "details": self.details}


def _topology_1d(chart):
    return "S1" if chart.periodic[0] else "R"


def analyze(bundle, grid_n=7, grid_margin=1e-2, flat_tol=1e-8,
            decision_tol=1e-9, ode_tol=1e-10, gauge_b=None):
    """Full decision pipeline for a ModelBundle.

    Verdicts: "lagrangian" (with reconstructed structure in artifacts),
    "not-lagrangian" (obstruction recorded in details), or "unsupported"
    (outside the implemented theory; see details["reason"]).
    """
    sys, par = bundle.system, bundle.parametrization
    chart = par.chart
    d = chart.dim
    result = AnalysisResult(bundle.name, VERDICT_UNSUPPORTED, False)
    det = result.details
    det["reduced_dim"] = d

    reg = check_regularity(sys, par, grid=chart.grid(grid_n, grid_margin))
    det["regular"] = bool(reg)
    det["min_singular_value"] = reg.min_singular_value
    if not reg:
        result.verdict = VERDICT_UNSUPPORTED
        det["reason"] = "constraint parametrization is not regular"
        return result
    ortho, worst = orthogonality_check(
        sys, par, grid=chart.grid(grid_n, grid_margin))
    det["orthogonal_inputs"] = bool(ortho)
    det["max_dphiT_B"] = worst

    if d == 1:
        return _analyze_1d(bundle, result, decision_tol, ode_tol)
    if d == 2:
        return _analyze_2d(bundle, result, grid_n, grid_margin, flat_tol,
                           decision_tol, ode_tol, gauge_b)
    det["reason"] = f"reduced dimension {d} not supported (need 1 or 2)"
    return result


def _analyze_1d(bundle, result, decision_tol, ode_tol):
    from .vhc import psi_functions
    sys, par = bundle.system, bundle.parametrization
    topology = _topology_1d(par.chart)
    psi1 = lambda t: psi_functions(sys, par, [t])[0]
    psi2 = lambda t: psi_functions(sys, par, [t])[1]
    report = lagrangian_1d(psi1, psi2, topology, tol=ode_tol,
                           decision_tol=decision_tol)
    det = result.details
    det["topology"] = topology
    det["int_psi2"] = report.int_psi2
    det["int_psi1_M"] = report.int_psi1M
    result.metrizable = report.metrizable
    result.artifacts["one_dim"] = report
    if report.lagrangian:
        result.verdict = VERDICT_LAGRANGIAN
        result.artifacts["M"] = report.M
        result.artifacts["P_C"] = report.P_C
    else:
        result.verdict = VERDICT_NOT_LAGRANGIAN
        det["reason"] = ("loop integral of Psi2 does not vanish"
                         if not report.metrizable else
                         "reconstructed potential is not periodic")
    return result


def _analyze_2d(bundle, result, grid_n, grid_margin, flat_tol,
                decision_tol, ode_tol, gauge_b):
    sys, par = bundle.system, bundle.parametrization
    chart = par.chart
    det = result.details
    conn = induced_connection(sys, par)
    grid = chart.grid(grid_n, grid_margin)
    max_R = max_curvature_on_grid(conn.gammaC, grid)
    det["max_curvature"] = max_R
    if max_R < flat_tol:
        det["curvature_class"] = "flat"
        return _analyze_2d_flat(bundle, conn, result, decision_tol, ode_tol)
    det["curvature_class"] = "curved"
    return _analyze_2d_curved(bundle, conn, result, grid, grid_margin,
                              decision_tol, gauge_b)


def _analyze_2d_flat(bundle, conn, result, decision_tol, ode_tol):
    chart = conn.chart
    det = result.details
    if chart.periodic == (False, True):
        report = cylinder_lagrangian_search(conn, tol=max(decision_tol, 1e-8))
        result.artifacts["cylinder"] = report
        det["closedness_residual"] = report.closedness_residual
        det["a"] = report.a
        det["b"] = report.b
        result.metrizable = report.metrizable
        if report.lagrangian:
            result.verdict = VERDICT_LAGRANGIAN
            result.artifacts["D_C"] = report.D_C
            result.artifacts["P_C"] = report.P_C
        else:
            result.verdict = VERDICT_NOT_LAGRANGIAN
            det["reason"] = report.message
        return result
    if chart.periodic == (False, False):
        # simply connected and flat: metrizable with trivial holonomy
        try:
            flat = flat_metrizability(conn.gammaC, bundle.generators,
                                      tol=ode_tol)
        except FlatnessError as e:
            result.verdict = VERDICT_UNSUPPORTED
            det["reason"] = str(e)
            return result
        result.metrizable = flat.metrizable
        result.artifacts["flat"] = flat
        lam_max = max(abs(float(real(v)))
                      for p in chart.grid(5) for v in conn.lam(p))
        det["max_lambda"] = lam_max
        if flat.metrizable and lam_max < decision_tol:
            result.verdict = VERDICT_LAGRANGIAN
            result.artifacts["g0"] = flat.g0
            result.artifacts["P_C"] = lambda th: 0.0
        else:
            result.verdict = VERDICT_UNSUPPORTED
            det["reason"] = ("flat simply-connected case with nonzero "
                             "reduced force not implemented")
        return result
    result.verdict = VERDICT_UNSUPPORTED
    det["reason"] = "unsupported reduced topology for the flat case"
    return result


def _analyze_2d_curved(bundle, conn, result, grid, grid_margin,
                       decision_tol, gauge_b):
    chart = conn.chart
    det = result.details
    if any(chart.periodic):
        result.verdict = VERDICT_UNSUPPORTED
        det["reason"] = "curved non-simply-connected case not implemented"
        return result
    rec = recurrence_solve(conn.gammaC, grid=grid, tol=1e-7)
    det["recurrence_residual"] = rec.residual
    det["ricci_definite"] = rec.definite
    result.artifacts["recurrence"] = rec
    if not rec.recurrent or rec.definite == 0:
        result.verdict = VERDICT_NOT_LAGRANGIAN
        det["reason"] = "Ricci tensor is not definite and recurrent"
        return result
    ex = exactness_check(rec.omega, chart, grid=chart.grid(5, grid_margin))
    det["omega_curl_max"] = ex.curl_max
    det["omega_loop_max"] = ex.loop_max
    if not ex.exact:
        result.verdict = VERDICT_NOT_LAGRANGIAN
        det["reason"] = "recurrence one-form is not exact"
        return result
    if gauge_b is None:
        gauge_b = bundle.expected.get("gauge_b", 0.0)
    ref = bundle.expected.get(
        "gauge_ref", tuple(0.5 * (lo + hi) for lo, hi in chart.bounds))
    metric = metric_from_ricci(conn.gammaC, rec, ref, b=gauge_b,
                               check_grid=chart.grid(3, 0.2))
    det["gauge_b"] = gauge_b
    det["max_nabla_g"] = metric.max_nabla_g
    det["max_gamma_dev"] = metric.max_gamma_dev
    result.artifacts["metric"] = metric
    if not metric.ok:
        result.verdict = VERDICT_UNSUPPORTED
        det["reason"] = "metric verification failed: " + metric.message
        return result
    result.metrizable = True

    def mu(x):
        g = metric.g(x)
        lam = conn.lam(x)
        return [sum(g[i][j] * lam[j] for j in range(2)) for i in range(2)]

    check_grid = chart.grid(5, grid_margin)
    lam_max = max(abs(float(real(v))) for p in check_grid
                  for v in conn.lam(p))
    det["max_lambda"] = lam_max
    if lam_max < decision_tol:
        result.artifacts["P_C"] = lambda th: 0.0
        det["potential"] = "zero"
    else:
        # mu = exp(-f+b) nu with nu = sign * Ric lam, so d(mu) = 0 iff
        # d(nu) = omega ^ nu; checking the latter avoids evaluating the
        # potential f entirely.
        def nu(x):
            R = rec.ric(x)
            lam = conn.lam(x)
            return [rec.definite * sum(R[i][j] * lam[j] for j in range(2))
                    for i in range(2)]

        closed_max = 0.0
        for p in check_grid:
            w = [float(real(v)) for v in rec.omega(p)]
            nv = [float(real(v)) for v in nu(p)]
            d0nu1 = float(real(vector_partial(nu, p, 0)[1]))
            d1nu0 = float(real(vector_partial(nu, p, 1)[0]))
            closed_max = max(closed_max, abs(d0nu1 - d1nu0
                                             - (w[0] * nv[1] - w[1] * nv[0])))
        det["mu_closedness"] = closed_max
        if closed_max > 1e-6:
            result.verdict = VERDICT_NOT_LAGRANGIAN
            det["reason"] = "force one-form g(lambda, .) is not exact"
            return result
        result.artifacts["P_C"] = potential_from_oneform(mu, chart, ref)
    result.verdict = VERDICT_LAGRANGIAN
    result.artifacts["D_C"] = metric.g
    return result
