"""End-to-end analysis: given a system and a VHC parametrization, decide
whether the reduced dynamics are metrizable / Lagrangian and reconstruct the
structure when they are."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .calculus import IntegrationError, vector_partial
from .dual import real
from .holonomy import lagrangian_1d
from .manifold import GRID_MARGIN, max_curvature_on_grid
from .metrize2d import (LineIntegralField, cylinder_lagrangian_search,
                        exactness_check, metric_from_ricci, recurrence_solve)
from .vhc import (ORTHOGONALITY_TOL, RegularityError, check_regularity,
                  induced_connection)

VERDICT_LAGRANGIAN = "lagrangian"
VERDICT_NOT_LAGRANGIAN = "not-lagrangian"
VERDICT_UNSUPPORTED = "unsupported"

FLAT_TOL = 1e-8      # max |curvature| on the grid below which it is flat


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


def _decided(result, verdict, reason):
    result.verdict = verdict
    result.details["reason"] = reason
    return result


def analyze(bundle, grid_n=7, decision_tol=1e-9):
    """Full decision pipeline for a ModelBundle.

    Verdicts: "lagrangian" (with reconstructed structure in artifacts),
    "not-lagrangian" (obstruction recorded in details), or "unsupported"
    (outside the implemented theory; see details["reason"]).
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    if not (math.isfinite(decision_tol) and decision_tol > 0):
        raise ValueError("decision_tol must be a positive finite number, "
                         f"got {decision_tol}")
    sys, par = bundle.system, bundle.parametrization
    chart = par.chart
    d = chart.dim
    result = AnalysisResult(bundle.name, VERDICT_UNSUPPORTED, False)
    det = result.details
    det["reduced_dim"] = d

    grid = chart.grid(grid_n, GRID_MARGIN)
    reg = check_regularity(sys, par, grid=grid)
    det["regular"] = bool(reg)
    det["min_singular_value"] = reg.min_singular_value
    if not reg:
        return _decided(result, VERDICT_UNSUPPORTED,
                        "constraint parametrization is not regular")
    det["orthogonal_inputs"] = reg.max_dphiT_B < ORTHOGONALITY_TOL
    det["max_dphiT_B"] = reg.max_dphiT_B

    try:
        if d == 1:
            return _analyze_1d(bundle, result, decision_tol)
        if d == 2:
            return _analyze_2d(bundle, result, grid, decision_tol)
    except (RegularityError, IntegrationError) as e:
        # a field that is singular between grid points, or an ODE that
        # cannot pass it: outside what the grid certified
        return _decided(result, VERDICT_UNSUPPORTED,
                        f"{type(e).__name__} in a decision stage: {e}")
    return _decided(result, VERDICT_UNSUPPORTED,
                    f"reduced dimension {d} not supported (need 1 or 2)")


def _analyze_1d(bundle, result, decision_tol):
    from .vhc import psi_functions
    sys, par = bundle.system, bundle.parametrization
    topology = "S1" if par.chart.periodic[0] else "R"
    # one solve gives Psi1 and Psi2, which are read at many of the same points
    psi = lru_cache(maxsize=256)(lambda t: psi_functions(sys, par, [t]))
    report = lagrangian_1d(lambda t: psi(t)[0], lambda t: psi(t)[1],
                           topology, decision_tol=decision_tol)
    det = result.details
    det["topology"] = topology
    det["int_psi2"] = report.int_psi2
    det["int_psi1_M"] = report.int_psi1M
    result.metrizable = report.metrizable
    result.artifacts["one_dim"] = report
    if not report.lagrangian:
        return _decided(result, VERDICT_NOT_LAGRANGIAN,
                        "loop integral of Psi2 does not vanish"
                        if not report.metrizable else
                        "reconstructed potential is not periodic")
    result.verdict = VERDICT_LAGRANGIAN
    result.artifacts.update(M=report.M, P_C=report.P_C)
    return result


def _analyze_2d(bundle, result, grid, decision_tol):
    conn = induced_connection(bundle.system, bundle.parametrization)
    max_R = max_curvature_on_grid(conn.gammaC, grid)
    result.details["max_curvature"] = max_R
    if max_R < FLAT_TOL:
        result.details["curvature_class"] = "flat"
        return _analyze_2d_flat(conn, result, grid, decision_tol)
    result.details["curvature_class"] = "curved"
    return _analyze_2d_curved(bundle, conn, result, grid, decision_tol)


def _analyze_2d_flat(conn, result, grid, decision_tol):
    det = result.details
    if all(conn.chart.periodic):
        return _decided(result, VERDICT_UNSUPPORTED,
                        "flat case with two periodic coordinates not "
                        "implemented")
    report = cylinder_lagrangian_search(conn, grid,
                                        tol=max(decision_tol, 1e-8))
    result.artifacts["flat"] = report
    if math.isfinite(report.closedness_residual):
        det["closedness_residual"] = report.closedness_residual
        det["a"] = report.a
        det["b"] = report.b
    else:
        # the search stopped before its closedness stage
        det.update(report.diagnostics)
    result.metrizable = report.metrizable
    if not report.lagrangian:
        return _decided(result, VERDICT_NOT_LAGRANGIAN if report.supported
                        else VERDICT_UNSUPPORTED, report.message)
    result.verdict = VERDICT_LAGRANGIAN
    result.artifacts.update(D_C=report.D_C, P_C=report.P_C)
    return result


def _analyze_2d_curved(bundle, conn, result, grid, decision_tol):
    chart = conn.chart
    det = result.details
    if any(chart.periodic):
        return _decided(result, VERDICT_UNSUPPORTED,
                        "curved non-simply-connected case not implemented")
    rec = recurrence_solve(conn.gammaC, grid=grid, tol=1e-7)
    det["recurrence_residual"] = rec.residual
    det["ricci_definite"] = rec.definite
    result.artifacts["recurrence"] = rec
    if rec.indefinite or not rec.recurrent:
        return _decided(result, VERDICT_NOT_LAGRANGIAN,
                        "Ricci tensor is not definite and recurrent")
    if rec.definite == 0:
        return _decided(result, VERDICT_UNSUPPORTED,
                        "Ricci tensor vanishes or changes sign on the grid; "
                        "the recurrence test needs it definite")
    # no periodic coordinate, so no loop integral: closed is exact
    exact, det["omega_curl_max"] = exactness_check(
        rec, chart.grid(5, GRID_MARGIN))
    det["omega_loop_max"] = 0.0
    if not exact:
        return _decided(result, VERDICT_NOT_LAGRANGIAN,
                        "recurrence one-form is not exact")
    gauge_b = bundle.expected.get("gauge_b", 0.0)
    ref = bundle.expected.get("gauge_ref", chart.base_point)
    metric = metric_from_ricci(conn.gammaC, rec, ref, b=gauge_b,
                               check_grid=chart.grid(3, 0.2))
    det["gauge_b"] = gauge_b
    det["max_nabla_g"] = metric.max_nabla_g
    det["max_gamma_dev"] = metric.max_gamma_dev
    result.artifacts["metric"] = metric
    if not metric.ok:
        return _decided(result, VERDICT_UNSUPPORTED,
                        "metric verification failed: " + metric.message)
    result.metrizable = True

    def mu(x):
        g = metric.g(x)
        lam = conn.lam(x)
        return [sum(g[i][j] * lam[j] for j in range(2)) for i in range(2)]

    check_grid = chart.grid(5, GRID_MARGIN)
    det["max_lambda"] = max(abs(float(real(v)))
                            for p in check_grid for v in conn.lam(p))
    if det["max_lambda"] < decision_tol:
        result.artifacts["P_C"] = lambda th: 0.0
        det["potential"] = "zero"
    else:
        closed_max = 0.0
        for p in check_grid:
            d0mu1 = float(real(vector_partial(mu, p, 0)[1]))
            d1mu0 = float(real(vector_partial(mu, p, 1)[0]))
            closed_max = max(closed_max, abs(d0mu1 - d1mu0))
        det["mu_closedness"] = closed_max
        if closed_max > 1e-6:
            return _decided(result, VERDICT_NOT_LAGRANGIAN,
                            "force one-form g(lambda, .) is not exact")
        result.artifacts["P_C"] = LineIntegralField(mu, chart, ref)
    result.verdict = VERDICT_LAGRANGIAN
    result.artifacts["D_C"] = metric.g
    return result
