"""Acceptance criteria: one test per criterion, numbered test_criterion_NN.

Each test pins the tolerances and runtime budgets for the behavior it covers;
the conftest hook prints a PASS/FAIL line per criterion at the end of the
run.
"""

import os
import math
import time

import numpy as np
import pytest

from vhckit import dual as dm
from vhckit.calculus import (CurveSampler, integrate_ode, line_segment,
                             vector_partial)
from vhckit.dual import real
from vhckit.holonomy import (lagrangian_1d, loop_transport, reverse_path,
                             transport_matrix)
from vhckit.manifold import (Chart, christoffel_from_metric,
                             max_curvature_on_grid, total_cov_derivative_02)
from vhckit.metrize2d import (metric_from_ricci, recurrence_solve,
                              ricci_field)
from vhckit.models import get_model
from vhckit.pipeline import analyze
from vhckit.sim import (phase_portrait, reduced_energy, simulate_constrained,
                        simulate_full)
from vhckit.vhc import (constrained_rhs, induced_christoffels,
                        induced_connection, psi_functions)

from oracles import connection_from_metric

TWO_PI = 2.0 * math.pi


# Runtime budgets assume an ordinary laptop core. Shared CI boxes can be
# slower by a large, varying factor; VHCKIT_TIME_SCALE loosens every budget
# uniformly on such machines without touching the default limits.
_TIME_SCALE = float(os.environ.get("VHCKIT_TIME_SCALE", "1"))


class _Budget:
    """Runtime budget assertion for a criterion body.

    Budgets are enforced on CPU time rather than wall time so that
    time-sliced scheduling on shared machines does not count against the
    test. (On this suite's single-threaded workloads CPU time is the
    faithful measure of compute cost.)
    """

    def __init__(self, seconds):
        self.seconds = seconds * _TIME_SCALE

    def __enter__(self):
        self.t0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.process_time() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds the "
                f"{self.seconds:.0f}s budget")
        return False


@pytest.fixture(scope="module")
def sphere_analysis(sphere):
    t0 = time.process_time()
    result = analyze(sphere)
    return result, time.process_time() - t0


@pytest.fixture(scope="module")
def dpc_b_analysis(dpc_b):
    t0 = time.process_time()
    result = analyze(dpc_b)
    return result, time.process_time() - t0


# ---------------------------------------------------------------------------
# 1. circle regression: the single induced Christoffel equals tan(alpha)


def test_criterion_01_circle_christoffel():
    with _Budget(1.0):
        for alpha in (0.0, 0.3, math.pi / 6.0, -0.4):
            bundle = get_model("circle", alpha=alpha)
            tan_a = math.tan(alpha)
            for t in np.linspace(0.0, TWO_PI, 32, endpoint=False):
                gam = induced_christoffels(bundle.system,
                                           bundle.parametrization, [float(t)])
                val = float(real(gam[0][0][0]))
                assert val == pytest.approx(tan_a, abs=1e-9)


# ---------------------------------------------------------------------------
# 2. sphere regression: closed forms of every derived geometric object


def test_criterion_02_sphere_closed_forms(sphere, sphere_analysis):
    result, _ = sphere_analysis
    exp = sphere.expected
    conn = induced_connection(sphere.system, sphere.parametrization)
    ric_f = ricci_field(conn.gammaC)
    D_C = result.artifacts["D_C"]
    ref = list(exp["gauge_ref"])
    with _Budget(5.0):
        grid = sphere.chart.grid(17, margin=1e-2)
        for p in grid:
            gam = conn.gammaC(p)
            gam_exp = exp["gammaC"](p)
            ric_exp = exp["ric"](p)
            R = ric_f(p)
            nR = total_cov_derivative_02(conn.gammaC, ric_f, p)
            nR_exp = exp["nabla_ric"](p)
            # recurrence one-form from the same pass: the least-squares
            # w_i = <nabla_i Ric, Ric> / |Ric|^2
            denom = sum(float(real(v)) ** 2 for row in R for v in row)
            w = [sum(float(real(nR[i][j][k])) * float(real(R[j][k]))
                     for j in range(2) for k in range(2)) / denom
                 for i in range(2)]
            w_exp = exp["omega"](p)
            for k in range(2):
                assert float(real(w[k])) == pytest.approx(
                    float(real(w_exp[k])), abs=1e-7)
                for i in range(2):
                    assert float(real(R[k][i])) == pytest.approx(
                        float(real(ric_exp[k][i])), abs=1e-7)
                    for j in range(2):
                        assert float(real(gam[k][i][j])) == pytest.approx(
                            float(real(gam_exp[k][i][j])), abs=1e-7)
                        assert float(real(nR[k][i][j])) == pytest.approx(
                            float(real(nR_exp.get((k, i, j), 0.0 * p[0]))),
                            abs=1e-7)

        # D_C on the full grid, propagated from the reconstructed value at
        # the gauge reference by parallel transport (nabla g = 0 makes the
        # transported frame values the metric itself); row sweeps keep each
        # transport segment short
        g0 = np.array([[float(real(v)) for v in row] for row in D_C(ref)])
        ax0, ax1 = sphere.chart.grid_axes(17, margin=1e-2)
        for x0 in ax0:
            x0 = float(x0)
            M0 = transport_matrix(conn.gammaC,
                                  line_segment(ref, [x0, ref[1]]), 2)
            below = sorted((float(v) for v in ax1 if v <= ref[1]),
                           reverse=True)
            above = sorted(float(v) for v in ax1 if v > ref[1])
            for chain in (below, above):
                M = M0
                prev = [x0, ref[1]]
                for x1 in chain:
                    M = transport_matrix(conn.gammaC,
                                         line_segment(prev, [x0, x1]), 2) @ M
                    prev = [x0, x1]
                    Mi = np.linalg.inv(M)
                    g = Mi.T @ g0 @ Mi
                    e = exp["D_C"]([x0, x1])
                    dev = float(np.max(np.abs(g - np.array(
                        [[float(real(v)) for v in row] for row in e]))))
                    assert dev < 1e-7, f"D_C off by {dev:.2e} at {prev}"


# ---------------------------------------------------------------------------
# 3. sphere end-to-end: Lagrangian verdict and Euler-Lagrange consistency


def test_criterion_03_sphere_end_to_end(sphere, sphere_analysis):
    result, elapsed = sphere_analysis
    assert result.verdict == "lagrangian"
    assert result.metrizable is True
    assert result.details["potential"] == "zero"
    D_C = result.artifacts["D_C"]

    t0 = time.process_time()
    sys_, par = sphere.system, sphere.parametrization
    rng = np.random.default_rng(7)
    positions = sphere.chart.grid(3, margin=0.2)
    gam_cache = {}
    worst = 0.0
    for _ in range(50):
        theta = list(positions[rng.integers(len(positions))])
        thdot = list(rng.uniform(-1.0, 1.0, 2))
        acc = constrained_rhs(sys_, par, theta + thdot)
        key = tuple(theta)
        if key not in gam_cache:
            gam_cache[key] = christoffel_from_metric(D_C, theta)
        gam = gam_cache[key]
        for k in range(2):
            res = float(real(acc[k])) + sum(
                float(real(gam[k][i][j])) * thdot[i] * thdot[j]
                for i in range(2) for j in range(2))
            worst = max(worst, abs(res))
    assert worst < 1e-6, f"Euler-Lagrange residual {worst:.2e}"
    total = elapsed + (time.process_time() - t0)
    assert total < 5.0 * _TIME_SCALE, \
        f"runtime {total:.2f}s exceeds the 5s budget"


# ---------------------------------------------------------------------------
# 4. DPC: flat induced connection, trivial generator-loop holonomy


def test_criterion_04_dpc_flat_holonomy(dpc_a, dpc_b):
    with _Budget(5.0):
        for bundle in (dpc_a, dpc_b):
            conn = induced_connection(bundle.system, bundle.parametrization)
            grid = bundle.chart.grid(7, margin=1e-2)
            max_R = max_curvature_on_grid(conn.gammaC, grid)
            assert max_R < 1e-8, f"{bundle.name}: curvature {max_R:.2e}"
            M = loop_transport(conn.gammaC, bundle.generators[0]).matrix
            dev = float(np.max(np.abs(M - np.eye(2))))
            assert dev < 1e-7, f"{bundle.name}: loop transport off by {dev:.2e}"


# ---------------------------------------------------------------------------
# 5. DPC verdicts


def _closedness_residual_at(conn, a, grid_n=256):
    """Sup-norm of d(mu_1)/d(theta2) for the frame value a, by the transport
    integrals of a cylinder whose only connection coefficients are
    Gamma^k_22(theta2), as on dpc: I1 = -int Gamma^2_22 and
    I2 = int Gamma^1_22 exp(I1) give D_C[0][1] = exp(-I1) (I2 + a), so
    mu_1 = lambda_1 + exp(-I1) (I2 + a) lambda_2. An oracle independent of
    the pipeline's transport and closedness rows."""
    lo, hi = conn.chart.bounds[0]
    anchor = 0.5 * (lo + hi)

    def g(t):
        G = np.asarray(conn.gammaC([anchor, t]), dtype=float)
        assert np.count_nonzero(G) == np.count_nonzero(G[:, 1, 1])
        return G[0, 1, 1], G[1, 1, 1]

    def rhs(t, y):
        g1, g2 = g(t)
        return [-g2, g1 * math.exp(y[0])]

    ts = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    traj = integrate_ode(rhs, 0.0, [0.0, 0.0], TWO_PI, 1e-12, t_eval=ts)
    worst = 0.0
    for t, (I1, I2) in zip(ts.tolist(), traj.states.tolist()):
        g1, g2 = g(t)
        lam = [float(real(v)) for v in conn.lam([anchor, t])]
        dlam = [float(real(v)) for v in vector_partial(conn.lam, [anchor, t], 1)]
        # d/dt of exp(-I1) (I2 + a) is exp(-I1) (g2 (I2 + a) + g1 exp(I1))
        e = math.exp(-I1)
        d = dlam[0] + e * ((g2 * (I2 + a) + g1 * math.exp(I1)) * lam[1]
                           + (I2 + a) * dlam[1])
        worst = max(worst, abs(d))
    return worst


def _induced_metric(bundle, th):
    """Kinetic metric dphi^T D(phi) dphi induced on the constraint at th."""
    par = bundle.parametrization
    D = np.asarray([[float(real(v)) for v in row]
                    for row in bundle.system.D(par.phi(th))])
    J = np.asarray([[float(real(v)) for v in row] for row in par.dphi(th)])
    return J.T @ D @ J


def test_criterion_05_dpc_verdicts(dpc_a, dpc_b, dpc_b_analysis):
    result_b, elapsed_b = dpc_b_analysis
    t0 = time.process_time()
    result_a = analyze(dpc_a)
    elapsed = elapsed_b + (time.process_time() - t0)
    assert elapsed < 20.0 * _TIME_SCALE, \
        f"runtime {elapsed:.2f}s exceeds the 20s budget"

    assert result_b.verdict == "lagrangian"
    assert result_b.details["closedness_residual"] < 1e-6

    # case (a): no frame value closes the force one-form; the minimum
    # residual over a sits well above this pinned floor (measured ~2.07)
    assert result_a.verdict == "not-lagrangian"
    assert result_a.metrizable is True
    assert result_a.details["closedness_residual"] > 1.0

    # case (b): the cart theta1 is cyclic and unactuated, so its momentum,
    # row 1 of the induced metric M = dphi^T D dphi, is conserved and pins
    # the frame value at theta2 = 0: a* = M12/M11 = -(2 + rho'(0))/3
    M = _induced_metric(dpc_b, [0.0, 0.0])
    a_star = M[0, 1] / M[0, 0]
    assert abs(a_star - dpc_b.expected["a_frame"]) < 1e-12, (
        f"model frame value {dpc_b.expected['a_frame']} differs from the "
        f"cart-momentum value {a_star:.12f}")
    conn_b = induced_connection(dpc_b.system, dpc_b.parametrization)
    res_star = _closedness_residual_at(conn_b, a_star)
    assert res_star < 1e-6, (
        f"closedness residual at a*={a_star:.6f} is {res_star:.3g}")
    assert abs(result_b.details["a"] - a_star) < 1e-8, (
        f"search returned a={result_b.details['a']:.12f}, "
        f"expected a*={a_star:.12f}")
    # the one-form does not close at the formerly pinned value -1/2
    res_half = _closedness_residual_at(conn_b, -0.5)
    assert res_half > 1.0, f"closedness residual at a=-1/2 is {res_half:.3g}"


# ---------------------------------------------------------------------------
# 6. energy conservation of the reconstructed structure on DPC case (b)


def test_criterion_06_dpc_b_energy(dpc_b, dpc_b_analysis):
    result, _ = dpc_b_analysis
    D_C = result.artifacts["D_C"]
    P_C = result.artifacts["P_C"]
    ics = [([0.0, 3.0], [0.0, 0.4]),
           ([0.0, 0.5], [0.2, 0.2]),
           ([0.5, 2.0], [-0.1, 0.6]),
           ([0.0, math.pi], [0.0, 1.0]),
           ([-0.3, 1.0], [0.1, -0.5])]
    with _Budget(10.0):
        for theta0, thdot0 in ics:
            traj = simulate_constrained(dpc_b.system, dpc_b.parametrization,
                                        theta0, thdot0, (0.0, 10.0),
                                        tol=1e-9, max_step=0.5)
            e0 = reduced_energy(D_C, P_C, theta0, thdot0)
            drift = max(abs(reduced_energy(D_C, P_C, list(s[:2]), list(s[2:]))
                            - e0) for s in traj.states)
            rel = drift / max(1.0, abs(e0))
            assert rel < 1e-6, f"relative energy drift {rel:.2e} from {theta0}"


# ---------------------------------------------------------------------------
# 7. constraint enforcement by the stabilizing feedback


def test_criterion_07_constraint_enforcement(dpc_b):
    sys_, par = dpc_b.system, dpc_b.parametrization
    with _Budget(10.0):
        traj = simulate_full(sys_, par, [0.0, 2.0], [0.1, 0.3], (0.0, 5.0),
                             gains=(16.0, 8.0), tol=1e-9, max_step=0.05)
        assert traj.diagnostics["max_h"] < 1e-6

        traj = simulate_full(sys_, par, [0.0, 2.0], [0.1, 0.3], (0.0, 5.0),
                             gains=(16.0, 8.0), tol=1e-9, max_step=0.05,
                             perturbation=([0.0, 0.0, 0.1], [0.0, 0.0, 0.0]))
        q_end = list(traj.end_state[:3])
        h_end = abs(float(real(sys_.h(q_end)[0])))
        assert h_end < 1e-4, f"|h(5)| = {h_end:.2e} after 0.1 perturbation"


# ---------------------------------------------------------------------------
# 8. parallel-transport group laws on random piecewise loops


def _polyline_sampler(points):
    """Single CurveSampler tracing the closed polyline through points."""
    k = len(points) - 1

    def fn(t):
        i = min(int(t), k - 1)
        s = t - i
        p = points[i]
        q = points[i + 1]
        return ([a + s * (b - a) for a, b in zip(p, q)],
                [b - a for a, b in zip(p, q)])

    return CurveSampler(fn, 0.0, float(k),
                        breakpoints=tuple(float(i) for i in range(1, k)))


def _random_interior(chart, rng, margin=0.15):
    pt = []
    for (lo, hi) in chart.bounds:
        w = hi - lo
        pt.append(float(rng.uniform(lo + margin * w, hi - margin * w)))
    return pt


def _nearby_interior(chart, rng, base, radius=0.25):
    """Random point within ``radius`` (in chart-width units) of ``base``,
    clipped to the chart interior."""
    pt = []
    for (lo, hi), b in zip(chart.bounds, base):
        w = hi - lo
        x = b + float(rng.uniform(-radius * w, radius * w))
        pt.append(min(max(x, lo + 0.05 * w), hi - 0.05 * w))
    return pt


def test_criterion_08_transport_group_laws(circle03, sphere, dpc_b):
    rng = np.random.default_rng(11)
    for bundle in (circle03, sphere, dpc_b):
        conn = induced_connection(bundle.system, bundle.parametrization)
        chart = bundle.chart
        d = chart.dim
        for _ in range(50):
            base = _random_interior(chart, rng)
            mids = [_nearby_interior(chart, rng, base)
                    for _ in range(int(rng.integers(1, 3)))]
            points = [base] + mids + [base]
            segs = [line_segment(p, q)
                    for p, q in zip(points[:-1], points[1:])]

            mats = [transport_matrix(conn.gammaC, s, d)
                    for s in segs]
            M = np.eye(d)
            for m in mats:
                M = m @ M

            # concatenation: one sampler over the whole polyline agrees
            # with the product of the per-segment transports
            M_whole = transport_matrix(conn.gammaC, _polyline_sampler(points),
                                       d)
            assert float(np.max(np.abs(M_whole - M))) < 1e-8

            # inverse: transporting back along the reversed loop undoes M
            Mr = np.eye(d)
            for s in reversed(segs):
                Mr = transport_matrix(conn.gammaC, reverse_path(s), d) @ Mr
            assert float(np.max(np.abs(Mr @ M - np.eye(d)))) < 1e-8


# ---------------------------------------------------------------------------
# 9. one-dimensional decision on the circle


def test_criterion_09_one_dim_decision(circle0, circle03):
    def make_psis(bundle):
        sys_, par = bundle.system, bundle.parametrization
        return (lambda t: psi_functions(sys_, par, [t])[0],
                lambda t: psi_functions(sys_, par, [t])[1])

    psi1, psi2 = make_psis(circle0)
    report = lagrangian_1d(psi1, psi2, "S1")
    assert report.lagrangian and report.metrizable
    for t in np.linspace(0.0, TWO_PI, 17):
        assert report.M(float(t)) == pytest.approx(1.0, abs=1e-9)
        assert report.P_C(float(t)) == pytest.approx(0.0, abs=1e-9)

    psi1, psi2 = make_psis(circle03)
    report = lagrangian_1d(psi1, psi2, "S1")
    assert not report.metrizable and not report.lagrangian
    assert report.int_psi2 == pytest.approx(-TWO_PI * math.tan(0.3), abs=1e-9)


# ---------------------------------------------------------------------------
# 10. metrizability round trip on random analytic metrics


def test_criterion_10_round_trip():
    rng = np.random.default_rng(23)
    chart = Chart(2, (False, False), ((-0.5, 0.5), (-0.5, 0.5)))
    for _ in range(10):
        a = float(rng.uniform(0.3, 1.0))
        b = float(rng.uniform(0.3, 1.0))

        def D(x, a=a, b=b):
            e = dm.exp(2.0 * (a * dm.cos(x[0]) + b * dm.cos(x[1])))
            return [[e, 0.0 * x[0]], [0.0 * x[0], e]]

        gamma = connection_from_metric(chart, D)
        rec = recurrence_solve(gamma, grid=chart.grid(5, margin=0.05))
        assert rec.recurrent and rec.definite != 0
        # Gauss curvature a cos x1 + b cos x2 >= 0.3 cos(1/2) > 0 on the
        # chart, certifying nowhere-zero curvature
        assert rec.min_ric_norm > 0.1
        metric = metric_from_ricci(gamma, rec, (0.0, 0.0),
                                   check_grid=chart.grid(3, margin=0.1))
        assert metric.ok
        ratios = []
        for p in chart.grid(4, margin=0.05):
            g_in = D(p)
            g_out = metric.g(p)
            for i in range(2):
                ratios.append(float(real(g_out[i][i]))
                              / float(real(g_in[i][i])))
            assert abs(float(real(g_out[0][1]))) < 1e-9
        mean = sum(ratios) / len(ratios)
        var = sum((r - mean) ** 2 for r in ratios) / len(ratios)
        assert var / (mean * mean) < 1e-6


# ---------------------------------------------------------------------------
# 11. DPC phase portrait: rocking and rotating orbits in both cases


def test_criterion_11_dpc_portrait(dpc_a, dpc_b):
    ics = [([0.0, math.pi], [0.0, 0.5]),   # small swing around the top
           ([0.0, 0.0], [0.0, 6.0])]       # fast full revolutions
    for bundle in (dpc_a, dpc_b):
        orbits = phase_portrait(bundle.system, bundle.parametrization, ics,
                                t_final=10.0, coord=1, max_step=0.1)
        kinds = {o.kind for o in orbits}
        assert kinds == {"rocking", "rotating"}, (
            f"{bundle.name}: got {[o.kind for o in orbits]}")
