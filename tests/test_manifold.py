"""The field memo, checked against direct evaluation: float points by
value, seed(a, i), and seed(seed(a, i), j) once per unordered pair; every
other dual point goes to the field's function as it is."""

import dataclasses
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from vhckit import pipeline
from vhckit.calculus import per_node
from vhckit.cli import bundle_from_config
from vhckit.dual import Dual, seed
from vhckit.holonomy import WindowAntiderivative
from vhckit.manifold import ConnectionCoeffs, Tensor02Field, ricci
from vhckit.models import get_model
from vhckit.vhc import induced_connection

CONFIGS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "configs.py"
POINTS = ([1.1, 0.4], [2.0, -1.3])


def _coeffs(v, depth):
    """The 2**depth dual coefficients of every entry of a nested value,
    entry by entry (a plain number has zero dual parts)."""
    if isinstance(v, (list, tuple)):
        return [c for e in v for c in _coeffs(e, depth)]
    if depth == 0:
        return [float(v)]
    val, e = (v.val, v.eps) if isinstance(v, Dual) else (v, 0.0)
    return _coeffs(val, depth - 1) + _coeffs(e, depth - 1)


def _close(got, want, depth):
    # rtol 1e-13; an entry that cancels to rounding (a zero of the exact
    # field) is held to 1e-13 of the largest coefficient instead
    got, want = _coeffs(got, depth), _coeffs(want, depth)
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))


@pytest.fixture(scope="module", params=["builtin", "config"])
def gamma_fn(request):
    """The sphere's Gamma_C function, hand-written or from its config."""
    bundle = get_model("sphere") if request.param == "builtin" else \
        bundle_from_config(runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["sphere"])
    conn = induced_connection(bundle.system, bundle.parametrization)
    return conn.chart, conn.gammaC.fn


@pytest.mark.parametrize("p", POINTS)
def test_unit_seed_is_the_direct_evaluation_bit_for_bit(gamma_fn, p):
    chart, fn = gamma_fn
    memo = ConnectionCoeffs(chart, fn)
    for i in range(2):
        assert repr(memo(seed(p, i))) == repr(fn(seed(p, i)))
        assert repr(memo(seed(p, i))) == repr(fn(seed(p, i)))   # from memo


@pytest.mark.parametrize("p", POINTS)
def test_seeded_depth_2_in_both_orders_matches_direct(gamma_fn, p,
                                                      count_calls):
    # (1, 0) is read off the stored (0, 1) evaluation, with no call
    chart, fn = gamma_fn
    counted = count_calls(fn)
    memo = ConnectionCoeffs(chart, counted)
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        calls = counted.calls
        x = seed(seed(p, i), j)
        _close(memo(x), fn(x), 2)
        assert counted.calls == calls + (i <= j)


@pytest.mark.parametrize("p", POINTS)
def test_general_directions_match_direct(gamma_fn, p, count_calls):
    # directions that are not unit vectors, at depth 1 and with a nonzero
    # e1 e2 part at depth 2, zero directions, and points that mix floats
    # and depths: each is one call of fn, as it is
    chart, fn = gamma_fn
    u, v, w = [0.3, -1.7], [2.5, 0.6], [-0.8, 1.9]
    s01 = seed(seed(p, 0), 1)
    for x in ([Dual(a, b) for a, b in zip(p, v)],
              [Dual(Dual(a, ui), Dual(vi, wi))
               for a, ui, vi, wi in zip(p, u, v, w)],
              [s01[0], Dual(s01[1].val, Dual(1.0, 0.5))],
              [Dual(p[0], 0.7), Dual(p[1], 0.0)],
              [Dual(Dual(p[0], 0.3), 0.0), Dual(Dual(p[1], 0.0), -1.2)],
              [Dual(a, 0.0) for a in p],
              [Dual(p[0], 1.0), p[1]],
              [s01[0], Dual(p[1], 1.0)]):
        counted = count_calls(fn)
        memo = ConnectionCoeffs(chart, counted)
        assert repr(memo(x)) == repr(fn(x))
        assert counted.calls == 1


def test_depth_3_goes_to_fn(gamma_fn, count_calls):
    chart, fn = gamma_fn
    counted = count_calls(fn)
    memo = ConnectionCoeffs(chart, counted)
    x = seed(seed(seed(POINTS[0], 0), 1), 0)
    got = memo(x)
    assert counted.by_depth == {3: 1}
    assert repr(got) == repr(fn(x))


def test_ricci_field_at_depth_2_matches_direct():
    # Ric at a depth-2 point reads Gamma at depth 3, which goes to fn
    bundle = get_model("sphere")
    conn = induced_connection(bundle.system, bundle.parametrization)
    direct = lambda x: ricci(conn.gammaC, x)
    ric = Tensor02Field(conn.chart, direct)
    x = seed(seed(POINTS[0], 0), 1)
    _close(ric(x), direct(x), 2)


def test_sphere_analyze_evaluates_each_dual_point_once(monkeypatch,
                                                       count_calls):
    # The curvature, recurrence and exactness stages read Gamma_C at
    # stacked points, a fixed number of reads each: Gamma_C and one partial
    # per axis for each Ric, and nabla Ric reads Ric twice and at each
    # axis's seed, its depth-2 reads one per ordered pair. Then Gamma_C at
    # depth 2 is read at single points only by the metric check (3
    # unordered pairs at each of 9 points), each once; each trace-Gamma leg
    # samples its integrand once per window, each node once. The sphere is
    # built in, then from its config
    gammas, nodes, stages = [], [0], {}

    def counted_connection(system, par):
        conn = induced_connection(system, par)
        gammas.append(count_calls(conn.gammaC.fn))
        return dataclasses.replace(
            conn, gammaC=ConnectionCoeffs(conn.chart, gammas[-1]))

    def counted_window(f, **kw):
        def counted(t):
            nodes[0] += np.size(t)
            return f(t)
        return WindowAntiderivative(per_node(counted), **kw)

    def staged(name, stage):
        def run(*args, **kw):
            before = Counter(gammas[-1].stacks)
            out = stage(*args, **kw)
            stages[name] = dict(gammas[-1].stacks - before)
            return out
        return run

    monkeypatch.setattr(pipeline, "induced_connection", counted_connection)
    monkeypatch.setattr("vhckit.metrize2d.WindowAntiderivative",
                        counted_window)
    for name in ("max_curvature_on_grid", "recurrence_solve",
                 "exactness_check"):
        monkeypatch.setattr(pipeline, name,
                            staged(name, getattr(pipeline, name)))
    config = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["sphere"]
    for bundle in (get_model("sphere"), bundle_from_config(config)):
        gammas.clear()
        nodes[0] = 0
        stages.clear()
        assert pipeline.analyze(bundle).verdict == "lagrangian"
        (gamma,) = gammas
        assert stages == {"max_curvature_on_grid": {0: 1, 1: 2},
                          "recurrence_solve": {0: 3, 1: 6, 2: 4},
                          "exactness_check": {0: 1, 1: 2}}
        assert gamma.stacks == {0: 5, 1: 10, 2: 4}
        assert gamma.by_depth[2] <= 27
        assert not gamma.repeated
        assert 0 < nodes[0] <= 400
