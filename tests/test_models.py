"""Built-in model bundles: constraint consistency and closed-form data."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from vhckit.calculus import (jacobian, matrix_partial, partial,
                              second_partial)
from vhckit.cli import bundle_from_config
from vhckit.dual import Dual
from vhckit.models import (MODEL_BUILDERS, get_model, rho, rho_prime,
                           rho_second)
from vhckit.vhc import ConstraintParametrization

CONFIGS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "configs.py"


def test_model_registry():
    assert set(MODEL_BUILDERS) == {"circle", "sphere", "dpc-a", "dpc-b"}
    with pytest.raises(KeyError):
        get_model("nope")


@pytest.mark.parametrize("name", ["circle", "sphere", "dpc-a", "dpc-b"])
def test_phi_satisfies_h(name):
    b = get_model(name)
    if b.system.h is None:
        pytest.skip("model has no constraint function")
    for th in b.chart.grid(4, 1e-2):
        q = [float(v) for v in b.parametrization.phi(list(th))]
        h = [float(v) for v in b.system.h(q)]
        assert max(abs(v) for v in h) < 1e-12


@pytest.mark.parametrize("name", ["circle", "sphere", "dpc-a", "dpc-b"])
def test_bperp_annihilates_b(name):
    b = get_model(name)
    for th in b.chart.grid(4, 1e-2):
        q = [float(v) for v in b.parametrization.phi(list(th))]
        B = np.asarray(b.system.B(q), dtype=float)
        Bp = np.asarray(b.system.Bperp(q), dtype=float)
        assert np.max(np.abs(Bp @ B)) < 1e-12
        # rows of Bperp plus columns of B span the whole space
        stack = np.vstack([Bp, B.T])
        assert np.linalg.matrix_rank(stack) == b.system.n


def test_rho_periodic_odd():
    assert float(rho(0.0)) == pytest.approx(0.0, abs=1e-15)
    assert float(rho(2.0 * math.pi)) == pytest.approx(0.0, abs=1e-12)
    for t in [0.3, 1.0, 2.5]:
        assert float(rho(-t)) == pytest.approx(-float(rho(t)), abs=1e-12)
        assert float(rho(t + 2.0 * math.pi)) == pytest.approx(float(rho(t)),
                                                              abs=1e-12)


def test_rho_second_closed_form():
    # against a dual partial of rho' and a sympy second derivative of rho,
    # at 64 points over [0, 2 pi) and at a dual argument
    sp = pytest.importorskip("sympy")
    q = sp.symbols("q")
    r2 = sp.sqrt(2)
    rho_sym = -2 * sp.atan(r2 * sp.sin(q) / (2 + r2 - r2 * sp.cos(q)))
    d2, d3 = (sp.lambdify(q, sp.diff(rho_sym, q, k), "math") for k in (2, 3))
    for k in range(64):
        t = 2.0 * math.pi * k / 64
        got = rho_second(t)
        assert type(got) is float
        assert got == pytest.approx(
            partial(lambda x: rho_prime(x[0]), [t], 0), abs=1e-12)
        assert got == pytest.approx(d2(t), abs=1e-12)
    t = 1.3
    got = rho_second(Dual(t, 1.0))
    assert got.val == pytest.approx(d2(t), abs=1e-12)
    assert got.eps == pytest.approx(d3(t), abs=1e-12)
    assert got.eps == pytest.approx(
        second_partial(lambda x: rho_prime(x[0]), [t], 0, 0), abs=1e-12)


def test_sphere_expected_self_consistent():
    b = get_model("sphere")
    th = [1.1, 0.7]
    g = b.expected["gammaC"](th)
    s, c = math.sin(1.1), math.cos(1.1)
    assert float(g[0][0][0]) == pytest.approx(-s * c / (c * c + 1.0))
    assert float(g[1][0][1]) == pytest.approx(c / s)
    ric = b.expected["ric"](th)
    assert float(ric[0][0]) == pytest.approx(1.0 / (c * c + 1.0))
    DC = b.expected["D_C"](th)
    assert float(DC[0][0]) == pytest.approx(0.5 - s * s / 4.0)
    assert float(DC[1][1]) == pytest.approx(s * s / 2.0)


def test_dpc_cases_differ_in_actuation():
    a = get_model("dpc-a")
    bb = get_model("dpc-b")
    q = [0.1, 0.2, 0.3]
    Ba = np.asarray(a.system.B(q), dtype=float).ravel()
    Bb = np.asarray(bb.system.B(q), dtype=float).ravel()
    assert not np.allclose(Ba, Bb)
    assert a.expected["lagrangian"] is False
    assert bb.expected["lagrangian"] is True


def test_circle_parameter_override():
    b = get_model("circle", alpha=0.7)
    assert b.params["alpha"] == pytest.approx(0.7)
    assert b.expected["gammaC_111"] == pytest.approx(math.tan(0.7))


def _seeded_points(chart, count, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in chart.bounds], dtype=float)
    hi = np.array([b for _, b in chart.bounds], dtype=float)
    span = hi - lo
    return [list(lo + margin * span + (1.0 - 2.0 * margin) * span
                 * rng.random(chart.dim)) for _ in range(count)]


@pytest.mark.parametrize("name", ["circle", "sphere", "dpc-a", "dpc-b"])
def test_generic_phi_derivatives_match_hand_written(name):
    b = get_model(name)
    par = b.parametrization
    generic = ConstraintParametrization(par.chart, par.phi)
    for th in _seeded_points(par.chart, 20, seed=7):
        np.testing.assert_allclose(generic.dphi(th), par.dphi(th),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(generic.d2phi(th), par.d2phi(th),
                                   rtol=0.0, atol=1e-12)
    # and the constraint's hand-written Jacobian against the dual one
    sys_ = b.system
    for q in _seeded_points(sys_.chart, 20, seed=7):
        np.testing.assert_allclose(sys_.dh(q), jacobian(sys_.h, q),
                                   rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name", ["circle", "sphere", "dpc-a", "dpc-b"])
def test_generic_metric_gradient_matches_shortcut(name):
    sys_ = get_model(name).system
    for q in _seeded_points(sys_.chart, 20, seed=11):
        generic = [matrix_partial(sys_.D, q, l) for l in range(sys_.n)]
        np.testing.assert_allclose(sys_.dD(q), generic,
                                   rtol=1e-12, atol=1e-12)
    if name in ("circle", "sphere"):
        # constant metrics: plain zeros, which the first-kind contractions
        # skip, so the flat ambient path builds no dual terms
        assert all(type(v) is float and v == 0.0 for mat in sys_.dD(q)
                   for row in mat for v in row)


@pytest.mark.parametrize("name", ["circle", "sphere", "dpc-a", "dpc-b"])
def test_config_twin_derivatives_match_built_in(name):
    # the config twin's dD, dphi and d2phi, compiled at load, against the
    # built-in model's hand-written ones; every entry a plain float
    twin = bundle_from_config(runpy.run_path(str(CONFIGS_PY))["CONFIGS"][name])
    built = get_model(name)
    checks = [(twin.system.dD, built.system.dD, built.system.chart),
              (twin.parametrization.dphi, built.parametrization.dphi,
               built.chart),
              (twin.parametrization.d2phi, built.parametrization.d2phi,
               built.chart)]
    for compiled, hand, chart in checks:
        for x in _seeded_points(chart, 20, seed=11):
            got = compiled(x)
            np.testing.assert_allclose(got, np.asarray(hand(x), dtype=float),
                                       rtol=1e-12, atol=1e-12)
            assert all(type(v) is float
                       for v in np.asarray(got, dtype=object).ravel())
