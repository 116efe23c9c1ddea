"""The generated reduction kernel against the loops it replaces:
``reduction_matrix`` must give the loops' values bit for bit (``repr``), on
floats and on seeded duals, for every shape and declared column set the
package builds, and at a stacked point each point's own values; and every
generated kernel, the closed loop's and ``linalg``'s too, is compiled once
per shape, on first use."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_cli import UNSUPPORTED_CONFIG
from vhckit import dual as dm
from vhckit import linalg, vhc
from vhckit.cli import bundle_from_config
from vhckit.dual import Dual, seed
from vhckit.manifold import Chart
from vhckit.models import get_model
from vhckit.pipeline import analyze
from vhckit.sim import phase_portrait, simulate_full
from vhckit.vhc import (ConstraintParametrization, LagrangianControlSystem,
                        RegularityError, constrained_rhs, reduction_matrix)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = runpy.run_path(str(ROOT / "perfbench" / "configs.py"))["CONFIGS"]
MODELS = ["circle", "sphere", "dpc-a", "dpc-b"]


def _bare_system():
    # n = 4, d = 3 from bare callables: dD, dphi and d2phi are left to the
    # generic matrix_partial, jacobian and second_partial
    chart = Chart(4, (False,) * 4, ((-2.0, 2.0),) * 4)

    def D(q):
        c = dm.cos(q[0] - q[2])
        return [[2.0 + q[3] * q[3], c, 0.0, 0.1 * q[1]],
                [c, 3.0, 0.5 * dm.sin(q[2]), 0.0],
                [0.0, 0.5 * dm.sin(q[2]), 1.5, 0.0],
                [0.1 * q[1], 0.0, 0.0, 1.0 + q[0] * q[0]]]

    def P(q):
        return dm.cos(q[0]) + q[1] * q[3]

    system = LagrangianControlSystem(
        chart=chart, D=D, P=P,
        gradP=lambda q: [-dm.sin(q[0]), q[3], 0.0, q[1]],
        B=lambda q: [[0.0], [0.0], [0.2 * q[0]], [1.0]],
        Bperp=lambda q: [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, -0.2 * q[0]]],
        m=1)
    par = ConstraintParametrization(
        Chart(3, (False,) * 3, ((-1.0, 1.0),) * 3),
        phi=lambda th: [th[0], th[1] + 0.3 * th[0] * th[0], th[2],
                        dm.sin(th[1]) * th[2]])
    return system, par


def _bundle(name):
    if name == "bare":
        return _bare_system()
    if name == "three-dof":
        b = bundle_from_config(UNSUPPORTED_CONFIG)
    elif name.endswith("-config"):
        b = bundle_from_config(CONFIGS[name[:-len("-config")]])
    else:
        b = get_model(name)
    return b.system, b.parametrization


def _points(par, rng, count):
    """Float, depth-1 and depth-2 seeded points inside par's chart."""
    d = par.chart.dim
    for k in range(count):
        th = [float(rng.uniform(lo + 0.1, hi - 0.1))
              for lo, hi in par.chart.bounds]
        i, j = k % d, (k // d) % d
        yield th
        yield seed(th, i)
        yield seed(seed(th, i), j)


def _column_sets(d):
    """Every declared column set the package projects: the connection pairs,
    the potential, psi_functions' pair of both in 1-D and the reduced
    acceleration; and a mix of every kind, whose Gamma1 terms share one scan
    of dD."""
    pairs = tuple((i, j) for i in range(d) for j in range(i, d))
    yield pairs
    yield ("gradP",)
    if d == 1:
        yield ("gradP", (0, 0))
    yield ("accel",)
    yield ("accel", "gradP") + pairs


def _like_the_loops(sys_, par, theta, columns, thdot=None):
    """The call is repr-equal to the loops."""
    loops = oracles.declared_columns(sys_, par, theta, columns, thdot)
    got = reduction_matrix(sys_, par, theta, columns, thdot)
    assert repr(got) == repr(oracles.reduction_matrix(sys_, par, theta, loops))


@pytest.mark.parametrize("name", MODELS + [m + "-config" for m in MODELS]
                         + ["three-dof", "bare"])
def test_compiled_reduction_matches_loops(name):
    sys_, par = _bundle(name)
    rng = np.random.default_rng(43)
    d = par.chart.dim
    for theta in _points(par, rng, 6):
        thdot = [float(v) for v in rng.normal(size=d)]
        for columns in _column_sets(d):
            _like_the_loops(sys_, par, theta, columns, thdot)
        state = list(theta) + thdot
        assert (repr(constrained_rhs(sys_, par, state))
                == repr(oracles.constrained_rhs(sys_, par, state)))


def _line_system():
    # n = 3, d = 2: D_01 is a plain 0.0 where q0 < 0 and a dual beyond, at
    # every seeded depth, so one depth meets two input structures
    chart = Chart(3, (False,) * 3, ((-2.0, 2.0),) * 3)

    def D(q):
        c = 0.0 if dm.real(q[0]) < 0.0 else 0.3 * q[0] * q[0]
        s = dm.sin(q[1])
        return [[2.0, c, 0.0], [c, 1.5 + s * s, 0.1 * q[2]],
                [0.0, 0.1 * q[2], 1.0]]

    system = LagrangianControlSystem(
        chart=chart, D=D, P=lambda q: dm.cos(q[1]) + q[0] * q[2],
        gradP=lambda q: [q[2], -dm.sin(q[1]), q[0]],
        B=lambda q: [[0.0], [0.0], [1.0]],
        Bperp=lambda q: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], m=1)
    par = ConstraintParametrization(
        Chart(2, (False,) * 2, ((-1.0, 1.0),) * 2),
        phi=lambda th: [th[0], th[1], 0.5 * th[0] * th[1]])
    return system, par


def test_a_plain_entry_on_one_side_of_a_line():
    sys_, par = _line_system()
    for k, t0 in enumerate(np.linspace(-0.5, 0.5, 11)):
        th = [float(t0), 0.3]
        for theta in (seed(th, k % 2), seed(seed(th, k % 2), 1)):
            for columns in (((0, 0), (0, 1), (1, 1)), ("gradP",)):
                _like_the_loops(sys_, par, theta, columns)


def test_a_dpc_a_sweep_takes_both_pivots():
    b = get_model("dpc-a")
    sys_, par = b.system, b.parametrization
    pivots = set()
    for k, t0 in enumerate(np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)):
        th = [float(t0), 0.7 * k - 8.0]
        x = par.phi(th)
        A = (np.array(sys_.Bperp(x)) @ np.array(sys_.D(x))
             @ np.array(par.dphi(th)))
        pivots.add(int(abs(A[1, 0]) > abs(A[0, 0])))
        for theta in (seed(th, k % 2), seed(seed(th, 0), 1)):
            for columns in (((0, 0), (0, 1), (1, 1)), ("gradP",)):
                _like_the_loops(sys_, par, theta, columns)
    assert pivots == {0, 1}


def test_a_seeded_call_at_the_pole_names_theta():
    b = get_model("sphere")
    pairs = ((0, 0), (0, 1), (1, 1))
    for theta in [seed([0.0, 0.5], 0), seed(seed([0.0, 0.5], 1), 0)] * 2:
        with pytest.raises(RegularityError,
                           match=r"\(Bperp D dphi\) singular at "
                                 r"theta=\[0.0, 0.5\]"):
            reduction_matrix(b.system, b.parametrization, theta, pairs)


# Dual constructions per built-in analyze before the tapes
UNTAPED_DUALS = {"sphere": 138_892, "dpc-a": 90_696, "dpc-b": 101_378}


@pytest.mark.parametrize("name", sorted(UNTAPED_DUALS))
def test_tapes_halve_the_duals_of_an_analyze(name, monkeypatch):
    analyze(get_model(name))
    built = [0]
    init = Dual.__init__

    def counted(obj, val, eps=0.0):
        built[0] += 1
        init(obj, val, eps)

    monkeypatch.setattr(Dual, "__init__", counted)
    analyze(get_model(name))
    assert 0 < built[0] <= UNTAPED_DUALS[name] // 2


def test_compiled_kernel_shapes():
    # (n, d) = (2, 1), (3, 2) and (4, 3) each get their own kernel
    vhc._reduction.cache_clear()
    for name in ("circle", "dpc-a", "three-dof"):
        sys_, par = _bundle(name)
        d = par.chart.dim
        constrained_rhs(sys_, par, [0.1] * d + [0.2] * d)
    assert vhc._reduction.cache_info().currsize == 3


def test_singular_projection_names_theta():
    # the sphere's Bperp D dphi is singular at its pole theta1 = 0
    b = get_model("sphere")
    with pytest.raises(RegularityError,
                       match=r"\(Bperp D dphi\) singular at "
                             r"theta=\[0.0, 0.5\]"):
        constrained_rhs(b.system, b.parametrization, [0.0, 0.5, 0.1, 0.2])


def test_each_shape_compiles_once_in_a_portrait():
    vhc._reduction.cache_clear()
    b = get_model("dpc-a")
    orbits = phase_portrait(b.system, b.parametrization,
                            [([0.0, 0.5], [0.0, 1.0]),
                             ([0.2, 3.0], [0.1, -2.0])],
                            t_final=1.0, coord=1)
    assert len(orbits) == 2
    red = vhc._reduction.cache_info()
    assert (red.misses, red.currsize) == (1, 1) and red.hits > 100


def test_each_shape_compiles_once_in_a_full_simulation():
    # the closed loop's force, its stacked 3 x 2 solve, the 1 x 1
    # decoupling determinant and the 1 x 1 solve for tau
    vhc._force.cache_clear()
    linalg._elimination.cache_clear()
    b = get_model("dpc-b")
    traj = simulate_full(b.system, b.parametrization, [0.0, 2.5], [0.2, 0.5],
                         (0.0, 0.5))
    assert traj.diagnostics["max_h"] < 1e-6
    force, elim = vhc._force.cache_info(), linalg._elimination.cache_info()
    assert (force.misses, force.currsize) == (1, 1) and force.hits > 100
    assert (elim.misses, elim.currsize) == (3, 3) and elim.hits > 300
    assert {n: linalg._elimination(*n).__code__.co_filename
            for n in [(3, 2), (1, None), (1, 1)]} == {
        (3, 2): "<solve3x2>", (1, None): "<det1>", (1, 1): "<solve1x1>"}


def test_cli_import_compiles_no_kernel():
    code = ("import vhckit.cli, vhckit.linalg as la, vhckit.vhc as v; "
            "print(*[f.cache_info().currsize for f in "
            "(v._reduction, v._force, la._elimination)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))
                         ).stdout
    assert out.split() == ["0", "0", "0"]


# -- stacked points ------------------------------------------------------------

def _stacked_like_the_points(sys_, par, points, columns, thdots, lift):
    """reduction_matrix at the stack of the points, lifted by ``lift``
    (a seeding), is each point's own call, bit for bit."""
    stack = lift([np.array(c) for c in zip(*points)])
    with np.errstate(divide="raise", over="ignore", invalid="raise"):
        X = reduction_matrix(sys_, par, stack, columns,
                             [np.array(c) for c in zip(*thdots)])
    for k, (p, thdot) in enumerate(zip(points, thdots)):
        assert oracles.bits(X, k) == oracles.bits(
            reduction_matrix(sys_, par, lift(p), columns, thdot))


@pytest.mark.parametrize("name", MODELS + [m + "-config" for m in MODELS]
                         + ["three-dof", "bare"])
def test_stacked_reduction_is_each_point_s_reduction(name):
    # every declared column set, at a float stack and at stacks seeded once
    # and twice
    sys_, par = _bundle(name)
    rng = np.random.default_rng(47)
    d = par.chart.dim
    points = [[float(rng.uniform(lo + 0.1, hi - 0.1))
               for lo, hi in par.chart.bounds] for _ in range(6)]
    thdots = rng.normal(size=(6, d)).tolist()
    for lift in (list, lambda x: seed(x, 0),
                 lambda x: seed(seed(x, 0), d - 1)):
        for columns in _column_sets(d):
            _stacked_like_the_points(sys_, par, points, columns, thdots, lift)


def test_a_dpc_a_anchor_stack_takes_both_pivots():
    # the generator samples of the flat solver's anchor stage: A's first
    # column picks its pivot row differently from point to point
    b = get_model("dpc-a")
    sys_, par = b.system, b.parametrization
    points = [[0.0, float(t)]
              for t in np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)]
    pivots = set()
    for th in points:
        x = par.phi(th)
        A = (np.array(sys_.Bperp(x)) @ np.array(sys_.D(x))
             @ np.array(par.dphi(th)))
        pivots.add(int(abs(A[1, 0]) > abs(A[0, 0])))
    assert pivots == {0, 1}
    thdots = [[0.0, 0.0]] * len(points)
    for lift in (list, lambda x: seed(x, 0), lambda x: seed(x, 1)):
        for columns in (((0, 0), (0, 1), (1, 1)), ("gradP",)):
            _stacked_like_the_points(sys_, par, points, columns, thdots, lift)
