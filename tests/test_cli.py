"""Command-line interface: exit codes, report schema, golden files, config
models, and output plumbing."""

import ast
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vhckit import cli, metrize2d
from vhckit.cli import (EXIT_ERROR, EXIT_NOT_LAGRANGIAN, EXIT_OK,
                        EXIT_UNSUPPORTED, SCHEMA, CliError,
                        bundle_from_config, main)
from vhckit.calculus import IntegrationError
from vhckit.manifold import ConnectionCoeffs
from vhckit.models import get_model
from vhckit.pipeline import analyze
from vhckit.vhc import induced_connection

from oracles import minimax_by_linprog

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIGS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "configs.py"

CIRCLE_CONFIG = {
    "name": "circle-config",
    "ambient": {"dim": 2, "periodic": [False, False],
                "bounds": [[-2.0, 2.0], [-2.0, 2.0]]},
    "reduced": {"dim": 1, "periodic": [True],
                "bounds": [[0.0, 2.0 * math.pi]]},
    "variables": ["q1", "q2"],
    "theta_variables": ["t"],
    "D": [["1", "0"], ["0", "1"]],
    "P": "0",
    "B": [["q1"], ["q2"]],
    "Bperp": [["-q2", "q1"]],
    "phi": ["cos(t)", "sin(t)"],
    "h": ["(q1*q1 + q2*q2 - 1) / 2"],
    "m": 1,
    "topology": "S1",
}

UNSUPPORTED_CONFIG = {
    "name": "three-dof",
    "ambient": {"dim": 4, "periodic": [False] * 4,
                "bounds": [[-2.0, 2.0]] * 4},
    "reduced": {"dim": 3, "periodic": [False] * 3,
                "bounds": [[-1.0, 1.0]] * 3},
    "variables": ["q1", "q2", "q3", "q4"],
    "theta_variables": ["t1", "t2", "t3"],
    "D": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
          ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    "P": "0",
    "B": [["0"], ["0"], ["0"], ["1"]],
    "Bperp": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"]],
    "phi": ["t1", "t2", "t3", "0"],
    "h": ["q4"],
    "m": 1,
}


def _conformal_config(name, conformal):
    # ambient (x, y, z) with D = diag(c, c, 1), B = e3 and phi = (s, t, 0):
    # the reduced dynamics are the geodesics of c(s, t) (ds^2 + dt^2)
    return {
        "name": name,
        "ambient": {"dim": 3, "periodic": [False] * 3,
                    "bounds": [[-2.0, 2.0]] * 3},
        "reduced": {"dim": 2, "periodic": [False, False],
                    "bounds": [[-0.5, 0.5], [-0.5, 0.5]]},
        "variables": ["x", "y", "z"],
        "theta_variables": ["s", "t"],
        "D": [[conformal, "0", "0"], ["0", conformal, "0"], ["0", "0", "1"]],
        "P": "0",
        "B": [["0"], ["0"], ["1"]],
        "Bperp": [["1", "0", "0"], ["0", "1", "0"]],
        "phi": ["s", "t", "0"],
        "h": ["z"],
        "m": 1,
    }


# Gauss curvature -6 s e^{-2 s^3}: zero on s = 0 and of both signs
SIGN_CHANGE_CONFIG = _conformal_config("gauss-sign-change", "exp(2*x*x*x)")
# Gauss curvature -(0.6 cos s + 0.4 cos t) e^{2(0.6 cos s + 0.4 cos t)} < 0
NEGATIVE_CONFIG = _conformal_config(
    "gauss-negative", "exp(-2*(0.6*cos(x) + 0.4*cos(y)))")


def _flat_config(name, thetas, reduced, phi, B, Bperp, P):
    # ambient R^3 with D = I: one input B, its annihilator Bperp
    return {
        "name": name,
        "ambient": {"dim": 3, "periodic": [False] * 3,
                    "bounds": [[-3.0, 3.0]] * 3},
        "reduced": reduced,
        "variables": ["q1", "q2", "q3"],
        "theta_variables": thetas,
        "D": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "P": P, "B": B, "Bperp": Bperp, "phi": phi, "m": 1,
    }


# r in (0.5, 2), t periodic: the base point of the flat solver is (1.25, 0)
_RING = {"dim": 2, "periodic": [False, True],
         "bounds": [[0.5, 2.0], [0.0, 2.0 * math.pi]]}
_SQUARE = {"dim": 2, "periodic": [False, False],
           "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}
_E3 = ([["0"], ["0"], ["1"]], [["1", "0", "0"], ["0", "1", "0"]])


def _cone(c):
    # the flat cone z = c r, pushed along its normal: the geodesics of
    # (1 + c^2) dr^2 + r^2 dt^2 under the potential c r. The generator
    # holonomy is a rotation by 2 pi (1 - 1/sqrt(1 + c^2)): -I for
    # c = sqrt(3), elliptic with trace 2 cos(2 pi (1 - 1/sqrt 2)) for c = 1
    return _flat_config(f"cone-{c:g}", ["r", "t"], _RING,
                        ["r*cos(t)", "r*sin(t)", f"{c!r}*r"],
                        [[f"-{c!r}*q1"], [f"-{c!r}*q2"], [f"q3/{c!r}"]],
                        [["q1", "q2", "q3"], ["-q2", "q1", "0"]], "q3")


def _saddle(P):
    # the graph z = t1 t2 / 2 pushed along e3: Gamma_C = 0, lambda = the
    # (q1, q2) part of grad P
    return _flat_config("saddle", ["t1", "t2"], _SQUARE,
                        ["t1", "t2", "t1*t2/2"], *_E3, P)


# config, exit code
FLAT_CASES = {
    # a particle in the plane under a linear potential, in polar coordinates
    "annulus": (_flat_config("annulus", ["r", "t"], _RING,
                             ["r*cos(t)", "r*sin(t)", "0"], *_E3, "q1"),
                EXIT_OK),
    # the same plane in spiral coordinates, under a potential whose force
    # and closedness rows vanish on the generator r = 1.25: only the grid
    # pins the frame value, (a, b) = (k r0^2, r0^2) / (1 + k^2 r0^2)
    "spiral": (_flat_config("spiral", ["r", "t"], _RING,
                            ["r*cos(t + 0.5*r)", "r*sin(t + 0.5*r)", "0"],
                            *_E3, "(q1*q1 + q2*q2 - 1.5625)**3"), EXIT_OK),
    "cone-sqrt3": (_cone(math.sqrt(3.0)), EXIT_OK),
    "cone-1": (_cone(1.0), EXIT_OK),
    "saddle-exact": (_saddle("q1*q1 + q2"), EXIT_OK),
    # closedness pins b = 1 and leaves a free
    "saddle-pins-b": (_saddle("q1*q2"), EXIT_OK),
    "saddle-not-closed": (_saddle("q1*q3"), EXIT_NOT_LAGRANGIAN),
    # closedness leaves the line 2a + b = 1: a known limit
    "saddle-line": (_saddle("q1*q2 + q1*q1"), EXIT_UNSUPPORTED),
}


# an argument that _with_config replaces by the path of this config (the
# circle with a singular inertia matrix), written where the test says
SINGULAR_D = "<singular-D config>"


def _with_config(argv, folder):
    if SINGULAR_D not in argv:
        return argv
    path = folder / "singular-D.json"
    path.write_text(json.dumps(dict(CIRCLE_CONFIG,
                                    D=[["1", "0"], ["0", "0"]])))
    return [str(path) if a == SINGULAR_D else a for a in argv]


def _write_config(tmp_path, cfg):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _approx_equal(a, b, rel=1e-6, abs_tol=1e-9):
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(_approx_equal(a[k], b[k], rel, abs_tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _approx_equal(x, y, rel, abs_tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
    return a == b


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_analyze_circle_lagrangian(tmp_path, capsys):
    code = main(["analyze", "--model", "circle", "--param", "alpha=0.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["schema"] == SCHEMA
    assert out["verdict"] == "lagrangian"
    assert out["metrizable"] is True
    assert out["model"] == "circle"


def test_analyze_circle_not_lagrangian(capsys):
    code = main(["analyze", "--model", "circle", "--param", "alpha=0.3"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_NOT_LAGRANGIAN
    assert out["verdict"] == "not-lagrangian"


def test_analyze_config_circle_tiny_annihilator(tmp_path, capsys):
    # regularity is scale-free: Bperp scaled by 1e-15 is the same regular
    # constraint, so the verdict is the unscaled one
    cfg = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["circle"]
    cfg = dict(cfg, constants={"alpha": 0.3},
               Bperp=[[f"1e-15*({e})" for e in row] for row in cfg["Bperp"]])
    code = main(["analyze", "--config", _write_config(tmp_path, cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_NOT_LAGRANGIAN
    assert out["verdict"] == "not-lagrangian"


def test_analyze_unknown_model_errors(capsys):
    assert main(["analyze", "--model", "klein-bottle"]) == EXIT_ERROR
    assert "unknown model" in capsys.readouterr().err


def test_analyze_missing_model_errors(capsys):
    assert main(["analyze"]) == EXIT_ERROR


def test_analyze_config_circle(tmp_path, capsys):
    path = _write_config(tmp_path, CIRCLE_CONFIG)
    code = main(["analyze", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["model"] == "circle-config"
    assert out["verdict"] == "lagrangian"


def test_analyze_config_unsupported_dimension(tmp_path, capsys):
    path = _write_config(tmp_path, UNSUPPORTED_CONFIG)
    code = main(["analyze", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNSUPPORTED
    assert out["verdict"] == "unsupported"


def test_bundle_from_config_overrides():
    cfg = dict(CIRCLE_CONFIG, constants={"k": 1.0})
    bundle = bundle_from_config(cfg, overrides={"k": 2.0})
    assert bundle.params["k"] == 2.0
    assert bundle.chart.dim == 1


def test_param_may_set_a_name_only_an_expression_reads():
    # an undeclared --param key is taken when an expression reads it as a
    # constant; a function name that is only called, and a variable, whose
    # name hides a constant's, are not read as one
    cfg = dict(CIRCLE_CONFIG, P="k*sin(q1)")
    bundle = bundle_from_config(cfg, overrides={"k": 2.0})
    assert bundle.system.P([0.5, 0.0]) == 2.0 * math.sin(0.5)
    for key in ("sin", "q1", "t"):
        with pytest.raises(CliError, match=f"--param {key}: the config has "):
            bundle_from_config(cfg, overrides={"k": 2.0, key: 2.0})


def test_reloaded_config_shares_code_not_constants():
    # two loads of one config emit the same programs, compiled once; each
    # load binds its own constants
    cfg = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["dpc-b"]
    loads = [bundle_from_config(cfg, overrides={"gravity": g})
             for g in (9.81, 4.0)]
    fields = [(b.system.P, b.system.D, b.system.dD, b.system.B,
               b.system.Bperp, b.system.h, b.parametrization.phi,
               b.parametrization.dphi, b.parametrization.d2phi)
              for b in loads]
    for first, second in zip(*fields):
        assert first.__code__ is second.__code__
        assert first.__globals__ is not second.__globals__
    q = [0.2, 0.7, -0.4]
    for bundle, g in zip(loads, (9.81, 4.0)):
        assert bundle.system.P(q) == (2 * math.cos(0.7) + math.cos(-0.4)) * g


def test_out_file_atomic_write(tmp_path):
    out = tmp_path / "sub" / "report.json"
    code = main(["analyze", "--model", "circle", "--param", "alpha=0.0",
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["verdict"] == "lagrangian"
    leftovers = [p for p in out.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_csv_out_is_atomic(tmp_path, monkeypatch):
    out = tmp_path / "traj.csv"
    out.write_text("t,theta1,thetad1\n0,1,2\n")

    def fail(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", fail)
    code = main(["simulate", "--model", "circle", "--param", "alpha=0.0",
                 "--t-final", "0.5", "--format", "csv", "--out", str(out)])
    assert code == EXIT_ERROR
    assert out.read_text() == "t,theta1,thetad1\n0,1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("VHCKIT_OUT_DIR", str(tmp_path))
    code = main(["analyze", "--model", "circle", "--param", "alpha=0.0",
                 "--out", "r.json"])
    assert code == EXIT_OK
    assert (tmp_path / "r.json").exists()


def test_simulate_json_and_csv(tmp_path, capsys):
    code = main(["simulate", "--model", "circle", "--param", "alpha=0.0",
                 "--theta0", "0.0", "--thdot0", "1.0", "--t-final", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["final_state"][0] == pytest.approx(1.0, abs=1e-8)

    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", "--model", "circle", "--param", "alpha=0.0",
                 "--theta0", "0.0", "--thdot0", "1.0", "--t-final", "1.0",
                 "--format", "csv", "--out", str(csv_path), "--samples", "5"])
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,theta1,thetad1"
    assert len(lines) == 6


def test_simulate_csv_rows_every_hundredth_second(tmp_path):
    # without --samples, one row per 0.01 s of simulated time, both ends
    # included: what the old 1e-2 step cap gave
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", "--model", "circle", "--thdot0", "1.0",
                 "--t-final", "0.5", "--format", "csv", "--out",
                 str(csv_path)])
    assert code == EXIT_OK
    rows = csv_path.read_text().strip().splitlines()[1:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times == pytest.approx(np.linspace(0.0, 0.5, 51).tolist(),
                                  abs=1e-15)
    assert float(rows[-1].split(",")[1]) == pytest.approx(0.5, abs=1e-8)


def test_simulate_csv_requires_out(capsys):
    code = main(["simulate", "--model", "circle", "--format", "csv"])
    assert code == EXIT_ERROR


def test_simulate_bad_ic_dimension(capsys):
    code = main(["simulate", "--model", "circle", "--theta0", "1,2"])
    assert code == EXIT_ERROR


@pytest.mark.parametrize("argv, want", [(["simulate", "--full"], EXIT_ERROR),
                                        (["analyze"], EXIT_UNSUPPORTED)],
                         ids=["simulate-full", "analyze"])
def test_non_finite_potential_is_an_integration_error(tmp_path, capsys, argv,
                                                      want):
    # inf - inf: a NaN force; the full simulation used to hang in scipy.
    # analyze meets it inside a decision stage, which ends as unsupported
    # with the error in the reason
    cfg = dict(CIRCLE_CONFIG, P="(1e308*10 - 1e308*10)*q1")
    code = main(argv + ["--config", _write_config(tmp_path, cfg)])
    assert code == want
    out = capsys.readouterr()
    if want == EXIT_ERROR:
        assert "IntegrationError" in out.err
    else:
        assert "IntegrationError" in json.loads(out.out)["details"]["reason"]


def _balanced_sum(terms):
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return f"({_balanced_sum(terms[:mid])} + {_balanced_sum(terms[mid:])})"


@pytest.mark.parametrize("fields", [
    {"P": "q1" + "+q1" * 3000},
    {"phi": [_balanced_sum([f"sin(t*{k})" for k in range(1, 3000)]),
             "sin(t)"]},
    {"P": "9**9**6*q1"},
    {"P": "10**400*q1"},
    {"P": "sin(q1, q2)"},
    {"P": "q1**True"},
    {"P": "k*q1", "constants": {"k": "2"}},
], ids=["deep-nesting", "too-many-operations", "int-power", "beyond-float",
        "arity", "bool", "string-constant"])
def test_hostile_expression_exits_1_at_load(tmp_path, capsys, fields):
    cfg = dict(CIRCLE_CONFIG, **fields)
    code = main(["simulate", "--config", _write_config(tmp_path, cfg)])
    assert code == EXIT_ERROR
    assert "ExpressionError" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [5, 6, 7, 9])
def test_sign_changing_curvature_is_unsupported(tmp_path, capsys, grid):
    # Lagrangian, but outside what the Ricci recurrence test decides; on
    # odd grids s = 0, where Ric vanishes, is a grid point
    path = _write_config(tmp_path, SIGN_CHANGE_CONFIG)
    code = main(["analyze", "--config", path, "--grid", str(grid)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNSUPPORTED
    assert out["verdict"] == "unsupported"
    assert "changes sign" in out["details"]["reason"]


def test_negative_curvature_is_lagrangian(tmp_path, capsys):
    code = main(["analyze", "--config", _write_config(tmp_path, NEGATIVE_CONFIG)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["verdict"] == "lagrangian"
    assert out["details"]["ricci_definite"] == -1


def _mu_config(name, **fields):
    # NEGATIVE_CONFIG's metric with a reduced force: P alone gives
    # lambda = grad P on the (x, y) block
    return dict(NEGATIVE_CONFIG, name=name, **fields)


def test_exact_force_on_negative_curvature_is_lagrangian(tmp_path, capsys):
    cfg = _mu_config("gauss-negative-force", P="x*y + 0.3*x")
    code = main(["analyze", "--config", _write_config(tmp_path, cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["verdict"] == "lagrangian"
    assert out["details"]["max_lambda"] > 0.1
    assert out["details"]["mu_closedness"] < 1e-10


def test_non_exact_force_on_negative_curvature(tmp_path, capsys):
    # a tilted input B = (1, 0, 1) leaves a force one-form g(lambda, .)
    # that is not closed
    cfg = _mu_config("gauss-negative-tilted", P="y*z",
                     B=[["1"], ["0"], ["1"]],
                     Bperp=[["1", "0", "-1"], ["0", "1", "0"]])
    code = main(["analyze", "--config", _write_config(tmp_path, cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_NOT_LAGRANGIAN
    assert out["verdict"] == "not-lagrangian"
    assert (out["details"]["reason"]
            == "force one-form g(lambda, .) is not exact")
    assert out["details"]["mu_closedness"] > 1.0


@pytest.mark.parametrize("argv,named", [
    ([], "required"),
    (["bogus"], "invalid choice"),
    (["analyze", "--model", "circle", "--bogus"], "--bogus"),
    (["analyze", "--model", "circle", "--grid", "abc"], "--grid"),
    (["analyze", "--model", "dpc-b", "--grid", "0"], "--grid"),
    (["analyze", "--model", "circle", "--tol", "0"], "--tol"),
    (["analyze", "--model", "circle", "--tol", "-1"], "--tol"),
    (["simulate", "--model", "circle", "--format", "csv", "--out", "t.csv",
      "--samples", "0"], "--samples"),
    (["simulate", "--model", "circle", "--samples", "5", "--out", "s.json"],
     "--samples"),
    (["portrait", "--model", "circle", "--count", "0", "--out", "p.json"],
     "--count"),
    (["portrait", "--model", "circle", "--count", "-2", "--out", "p.json"],
     "--count"),
    (["simulate", "--model", "circle", "--t-final", "-1", "--out", "s.json"],
     "--t-final"),
    (["simulate", "--model", "circle", "--theta0", "abc", "--out", "s.json"],
     "--theta0: 'abc' is not a number"),
    (["simulate", "--model", "dpc-b", "--thdot0", "1,x", "--out", "s.json"],
     "--thdot0: 'x' is not a number"),
    (["analyze", "--config", "."], "config .: Is a directory"),
    (["analyze", "--model", "circle", "--out",
      os.path.join(__file__, "sub", "r.json")],
     "r.json: [Errno 20] Not a directory"),
    # exp(-2 pi tan alpha) is 5.5e-47, 3.3e-39 and 6.4e-132: the transport
    # keeps their digits, but a map whose |det| is not above --tol is
    # refused
    (["holonomy", "--model", "circle", "--param",
      "alpha=1.5118719298245613"],
     "holonomy of loop 's1': transport map |det| 5.55e-47 is not above "
     "--tol 1e-09"),
    (["holonomy", "--model", "circle", "--param", "alpha=1.5"],
     "transport map |det| 3.32e-39 is not above --tol 1e-09"),
    (["holonomy", "--model", "circle", "--param", "alpha=1.55"],
     "holonomy of loop 's1': transport map |det| 6.39e-132 is not above "
     "--tol 1e-09"),
    (["analyze", "--config", SINGULAR_D],
     "RegularityError: inertia matrix D singular at theta=[0.0], "
     "q=[1.0, 0.0]"),
    (["simulate", "--full", "--config", SINGULAR_D],
     "RegularityError: inertia matrix D singular at q=[1.0, 0.0]"),
], ids=["no-command", "unknown-command", "unknown-option", "grid-not-int",
        "grid-0", "tol-0", "tol-negative", "samples-0", "samples-not-csv",
        "count-0",
        "count-negative", "t-final-negative", "theta0-not-a-number",
        "thdot0-not-a-number", "config-is-a-directory",
        "out-under-a-file", "holonomy-unresolved", "holonomy-below-tol",
        "holonomy-negative", "analyze-singular-D", "simulate-singular-D"])
def test_bad_input_exits_1(argv, named, tmp_path, tmp_path_factory,
                           monkeypatch, capsys):
    monkeypatch.setenv("VHCKIT_OUT_DIR", str(tmp_path))
    argv = _with_config(argv, tmp_path_factory.mktemp("configs"))
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


def test_an_unresolved_transport_is_not_the_det_floor(monkeypatch, capsys):
    # an IntegrationError of the transport itself keeps its own wording
    def unresolved(gamma, loop, tol):
        raise IntegrationError("no Chebyshev sample resolves the span")

    monkeypatch.setattr(cli, "loop_transport", unresolved)
    assert main(["holonomy", "--model", "circle"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: holonomy of loop 's1' is not resolved at --tol 1e-09: "
        "no Chebyshev sample resolves the span\n")


@pytest.mark.parametrize("model, param, named", [
    ("circle", "alpha=inf", "expected a finite number, got 'inf'"),
    ("circle", "alpha=-Infinity", "expected a finite number"),
    ("circle", "alpha=1" + "0" * 400, "expected a finite number"),
    ("dpc-b", "gravity=nan", "expected a finite number, got 'nan'"),
    ("circle", "foo=1", "model 'circle' has no such parameter; it takes "
                        "['alpha']"),
    ("dpc-a", "case=b", "it takes ['gravity']"),
    ("sphere", "alpha=0.1", "it takes none"),
    ("circle", "alpha=abc", "'abc' is not a number"),
    ("config", "alpha=nan", "expected a finite number"),
    ("config", "gravty=4", "the config has no constant 'gravty' and no "
                           "expression reads it"),
], ids=["inf", "minus-infinity", "beyond-float", "nan", "unknown-key",
        "fixed-case", "no-parameters", "not-a-number", "config-nan",
        "config-unknown-key"])
def test_bad_param_exits_1(model, param, named, tmp_path, monkeypatch,
                           capsys):
    # a --param value is a finite number, and a built-in model takes only
    # the parameters its builder names; each other value is a CliError,
    # not the catch-all's "error: ValueError: ..." or a verdict
    monkeypatch.setenv("VHCKIT_OUT_DIR", str(tmp_path))
    source = (["--config", _write_config(tmp_path, CIRCLE_CONFIG)]
              if model == "config" else ["--model", model])
    assert main(["analyze", *source, "--param", param]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --param ") and named in captured.err
    assert not captured.out


class _NeverRaised(Exception):
    """Stands in for ``Exception`` in ``vhckit.cli``: main's last-resort
    handler then catches nothing."""


def _cases(test):
    """The argument values of ``test``'s parametrize mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


def test_bad_input_never_reaches_the_catch_all(tmp_path, monkeypatch,
                                               capsys):
    # every bad input above, a config that is not JSON and one that calls
    # __import__ end as a CliError, not in the catch-all's
    # "error: <ExceptionType>: ...", which is made to catch nothing here
    monkeypatch.setattr(cli, "Exception", _NeverRaised, raising=False)
    monkeypatch.setenv("VHCKIT_OUT_DIR", str(tmp_path))
    configs = [CIRCLE_CONFIG, dict(CIRCLE_CONFIG, P="__import__(1)")] + [
        dict(CIRCLE_CONFIG, **fields)
        for fields in _cases(test_hostile_expression_exits_1_at_load)]
    paths = []
    for k, cfg in enumerate(configs):
        paths.append(tmp_path / f"model{k}.json")
        paths[-1].write_text(json.dumps(cfg))
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(CIRCLE_CONFIG)[:40])
    runs = [_with_config(argv, tmp_path)
            for argv, _ in _cases(test_bad_input_exits_1)]
    runs += [["analyze", *(["--config", str(paths[0])] if model == "config"
                           else ["--model", model]), "--param", param]
             for model, param, _ in _cases(test_bad_param_exits_1)]
    runs += [["simulate", "--config", str(p)] for p in paths[1:] + [truncated]]
    for argv in runs:
        assert main(argv) == EXIT_ERROR, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out, argv


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--model", "sphere", "--t-final", "1"],
     "theta0=[0.0, 0.0], thdot0=[0.0, 0.0]: RegularityError: (Bperp D dphi) "
     "singular at theta=[0.0, 0.0]"),
    (["simulate", "--model", "circle", "--theta0", "nan"],
     "theta0=[nan], thdot0=[0.0]: IntegrationError: right-hand side is not "
     "finite at t = 0"),
    (["portrait", "--config", "pole-twin", "--count", "1"],
     "theta0=[0.0, "),
], ids=["sphere-pole", "nan-start", "portrait-midpoint-on-pole"])
def test_simulation_start_errors_name_the_start(argv, named, tmp_path,
                                                capsys):
    # a singular or non-finite start is a CliError, not the catch-all's
    # "error: RegularityError: ..."; the sphere twin on theta1 in (-1, 1)
    # has its chart midpoint on the pole
    if "pole-twin" in argv:
        cfg = _sphere_twin(reduced={"dim": 2, "periodic": [False, False],
                                    "bounds": [[-1.0, 1.0],
                                               [-math.pi, math.pi]]})
        path = _write_config(tmp_path, cfg)
        argv = [path if a == "pole-twin" else a for a in argv]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot simulate from ")
    assert named in captured.err
    assert not captured.out


def test_sphere_portrait_starts_on_the_chart_midpoint(capsys):
    # the non-drawn coordinate starts at its chart midpoint theta1 = pi/2,
    # not on the pole theta1 = 0
    assert main(["portrait", "--model", "sphere", "--count", "2",
                 "--t-final", "2"]) == EXIT_OK
    orbits = json.loads(capsys.readouterr().out)["orbits"]
    assert [o["theta0"][0] for o in orbits] == [math.pi / 2] * 2
    assert all(o["kind"] in ("rocking", "rotating") for o in orbits)


def _sphere_twin(**fields):
    cfg = dict(runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["sphere"])
    for key, value in fields.items():
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
    return cfg


@pytest.mark.parametrize("fields,key", [
    ({"D": None}, "D"),
    ({"Bperp": None}, "Bperp"),
    ({"D": [["1", "0"], ["0", "1"]]}, "D"),
    ({"phi": ["sin(t1)*cos(t2)", "cos(t1)"]}, "phi"),
    ({"D": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]}, "D"),
    ({"Bperp": [["-q2", "q1", "0"]]}, "Bperp"),
    ({"m": 2}, "m"),
    ({"ambient": {"dim": 3, "periodic": [False] * 3,
                  "bounds": [[-2.0, 2.0]] * 2}}, "ambient"),
    ({"phi": "sin(t1)*cos(t2)"}, "phi"),
], ids=["D-missing", "Bperp-missing", "D-2x2", "phi-2-entries", "D-ragged",
        "Bperp-1-row", "m-2-one-column-B", "bounds-2-of-3", "phi-string"])
def test_bad_config_shape_exits_1(fields, key, tmp_path, capsys):
    # each shape is checked before anything is compiled: a CliError that
    # names the key, never a traceback through the catch-all or a verdict
    path = _write_config(tmp_path, _sphere_twin(**fields))
    assert main(["analyze", "--config", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config key {key!r}")
    assert not captured.out


def test_constant_base_power_matches_exp_log(tmp_path, capsys):
    # 2**q3 takes its derivative through Dual.__rpow__
    verdicts = []
    for P in ("2**q3", "exp(q3*log(2))"):
        path = _write_config(tmp_path, _sphere_twin(P=P))
        code = main(["analyze", "--config", path])
        verdicts.append((code, json.loads(capsys.readouterr().out)["verdict"]))
    assert verdicts[0] == verdicts[1] == (EXIT_OK, "lagrangian")


def test_float_power_in_a_potential_matches_the_int_power(tmp_path, capsys):
    # the gradient of x**2.0 takes the power rule where x < 0, as x**2 does
    dpc_a = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["dpc-a"]
    runs = []
    for power in ("x**2", "x**2.0"):
        cfg = dict(dpc_a, P=dpc_a["P"] + " + 0.1*" + power)
        code = main(["analyze", "--config", _write_config(tmp_path, cfg)])
        runs.append((code, json.loads(capsys.readouterr().out)["verdict"]))
    assert runs[0] == runs[1] == (EXIT_NOT_LAGRANGIAN, "not-lagrangian")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("kwargs", [
    {"grid_n": 0}, {"decision_tol": 0.0}, {"decision_tol": -1.0},
    {"decision_tol": math.nan}, {"decision_tol": math.inf}])
def test_analyze_rejects_bad_grid_and_tol(kwargs):
    with pytest.raises(ValueError):
        analyze(get_model("circle"), **kwargs)


def test_holonomy_circle_scalar(capsys):
    code = main(["holonomy", "--model", "circle", "--param", "alpha=0.3",
                 "--tol", "1e-10"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    val = out["transports"][0]["matrix"][0][0]
    assert val == pytest.approx(math.exp(-2.0 * math.pi * math.tan(0.3)),
                                rel=1e-8)


def test_holonomy_simply_connected_note(capsys):
    code = main(["holonomy", "--model", "sphere"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["transports"] == []
    assert "simply connected" in out["note"]


def test_portrait_deterministic_under_seed(capsys):
    argv = ["portrait", "--model", "dpc-b", "--seed", "5", "--count", "2",
            "--t-final", "2.0"]
    assert main(argv) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    assert _approx_equal(first, second, rel=1e-12, abs_tol=1e-12)
    assert len(first["orbits"]) == 2
    for orbit in first["orbits"]:
        assert orbit["kind"] in ("rocking", "rotating")


@pytest.mark.parametrize("model,expect_code", [
    ("circle", EXIT_OK),
    ("dpc-a", EXIT_NOT_LAGRANGIAN),
    ("dpc-b", EXIT_OK),
    ("sphere", EXIT_OK),
])
def test_golden_reports(model, expect_code, tmp_path):
    out = tmp_path / f"{model}.json"
    code = main(["analyze", "--model", model, "--out", str(out)])
    assert code == expect_code
    got = json.loads(out.read_text())
    golden = json.loads((GOLDEN_DIR / f"{model}.json").read_text())
    assert _approx_equal(got, golden), (
        f"report for {model} deviates from the pinned golden file")


@pytest.mark.parametrize("case", list(FLAT_CASES))
def test_flat_config_verdicts(tmp_path, capsys, case):
    cfg, want = FLAT_CASES[case]
    code = main(["analyze", "--config", _write_config(tmp_path, cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == want, out["details"]
    assert out["details"]["curvature_class"] == "flat"
    if case == "saddle-not-closed":
        assert out["details"]["closedness_residual"] > 0.1
    if case == "saddle-line":
        assert "line of frame values" in out["details"]["reason"]


def _fd(f, x, i, h=1e-4):
    xp, xm = list(x), list(x)
    xp[i] += h
    xm[i] -= h
    return (np.asarray(f(xp), dtype=float)
            - np.asarray(f(xm), dtype=float)) / (2.0 * h)


@pytest.mark.parametrize("case", [c for c, (_, code) in FLAT_CASES.items()
                                  if code == EXIT_OK])
def test_flat_config_structure(case):
    # D_C is SPD and parallel, mu = D_C lambda is closed and P_C is its
    # potential: each checked by central differences, apart from the
    # solver's own formulas
    bundle = bundle_from_config(FLAT_CASES[case][0])
    res = analyze(bundle)
    D_C, P_C = res.artifacts["D_C"], res.artifacts["P_C"]
    conn = induced_connection(bundle.system, bundle.parametrization)

    def mu(x):
        return np.asarray(D_C(x)) @ np.asarray(conn.lam(x), dtype=float)

    worst = {"nabla": 0.0, "closed": 0.0, "potential": 0.0}
    for x in bundle.chart.grid(3, 0.2):
        g = np.asarray(D_C(x))
        assert np.linalg.eigvalsh(g)[0] > 0.0
        G = np.asarray(conn.gammaC(x), dtype=float)
        dg = [_fd(D_C, x, i) for i in range(2)]
        for i in range(2):
            nabla = dg[i] - G[:, i, :].T @ g - g @ G[:, i, :]
            worst["nabla"] = max(worst["nabla"], float(np.max(np.abs(nabla))))
        worst["closed"] = max(worst["closed"], abs(
            _fd(mu, x, 0)[1] - _fd(mu, x, 1)[0]))
        worst["potential"] = max(worst["potential"], max(
            abs(float(_fd(P_C, x, i)) - mu(x)[i]) for i in range(2)))
    assert max(worst.values()) < 1e-6, worst
    a, b = res.details["a"], res.details["b"]
    r0 = 1.25
    if case.startswith("cone"):
        # the invariant form is the induced metric diag(1 + c^2, r0^2) at
        # the base point, so b = r0^2 / (1 + c^2)
        c2 = 3.0 if case == "cone-sqrt3" else 1.0
        assert abs(a) < 1e-8 and b == pytest.approx(r0 * r0 / (1.0 + c2),
                                                    abs=1e-8)
    if case == "spiral":
        k2 = 0.25 * r0 * r0
        assert (a, b) == (pytest.approx(0.5 * r0 * r0 / (1.0 + k2), abs=1e-8),
                          pytest.approx(r0 * r0 / (1.0 + k2), abs=1e-8))
    if case == "saddle-pins-b":
        assert (a, b) == (0.0, pytest.approx(1.0, abs=1e-12))


def test_pole_between_grid_points_is_unsupported(tmp_path, capsys,
                                                 monkeypatch):
    # theta1 in (-0.5, pi): the pole theta1 = 0 falls between grid points,
    # so regularity passes, and the line integral of trace Gamma through it
    # fails inside a decision stage: its pieces are halved down to 2^-40 of
    # the span, each sampled at no more than 65 nodes (DOP853 on the
    # integrand took 36,377 lookups of Gamma_C to give up)
    calls = [0]
    lookup = ConnectionCoeffs.__call__

    def counted(self, x):
        calls[0] += 1
        return lookup(self, x)

    monkeypatch.setattr(ConnectionCoeffs, "__call__", counted)
    cfg = runpy.run_path(str(CONFIGS_PY))["CONFIGS"]["sphere"]
    cfg = dict(cfg, reduced=dict(cfg["reduced"], bounds=[[-0.5, math.pi],
                                                         [-math.pi, math.pi]]))
    code = main(["analyze", "--config", _write_config(tmp_path, cfg),
                 "--grid", "5"])
    out = json.loads(capsys.readouterr().out)
    assert calls[0] <= 6000
    assert code == EXIT_UNSUPPORTED
    assert out["details"]["regular"] is True
    assert out["details"]["reason"].startswith("IntegrationError")


_STABLE = [("circle", {"alpha": 0.0}, "lagrangian"),
           ("circle", {"alpha": 0.3}, "not-lagrangian"),
           ("sphere", {}, "lagrangian"),
           ("dpc-a", {}, "not-lagrangian"),
           ("dpc-b", {}, "lagrangian")] + [
    (case, None, {EXIT_OK: "lagrangian", EXIT_NOT_LAGRANGIAN: "not-lagrangian",
                  EXIT_UNSUPPORTED: "unsupported"}[code])
    for case, (_, code) in FLAT_CASES.items()]


@pytest.mark.parametrize("name, params, want", _STABLE,
                         ids=[f"{n}{'-' + str(p['alpha']) if p else ''}"
                              for n, p, _ in _STABLE])
def test_verdicts_are_stable_under_grid_and_tolerance(name, params, want):
    # the default grid (7) and tolerance (1e-9) are pinned by the goldens
    # and the verdict tests above
    def bundle():
        if params is None:
            return bundle_from_config(FLAT_CASES[name][0])
        return get_model(name, **params)

    runs = [{"grid_n": n} for n in (3, 5, 9, 11)] + [
        {"decision_tol": tol} for tol in (1e-8, 1e-10)]
    verdicts = [analyze(bundle(), **kw).verdict for kw in runs]
    assert verdicts == [want] * len(runs), list(zip(runs, verdicts))


# orbit kinds of `portrait --seed 0..2` to T = 20, "-" rocking and "O"
# rotating; these are the kinds of the earlier RK45 runs under a 1e-2 step
# cap, so the step policy moves no orbit across the 2 pi line. The dpc
# portraits keep the first 4 of the default 8 orbits (the same starts), for
# time; the other 4 are rocking too.
@pytest.mark.parametrize("model, kinds", [
    ("circle", ["OOOOOOOO", "OOOOO-O-", "OOOOOOOO"]),
    ("dpc-a", ["-O--", "----", "----"]),
    ("dpc-b", ["-O--", "----", "----"]),
])
def test_portrait_orbit_kinds_are_pinned(model, kinds, capsys):
    for seed, want in enumerate(kinds):
        assert main(["portrait", "--model", model, "--seed", str(seed),
                     "--count", str(len(want))]) == EXIT_OK
        orbits = json.loads(capsys.readouterr().out)["orbits"]
        assert "".join("O" if o["kind"] == "rotating" else "-"
                       for o in orbits) == want



# What a fresh process loads of scipy: nothing, as the stepper, the
# quadrature, the DCT and the minimax solver are the package's own. The
# config case reads the model.json that _write_config leaves in the
# process's working directory.
def _scipy_after(code, cwd=None):
    src = Path(__file__).resolve().parent.parent / "src"
    code += "\nimport sys\nprint(sorted(m for m in sys.modules " \
            "if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def _run_main(argv):
    return ("import contextlib, io, vhckit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    vhckit.cli.main({argv!r})")


@pytest.mark.parametrize("code", [
    "import vhckit.cli",
    _run_main(["analyze", "--model", "circle"]),
    _run_main(["analyze", "--model", "sphere"]),
    _run_main(["analyze", "--model", "dpc-a"]),
    _run_main(["analyze", "--model", "dpc-b"]),
    _run_main(["analyze", "--config", "model.json"]),
    _run_main(["simulate", "--model", "dpc-b", "--full", "--t-final", "0.2"]),
], ids=["import", "analyze-circle", "analyze-sphere", "analyze-dpc-a",
        "analyze-dpc-b", "analyze-flat-config", "simulate-full"])
def test_no_scipy_is_loaded(code, tmp_path):
    _write_config(tmp_path, FLAT_CASES["cone-sqrt3"][0])
    assert _scipy_after(code, cwd=tmp_path) == []


def test_flat_solver_problems_match_linprog(monkeypatch):
    # every minimax problem that the closedness stage poses on the dpc models
    # and the flat configs, against HiGHS
    solve, posed = metrize2d._minimax_linear, []

    def record(p, q):
        posed.append((np.asarray(p, dtype=float),
                      np.asarray(q, dtype=float).reshape(len(p), -1)))
        return solve(p, q)

    monkeypatch.setattr(metrize2d, "_minimax_linear", record)
    for bundle in [get_model("dpc-a"), get_model("dpc-b")] + [
            bundle_from_config(cfg) for cfg, _ in FLAT_CASES.values()]:
        analyze(bundle)
    assert sorted({Q.shape[1] for _, Q in posed}) == [0, 1, 2]
    for p, Q in posed:
        res = solve(p, Q)[1]
        scale = max(np.max(np.abs(p)), np.max(np.abs(Q), initial=0.0))
        assert res <= minimax_by_linprog(p, Q) + 1e-12 * scale
