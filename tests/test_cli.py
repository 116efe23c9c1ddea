"""Command-line interface: exit codes, report schema, golden files, config
models, and output plumbing."""

import json
import math
import os
from pathlib import Path

import pytest

from vhckit.cli import (EXIT_ERROR, EXIT_NOT_LAGRANGIAN, EXIT_OK,
                        EXIT_UNSUPPORTED, SCHEMA, bundle_from_config, main)
from vhckit.models import get_model
from vhckit.pipeline import analyze

GOLDEN_DIR = Path(__file__).parent / "golden"

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
    cfg = dict(CIRCLE_CONFIG)
    bundle = bundle_from_config(cfg, overrides={"k": 2.0})
    assert bundle.params["k"] == 2.0
    assert bundle.chart.dim == 1


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


def test_simulate_csv_requires_out(capsys):
    code = main(["simulate", "--model", "circle", "--format", "csv"])
    assert code == EXIT_ERROR


def test_simulate_bad_ic_dimension(capsys):
    code = main(["simulate", "--model", "circle", "--theta0", "1,2"])
    assert code == EXIT_ERROR


@pytest.mark.parametrize("argv", [["simulate", "--full"], ["analyze"]],
                         ids=["simulate-full", "analyze"])
def test_non_finite_potential_is_an_integration_error(tmp_path, capsys, argv):
    # inf - inf: a NaN force; the full simulation used to hang in scipy
    cfg = dict(CIRCLE_CONFIG, P="(1e308*10 - 1e308*10)*q1")
    code = main(argv + ["--config", _write_config(tmp_path, cfg)])
    assert code == EXIT_ERROR
    assert "IntegrationError" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"P": "q1" + "+q1" * 3000},
    {"P": "9**9**6*q1"},
    {"P": "10**400*q1"},
    {"P": "sin(q1, q2)"},
    {"P": "q1**True"},
    {"P": "k*q1", "constants": {"k": "2"}},
], ids=["deep-nesting", "int-power", "beyond-float", "arity", "bool",
        "string-constant"])
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
    (["portrait", "--model", "circle", "--count", "0", "--out", "p.json"],
     "--count"),
    (["portrait", "--model", "circle", "--count", "-2", "--out", "p.json"],
     "--count"),
    (["simulate", "--model", "circle", "--t-final", "-1", "--out", "s.json"],
     "--t-final"),
], ids=["no-command", "unknown-command", "unknown-option", "grid-not-int",
        "grid-0", "tol-0", "tol-negative", "samples-0", "count-0",
        "count-negative", "t-final-negative"])
def test_bad_input_exits_1(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VHCKIT_OUT_DIR", str(tmp_path))
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


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
