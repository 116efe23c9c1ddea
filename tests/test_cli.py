"""Command-line interface: exit codes, report schema, golden files, config
models, and output plumbing."""

import json
import math
import os
from pathlib import Path

import pytest

from vhckit.cli import (EXIT_ERROR, EXIT_NOT_LAGRANGIAN, EXIT_OK,
                        EXIT_UNSUPPORTED, SCHEMA, bundle_from_config, main)

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
