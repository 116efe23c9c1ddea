"""Command-line interface: analyze | simulate | holonomy | portrait.

Exit codes: 0 the reduced dynamics are Lagrangian (or the command
succeeded), 3 they are provably not Lagrangian, 2 the case is outside the
implemented theory, 1 usage or runtime error."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import tempfile

import numpy as np

from . import __version__
from .expr import compile_expression, compile_matrix, compile_vector
from .holonomy import loop_transport
from .manifold import Chart
from .models import MODEL_BUILDERS, ModelBundle, get_model
from .pipeline import (VERDICT_LAGRANGIAN, VERDICT_NOT_LAGRANGIAN, analyze)
from .sim import csv_text, phase_portrait, simulate_constrained, simulate_full
from .vhc import ConstraintParametrization, LagrangianControlSystem

SCHEMA = "vhckit-report/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_LAGRANGIAN = 3


class CliError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR, not argparse's 2 (unsupported)."""

    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def _positive(cast):
    """argparse type: ``cast`` of the text, finite and greater than zero."""
    def parse(text):
        value = cast(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"expected a finite {cast.__name__} > 0, got {text!r}")
        return value
    parse.__name__ = cast.__name__
    return parse


def _parse_param(text):
    if "=" not in text:
        raise CliError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


def _out_path(path):
    base = os.environ.get("VHCKIT_OUT_DIR", "")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return path


def _atomic_write(path, text):
    path = _out_path(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        _sys.stdout.write(text)


def _load_bundle(args):
    params = dict(_parse_param(p) for p in (args.param or []))
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        return bundle_from_config(cfg, overrides=params)
    if not args.model:
        raise CliError("one of --model or --config is required")
    if args.model not in MODEL_BUILDERS:
        raise CliError(f"unknown model {args.model!r}; "
                       f"have {sorted(MODEL_BUILDERS)}")
    return get_model(args.model, **params)


def _chart_from_config(cfg, key):
    sec = cfg[key]
    return Chart(int(sec["dim"]), tuple(bool(p) for p in sec["periodic"]),
                 tuple((float(a), float(b)) for a, b in sec["bounds"]))


def bundle_from_config(cfg, overrides=None):
    """ModelBundle from a JSON dict with expression-string entries."""
    constants = dict(cfg.get("constants", {}))
    if overrides:
        constants.update(overrides)
    q_chart = _chart_from_config(cfg, "ambient")
    chart = _chart_from_config(cfg, "reduced")
    qv = list(cfg["variables"])
    tv = list(cfg["theta_variables"])
    if len(qv) != q_chart.dim or len(tv) != chart.dim:
        raise CliError("variable lists do not match chart dimensions")
    D = compile_matrix(cfg["D"], qv, constants)
    P = compile_expression(cfg.get("P", "0"), qv, constants)
    B = compile_matrix(cfg["B"], qv, constants)
    Bperp = compile_matrix(cfg["Bperp"], qv, constants)
    phi = compile_vector(cfg["phi"], tv, constants)
    h = compile_vector(cfg["h"], qv, constants) if "h" in cfg else None

    from .calculus import gradient
    gradP = lambda q: gradient(P, list(q))
    system = LagrangianControlSystem(
        chart=q_chart, D=D, P=P, gradP=gradP, B=B, Bperp=Bperp,
        m=int(cfg["m"]), h=h)
    par = ConstraintParametrization(chart, phi=phi)
    return ModelBundle(cfg.get("name", "custom"), system, par,
                       params=constants)


def _base_report(command, bundle, args):
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "model": bundle.name,
        "params": {k: v for k, v in bundle.params.items()},
    }


def cmd_analyze(args):
    bundle = _load_bundle(args)
    result = analyze(bundle, grid_n=args.grid, decision_tol=args.tol)
    report = _base_report("analyze", bundle, args)
    report.update(result.to_dict())
    _emit(report, args.out)
    if result.verdict == VERDICT_LAGRANGIAN:
        return EXIT_OK
    if result.verdict == VERDICT_NOT_LAGRANGIAN:
        return EXIT_NOT_LAGRANGIAN
    return EXIT_UNSUPPORTED


def _parse_vec(text, dim, name):
    vals = [float(v) for v in text.split(",")] if text else [0.0] * dim
    if len(vals) != dim:
        raise CliError(f"{name} needs {dim} comma-separated values")
    return vals


def cmd_simulate(args):
    bundle = _load_bundle(args)
    d = bundle.chart.dim
    theta0 = _parse_vec(args.theta0, d, "--theta0")
    thdot0 = _parse_vec(args.thdot0, d, "--thdot0")
    span = (0.0, args.t_final)
    if args.full:
        traj = simulate_full(bundle.system, bundle.parametrization,
                             theta0, thdot0, span, tol=args.tol)
        columns = [f"q{i+1}" for i in range(bundle.system.n)] + \
                  [f"qd{i+1}" for i in range(bundle.system.n)]
    else:
        traj = simulate_constrained(bundle.system, bundle.parametrization,
                                    theta0, thdot0, span, tol=args.tol)
        columns = [f"theta{i+1}" for i in range(d)] + \
                  [f"thetad{i+1}" for i in range(d)]
    if args.format == "csv":
        if not args.out:
            raise CliError("--format csv requires --out")
        _atomic_write(args.out, csv_text(traj, columns=columns,
                                         n_samples=args.samples))
    else:
        report = _base_report("simulate", bundle, args)
        report["t_final"] = args.t_final
        report["diagnostics"] = {k: float(v)
                                 for k, v in traj.diagnostics.items()}
        report["final_state"] = [float(v) for v in traj.end_state]
        _emit(report, args.out)
    return EXIT_OK


def cmd_holonomy(args):
    bundle = _load_bundle(args)
    if not bundle.generators:
        report = _base_report("holonomy", bundle, args)
        report["transports"] = []
        report["note"] = "reduced space is simply connected"
        _emit(report, args.out)
        return EXIT_OK
    from .vhc import induced_connection
    conn = induced_connection(bundle.system, bundle.parametrization)
    report = _base_report("holonomy", bundle, args)
    report["transports"] = []
    for loop in bundle.generators:
        tm = loop_transport(conn.gammaC, loop, tol=args.tol)
        report["transports"].append({
            "tag": loop.tag,
            "base_point": [float(v) for v in loop.base_point],
            "matrix": [[float(v) for v in row] for row in tm.matrix],
        })
    _emit(report, args.out)
    return EXIT_OK


def cmd_portrait(args):
    bundle = _load_bundle(args)
    d = bundle.chart.dim
    rng = np.random.default_rng(args.seed)
    ics = []
    for _ in range(args.count):
        theta0 = [0.0] * d
        thdot0 = [0.0] * d
        i = next((k for k in range(d) if bundle.chart.periodic[k]), d - 1)
        theta0[i] = float(rng.uniform(0.0, 2.0 * math.pi))
        thdot0[i] = float(rng.uniform(-3.0, 3.0))
        ics.append((theta0, thdot0))
    orbits = phase_portrait(bundle.system, bundle.parametrization, ics,
                            t_final=args.t_final, tol=args.tol)
    report = _base_report("portrait", bundle, args)
    report["seed"] = args.seed
    report["orbits"] = [{
        "theta0": o.theta0, "thdot0": o.thdot0, "kind": o.kind,
        "final_state": [float(v) for v in o.trajectory.end_state],
    } for o in orbits]
    _emit(report, args.out)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--model", help="built-in model name")
    p.add_argument("--config", help="JSON file describing a custom model")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="model parameter override (repeatable)")
    p.add_argument("--tol", type=_positive(float), default=1e-9,
                   help="decision / integration tolerance")
    p.add_argument("--out", help="output file (atomic write); stdout if omitted")


def build_parser():
    parser = _Parser(
        prog="vhckit",
        description="Geometry of virtual holonomic constraints: analyze the "
                    "reduced dynamics, simulate, and inspect holonomy.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="decide metrizability / Lagrangianness")
    _add_common(pa)
    pa.add_argument("--grid", type=_positive(int), default=7,
                    help="grid points per axis")
    pa.set_defaults(fn=cmd_analyze)

    ps = sub.add_parser("simulate", help="integrate reduced or full dynamics")
    _add_common(ps)
    ps.add_argument("--theta0", help="comma-separated initial coordinates")
    ps.add_argument("--thdot0", help="comma-separated initial velocities")
    ps.add_argument("--t-final", type=_positive(float), default=10.0,
                    dest="t_final")
    ps.add_argument("--full", action="store_true",
                    help="simulate the full closed loop instead of reduced")
    ps.add_argument("--format", choices=("json", "csv"), default="json")
    ps.add_argument("--samples", type=_positive(int), default=None,
                    help="resample the trajectory at N uniform times (csv)")
    ps.set_defaults(fn=cmd_simulate)

    ph = sub.add_parser("holonomy", help="generator loop transport maps")
    _add_common(ph)
    ph.set_defaults(fn=cmd_holonomy)

    pp = sub.add_parser("portrait", help="classify a family of reduced orbits")
    _add_common(pp)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--count", type=_positive(int), default=8)
    pp.add_argument("--t-final", type=_positive(float), default=20.0,
                    dest="t_final")
    pp.set_defaults(fn=cmd_portrait)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
