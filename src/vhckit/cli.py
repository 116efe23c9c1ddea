"""Command-line interface: analyze | simulate | holonomy | portrait.

Exit codes: 0 the reduced dynamics are Lagrangian (or the command
succeeded), 3 they are provably not Lagrangian, 2 the case is outside the
implemented theory, 1 usage or runtime error."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import sys as _sys
import tempfile

import numpy as np

from . import __version__
from .calculus import IntegrationError, gradient
from .expr import (ExpressionError, compile_expression, compile_matrix,
                   compile_matrix_gradient, compile_vector,
                   compile_vector_derivatives, names_read)
from .holonomy import DegenerateTransport, loop_transport
from .manifold import Chart
from .models import MODEL_BUILDERS, ModelBundle, get_model
from .pipeline import (VERDICT_LAGRANGIAN, VERDICT_NOT_LAGRANGIAN, analyze)
from .sim import csv_text, phase_portrait, simulate_constrained, simulate_full
from .vhc import (ConstraintParametrization, LagrangianControlSystem,
                  RegularityError)

SCHEMA = "vhckit-report/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_LAGRANGIAN = 3

CSV_SPACING = 1e-2      # simulated seconds between rows without --samples


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
            value = cast(raw)
        except ValueError:
            continue
        if not math.isfinite(float(raw)):
            raise CliError(f"--param {key}: expected a finite number, "
                           f"got {raw!r}")
        return key, value
    return key, raw


def _out_path(path):
    base = os.environ.get("VHCKIT_OUT_DIR", "")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return path


def _atomic_write(path, text):
    path = _out_path(path)
    d = os.path.dirname(os.path.abspath(path))
    try:
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
    except OSError as e:
        raise CliError(f"--out {path}: {e}") from e


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        _sys.stdout.write(text)


def _load_bundle(args):
    params = dict(_parse_param(p) for p in (args.param or []))
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise CliError(f"config {args.config}: {e.strerror or e}") from e
        except ValueError as e:
            raise CliError(f"config {args.config}: invalid JSON: {e}")
    elif not args.model:
        raise CliError("one of --model or --config is required")
    elif args.model not in MODEL_BUILDERS:
        raise CliError(f"unknown model {args.model!r}; "
                       f"have {sorted(MODEL_BUILDERS)}")
    else:
        known = inspect.signature(MODEL_BUILDERS[args.model]).parameters
        for key in params:
            if key not in known:
                raise CliError(f"--param {key}: model {args.model!r} has no "
                               f"such parameter; it takes "
                               f"{sorted(known) or 'none'}")
    for key, value in params.items():
        if isinstance(value, str):
            raise CliError(f"--param {key}: {value!r} is not a number")
    if args.config:
        return bundle_from_config(cfg, overrides=params)
    return get_model(args.model, **params)


def _required(cfg, key):
    if key not in cfg:
        raise CliError(f"config key {key!r} is missing")
    return cfg[key]


def _chart_from_config(cfg, key):
    sec = _required(cfg, key)
    try:
        dim, periodic, bounds = sec["dim"], sec["periodic"], sec["bounds"]
        if (type(dim) is int and dim >= 1 and len(periodic) == dim
                and len(bounds) == dim and all(len(b) == 2 for b in bounds)):
            return Chart(dim, tuple(bool(p) for p in periodic),
                         tuple((float(a), float(b)) for a, b in bounds))
    except (KeyError, TypeError, ValueError):
        pass
    raise CliError(f"config key {key!r}: expected dim d >= 1, d periodic "
                   f"flags and d bounds [lo, hi]")


def _strings(value, count):
    return (isinstance(value, list) and len(value) == count
            and all(isinstance(s, str) for s in value))


def _strings_of(cfg, key, rows, cols=None):
    """cfg[key]: a list of ``rows`` strings, or of ``rows`` lists of ``cols``
    strings."""
    value = _required(cfg, key)
    if cols is None:
        if not _strings(value, rows):
            raise CliError(f"config key {key!r}: expected a list of {rows} "
                           f"strings")
    elif not (isinstance(value, list) and len(value) == rows
              and all(_strings(row, cols) for row in value)):
        raise CliError(f"config key {key!r}: expected {rows} rows of {cols} "
                       f"strings")
    return value


def _constants_read(cfg, qv, tv):
    """The names that the config's expressions read as constants."""
    ambient = [cfg.get("P", "0"), *cfg.get("h", []),
               *sum(cfg["D"] + cfg["B"] + cfg["Bperp"], [])]
    return (names_read(ambient) - set(qv)) | (names_read(cfg["phi"]) - set(tv))


def bundle_from_config(cfg, overrides=None):
    """ModelBundle from a JSON dict with expression-string entries. Shapes
    are checked against the charts and ``m`` before anything is compiled;
    phi and D are parsed once each, with dphi, d2phi and dD. An expression
    that does not compile, and an override that names no constant of the
    config and that no expression reads, are ``CliError``s."""
    if not isinstance(cfg, dict):
        raise CliError("config: expected a JSON object")
    declared = cfg.get("constants", {})
    if not isinstance(declared, dict):
        raise CliError("config key 'constants': expected an object of "
                       "name: number")
    constants = {**declared, **(overrides or {})}
    q_chart = _chart_from_config(cfg, "ambient")
    chart = _chart_from_config(cfg, "reduced")
    n, d = q_chart.dim, chart.dim
    m = _required(cfg, "m")
    if not (type(m) is int and 1 <= m < n and d == n - m):
        raise CliError(f"config key 'm': expected an int with n - m equal to "
                       f"the reduced dim {d} (n = {n}), got {m!r}")
    qv = _strings_of(cfg, "variables", n)
    tv = _strings_of(cfg, "theta_variables", d)
    D = _strings_of(cfg, "D", n, n)
    B = _strings_of(cfg, "B", n, m)
    Bperp = _strings_of(cfg, "Bperp", n - m, n)
    phi = _strings_of(cfg, "phi", n)
    h = _strings_of(cfg, "h", m) if "h" in cfg else None
    if not isinstance(cfg.get("P", ""), str):
        raise CliError("config key 'P': expected a string")

    try:
        P = compile_expression(cfg.get("P", "0"), qv, constants)
        phi, dphi, d2phi = compile_vector_derivatives(phi, tv, constants)
        D, dD = compile_matrix_gradient(D, qv, constants)
        B, Bperp = (compile_matrix(B, qv, constants),
                    compile_matrix(Bperp, qv, constants))
        h = None if h is None else compile_vector(h, qv, constants)
    except ExpressionError as e:
        raise CliError(f"config expression: ExpressionError: {e}") from e
    for key in overrides or {}:
        if key not in declared and key not in _constants_read(cfg, qv, tv):
            raise CliError(f"--param {key}: the config has no constant "
                           f"{key!r} and no expression reads it; its "
                           f"constants are {sorted(declared) or 'none'}")
    system = LagrangianControlSystem(
        chart=q_chart, D=D, P=P,
        gradP=lambda q: gradient(P, list(q)),
        B=B, Bperp=Bperp, m=m, h=h, dD=dD)
    par = ConstraintParametrization(chart, phi=phi, dphi=dphi, d2phi=d2phi)
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
    try:
        result = analyze(bundle, grid_n=args.grid, decision_tol=args.tol)
    except RegularityError as e:    # a singular D in the regularity check
        raise CliError(f"{type(e).__name__}: {e}") from e
    report = _base_report("analyze", bundle, args)
    report.update(result.to_dict())
    _emit(report, args.out)
    if result.verdict == VERDICT_LAGRANGIAN:
        return EXIT_OK
    if result.verdict == VERDICT_NOT_LAGRANGIAN:
        return EXIT_NOT_LAGRANGIAN
    return EXIT_UNSUPPORTED


def _parse_vec(text, dim, name):
    if not text:
        return [0.0] * dim
    vals = []
    for entry in text.split(","):
        try:
            vals.append(float(entry))
        except ValueError:
            raise CliError(f"{name}: {entry!r} is not a number") from None
    if len(vals) != dim:
        raise CliError(f"{name} needs {dim} comma-separated values")
    return vals


@contextlib.contextmanager
def _simulation_from(theta0, thdot0):
    """A simulation that fails on a singular or non-finite state is a
    CliError that names its start."""
    try:
        yield
    except (RegularityError, IntegrationError) as e:
        raise CliError(f"cannot simulate from theta0={theta0}, "
                       f"thdot0={thdot0}: {type(e).__name__}: {e}") from e


def cmd_simulate(args):
    bundle = _load_bundle(args)
    d = bundle.chart.dim
    theta0 = _parse_vec(args.theta0, d, "--theta0")
    thdot0 = _parse_vec(args.thdot0, d, "--thdot0")
    span = (0.0, args.t_final)
    t_eval = None
    if args.format == "csv":
        if not args.out:
            raise CliError("--format csv requires --out")
        t_eval = np.linspace(0.0, args.t_final, args.samples or
                             math.ceil(args.t_final / CSV_SPACING) + 1)
    elif args.samples is not None:
        raise CliError("--samples needs --format csv")
    with _simulation_from(theta0, thdot0):
        if args.full:
            traj = simulate_full(bundle.system, bundle.parametrization,
                                 theta0, thdot0, span, tol=args.tol,
                                 t_eval=t_eval)
        else:
            traj = simulate_constrained(bundle.system,
                                        bundle.parametrization, theta0,
                                        thdot0, span, tol=args.tol,
                                        t_eval=t_eval)
    names = ("q", "qd") if args.full else ("theta", "thetad")
    half = traj.states.shape[1] // 2
    columns = [f"{name}{i+1}" for name in names for i in range(half)]
    if args.format == "csv":
        _atomic_write(args.out, csv_text(traj, columns=columns))
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
        try:
            tm = loop_transport(conn.gammaC, loop, tol=args.tol)
        except DegenerateTransport as e:
            raise CliError(f"holonomy of loop {loop.tag!r}: transport map "
                           f"|det| {e.det:.3g} is not above --tol "
                           f"{args.tol:g}") from e
        except IntegrationError as e:
            raise CliError(f"holonomy of loop {loop.tag!r} is not resolved "
                           f"at --tol {args.tol:g}: {e}") from e
        report["transports"].append({
            "tag": loop.tag,
            "base_point": [float(v) for v in loop.base_point],
            "matrix": [[float(v) for v in row] for row in tm.matrix],
        })
    _emit(report, args.out)
    return EXIT_OK


def cmd_portrait(args):
    """Orbits from seeded draws of the chart's portrait axis (the first
    periodic coordinate, else the last) and its velocity; every other
    coordinate starts at the chart's base point, off its bounds."""
    bundle = _load_bundle(args)
    chart = bundle.chart
    i = chart.portrait_axis
    rng = np.random.default_rng(args.seed)
    orbits = []
    for _ in range(args.count):
        theta0 = list(chart.base_point)
        thdot0 = [0.0] * chart.dim
        theta0[i] = float(rng.uniform(0.0, 2.0 * math.pi))
        thdot0[i] = float(rng.uniform(-3.0, 3.0))
        with _simulation_from(theta0, thdot0):
            orbits += phase_portrait(bundle.system, bundle.parametrization,
                                     [(theta0, thdot0)],
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
                    help="csv rows at N uniform times (default: every "
                         f"{CSV_SPACING:g} s of simulated time)")
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
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
