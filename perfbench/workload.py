"""Seeded op streams for the two workloads, the ops themselves, and the
correctness check run on every op outside its timed region.

A run is a sequence of cycles, then a transport block. One cycle holds one
op of each of these kinds in a fixed rotation:

* ``verdict``: analyze circle (five times), sphere, dpc-a and dpc-b;
* ``reduced``: ``simulate_constrained`` on circle, dpc-b (twice) and sphere;
* ``full``: ``simulate_full`` on dpc-b, three times on the manifold and once
  perturbed off it;
* ``portrait``: ``phase_portrait`` on dpc-a from the criterion-11 starts and
  their mirror images;
* ``holonomy``: generator ``loop_transport`` on circle(0.3) and dpc-b,
  every third cycle.

The transport block holds a fixed number of ``transport`` ops: polyline
loops on circle(0.3), sphere and dpc-b, so every run of a seed times the
same ``transport_matrix`` calls.

``builtin`` builds each op's model with ``get_model`` and analyzes it with
``pipeline.analyze``; ``config`` builds it from the JSON twin in
``configs.py`` and analyzes it in-process through ``cli.main``. Every input
is a pure function of (seed, cycle), so a cycle can be replayed exactly.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from vhckit.calculus import CurveSampler, line_segment
from vhckit.cli import bundle_from_config, main as cli_main
from vhckit.dual import real
from vhckit.holonomy import loop_transport, reverse_path, transport_matrix
from vhckit.models import get_model
from vhckit.pipeline import analyze
from vhckit.sim import (phase_portrait, reduced_energy, simulate_constrained,
                        simulate_full)
from vhckit.vhc import induced_connection

from configs import CONFIGS

WORKLOADS = ("builtin", "config")
TWO_PI = 2.0 * math.pi
A_STAR = (math.sqrt(2.0) - 2.0) / 3.0      # dpc-b frame value that closes
CIRCLE_OPS = 5                             # circle analyses per cycle
# polyline loops per model per run: a config call costs about four builtin
# ones, and builtin's cheap calls need more samples to steady the tail
TRANSPORT_LOOPS = {"builtin": 24, "config": 8}
HOLONOMY_EVERY = 3
SIM_TOL = 1e-9
T_REDUCED = {"circle": 4.0, "sphere": 4.0, "dpc-b": 2.0}   # two dpc-b ops
T_FULL_ON = 1.0
T_FULL_OFF = 3.0
T_PORTRAIT = 4.0
GAINS = (16.0, 8.0)
# the criterion-11 starts, then their mirror images: dpc is symmetric under
# q -> -q, so the mirrored orbits have the same kinds
CRITERION_11 = [([0.0, math.pi], [0.0, 0.5]),    # rocking
                ([0.0, 0.0], [0.0, 6.0]),        # rotating
                ([0.0, math.pi], [0.0, -0.5]),   # rocking
                ([0.0, 0.0], [0.0, -6.0])]       # rotating
DEFAULT_PARAMS = {"circle": {"alpha": 0.0}, "sphere": {},
                  "dpc-a": {"gravity": 9.81}, "dpc-b": {"gravity": 9.81}}

# Low-discrepancy draws: stream s at cycle c is frac(u_s + c * step_s), with
# u_s drawn from the seed. Each run's few draws then cover their range
# evenly, so per-run medians do not hinge on a lucky or unlucky draw.
_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                       31, 37, 41, 43, 47, 53, 59, 61, 67,
                                       71, 73, 79, 83, 89, 97, 101, 103, 107,
                                       109, 113, 127, 131)]


class Draws:
    def __init__(self, seed, cycle):
        self.u = np.random.default_rng([seed, 1]).random(len(_STEPS))
        self.cycle = cycle
        self.next = 0

    def stream(self):
        """A fresh stream: draw(lo, hi, k) is its point k in [lo, hi)."""
        s = self.next
        self.next += 1

        def draw(lo, hi, k):
            return float(lo + (hi - lo) * ((self.u[s] + k * _STEPS[s]) % 1.0))

        return draw

    def uniform(self, lo, hi, index=None):
        return self.stream()(lo, hi, self.cycle if index is None else index)


@dataclass
class Op:
    kind: str
    model: str
    params: dict = field(default_factory=dict)
    args: dict = field(default_factory=dict)


def _kronecker(u, k, dim):
    """Point k of the additive recurrence frac(u + k * alpha) in [0, 1)^dim,
    alpha from the generalized golden ratio: a quasi-random sequence whose
    first n points cover the cube evenly."""
    g = 2.0
    for _ in range(30):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return [(u[j] + k * (1.0 / g) ** (j + 1)) % 1.0 for j in range(dim)]


def _polyline(chart, u, k):
    """Closed polyline of criterion 8: interior base, one or two midpoints
    (alternating) at a fixed distance from it in seeded directions, back to
    the base. Point k of a quasi-random sequence offset by the seed; the
    fixed leg length keeps the cost of a call from hinging on the draw."""
    d = chart.dim
    x = _kronecker(u, k, d + 2)
    width = [hi - lo for lo, hi in chart.bounds]
    base = [float(lo + 0.15 * w + 0.7 * w * x[i])
            for i, ((lo, _), w) in enumerate(zip(chart.bounds, width))]
    mids = []
    for m in range(1 + k % 2):
        phi = 2.0 * math.pi * x[d + m]
        step = [math.cos(phi)] if d == 1 else [math.cos(phi), math.sin(phi)]
        mids.append([float(min(max(b + 0.2 * w * s, lo + 0.05 * w),
                               hi - 0.05 * w))
                     for b, s, w, (lo, hi) in zip(base, step, width,
                                                  chart.bounds)])
    return [base] + mids + [base]


_CHARTS = {name: get_model(name).chart for name in ("circle", "sphere",
                                                    "dpc-b")}


def cycle_ops(seed, cycle):
    """The ops of one cycle; the same (seed, cycle) gives the same ops."""
    dr = Draws(seed, cycle)
    ops = []
    first = cycle == 0
    # verdicts: cycle 0 runs the default parameters, which have goldens
    u_circle = [dr.uniform(-0.5, 0.5, index=2 * cycle + j) for j in range(2)]
    for k in range(CIRCLE_OPS):
        alpha = 0.0 if k % 2 == 0 else u_circle[k // 2]
        ops.append(Op("verdict", "circle", {"alpha": alpha}))
    ops.append(Op("verdict", "sphere"))
    for name in ("dpc-a", "dpc-b"):
        g = dr.uniform(4.0, 20.0)
        ops.append(Op("verdict", name, {"gravity": 9.81 if first else g}))
    # reduced simulations from seeded starts
    ops.append(Op("reduced", "circle", {"alpha": 0.0},
                  {"theta0": [dr.uniform(0.0, TWO_PI)],
                   "thdot0": [dr.uniform(0.5, 2.0)]}))
    x1, x2, v1, v2 = (dr.stream() for _ in range(4))
    for k in (2 * cycle, 2 * cycle + 1):
        ops.append(Op("reduced", "dpc-b", {"gravity": 9.81},
                      {"theta0": [x1(-0.5, 0.5, k), x2(0.0, TWO_PI, k)],
                       "thdot0": [v1(-0.2, 0.2, k), v2(-0.6, 0.6, k)]}))
    ops.append(Op("reduced", "sphere", {},
                  {"theta0": [dr.uniform(0.8, 2.3), dr.uniform(-1.0, 1.0)],
                   "thdot0": [dr.uniform(-0.3, 0.3), dr.uniform(0.4, 1.0)]}))
    # full closed loop on dpc-b: three short runs on the manifold, then a
    # perturbed q3 long enough for the feedback to pull it back
    x1, x2, v1, v2 = (dr.stream() for _ in range(4))
    for j in range(4):
        k = 4 * cycle + j
        args = {"theta0": [x1(-0.3, 0.3, k), x2(0.0, TWO_PI, k)],
                "thdot0": [v1(-0.2, 0.2, k), v2(-0.5, 0.5, k)],
                "t_final": T_FULL_ON, "perturbation": None}
        if j == 3:
            sign = 1.0 if cycle % 2 == 0 else -1.0
            args["t_final"] = T_FULL_OFF
            args["perturbation"] = ([0.0, 0.0, sign * dr.uniform(0.02, 0.1)],
                                    [0.0, 0.0, 0.0])
        ops.append(Op("full", "dpc-b", {"gravity": 9.81}, args))
    ops.append(Op("portrait", "dpc-a", {"gravity": 9.81},
                  {"ics": CRITERION_11}))
    # every third cycle the generator loops
    if cycle % HOLONOMY_EVERY == 0:
        ops.append(Op("holonomy", "circle", {"alpha": 0.3}))
        ops.append(Op("holonomy", "dpc-b", {"gravity": 9.81}))
    return ops


def transport_ops(seed, loops_per_model):
    """The transport block of a run: a fixed number of polyline loops on
    circle(0.3), sphere and dpc-b, interleaved by model."""
    u = np.random.default_rng([seed, 2]).random(4)
    ops = []
    for k in range(loops_per_model):
        for name, params in (("circle", {"alpha": 0.3}), ("sphere", {}),
                             ("dpc-b", {"gravity": 9.81})):
            ops.append(Op("transport", name, params,
                          {"points": _polyline(_CHARTS[name], u, k)}))
    return ops


def _polyline_sampler(points):
    """One CurveSampler over the whole closed polyline, as in criterion 8:
    at an interior knot t = i it already returns segment i's velocity, so
    the last stage of each piece but the final one sees the next segment's
    direction, and the adaptive step control pays for it."""
    k = len(points) - 1

    def fn(t):
        i = min(int(t), k - 1)
        s = t - i
        p, q = points[i], points[i + 1]
        return ([a + s * (b - a) for a, b in zip(p, q)],
                [b - a for a, b in zip(p, q)])

    return CurveSampler(fn, 0.0, float(k),
                        breakpoints=tuple(float(i) for i in range(1, k)))


def _approx_equal(a, b, rel=1e-6, abs_tol=1e-9):
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _approx_equal(a[k], b[k], rel, abs_tol) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
    return a == b


def _expected_verdict(name, params):
    if name == "circle":
        return "lagrangian" if params["alpha"] == 0.0 else "not-lagrangian"
    return "not-lagrangian" if name == "dpc-a" else "lagrangian"


class Clock:
    """CPU seconds and wall interval [w0, w1] of one timed region."""

    def __enter__(self):
        self.cpu0 = time.process_time()
        self.w0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = time.process_time() - self.cpu0
        self.w1 = time.perf_counter()
        return False


@dataclass
class Result:
    """Timings of one op and the checks it failed. ``calls`` holds the
    (cpu, w0, w1) of each transport_matrix call."""

    op: Op
    cpu: float
    w0: float
    w1: float
    amount: float = 0.0        # simulated seconds, or classified orbits
    calls: list = field(default_factory=list)
    output: object = None
    errors: list = field(default_factory=list)


class Runner:
    """Runs ops of one workload and checks their outputs.

    ``pause`` and ``resume`` bracket work that is not part of an op (checks
    and reference analyses), so a tracer attached to the runner records ops
    only.
    """

    def __init__(self, workload, scratch, golden_dir, pause=None, resume=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.config = workload == "config"
        self.scratch = scratch
        self.golden_dir = golden_dir
        self.pause = pause or (lambda: None)
        self.resume = resume or (lambda: None)
        self._refs = {}
        self._config_paths = {}
        self._generators = {
            "circle": get_model("circle", alpha=0.3).generators[0],
            "dpc-b": get_model("dpc-b").generators[0]}

    # -- model construction (inside the timed region) ----------------------
    def _bundle(self, name, params):
        if self.config:
            return bundle_from_config(CONFIGS[name], overrides=params)
        return get_model(name, **params)

    def _config_path(self, name):
        path = self._config_paths.get(name)
        if path is None:
            path = os.path.join(self.scratch, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(CONFIGS[name], fh)
            self._config_paths[name] = path
        return path

    def _reference(self, name):
        """Reconstructed (D_C, P_C) of a built-in model at default
        parameters, for the energy checks: taken from a builtin verdict op
        when one has run, else analyzed here."""
        ref = self._refs.get(name)
        if ref is None:
            res = analyze(get_model(name))
            ref = (res.artifacts["D_C"], res.artifacts["P_C"])
            self._refs[name] = ref
        return ref

    # -- ops ---------------------------------------------------------------
    def run(self, op):
        res = getattr(self, "_" + op.kind)(op)
        self.pause()
        try:
            res.errors = getattr(self, "_check_" + op.kind)(op, res.output)
        except Exception as e:          # a crashing check fails the op
            res.errors = [f"check raised {type(e).__name__}: {e}"]
        finally:
            self.resume()
        return res

    def _verdict(self, op):
        if self.config:
            out_path = os.path.join(self.scratch, "report.json")
            argv = ["analyze", "--config", self._config_path(op.model),
                    "--out", out_path]
            for k, v in op.params.items():
                argv += ["--param", f"{k}={v!r}"]
            with Clock() as c:
                code = cli_main(argv)
            with open(out_path) as fh:
                report = json.load(fh)
            report["exit_code"] = code
        else:
            with Clock() as c:
                result = analyze(get_model(op.model, **op.params))
            report = result.to_dict()
            if op.params == DEFAULT_PARAMS[op.model] and "D_C" in \
                    result.artifacts:
                self._refs.setdefault(op.model, (result.artifacts["D_C"],
                                                 result.artifacts["P_C"]))
        return Result(op, c.cpu, c.w0, c.w1,
                      output=report)

    def _reduced(self, op):
        a = op.args
        t_final = T_REDUCED[op.model]
        with Clock() as c:
            b = self._bundle(op.model, op.params)
            traj = simulate_constrained(b.system, b.parametrization,
                                        a["theta0"], a["thdot0"],
                                        (0.0, t_final), tol=SIM_TOL,
                                        max_step=0.5)
        return Result(op, c.cpu, c.w0, c.w1, amount=t_final,
                      output=traj)

    def _full(self, op):
        a = op.args
        with Clock() as c:
            b = self._bundle(op.model, op.params)
            traj = simulate_full(b.system, b.parametrization, a["theta0"],
                                 a["thdot0"], (0.0, a["t_final"]),
                                 gains=GAINS, tol=SIM_TOL, max_step=0.05,
                                 perturbation=a["perturbation"])
        return Result(op, c.cpu, c.w0, c.w1, amount=a["t_final"],
                      output=(traj, b.system))

    def _portrait(self, op):
        with Clock() as c:
            b = self._bundle(op.model, op.params)
            orbits = phase_portrait(b.system, b.parametrization,
                                    op.args["ics"], t_final=T_PORTRAIT,
                                    coord=1, max_step=0.1)
        return Result(op, c.cpu, c.w0, c.w1, amount=len(orbits),
                      output=[o.kind for o in orbits])

    def _transport(self, op):
        pts = op.args["points"]
        calls = []

        def timed(gamma, path, d):
            with Clock() as t:
                M = transport_matrix(gamma, path, d)
            calls.append((t.cpu, t.w0, t.w1))
            return M

        with Clock() as c:
            b = self._bundle(op.model, op.params)
            gamma = induced_connection(b.system, b.parametrization).gammaC
            d = b.chart.dim
            segs = [line_segment(p, q) for p, q in zip(pts[:-1], pts[1:])]
            mats = [timed(gamma, s, d) for s in segs]
            whole = timed(gamma, _polyline_sampler(pts), d)
            back = [timed(gamma, reverse_path(s), d) for s in reversed(segs)]
        return Result(op, c.cpu, c.w0, c.w1, calls=calls,
                      output=(mats, whole, back, d))

    def _holonomy(self, op):
        with Clock() as c:
            b = self._bundle(op.model, op.params)
            conn = induced_connection(b.system, b.parametrization)
            tm = loop_transport(conn.gammaC, self._generators[op.model])
        return Result(op, c.cpu, c.w0, c.w1,
                      output=tm.matrix)

    # -- checks (outside the timed region) ---------------------------------
    def _check_verdict(self, op, report):
        errs = []
        want = _expected_verdict(op.model, op.params)
        if report["verdict"] != want:
            errs.append(f"verdict {report['verdict']!r}, expected {want!r}")
        if self.config:
            code = {"lagrangian": 0, "not-lagrangian": 3}[want]
            if report["exit_code"] != code:
                errs.append(f"exit code {report['exit_code']}, want {code}")
        det = report["details"]
        if op.params == DEFAULT_PARAMS[op.model]:
            with open(os.path.join(self.golden_dir,
                                   f"{op.model}.json")) as fh:
                golden = json.load(fh)
            if self.config and "gauge_b" in golden["details"]:
                # a config has no field for the built-in gauge hint
                golden["details"]["gauge_b"] = det.get("gauge_b")
            for key in ("verdict", "metrizable", "details"):
                if not _approx_equal(report[key], golden[key]):
                    errs.append(f"{key} deviates from the golden report")
        if op.model == "circle" and op.params["alpha"] != 0.0:
            want_int = -TWO_PI * math.tan(op.params["alpha"])
            if report["metrizable"] or abs(det["int_psi2"] - want_int) > 1e-9:
                errs.append(f"int_psi2 {det['int_psi2']!r} != {want_int!r}")
        if op.model == "dpc-a" and not report["metrizable"]:
            errs.append("dpc-a not metrizable")
        if op.model == "dpc-b" and abs(det["a"] - A_STAR) > 1e-6:
            errs.append(f"dpc-b frame value a = {det['a']!r}")
        return errs

    def _check_reduced(self, op, traj):
        # five states spread over the orbit, the last included: evaluating
        # the sphere's reconstructed metric integrates one line-integral leg
        # per state, so every extra state costs a fraction of a second
        states = traj.states
        idx = sorted(set(np.linspace(0, len(states) - 1, 5).astype(int)))
        d = len(op.args["theta0"])
        if op.model == "circle":
            e0 = traj.diagnostics["energy0"]
            drift = traj.diagnostics["energy_drift"]
        else:
            D_C, P_C = self._reference(op.model)
            e0 = reduced_energy(D_C, P_C, list(states[0][:d]),
                                list(states[0][d:]))
            drift = max(abs(reduced_energy(D_C, P_C, list(states[i][:d]),
                                           list(states[i][d:])) - e0)
                        for i in idx)
        rel = drift / max(1.0, abs(e0))
        return [] if rel < 1e-6 else [f"relative energy drift {rel:.3g}"]

    def _check_full(self, op, output):
        traj, sys_ = output
        if op.args["perturbation"] is None:
            h = traj.diagnostics["max_h"]
            return [] if h < 1e-6 else [f"max_h {h:.3g} on the manifold"]
        q_end = list(traj.end_state[:sys_.n])
        h_end = abs(float(real(sys_.h(q_end)[0])))
        if h_end < 1e-4:
            return []
        return [f"|h(T)| {h_end:.3g} after perturbation"]

    def _check_portrait(self, op, kinds):
        if kinds != ["rocking", "rotating"] * 2:
            return [f"criterion-11 orbits classified {kinds}"]
        return []

    def _check_transport(self, op, output):
        mats, whole, back, d = output
        M = np.eye(d)
        for m in mats:
            M = m @ M
        Mr = np.eye(d)
        for m in back:
            Mr = m @ Mr
        errs = []
        dev = float(np.max(np.abs(whole - M)))
        if not dev < 1e-8:
            errs.append(f"concatenation law off by {dev:.3g}")
        dev = float(np.max(np.abs(Mr @ M - np.eye(d))))
        if not dev < 1e-8:
            errs.append(f"inverse law off by {dev:.3g}")
        return errs

    def _check_holonomy(self, op, M):
        if op.model == "circle":
            want = math.exp(-TWO_PI * math.tan(op.params["alpha"]))
            ok = math.isclose(float(M[0][0]), want, rel_tol=1e-8)
            return [] if ok else [f"circle holonomy {M[0][0]!r} != {want!r}"]
        dev = float(np.max(np.abs(M - np.eye(2))))
        if dev < 1e-7:
            return []
        return [f"dpc-b holonomy off identity by {dev:.3g}"]
