#!/usr/bin/env python3
"""vhckit benchmark: time to verdict, simulation rate and transport cost.

Run from the repository root:

    python3 perfbench/run.py --workload builtin --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload config --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke

One process, one thread, one caller in a closed loop: each op starts when
the previous one and its check have finished. Timings are CPU seconds
(``time.process_time``) scaled to a fixed machine speed by ``speed.py``;
plain CPU and wall seconds are recorded beside them in the detailed report.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one replayed cycle (see ``run_traced``). The last stdout line is
the JSON result; the detailed report goes to ``perfbench/out/``.
"""

import os

# pin BLAS/OpenMP to one thread before numpy is imported anywhere
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
TAIL_PERCENTILE = 90           # the transport block makes >= 144 calls, so
                               # >= 14 lie beyond the tail
TRACE_CYCLE = 3                # a cycle with seeded params and holonomy ops

END_TO_END = {
    "setup_s": "s",
    "verdict_s.circle": "s",
    "verdict_s.sphere": "s",
    "verdict_s.dpc-a": "s",
    "verdict_s.dpc-b": "s",
    "sim_rate.reduced": "s/s",
    "sim_rate.full": "s/s",
    "portrait_orbits_per_s": "1/s",
    "transport_s.p50": "s",
    "transport_s.tail": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("builtin", "config"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="cycle 0 of each workload; check that every metric "
                        "is emitted with unit and sample count")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def import_vhckit():
    """Import vhckit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "vhckit" / "__init__.py").is_file():
        raise SystemExit(f"error: no vhckit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import vhckit
    if Path(vhckit.__file__).resolve().parent != SRC / "vhckit":
        raise SystemExit(f"error: imported vhckit from {vhckit.__file__}")


def measure_setup(probe):
    """(child CPU, w0, w1) of SETUP_REPEATS fresh interpreters importing
    ``vhckit.cli``, which pulls in every module, numpy and scipy. The run
    that writes the bytecode caches is one of them; the median drops it.
    The parent sleeps meanwhile, so the speed probe runs beside each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import vhckit.cli"]
    out = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        probe.sample()
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        w0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        w1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.append(((r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
                    w0, w1))
        probe.sample()
        probe.sample()
    return out


def environment():
    import numpy
    import scipy
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "vhckit").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "src_vhckit_lines": src_lines,      # informational, not gated
    }


class Loop:
    """Closed loop over the cycles of one workload, one caller."""

    def __init__(self, runner, seed):
        self.runner = runner
        self.seed = seed
        self.results = []
        self.failures = []
        self.attempted = 0

    def run_op(self, op):
        from workload import Result
        self.attempted += 1
        try:
            res = self.runner.run(op)
        except Exception as e:         # the op failed; count it, go on
            res = Result(op, 0.0, 0.0, 0.0,
                         errors=[f"{type(e).__name__}: {e}",
                                 traceback.format_exc(limit=-3)])
        if res.errors:
            self.failures.append({"kind": op.kind, "model": op.model,
                                  "params": op.params, "errors": res.errors})
        else:
            self.results.append(res)
        return res

    def run_ops(self, ops, deadline=None):
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            self.run_op(op)
        return True

    def run_for(self, seconds):
        """Cycles until ``seconds`` of wall time have passed, then the
        transport block; returns the number of whole cycles. The first
        cycle always completes, so that every metric has a sample."""
        from workload import TRANSPORT_LOOPS, cycle_ops, transport_ops
        deadline = time.perf_counter() + seconds
        self.run_ops(cycle_ops(self.seed, 0))
        cycle = 1
        while self.run_ops(cycle_ops(self.seed, cycle), deadline):
            cycle += 1
        self.run_ops(transport_ops(self.seed,
                                   TRANSPORT_LOOPS[self.runner.workload]))
        return cycle


def _pct(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def summarize(results, setup, probe):
    """Every end-to-end metric with its unit and sample count. ``value`` is
    CPU seconds at the probe's reference speed (``speed.py``); ``raw`` is
    the same statistic of the plain CPU seconds and ``wall`` of the wall
    seconds, both without the probe's own time."""
    def stat(timings, reduce):
        own = [(c - probe.probe_cost(a, b), a, b) for c, a, b in timings]
        cols = ([c * probe.factor(a, b) for c, a, b in own],
                [c for c, _, _ in own],
                [b - a - probe.probe_cost(a, b) for _, a, b in own])
        return tuple(reduce(col) for col in cols) + (len(timings),)

    def rate(amount):
        return lambda col: amount / sum(col)

    by = {}
    for r in results:
        by.setdefault(r.op.kind, []).append(r)
    out = {"setup_s": stat(setup, statistics.median)}
    for model in ("circle", "sphere", "dpc-a", "dpc-b"):
        rs = [r for r in by.get("verdict", []) if r.op.model == model]
        if rs:
            out[f"verdict_s.{model}"] = stat(
                [(r.cpu, r.w0, r.w1) for r in rs], statistics.median)
    for kind, name in (("reduced", "sim_rate.reduced"),
                       ("full", "sim_rate.full"),
                       ("portrait", "portrait_orbits_per_s")):
        rs = by.get(kind, [])
        if rs:
            out[name] = stat([(r.cpu, r.w0, r.w1) for r in rs],
                             rate(sum(r.amount for r in rs)))
    calls = [c for r in by.get("transport", []) for c in r.calls]
    if calls:
        out["transport_s.p50"] = stat(calls, statistics.median)
        out["transport_s.tail"] = stat(
            calls, lambda col: _pct(col, TAIL_PERCENTILE))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss, rss, None, 1)
    return {k: {"value": v, "unit": END_TO_END[k], "samples": n, "raw": raw,
                "wall": w} for k, (v, raw, w, n) in out.items()}


def _write_report(name, report):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def _print_table(metrics):
    for name, m in metrics.items():
        wall = "" if m["wall"] is None else f"  wall {m['wall']:.6g}"
        print(f"  {name:26s} {m['value']:10.6g} {m['unit']:4s} "
              f"n={m['samples']:<4d} raw {m['raw']:.6g}{wall}")


def run_untraced(args, scratch, smoke=False):
    import workload
    from speed import REF_KERNEL_S, SpeedProbe
    probe = SpeedProbe()
    setup = measure_setup(probe)
    runner = workload.Runner(args.workload, scratch,
                             str(ROOT / "tests" / "golden"))
    loop = Loop(runner, args.seed)
    # start-up objects go to the permanent generation, so collections in
    # the ops scan only what the ops allocate
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    probe.start()
    try:
        if smoke:
            loop.run_ops(workload.cycle_ops(args.seed, 0)
                         + workload.transport_ops(args.seed, 1))
            cycles = 1
        else:
            cycles = loop.run_for(args.seconds)
    finally:
        probe.stop()
    elapsed = time.perf_counter() - t0
    metrics = summarize(loop.results, setup, probe)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": 0, "cycles": cycles,
              "measured_wall_s": elapsed, "attempted": loop.attempted,
              "failed": len(loop.failures),
              "fail_frac": len(loop.failures) / max(1, loop.attempted),
              "failures": loop.failures[:20],
              "tail_percentile": TAIL_PERCENTILE,
              "probe": {"runs": len(probe.kernel_s),
                        "kernel_s_median": statistics.median(probe.kernel_s),
                        "ref_kernel_s": REF_KERNEL_S},
              "environment": environment(), "metrics": metrics}
    return loop, metrics, report


def run_traced(args, scratch):
    """One untraced and one traced pass over the same ops (cycle
    TRACE_CYCLE and two transport loops per model): exact counts that
    repeat for a seed, self times, and the tracing overhead."""
    import workload
    from layers import LAYERS, UNREACHED
    from tracer import Tracer
    tracer = Tracer()
    runner = workload.Runner(args.workload, scratch,
                             str(ROOT / "tests" / "golden"),
                             pause=tracer.pause, resume=tracer.resume)
    loop = Loop(runner, args.seed)
    ops = (workload.cycle_ops(args.seed, TRACE_CYCLE)
           + workload.transport_ops(args.seed, 2))
    loop.run_ops(ops)
    untraced = sum(r.cpu for r in loop.results)
    n_untraced = len(loop.results)
    tracer.install(extra_modules=[workload])
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            tracer.resume()
            try:
                loop.run_op(op)
            finally:
                tracer.pause()
    finally:
        tracer.uninstall()
    traced = sum(r.cpu for r in loop.results[n_untraced:])
    overhead = (traced - untraced) / untraced
    missing = tracer.missing(args.workload)
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    n_spans = tracer.dump(span_path)
    metrics = tracer.metrics(overhead)
    report = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "cycle": TRACE_CYCLE, "attempted": loop.attempted,
              "failed": len(loop.failures), "failures": loop.failures[:20],
              "untraced_cpu_s": untraced, "traced_cpu_s": traced,
              "coverage_missing": missing, "import_sites": tracer.sites,
              "predictions": {mod: row[2] for mod, row in LAYERS.items()},
              "unreached": UNREACHED,
              "spans": n_spans, "span_file": str(span_path.relative_to(ROOT)),
              "environment": environment(),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return loop, metrics, missing, report


def main(argv=None):
    args = parse_args(argv)
    import_vhckit()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.smoke:
            return smoke(args, str(scratch))
        if args.trace:
            loop, metrics, missing, report = run_traced(args, str(scratch))
            if missing:
                print("coverage check failed; never fired: "
                      + ", ".join(missing))
            correct = not loop.failures and not missing
            values = {k: {"value": v, "unit": u}
                      for k, (v, u) in metrics.items()}
        else:
            loop, metrics, report = run_untraced(args, str(scratch))
            _print_table(metrics)
            correct = not loop.failures
            values = {k: {"value": m["value"], "unit": m["unit"]}
                      for k, m in metrics.items()}
        for f in loop.failures[:5]:
            print(f"FAILED {f['kind']} {f['model']} {f['params']}: "
                  f"{'; '.join(f['errors'])}")
        path = _write_report(f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json", report)
        print(f"report: {path.relative_to(ROOT)}")
        print(json.dumps({"correct": correct, "attempted": loop.attempted,
                          "failed": len(loop.failures), "metrics": values}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def smoke(args, scratch):
    """Cycle 0 and one transport loop per model, per workload: every
    end-to-end metric must be emitted with a unit and a sample count, and
    every op must pass its check."""
    ok = True
    for name in ("builtin", "config"):
        args.workload = name
        loop, metrics, _ = run_untraced(args, scratch, smoke=True)
        print(f"{name}:")
        _print_table(metrics)
        for key, unit in END_TO_END.items():
            m = metrics.get(key)
            if m is None or m["unit"] != unit or m["samples"] < 1:
                print(f"SMOKE FAIL {name}: {key} missing or malformed")
                ok = False
        for f in loop.failures:
            print(f"SMOKE FAIL {name}: {f}")
            ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
