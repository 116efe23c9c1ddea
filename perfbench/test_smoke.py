"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import per_layer_metric_names  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == per_layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == ["builtin", "config"]


def test_tracer_counts_calls_and_self_time_at_every_site():
    from vhckit import calculus, linalg, models, vhc
    tracer = Tracer()
    tracer.install()
    try:
        assert "vhckit.sim.integrate_ode" in tracer.sites[
            "calculus.integrate_ode"]
        tracer.resume()
        linalg.inverse([[2.0, 0.0], [0.0, 4.0]])
        bundle = models.get_model("circle", alpha=0.3)
        vhc.induced_christoffels(bundle.system, bundle.parametrization, [0.5])
        assert calculus.partial(lambda x: x[0] * x[0], [3.0], 0) == 6.0
        tracer.pause()
        linalg.inverse([[1.0]])                 # paused: not recorded
    finally:
        tracer.uninstall()
    assert linalg.inverse.__module__ == "vhckit.linalg"
    m = tracer.metrics(0.0)
    assert m["linalg.inverse.calls"][0] == 1
    assert m["linalg.solve.calls"][0] == 2      # inverse's, reduction_matrix's
    assert m["vhc.reduction_matrix.calls"][0] == 1
    assert m["models.get_model.calls"][0] == 1
    assert list(m) == per_layer_metric_names()
    assert m["calculus.partial.calls"][0] == 1
    assert m["dual.ops"][0] >= 1
    # self times partition the traced spans: no negative self time
    assert all(v >= 0.0 for k, (v, _) in m.items() if k.endswith(".self_s"))
    parents = set(tracer.span_parent) - {-1}
    assert parents <= set(range(len(tracer.span_name)))


def test_traced_counts_repeat_exactly():
    from vhckit import models, pipeline
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.resume()
            pipeline.analyze(models.get_model("dpc-a", gravity=12.0))
            tracer.pause()
        finally:
            tracer.uninstall()
        counts.append({k: v for k, (v, unit) in tracer.metrics(0.0).items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["metrize2d.cylinder_lagrangian_search.calls"] == 1
    assert counts[0]["dual.ops"] > 0


def test_smoke_mode_emits_every_metric_and_passes_checks():
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                       capture_output=True, text=True, timeout=900, cwd=ROOT)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.strip().endswith("smoke: ok")
