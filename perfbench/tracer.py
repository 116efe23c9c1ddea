"""Outside-in tracer: wraps the public functions of each ``vhckit`` module at
every import site, records one span per call and counts work at the layer
boundaries. Nothing under ``src/`` changes; ``uninstall`` puts every
original back.

A span is (name, start, end, parent span, op id), with CPU-time stamps from
``time.process_time``. Spans live in compact arrays while the run lasts and
are written once, by ``dump``. Recording happens only while ``active`` is
true, so the benchmark pauses the tracer around its own checks.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from layers import COUNTERS, LAYERS, expected_on, functions


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self.calls = []
        self.self_s = []
        self.sites = {}
        self.stack = []         # [span id, CPU covered by child spans]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.dual_ops = 0
        self.dual_deep = 0
        self.rhs_evals = 0
        self.quad_evals = 0
        self.memo_lookups = 0
        self.memo_hits = 0
        self.expr_evals = 0
        self._undo = []

    def pause(self):
        self.active = False

    def resume(self):
        self.active = True

    # -- spans ---------------------------------------------------------------
    def _call(self, idx, fn, args, kwargs):
        stack = self.stack
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        frame = [sid, 0.0]
        stack.append(frame)
        self.calls[idx] += 1
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.process_time()
            stack.pop()
            self.span_start[sid] = t0
            self.span_end[sid] = t1
            self.self_s[idx] += (t1 - t0) - frame[1]
            if stack:
                stack[-1][1] += t1 - t0

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                args = hook(tracer, args)
            return tracer._call(idx, fn, args, kwargs)

        if name == "expr.compile_expression":
            def compiled(*args, **kwargs):
                return _count_evals(tracer, wrapper(*args, **kwargs))
            return functools.update_wrapper(compiled, fn)
        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------------
    def install(self, extra_modules=()):
        """Wrap every function of ``layers.LAYERS`` in every ``vhckit``
        module and in ``extra_modules`` that imported it, and count Dual
        constructions."""
        for mod in LAYERS:
            importlib.import_module("vhckit." + mod)
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "vhckit" or n.startswith("vhckit.")]
        mods += list(extra_modules)
        for mod, attr in functions():
            name = f"{mod}.{attr}"
            owner = sys.modules["vhckit." + mod]
            sites = self.sites.setdefault(name, [])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                sites.append(f"{mod}.{attr}")
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)
                        sites.append(f"{m.__name__}.{key}")
        self._count_duals()

    def _patch(self, holder, key, orig, new):
        setattr(holder, key, new)
        self._undo.append((holder, key, orig))

    def _count_duals(self):
        from vhckit.dual import Dual
        tracer = self

        def __init__(obj, val, eps=0.0):
            obj.val = val
            obj.eps = eps
            if tracer.active:
                tracer.dual_ops += 1
                if type(val) is Dual:
                    tracer.dual_deep += 1

        self._patch(Dual, "__init__", Dual.__dict__["__init__"], __init__)

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------
    def missing(self, workload):
        """Wrapped functions that never fired on a workload the layer table
        assigns them to (a missed import site shows up here)."""
        out = [] if self.dual_ops else ["dual.ops"]
        for mod, attr in functions():
            name = f"{mod}.{attr}"
            if (workload in expected_on(mod, attr)
                    and not self.calls[self.names.index(name)]):
                out.append(name)
        return out

    def metrics(self, overhead_frac):
        """Every per-layer metric as (value, unit), in the order of
        ``layers.per_layer_metric_names``."""
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[i], "count")
            out[name + ".self_s"] = (self.self_s[i], "s")
        counters = {
            "dual.ops": self.dual_ops,
            "dual.ops.depth2plus": self.dual_deep,
            "calculus.integrate_ode.rhs_evals": self.rhs_evals,
            "calculus.quad.evals": self.quad_evals,
            "manifold.memo_hit_ratio": (self.memo_hits / self.memo_lookups
                                        if self.memo_lookups else 0.0),
            "expr.evals": self.expr_evals,
            "trace.overhead_frac": overhead_frac,
        }
        for name, (unit, _) in COUNTERS.items():
            out[name] = (counters[name], unit)
        return out

    def dump(self, path):
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32))
        return len(self.span_name)


# -- counters taken from a wrapped call's arguments ---------------------------

def _count_rhs(tracer, args):
    rhs = args[0]

    def counted(t, x):
        tracer.rhs_evals += 1
        return rhs(t, x)

    return (counted,) + tuple(args[1:])


def _count_quad(tracer, args):
    f = args[0]

    def counted(x):
        tracer.quad_evals += 1
        return f(x)

    return (counted,) + tuple(args[1:])


def _count_memo(tracer, args):
    coeffs, x = args[0], args[1]
    from vhckit.dual import Dual
    if not any(isinstance(c, Dual) for c in x):
        tracer.memo_lookups += 1
        if tuple(float(c) for c in x) in coeffs._cache:
            tracer.memo_hits += 1
    return args


def _count_evals(tracer, fn):
    def counted(values):
        if tracer.active:
            tracer.expr_evals += 1
        return fn(values)

    counted.source = getattr(fn, "source", None)
    return counted


_HOOKS = {
    "calculus.integrate_ode": _count_rhs,
    "calculus.quad": _count_quad,
    "manifold.ConnectionCoeffs.__call__": _count_memo,
}
