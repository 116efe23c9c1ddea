"""The layers the traced run measures, where each must fire, and what each is
expected to move. The predictions were written down before the first
measurement; a change that claims a gain in a layer names the end-to-end
metric and workload from this table.

Layer names are the ``src/vhckit`` module names. Every function below is
wrapped at every import site (``pipeline.recurrence_solve``,
``sim.integrate_ode``, ``holonomy.quad``, ...), and the traced run reports
``<module>.<function>.calls`` (an exact count) and ``.self_s`` (CPU seconds
of its spans minus the part covered by child spans).
"""

BOTH = ("builtin", "config")

# module -> (functions wrapped, workloads each must fire on, prediction)
LAYERS = {
    "dual": ((), BOTH,
             "Dual constructions (dual.ops, dual.ops.depth2plus) move "
             "verdict_s.sphere and sim_rate.full on both workloads; the "
             "transport calls of builtin build none"),
    "linalg": (("solve", "inverse"), BOTH,
               "transport_s.* and verdict_s.*"),
    "calculus": (("integrate_ode", "quad", "partial", "second_partial",
                  "vector_partial", "jacobian", "matrix_partial"), BOTH,
                 "integrate_ode/quad (with .rhs_evals/.evals) move sim_rate.* "
                 "and transport_s.*; the derivative towers move verdict_s.*, "
                 "most on config"),
    "manifold": (("curvature_coeffs", "ricci", "total_cov_derivative_02",
                  "christoffel_from_metric", "max_curvature_on_grid",
                  "ConnectionCoeffs.__call__"), BOTH,
                 "verdict_s.sphere (and memo_hit_ratio with it)"),
    "vhc": (("check_regularity", "orthogonality_check",
             "induced_christoffels", "reduced_potential", "reduction_matrix",
             "psi_functions", "constrained_rhs", "stabilizing_feedback"), BOTH,
            "verdict_s.*; constrained_rhs moves sim_rate.reduced and "
            "portrait_orbits_per_s; stabilizing_feedback moves sim_rate.full; "
            "induced_christoffels moves transport_s.*"),
    "holonomy": (("transport_matrix", "loop_transport", "lagrangian_1d",
                  "cylinder_integrals", "PeriodicAntiderivative.__init__",
                  "WindowAntiderivative.extend"), BOTH,
                 "transport_s.*; the antiderivatives move verdict_s.dpc-* "
                 "and verdict_s.circle"),
    "metrize2d": (("recurrence_solve", "exactness_check", "metric_from_ricci",
                   "cylinder_lagrangian_search", "LineIntegralField._leg"),
                  BOTH, "verdict_s.sphere, verdict_s.dpc-*"),
    "sim": (("simulate_constrained", "simulate_full", "phase_portrait",
             "reduced_energy"), BOTH,
            "sim_rate.*, portrait_orbits_per_s"),
    "pipeline": (("analyze",), BOTH,
                 "verdict_s.* (self time is the inline closedness loop and "
                 "glue)"),
    "expr": (("compile_expression", "compile_vector", "compile_matrix"),
             ("config",),
             "verdict_s.* and every other metric on config only; no change "
             "on builtin"),
    "cli": (("main",), ("config",),
            "verdict_s.* on config only (cli.main self time)"),
    "models": (("get_model",), ("builtin",),
               "verdict_s.* and setup_s"),
}

# functions that fire on fewer workloads than the rest of their layer:
# only the config path takes gradients of an expression potential
ONLY_ON = {"calculus.partial": ("config",)}

# counters read at layer boundaries, beside the per-function calls/self_s
COUNTERS = {
    "dual.ops": ("count", "Dual constructions"),
    "dual.ops.depth2plus": ("count", "Dual constructions nested two or more "
                                     "levels deep"),
    "calculus.integrate_ode.rhs_evals": ("count", "ODE right-hand-side "
                                                  "evaluations"),
    "calculus.quad.evals": ("count", "quadrature integrand evaluations"),
    "manifold.memo_hit_ratio": ("ratio", "ConnectionCoeffs float-point memo "
                                         "hits over lookups"),
    "expr.evals": ("count", "compiled expression evaluations"),
    "trace.overhead_frac": ("ratio", "traced minus untraced CPU of the "
                                     "same cycle, over untraced"),
}

# paths no workload reaches, so no metric here can show a change in them
UNREACHED = {
    "holonomy.flat_metrizability": "no built-in model is flat and simply "
                                   "connected, so pipeline never calls it "
                                   "(nor _sphere_sweep)",
    "calculus.integrate_ode rk4 branch": "every caller in the workloads "
                                         "uses the adaptive rk45 default",
}


def expected_on(mod, attr):
    """Workloads on which the coverage check requires a function to fire."""
    return ONLY_ON.get(f"{mod}.{attr}", LAYERS[mod][1])


def functions():
    """(module, attribute path) of every wrapped function."""
    return [(mod, attr) for mod, (attrs, _, _) in LAYERS.items()
            for attr in attrs]


def per_layer_metric_names():
    names = []
    for mod, attr in functions():
        names += [f"{mod}.{attr}.calls", f"{mod}.{attr}.self_s"]
    return names + list(COUNTERS)
