"""Spans around the public functions of ``sparse_ou``, recorded from outside.

A traced pass replaces each call site listed in ``PATCH_POINTS`` with a
wrapper that records a span (name, parent, start, end, attributes) in memory.
Nothing inside the package changes; the wrappers are removed when the pass
ends. Self time is a span's duration minus the durations of its children.
"""

import collections
import contextlib
import functools
import importlib
import math
import time

# (module, attribute, span name). The module is the namespace the caller
# looks the function up in, so patching it there catches every call.
PATCH_POINTS = (
    ("sparse_ou.cli", "run_experiment", "experiments.run"),
    ("sparse_ou.cli", "export_figure_data", "experiments.export"),
    ("sparse_ou.experiments", "simulate_euler", "process.simulate_euler"),
    ("sparse_ou.experiments", "split_paths", "model_select.split"),
    ("sparse_ou.experiments", "compute_suffstats", "suffstats.compute"),
    ("sparse_ou.experiments", "solve_mle", "solvers.mle"),
    ("sparse_ou.experiments", "cross_validate", "model_select.cv"),
    ("sparse_ou.model_select", "solve_lasso", "solvers.lasso"),
    ("sparse_ou.model_select", "solve_slope", "solvers.slope"),
    ("sparse_ou.model_select", "loss", "suffstats.loss"),
    ("sparse_ou.solvers", "prox_l1", "prox.l1"),
    ("sparse_ou.solvers", "prox_sorted_l1", "prox.sorted_l1"),
    ("sparse_ou.solvers", "sorted_l1_norm", "prox.sorted_l1_norm"),
    ("sparse_ou.theory", "simulate_exact", "process.simulate_exact"),
    ("sparse_ou.theory", "compute_suffstats", "suffstats.compute"),
    ("sparse_ou.theory", "compute_c_infty", "theory.c_infty"),
)


def _paths(args, result):
    return {"dim": result.dim, "bytes": result.values.nbytes}


def _fit(args, result):
    return {"dim": result.estimate.dim, "iters": result.iterations, "converged": result.converged}


def _cv(args, result):
    levels = [level for level, _ in result.scores]
    return {
        "dim": result.result.estimate.dim,
        "penalty": result.penalty_kind,
        "edge": result.chosen_lambda in (min(levels), max(levels)),
        "converged": result.result.converged,
    }


def _prox(args, result):
    return {"dim": math.isqrt(result.size)}


# Attributes read from each call's arguments and result after the span ends,
# so they cost overhead but no self time.
_ANNOTATE = {
    "process.simulate_euler": _paths,
    "process.simulate_exact": _paths,
    "suffstats.compute": lambda args, result: {
        "dim": result.dim, "bytes": args[0].values.nbytes},
    "model_select.split": lambda args, result: {
        "dim": args[0].dim, "bytes": result[0].values.nbytes + result[1].values.nbytes},
    "model_select.cv": _cv,
    "solvers.mle": lambda args, result: {"dim": result.estimate.dim},
    "solvers.lasso": _fit,
    "solvers.slope": _fit,
    "prox.l1": _prox,
    "prox.sorted_l1": _prox,
    "theory.c_infty": lambda args, result: {"dim": result.c_infty.shape[0]},
}


class NullTracer:
    """Calls straight through; used for untraced passes."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps spans in memory as ``[name, parent, start, end, attrs]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        annotate = _ANNOTATE.get(name)
        if annotate is not None:
            span[4] = annotate(args, result)
        return result


@contextlib.contextmanager
def patched(tracer):
    """Install wrappers at every patch point.

    Yields the set of span names that lost a patch point because the
    attribute no longer exists.
    """
    saved = []
    missing = set()
    try:
        for module_name, attribute, span_name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                missing.add(span_name)
                continue

            def wrapper(*args, _fn=original, _name=span_name, **kwargs):
                return tracer.call(_name, _fn, *args, **kwargs)

            setattr(module, attribute, functools.wraps(original)(wrapper))
            saved.append((module, attribute, original))
        yield missing
    finally:
        for module, attribute, original in saved:
            setattr(module, attribute, original)


def _key(span):
    # Hold-out sweeps are split by penalty, so lasso and SLOPE read apart.
    name, attrs = span[0], span[4]
    if name == "model_select.cv":
        return "model_select.cv_" + attrs.get("penalty", "unknown")
    return name


PER_D = (5, 15, 25)
_PER_D_KEYS = (
    ("process.simulate_euler_s", "process.simulate_euler", "s"),
    ("process.simulate_exact_s", "process.simulate_exact", "s"),
    ("suffstats.compute_s", "suffstats.compute", "s"),
    ("solvers.mle_s", "solvers.mle", "s"),
    ("model_select.cv_l1_sweep_s", "model_select.cv_l1", "s"),
    ("model_select.cv_sorted_l1_sweep_s", "model_select.cv_sorted_l1", "s"),
    ("prox.sorted_l1_us_per_call", "prox.sorted_l1", "us"),
    ("theory.c_infty_s", "theory.c_infty", "s"),
)


def layer_metrics(spans, traced_wall, missing=()):
    """Per-layer metrics of one traced pass.

    Returns ``{name: (value, unit)}``. A metric built from a span whose
    patch point is gone (``missing`` holds those span names) is left out,
    so that it reads as absent, never as 0.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = collections.Counter()
    total_s = collections.Counter()
    calls = collections.Counter()
    per_d_total = collections.Counter()
    per_d_calls = collections.Counter()
    sums = collections.Counter()
    top_level = 0.0
    for index, span in enumerate(spans):
        key = _key(span)
        duration = span[3] - span[2]
        attrs = span[4]
        self_s[key] += duration - child_time[index]
        total_s[key] += duration
        calls[key] += 1
        if span[1] < 0:
            top_level += duration
        if "dim" in attrs:
            per_d_total[(key, attrs["dim"])] += duration
            per_d_calls[(key, attrs["dim"])] += 1
        sums[key + ".bytes"] += attrs.get("bytes", 0)
        sums[key + ".iters"] += attrs.get("iters", 0)
        sums[key + ".edge"] += bool(attrs.get("edge"))
        if key in ("solvers.lasso", "solvers.slope"):
            sums["nonconverged"] += not attrs["converged"]

    def per_call(total, count, scale=1.0):
        # A mean over zero calls reads 0: the layer did no work in this pass.
        return scale * total / count if count else 0.0

    metrics = {}

    def put(name, value, unit, *sources):
        if not any(source in missing for source in sources):
            metrics[name] = (value, unit)

    cv = ("model_select.cv_l1", "model_select.cv_sorted_l1")
    cv_calls = calls[cv[0]] + calls[cv[1]]
    euler_exact = ("process.simulate_euler", "process.simulate_exact")
    put("prox.sorted_l1_s", self_s["prox.sorted_l1"], "s", "prox.sorted_l1")
    put("prox.sorted_l1_calls", calls["prox.sorted_l1"], "count", "prox.sorted_l1")
    put("prox.sorted_l1_us_per_call",
        per_call(total_s["prox.sorted_l1"], calls["prox.sorted_l1"], 1e6), "us", "prox.sorted_l1")
    put("prox.sorted_l1_norm_s", self_s["prox.sorted_l1_norm"], "s", "prox.sorted_l1_norm")
    put("prox.sorted_l1_norm_calls", calls["prox.sorted_l1_norm"], "count", "prox.sorted_l1_norm")
    put("prox.l1_s", self_s["prox.l1"], "s", "prox.l1")
    put("prox.l1_calls", calls["prox.l1"], "count", "prox.l1")
    put("solvers.lasso_iters", sums["solvers.lasso.iters"], "count", "solvers.lasso")
    put("solvers.slope_iters", sums["solvers.slope.iters"], "count", "solvers.slope")
    put("solvers.lasso_s", self_s["solvers.lasso"], "s", "solvers.lasso")
    put("solvers.slope_s", self_s["solvers.slope"], "s", "solvers.slope")
    put("solvers.mle_s", self_s["solvers.mle"], "s", "solvers.mle")
    put("solvers.fits", calls["solvers.lasso"] + calls["solvers.slope"], "count",
        "solvers.lasso", "solvers.slope")
    put("solvers.nonconverged", sums["nonconverged"], "count", "solvers.lasso", "solvers.slope")
    put("process.simulate_euler_s", self_s[euler_exact[0]], "s", euler_exact[0])
    put("process.simulate_exact_s", self_s[euler_exact[1]], "s", euler_exact[1])
    put("process.path_mb", sum(sums[key + ".bytes"] for key in euler_exact) / 1e6, "MB",
        *euler_exact)
    put("suffstats.compute_s", self_s["suffstats.compute"], "s", "suffstats.compute")
    put("suffstats.compute_calls", calls["suffstats.compute"], "count", "suffstats.compute")
    put("suffstats.input_mb", sums["suffstats.compute.bytes"] / 1e6, "MB", "suffstats.compute")
    put("suffstats.loss_s", self_s["suffstats.loss"], "s", "suffstats.loss")
    put("model_select.split_s", self_s["model_select.split"], "s", "model_select.split")
    put("model_select.split_mb", sums["model_select.split.bytes"] / 1e6, "MB",
        "model_select.split")
    put("model_select.cv_l1_s", self_s[cv[0]], "s", "model_select.cv")
    put("model_select.cv_sorted_l1_s", self_s[cv[1]], "s", "model_select.cv")
    put("model_select.sweeps", cv_calls, "count", "model_select.cv")
    put("model_select.edge_pick_frac",
        per_call(sums[cv[0] + ".edge"] + sums[cv[1] + ".edge"], cv_calls), "ratio",
        "model_select.cv")
    put("theory.c_infty_s", self_s["theory.c_infty"], "s", "theory.c_infty")
    put("theory.c_infty_calls", calls["theory.c_infty"], "count", "theory.c_infty")
    put("theory.check_concentration_s", self_s["theory.check_concentration"], "s",
        "process.simulate_exact", "suffstats.compute", "theory.c_infty")
    put("experiments.run_s", self_s["experiments.run"], "s", "experiments.run")
    put("experiments.export_s", self_s["experiments.export"], "s", "experiments.export")
    put("cli.self_s", self_s["cli.main"], "s", "experiments.run", "experiments.export")
    put("trace.wall_s", traced_wall, "s")
    put("trace.spans", len(spans), "count")
    put("trace.unexplained_s", traced_wall - top_level, "s")
    for dim in PER_D:
        for metric, key, unit in _PER_D_KEYS:
            scale = 1e6 if unit == "us" else 1.0
            put("d%d.%s" % (dim, metric),
                per_call(per_d_total[(key, dim)], per_d_calls[(key, dim)], scale), unit,
                "model_select.cv" if key in cv else key)
    return metrics
