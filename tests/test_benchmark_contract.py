"""The package names the benchmark's tracer patches, and its traced passes.

``perfbench/tracing.py`` wraps the functions listed in its ``PATCH_POINTS``
where their callers look them up. A patch point that no longer resolves
drops the per-layer metrics built from it, so every one must name a
callable of ``sparse_ou``. A traced pass of each kind the benchmark runs
must report every declared per-layer metric as a finite number.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

import sparse_ou.cli
import sparse_ou.theory
from sparse_ou import DriftMatrix, InitialLaw

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# Added by ``perfbench/run.py`` from untraced passes, not by ``layer_metrics``.
ADDED_BY_RUN = {"trace.overhead_s", "experiments.parallel_eff"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_to_a_callable():
    points = _tracing().PATCH_POINTS
    assert points
    for module_name, attribute, span_name in points:
        assert module_name.startswith("sparse_ou"), span_name
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute, span_name)


def _reproduce(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"dims": [5], "replicates": 1, "n_paths": 60, "n_train": 48,
                                "grid": {"log10_min": -2, "log10_max": -1, "log10_step": 0.5}}))
    argv = ["reproduce", "--plan", str(plan), "--out-dir", str(tmp_path / "out"),
            "--threads", "1"]
    return "cli.main", sparse_ou.cli.main, (argv,)


def _concentration(tmp_path):
    arguments = (DriftMatrix(3, -np.eye(3)), InitialLaw(), [40], 1, 5)
    return "theory.check_concentration", sparse_ou.theory.check_concentration, arguments


@pytest.mark.parametrize("workload", [_reproduce, _concentration])
def test_traced_pass_reports_every_declared_layer_metric(tmp_path, workload):
    tracing = _tracing()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"] for entry in spec["per_layer"]} - ADDED_BY_RUN
    name, fn, arguments = workload(tmp_path)
    tracer = tracing.Tracer()
    begin = time.perf_counter()
    with tracing.patched(tracer) as missing, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        result = tracer.call(name, fn, *arguments)
    wall = time.perf_counter() - begin
    if name == "cli.main":
        assert result == 0
    assert not missing
    metrics = tracing.layer_metrics(tracer.spans, wall, missing)
    assert sorted(declared - set(metrics)) == []
    # ``perfbench/run.py`` prints its result as strict JSON.
    json.dumps({key: value for key, (value, unit) in metrics.items()}, allow_nan=False)


def test_traced_reproduce_counts_every_prox_and_one_norm_per_slope_fit(tmp_path):
    # The solver must reach each prox and the norm through the names the
    # tracer patches; a private helper that bypassed them would read 0 calls.
    tracing = _tracing()
    name, fn, arguments = _reproduce(tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer) as missing, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert tracer.call(name, fn, *arguments) == 0
    metrics = tracing.layer_metrics(tracer.spans, 1.0, missing)
    slope_fits = sum(span[0] == "solvers.slope" for span in tracer.spans)
    assert metrics["prox.sorted_l1_calls"][0] > 0
    assert metrics["prox.l1_calls"][0] > 0
    assert 0 < slope_fits
    assert metrics["prox.sorted_l1_norm_calls"][0] <= slope_fits
