"""The package names the benchmark's tracer patches.

``perfbench/tracing.py`` wraps the functions listed in its ``PATCH_POINTS``
where their callers look them up. A patch point that no longer resolves
drops the per-layer metrics built from it, so every one must name a
callable of ``sparse_ou``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_POINTS


def test_every_patch_point_resolves_to_a_callable():
    points = _patch_points()
    assert points
    for module_name, attribute, span_name in points:
        assert module_name.startswith("sparse_ou"), span_name
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute, span_name)
