"""The benchmark's traced run wraps library functions by name; a name that
no longer resolves would only surface as a crash of ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(f"jumpsl.{module}"), name, None)
        assert callable(target), f"jumpsl.{module}.{name}"
