"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name when it installs, so every name in its LAYERS table must exist in its
revcarleson.<layer> module, or a traced benchmark run fails at start."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"revcarleson.{layer}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"revcarleson.{layer} lacks {missing}"
