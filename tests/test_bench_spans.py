"""The benchmark's traced run wraps program functions by name: each one must still exist."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def test_every_benchmark_span_target_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [name for name, owner, attr, _leaf, _tail in layers.SPANS
               if not callable(getattr(owner, attr, None))]
    assert not missing
    assert callable(layers.rerank_mod.ReflexCache.get)  # the cache-lookup counter's target
