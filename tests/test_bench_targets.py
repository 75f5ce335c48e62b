"""Every function the benchmark's traced runs wrap still exists.

`bench/layers.py` names its targets as (module, attribute path) strings, so
deleting or renaming one of them breaks `bench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).parent.parent / "bench" / "layers.py"


def test_benchmark_trace_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as it is
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    spans = [t for targets in layers.SPANS.values() for t in targets]
    caches = [t for targets in layers.CACHES.values() for t in targets]
    missing = []
    for module, path in spans + caches + list(layers.SECTIONS.values()):
        importlib.import_module(f"feforms.{module}")
        try:
            target = getattr(*layers._resolve(module, path))
        except AttributeError:
            missing.append(f"{module}.{path}")
            continue
        if (module, path) in caches and not hasattr(target, "cache_info"):
            missing.append(f"{module}.{path}.cache_info")
    assert not missing, missing
