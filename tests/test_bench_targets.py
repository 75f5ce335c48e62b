"""What the benchmark relies on in the program still holds.

`bench/layers.py` names its targets as (module, attribute path) strings, so
deleting or renaming one of them breaks `bench/run.py --trace 1` without
failing any other test.  `bench/workloads.py` captures every DOF matrix for
its oracle, so the matrices must stay dense, square and integral.  The
benchmark's modules are loaded by path and write no bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).parent.parent / "bench"
LAYERS = BENCH / "layers.py"


def load_bench_module(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as it is
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(monkeypatch):
    layers = load_bench_module(monkeypatch, "layers")
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


def test_dof_matrices_suit_the_benchmark_capture(monkeypatch):
    """`bench/workloads.MatrixCapture` reduces each `dof_matrix` result mod
    the oracle's primes into machine-int arrays: every unisolvence check
    must yield one dense, square integer matrix the oracle can decide."""
    from feforms import dofs
    from feforms.spaces import make_spec

    oracle = load_bench_module(monkeypatch, "oracle")
    captured = []
    real = dofs.dof_matrix
    monkeypatch.setattr(dofs, "dof_matrix",
                        lambda forms, dofset: captured.append(real(forms, dofset))
                        or captured[-1])
    for spec in (make_spec("P", 3, 2, 1), make_spec("Qminus", 2, 3, 1)):
        captured.clear()
        report = dofs.unisolvence_check(spec)
        assert len(captured) == 1
        rows = captured[0]
        assert type(rows) is list and len(rows) == report["dim"] > 0
        assert all(type(row) is list and len(row) == len(rows) for row in rows)
        assert all(type(v) is int for row in rows for v in row)
        residues = {p: oracle.reduce_mod(rows, p) for p in oracle.PRIMES}
        assert oracle.certified_nonsingular(residues)
