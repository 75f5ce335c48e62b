"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` wraps the public functions of each feforms layer and
re-binds every feforms module attribute that held the original, so calls
made through `from module import name` are seen too.  Each wrapped call
is a span (name, start, end, parent); spans are aggregated on close by
(parent, name) into calls, total time and self time, where self time is
the span's duration minus the time covered by its wrapped children.

Only used by traced runs: end-to-end figures come from runs without it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# metric name -> functions it covers, as (module, attribute path)
SPANS = {
    "polynomial.substitute": [("polynomial", "substitute")],
    "forms.pullback": [("forms", "pullback")],
    "forms.wedge": [("forms", "wedge")],
    "forms.integrate": [("forms", "integrate_std_simplex"),
                        ("forms", "integrate_unit_box")],
    "dofs.dof_matrix": [("dofs", "dof_matrix")],
    "dofs.unisolvence_check": [("dofs", "unisolvence_check")],
    "linalg.is_nonsingular": [("linalg", "is_nonsingular")],
    "linalg.echelon_add": [("linalg", "Echelon.add")],
    "linalg.lu_factor": [("linalg", "LUFactor.__init__")],
    "linalg.lu_solve": [("linalg", "LUFactor.solve")],
    "linalg.solve": [("linalg", "solve")],
    "spaces.basis": [("spaces", name) for name in (
        "basis_P", "basis_Pminus", "basis_Qminus", "basis_S",
        "basis_H", "basis_Hrl", "basis_J")],
    "mesh_assembly.validate": [("mesh_assembly", "Mesh._validate")],
    "mesh_assembly.assemble": [("mesh_assembly", "assemble")],
    "mesh_assembly.project": [("mesh_assembly", "GlobalSpace.project")],
    "mesh_assembly.check_commuting": [("mesh_assembly", "check_commuting")],
    "mesh_assembly.dim_by_rank": [("mesh_assembly", "assembled_dimension_by_rank")],
    "complexes.check": [("complexes", name) for name in (
        "check_complex", "check_exactness", "check_homotopy",
        "check_direct_sum", "check_S_properties", "check_S_vector_proxies",
        "check_origin_independence")],
}

# the 11 sections of verify.full_suite, in suite order
SECTIONS = {
    "verify.table1": ("tables", "table1_certificates"),
    "verify.dims": ("verify", "_dims_certificates"),
    "verify.unisolvence": ("verify", "_unisolvence_certificates"),
    "verify.homotopy": ("verify", "_homotopy_certificates"),
    "verify.exactness": ("verify", "_exactness_certificates"),
    "verify.complex": ("verify", "_complex_certificates"),
    "verify.s_properties": ("verify", "_s_property_certificates"),
    "verify.origin": ("verify", "_origin_certificates"),
    "verify.trace_moment": ("verify", "_trace_moment_certificates"),
    "verify.commuting": ("verify", "_commuting_certificates"),
    "verify.assembly": ("verify", "_assembly_certificates"),
}

# (span, ancestor span) -> counter of calls made while the ancestor is open
NESTED_COUNTS = {
    ("linalg.solve", "mesh_assembly.validate"): "mesh_assembly.validate.solves",
    ("linalg.lu_factor", "mesh_assembly.project"): "mesh_assembly.project.lu_factors",
}

# the per-layer metrics a traced run reports, in BENCHMARK.json order;
# ".s" metrics are self seconds, except verify.<section>.s (inclusive)
PER_LAYER = [
    "polynomial.construct.calls", "polynomial.substitute.calls",
    "polynomial.substitute.s",
    "forms.pullback.calls", "forms.pullback.s", "forms.wedge.calls",
    "forms.wedge.s", "forms.integrate.calls", "forms.integrate.s",
    "dofs.dof_matrix.calls", "dofs.dof_matrix.s", "dofs.dof_matrix.entries",
    "dofs.unisolvence_check.s", "dofs.cache_misses",
    "linalg.is_nonsingular.calls", "linalg.is_nonsingular.s",
    "linalg.echelon_add.calls", "linalg.echelon_add.s",
    "linalg.lu_factor.calls", "linalg.lu_factor.s",
    "linalg.lu_solve.calls", "linalg.lu_solve.s", "linalg.solve.calls",
    "spaces.basis.s", "spaces.basis.cache_misses", "spaces.basis.cache_hits",
    "mesh_assembly.validate.s", "mesh_assembly.validate.solves",
    "mesh_assembly.assemble.s", "mesh_assembly.project.s",
    "mesh_assembly.project.lu_factors", "mesh_assembly.check_commuting.s",
    "mesh_assembly.dim_by_rank.s",
    "complexes.check.s", "tables.table1.s",
] + [name + ".s" for name in SECTIONS]

CACHES = {
    "dofs.cache_misses": [("dofs", name) for name in (
        "weight_basis", "dofs_for", "reference_faces")],
    "spaces.basis": SPANS["spaces.basis"],
}


def _resolve(module: str, path: str):
    owner = sys.modules[f"feforms.{module}"]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.edges: dict[tuple, list] = {}   # (parent, name) -> [calls, total, self]
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self._stack: list[list] = []         # [name, start, child time]
        self._caches: dict[str, list] = {}

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recorded as span `name`."""
        stack, counts, open_spans = self._stack, self.counts, self.open
        nested = [(ancestor, counter) for (span, ancestor), counter
                  in NESTED_COUNTS.items() if span == name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            for ancestor, counter in nested:
                if open_spans[ancestor]:
                    counts[counter] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            open_spans[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_spans[name] -= 1
                total = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += total
                edge = self.edges.setdefault(
                    (parent[0] if parent else None, name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += total
                edge[2] += total - frame[2]
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_entries(self, rows):
        self.counts["dofs.dof_matrix.entries"] += sum(len(row) for row in rows)

    def install(self) -> None:
        """Wrap every traced function and re-bind each module that holds it."""
        import feforms.verify  # noqa: F401  (cli imports it lazily)
        from feforms import polynomial

        for metric, entries in CACHES.items():
            self._caches[metric] = [getattr(*_resolve(m, p)) for m, p in entries]
        targets = [(name, module, path) for name, entries in SPANS.items()
                   for module, path in entries]
        # tables.table1_certificates is both a section and a layer: its
        # span gives verify.table1.s (inclusive) and tables.table1.s (self)
        targets += [(name, module, path)
                    for name, (module, path) in SECTIONS.items()]
        for name, module, path in targets:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            hook = self._count_entries if name == "dofs.dof_matrix" else None
            self._rebind(owner, attr, original, self.wrap(name, original, hook))

        init = polynomial.Polynomial.__init__
        counts = self.counts

        def counted_init(poly, *args, **kwargs):
            counts["polynomial.construct.calls"] += 1
            init(poly, *args, **kwargs)

        self._rebind(polynomial.Polynomial, "__init__", init, counted_init)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for modname, module in list(sys.modules.items()):
            if modname.startswith("feforms") and module is not owner:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """The PER_LAYER metrics: counts, seconds and cache statistics."""
        out = dict(self.counts)
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for (parent, name), (_, total, own) in self.edges.items():
            self_s[name + ".s"] += own
            if parent != name:
                total_s[name + ".s"] += total
        out.update(self_s)
        out["tables.table1.s"] = self_s["verify.table1.s"]
        out.update((name + ".s", total_s[name + ".s"]) for name in SECTIONS)
        for metric, functions in self._caches.items():
            infos = [fn.cache_info() for fn in functions]
            if metric == "spaces.basis":
                out["spaces.basis.cache_hits"] = sum(i.hits for i in infos)
                out["spaces.basis.cache_misses"] = sum(i.misses for i in infos)
            else:
                out[metric] = sum(i.misses for i in infos)
        return {name: float(out.get(name, 0)) for name in PER_LAYER}

    def edge_table(self) -> list[dict]:
        """The aggregated span tree, for the trace file."""
        return [{"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": own}
                for (parent, name), (calls, total, own) in sorted(
                    self.edges.items(), key=lambda item: (str(item[0][0]), item[0][1]))]
