"""The shipped verification suite: every claim at its standard desk-scale range.

Ranges: simplicial families n <= 3 (dimension spot checks at n = 4) and
r <= 4; box families n <= 3, r <= 3; dimension tables n <= 4, r <= 6;
homotopy on homogeneous forms n <= 4, r <= 5, direct sums n <= 3, r <= 4;
commuting projections and assembly identities on the bundled sample meshes.
"""

from __future__ import annotations

import os
import sys

from feforms import complexes, dofs, mesh_assembly, spaces, tables
from feforms.complexes import Certificate
from feforms.spaces import make_spec


def _dims_certificates() -> list[Certificate]:
    certs = []
    for family in ("P", "Pminus"):
        mismatches = []
        ratio_failures = []
        checked = 0
        for n in range(1, 5):
            for r in range(1, 7):
                for k in range(n + 1):
                    spec = make_spec(family, n, r, k)
                    formula = spaces.dimension(spec)
                    rank = spaces.count(spec)
                    checked += 1
                    if formula != rank:
                        mismatches.append({"n": n, "r": r, "k": k,
                                           "formula": formula, "rank": rank})
                    if family == "Pminus":
                        # dim Pminus = r / (r + k) * dim P, exactly
                        full = spaces.dimension_P(n, r, k)
                        if formula * (r + k) != r * full:
                            ratio_failures.append({"n": n, "r": r, "k": k})
        witness = {"entries_checked": checked, "mismatches": mismatches}
        if family == "Pminus":
            witness["ratio_failures"] = ratio_failures
        ok = not mismatches and not ratio_failures
        certs.append(Certificate(f"dims:{family}", {"n_max": 4, "r_max": 6},
                                 "pass" if ok else "fail", witness))
    return certs


def _unisolvence_certificate(spec) -> Certificate:
    report = dofs.unisolvence_check(spec)
    ok = report["count_ok"] and report["determinant_nonzero"]
    return Certificate("unisolvence", spec.as_dict(),
                       "pass" if ok else "fail", report)


def _unisolvence_certificates() -> list[Certificate]:
    specs = []
    for family, rmax in (("P", 4), ("Pminus", 4), ("Qminus", 3), ("S", 3)):
        for n in range(1, 4):
            for r in range(1, rmax + 1):
                for k in range(n + 1):
                    specs.append(make_spec(family, n, r, k))
    # one spot check beyond the standard range
    specs.append(make_spec("Pminus", 4, 1, 1))
    return [_unisolvence_certificate(spec) for spec in specs]


def _homotopy_certificates() -> list[Certificate]:
    return [complexes.check_homotopy(n, r, k) for n in range(1, 5)
            for r in range(0, 6) for k in range(n + 1)]


def _exactness_certificates() -> list[Certificate]:
    return ([complexes.check_exactness(kind, n, r) for kind in ("P", "Pminus", "koszul")
             for n in range(1, 4) for r in range(1, 5)]
            + [complexes.check_direct_sum(n, r, k) for n in range(1, 4)
               for r in range(1, 5) for k in range(n + 1)])


def _complex_certificates() -> list[Certificate]:
    # S_1 is the bottom of its chain: no level follows it
    return [complexes.check_complex(family, n, r)
            for family, rmin, rmax in (("P", 1, 4), ("Pminus", 1, 4), ("Qminus", 1, 3),
                                       ("S", 2, 3))
            for n in range(1, 4) for r in range(rmin, rmax + 1)]


def _s_property_certificates() -> list[Certificate]:
    return ([complexes.check_S_properties(n, r) for n in range(1, 4) for r in range(1, 4)]
            + [complexes.check_S_vector_proxies(r) for r in range(1, 4)])


def _origin_certificates() -> list[Certificate]:
    return [complexes.check_origin_independence(family, n, r, k)
            for family in ("Pminus", "S") for n in range(1, 4)
            for r in range(1, 4) for k in range(n + 1)]


def _trace_moment_certificates() -> list[Certificate]:
    reports = [dofs.trace_moment_vanishing_check(r, k, n)
               for n in range(1, 4) for r in range(1, 4) for k in range(n + 1)]
    return [Certificate("trace_moment_vanishing",
                        {"n": rep["n"], "r": rep["r"], "k": rep["k"]},
                        "pass" if rep["pass"] else "fail", rep) for rep in reports]


COMMUTING_CASES = (
    ("two_triangle_square", "P", 3),
    ("two_triangle_square", "Pminus", 2),
    ("two_boxes_2d", "Qminus", 2),
    ("two_boxes_2d", "S", 3),
)


def _commuting_certificates() -> list[Certificate]:
    certs = []
    for mesh_name, family, r in COMMUTING_CASES:
        mesh = mesh_assembly.SAMPLE_MESHES[mesh_name]()
        levels = complexes.chain(family, mesh.n, r)
        for level, following in zip(levels, levels[1:]):
            if following.r < 1:  # P_0 carries no DOFs
                continue
            failures = []
            tested = 0
            for u in spaces.monomial_forms(mesh.n, level.k, level.r + 1):
                cert = mesh_assembly.check_commuting(mesh, family, level.r, u)
                tested += 1
                if not cert.passed:
                    failures.append(cert.params["input"])
            certs.append(Certificate(
                "commuting",
                {"mesh": mesh_name, "family": family, "r": level.r, "k": level.k},
                "pass" if not failures else "fail",
                {"inputs_tested": tested, "failures": failures}))
    return certs


ASSEMBLY_CASES = (
    ("two_triangle_square", (("P", 2, 0), ("Pminus", 1, 1), ("Pminus", 2, 1),
                             ("P", 1, 2))),
    ("crisscross_square", (("P", 2, 0), ("Pminus", 1, 1), ("P", 1, 1))),
    ("two_tetrahedra", (("P", 2, 0), ("Pminus", 1, 1), ("Pminus", 1, 2))),
    ("two_boxes_2d", (("Qminus", 2, 0), ("Qminus", 1, 1), ("S", 2, 1))),
    ("grid_boxes_2x2", (("Qminus", 1, 0), ("Qminus", 2, 1), ("S", 2, 0))),
    ("two_cubes_3d", (("Qminus", 1, 1), ("S", 1, 1), ("Qminus", 2, 2))),
)


def _assembly_certificates() -> list[Certificate]:
    certs = []
    for mesh_name, cases in ASSEMBLY_CASES:
        mesh = mesh_assembly.SAMPLE_MESHES[mesh_name]()
        for family, r, k in cases:
            space = mesh_assembly.assemble(mesh, family, r, k)
            face_sum = mesh_assembly.face_sum_dimension(mesh, family, r, k)
            by_rank = mesh_assembly.assembled_dimension_by_rank(space)
            ok = space.dimension == face_sum == by_rank
            certs.append(Certificate(
                "assembly",
                {"mesh": mesh_name, "family": family, "r": r, "k": k},
                "pass" if ok else "fail",
                {"global_dim": space.dimension, "face_sum": face_sum,
                 "constraint_rank_dim": by_rank}))
    return certs


# the sections of the suite in report order, each a function of a feforms module
SECTIONS = (("tables", "table1_certificates"), ("verify", "_dims_certificates"),
            ("verify", "_unisolvence_certificates"), ("verify", "_homotopy_certificates"),
            ("verify", "_exactness_certificates"), ("verify", "_complex_certificates"),
            ("verify", "_s_property_certificates"), ("verify", "_origin_certificates"),
            ("verify", "_trace_moment_certificates"), ("verify", "_commuting_certificates"),
            ("verify", "_assembly_certificates"))


def _run_section(index: int) -> list[Certificate]:
    # looked up at call time, so a worker runs what the module holds at the fork
    module, name = SECTIONS[index]
    return getattr(sys.modules[f"feforms.{module}"], name)()


def full_suite() -> list[Certificate]:
    """Every certificate of the shipped verification suite, in fixed order.

    The sections share nothing but caches, so they run in forked worker
    processes, one per CPU, and their certificates are joined in order.
    With one CPU, or no fork, they run in this process, in the same order.
    """
    import multiprocessing

    workers = min(len(SECTIONS), os.cpu_count() or 1)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [cert for index in range(len(SECTIONS)) for cert in _run_section(index)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return [cert for certs in pool.map(_run_section, range(len(SECTIONS)))
                for cert in certs]
