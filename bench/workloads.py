"""The benchmark's three workloads: inputs, timed operations, checks.

Each workload has three parts, called in this order by worker.py:

  make(seed, small)      -> inputs; runs before the clock starts
  run(inputs, watch)     -> outputs; every call into feforms, timed
  check(inputs, outputs) -> list of problems; runs after the clock stops

`run` returns a dict whose "verdicts" list has one boolean per operation
(True when it completed and reported success), and splits its timed
interval into steps with `watch.lap()`.  The number of operations and of
steps is fixed by the workload, never by the seed or the clock.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from array import array
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import oracle
from layers import SECTIONS


class Stopwatch:
    """Splits the timed interval into consecutive steps.

    Each `lap()` closes a step; time spent inside `excluded()` blocks is
    left out of the step it falls in.
    """

    def __init__(self, clock):
        self.clock = clock
        self.steps: list[float] = []
        self.start = self._mark = clock()
        self._excluded = 0.0

    def lap(self) -> None:
        now = self.clock()
        self.steps.append(now - self._mark - self._excluded)
        self._mark = now
        self._excluded = 0.0

    @contextmanager
    def excluded(self):
        start = self.clock()
        try:
            yield
        finally:
            self._excluded += self.clock() - start


# -- verify_all ----------------------------------------------------------------

# reduced suite for the smoke run: three cheap sections, one of them with
# the assembly certificates the checks read
SMOKE_SECTIONS = ("_dims_certificates", "_trace_moment_certificates",
                  "_assembly_certificates")


def make_verify_all(seed: int, small: bool) -> dict:
    # The suite is fixed; the seed only names the output directory.
    outdir = tempfile.mkdtemp(prefix=f"verify-{seed}-", dir=scratch_dir())
    return {"outdir": outdir, "small": small}


def run_verify_all(inputs: dict, watch: Stopwatch) -> dict:
    from feforms import cli, verify

    # each of the 11 sections of verify.full_suite is one step
    saved = [(sys.modules[f"feforms.{module}"], name)
             for module, name in SECTIONS.values()] + [(verify, "full_suite")]
    saved = [(owner, name, getattr(owner, name)) for owner, name in saved]

    def timed(section):
        def run_section():
            certs = section()
            watch.lap()
            return certs
        return run_section

    for owner, name, section in saved[:-1]:
        setattr(owner, name, timed(section))
    if inputs["small"]:
        verify.full_suite = lambda: [cert for name in SMOKE_SECTIONS
                                     for cert in getattr(verify, name)()]
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.run(["verify-all", "--out", inputs["outdir"]])
        watch.lap()  # writing the reports
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    path = os.path.join(inputs["outdir"], "certificates.jsonl")
    with open(path, "rb") as handle:
        data = handle.read()
    certs = [json.loads(line) for line in data.decode().splitlines()]
    return {"verdicts": [c["verdict"] == "pass" for c in certs],
            "exit_code": code, "certificates": certs,
            "sha256": hashlib.sha256(data).hexdigest()}


def check_verify_all(inputs: dict, outputs: dict) -> list[str]:
    problems = []
    want_code = 0 if all(outputs["verdicts"]) else 1
    if outputs["exit_code"] != want_code:
        problems.append(f"verify-all exited {outputs['exit_code']}, "
                        f"expected {want_code}")
    for cert in outputs["certificates"]:
        claim, witness = cert["claim"], cert["witness"]
        if claim == "unisolvence":
            problems += oracle.check_unisolvence_report(witness)
        elif claim == "table1:S":
            problems += check_table("S", witness)
        elif claim == "table1:Qminus":
            problems += check_table("Qminus", witness)
        elif claim == "assembly":
            params = cert["params"]
            if not (witness["global_dim"] == witness["face_sum"]
                    == witness["constraint_rank_dim"]):
                problems.append(f"assembly {params}: dimensions disagree")
    return problems


def check_table(family: str, witness: dict) -> list[str]:
    """A passing table1 certificate means rank == fixture on every entry;
    the fixture itself is checked here against the closed formula."""
    from feforms import tables

    table = tables.S_TABLE if family == "S" else tables.QMINUS_TABLE
    problems = [f"table1:{family} mismatch {m}" for m in witness["mismatches"]]
    checked = 0
    for (n, k), row in table.items():
        for r, value in zip(tables.R_RANGE, row):
            checked += 1
            if oracle.DIMENSION[family](n, r, k) != value:
                problems.append(f"table1:{family} n={n} r={r} k={k}: table "
                                f"{value}, formula {oracle.DIMENSION[family](n, r, k)}")
    if witness["entries_checked"] != checked:
        problems.append(f"table1:{family} checked {witness['entries_checked']} "
                        f"entries, the table has {checked}")
    return problems


# -- dof_scale -------------------------------------------------------------------

# (family, n, r), every k: beyond the shipped ranges of verify-all, which
# stop at r = 4 on simplices and r = 3, n = 3 on boxes
DOF_SCALE_SPECS = [("Pminus", 3, 5), ("P", 3, 5), ("S", 3, 4),
                   ("S", 4, 2), ("Qminus", 4, 2)]
DOF_SMOKE_SPECS = [("Pminus", 3, 2), ("Qminus", 2, 2), ("S", 3, 1)]


def make_dof_scale(seed: int, small: bool) -> dict:
    # The spec list is fixed and so is its order, which decides what the
    # lru caches hold when each spec runs; the seed changes nothing.
    from feforms.spaces import make_spec

    return {"specs": [make_spec(family, n, r, k)
                      for family, n, r in (DOF_SMOKE_SPECS if small else DOF_SCALE_SPECS)
                      for k in range(n + 1)]}


class MatrixCapture:
    """Keeps each DOF matrix reduced mod the oracle's primes, for the check.

    Residues are stored as machine-int arrays, so holding them adds little
    memory; the reduction is left out of the timed steps.
    """

    def __init__(self, dofs_module, watch: Stopwatch):
        self.module = dofs_module
        self.original = dofs_module.dof_matrix
        self.watch = watch
        self.residues = []

    def __enter__(self):
        def capture(forms, dofset):
            rows = self.original(forms, dofset)
            with self.watch.excluded():
                self.residues.append(residues_of(rows))
            return rows

        self.module.dof_matrix = capture
        return self

    def __exit__(self, *exc):
        self.module.dof_matrix = self.original


def residues_of(rows) -> dict:
    return {p: [array("q", row) for row in oracle.reduce_mod(rows, p)]
            for p in oracle.PRIMES}


def run_dof_scale(inputs: dict, watch: Stopwatch) -> dict:
    from feforms import dofs

    reports = []
    with MatrixCapture(dofs, watch) as capture:
        for spec in inputs["specs"]:
            reports.append(dofs.unisolvence_check(spec))
            watch.lap()
    return {"verdicts": [r["count_ok"] and r["determinant_nonzero"] for r in reports],
            "reports": reports, "residues": capture.residues}


def check_dof_scale(inputs: dict, outputs: dict) -> list[str]:
    problems = []
    if len(outputs["residues"]) != len(inputs["specs"]):
        return [f"captured {len(outputs['residues'])} DOF matrices for "
                f"{len(inputs['specs'])} specs"]
    for spec, report, residues in zip(inputs["specs"], outputs["reports"],
                                      outputs["residues"]):
        if report["spec"] != spec.as_dict():
            problems.append(f"report for {report['spec']} in place of {spec}")
            continue
        problems += oracle.check_unisolvence_report(report)
        size = len(next(iter(residues.values())))
        if size != report["dim"]:
            problems.append(f"{report['spec']}: DOF matrix has {size} rows, "
                            f"dim {report['dim']}")
        lists = {p: [list(row) for row in rows] for p, rows in residues.items()}
        if oracle.certified_nonsingular(lists) != report["determinant_nonzero"]:
            problems.append(f"{report['spec']}: modular elimination disagrees "
                            f"with determinant_nonzero={report['determinant_nonzero']}")
    return problems


# -- mesh_grid -------------------------------------------------------------------

# (mesh kind, m x m squares of the unit square, family, r, k)
MESH_GRIDS = [("simplicial", 5, "Pminus", 2, 1), ("cubical", 8, "Qminus", 2, 1)]
MESH_SMOKE_GRIDS = [("simplicial", 2, "Pminus", 2, 1), ("cubical", 2, "Qminus", 2, 1)]

# Monomials (coefficient exponents, alternator) of a 1-form in 2D that lie in
# each space on every element, so their sums lie in the global space.
IN_SPACE_TERMS = {
    "Pminus": [((0, 0), (1,)), ((0, 0), (2,)), ((1, 0), (1,)), ((0, 1), (1,)),
               ((1, 0), (2,)), ((0, 1), (2,))],
    "Qminus": [((0, 0), (1,)), ((0, 1), (1,)), ((0, 2), (1,)), ((0, 0), (2,)),
               ((1, 0), (2,)), ((2, 0), (2,))],
}
# beyond both spaces, so projecting them does real work
GENERIC_TERMS = [((3, 1), (1,)), ((0, 3), (2,)), ((2, 2), (2,)), ((1, 0), (1,))]


def kuhn_or_box_grid(kind: str, m: int, rng: random.Random) -> dict:
    """Mesh document of an m x m grid on the unit square.

    Vertex ids and element order are permuted by `rng`; that changes the
    face orientation patterns but not the geometry.
    """
    coords = [(Fraction(i, m), Fraction(j, m))
              for j in range(m + 1) for i in range(m + 1)]
    elements = []
    for j in range(m):
        for i in range(m):
            a = j * (m + 1) + i
            b, c, d = a + 1, a + m + 1, a + m + 2
            if kind == "simplicial":
                elements += [(a, b, d), (a, d, c)]
            else:
                elements.append((a, b, c, d))  # binary corner order
    new_id = list(range(len(coords)))
    rng.shuffle(new_id)
    vertices = [None] * len(coords)
    for old, new in enumerate(new_id):
        vertices[new] = coords[old]
    elements = [[new_id[v] for v in e] for e in elements]
    rng.shuffle(elements)
    return {"kind": kind, "n": 2,
            "vertices": [[f"{c.numerator}/{c.denominator}" for c in v]
                         for v in vertices],
            "elements": elements}


def random_form(terms, rng: random.Random):
    from feforms.forms import PolyForm

    form = PolyForm.zero(2, 1)
    for alpha, sigma in terms:
        coeff = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5))
        form = form + PolyForm.monomial(2, alpha, sigma, coeff)
    return form


def make_mesh_grid(seed: int, small: bool) -> dict:
    rng = random.Random(seed)
    grids = []
    for kind, m, family, r, k in (MESH_SMOKE_GRIDS if small else MESH_GRIDS):
        grids.append({"kind": kind, "m": m, "family": family, "r": r, "k": k,
                      "text": json.dumps(kuhn_or_box_grid(kind, m, rng)),
                      "u_in": random_form(IN_SPACE_TERMS[family], rng),
                      "u_gen": random_form(GENERIC_TERMS, rng)})
    return {"grids": grids}


def run_mesh_grid(inputs: dict, watch: Stopwatch) -> dict:
    from feforms import mesh_assembly as ma

    def step(value):
        watch.lap()
        return value

    verdicts, results = [], []
    for g in inputs["grids"]:
        family, r, k = g["family"], g["r"], g["k"]
        mesh = step(ma.read_mesh(g["text"]))
        space = step(ma.assemble(mesh, family, r, k))
        reproduced = step(space.project(g["u_in"]))
        projected = step(space.project(g["u_gen"]))
        continuous = step(ma.continuity_check(space, projected))
        commuting = step(ma.check_commuting(mesh, family, r, g["u_gen"]))
        face_sum = step(ma.face_sum_dimension(mesh, family, r, k))
        by_rank = step(ma.assembled_dimension_by_rank(space))
        # the calls without a verdict of their own pass by returning
        verdicts += [True, True, True, True, continuous, commuting.passed,
                     True, True]
        results.append({"mesh": mesh, "reproduced": reproduced,
                        "dimension": space.dimension, "face_sum": face_sum,
                        "by_rank": by_rank, "witness": commuting.witness})
    return {"verdicts": verdicts, "results": results}


def check_mesh_grid(inputs: dict, outputs: dict) -> list[str]:
    from feforms.forms import pullback

    problems = []
    if len(outputs["results"]) != len(inputs["grids"]):
        problems.append("a grid produced no result")
    for g, res in zip(inputs["grids"], outputs["results"]):
        kind, m, mesh = g["kind"], g["m"], res["mesh"]
        name = f"{kind} {m}x{m} {g['family']} r={g['r']} k={g['k']}"
        faces = [sum(1 for f in mesh.faces() if f.dim == d) for d in range(3)]
        counts = oracle.grid_face_counts(kind, m)
        if faces != counts:
            problems.append(f"{name}: faces by dimension {faces}, grid has {counts}")
        want = oracle.grid_dimension(kind, m, g["family"], g["r"], g["k"])
        for key in ("dimension", "face_sum", "by_rank"):
            if res[key] != want:
                problems.append(f"{name}: {key} {res[key]}, counts give {want}")
        next_r = g["r"] if g["family"] in ("Pminus", "Qminus") else g["r"] - 1
        want_k1 = oracle.grid_dimension(kind, m, g["family"], next_r, g["k"] + 1)
        if (res["witness"].get("dim_k"), res["witness"].get("dim_k1")) != (want, want_k1):
            problems.append(f"{name}: commuting witness {res['witness']}, "
                            f"counts give {want} and {want_k1}")
        # a form in the space is its own projection, element by element
        for e, piece in res["reproduced"].items():
            if piece != pullback(g["u_in"], mesh.element_chart(e)):
                problems.append(f"{name}: projection changed element {e}")
                break
    return problems


WORKLOADS = {
    "verify_all": (make_verify_all, run_verify_all, check_verify_all),
    "dof_scale": (make_dof_scale, run_dof_scale, check_dof_scale),
    "mesh_grid": (make_mesh_grid, run_mesh_grid, check_mesh_grid),
}


def scratch_dir() -> str:
    """The benchmark's own output directory, ignored by git."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path
