"""Self-tests of the benchmark: every check must fail on broken input.

    python3 bench/selftest.py

Each negative control feeds a check a wrong expectation or a corrupted
matrix and asserts that it reports a problem; a check that cannot fail
proves nothing.  The smoke tests run all three workloads at reduced size
through run.py, traced and untraced, and take a few seconds each.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def small_outputs(name: str, seed: int = 7):
    make, run_workload, _ = workloads.WORKLOADS[name]
    inputs = make(seed, True)
    return inputs, run_workload(inputs, workloads.Stopwatch(time.monotonic))


class OracleTest(unittest.TestCase):
    def test_serendipity_formula_matches_the_table(self):
        from feforms import tables

        for (n, k), row in tables.S_TABLE.items():
            for r, value in zip(tables.R_RANGE, row):
                self.assertEqual(oracle.dim_S(n, r, k), value)

    def test_unisolvence_report_check_rejects_wrong_counts(self):
        from feforms import dofs
        from feforms.spaces import make_spec

        for family, n, r, k in (("P", 2, 2, 1), ("Pminus", 3, 2, 2),
                                ("Qminus", 2, 2, 1), ("S", 3, 2, 1)):
            report = dofs.unisolvence_check(make_spec(family, n, r, k))
            self.assertEqual(oracle.check_unisolvence_report(report), [])
            for key in ("dim", "dof_count"):
                bad = dict(report, **{key: report[key] + 1})
                self.assertTrue(oracle.check_unisolvence_report(bad), key)
            bad = copy.deepcopy(report)
            bad["per_face"][-1]["count_per_face"] += 1
            self.assertTrue(oracle.check_unisolvence_report(bad))

    def test_modular_elimination_rejects_a_singular_matrix(self):
        good = [[Fraction(2), Fraction(1, 3)], [Fraction(5), Fraction(-7, 2)]]
        self.assertTrue(oracle.certified_nonsingular(
            {p: oracle.reduce_mod(good, p) for p in oracle.PRIMES}))
        singular = [good[0], [2 * v for v in good[0]]]
        self.assertFalse(oracle.certified_nonsingular(
            {p: oracle.reduce_mod(singular, p) for p in oracle.PRIMES}))
        # det = p1: singular mod p1, so the second prime must decide
        p1 = oracle.PRIMES[0]
        self.assertTrue(oracle.certified_nonsingular(
            {p: oracle.reduce_mod([[p1, 0], [0, 1]], p) for p in oracle.PRIMES}))
        self.assertFalse(oracle.certified_nonsingular(
            {p: [[1, 0]] for p in oracle.PRIMES}))  # not square

    def test_grid_dimension_rejects_a_wrong_grid_size(self):
        self.assertNotEqual(oracle.grid_dimension("simplicial", 3, "P", 1, 0),
                            oracle.grid_dimension("simplicial", 2, "P", 1, 0))
        self.assertEqual(oracle.grid_dimension("simplicial", 2, "P", 1, 0), 9)
        self.assertEqual(oracle.grid_dimension("cubical", 2, "Qminus", 1, 1), 12)


class StopwatchTest(unittest.TestCase):
    def test_steps_cover_the_interval_less_the_excluded_time(self):
        ticks = iter([0.0, 1.0, 1.5, 3.0, 4.0])
        watch = workloads.Stopwatch(lambda: next(ticks))
        watch.lap()                 # 0.0 -> 1.0
        with watch.excluded():      # 1.5 -> 3.0
            pass
        watch.lap()                 # 1.0 -> 4.0, less 1.5
        self.assertEqual(watch.steps, [1.0, 1.5])


class VerifyAllChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs, cls.outputs = small_outputs("verify_all")
        shutil.rmtree(cls.inputs["outdir"], ignore_errors=True)

    def test_clean_outputs_pass(self):
        self.assertTrue(all(self.outputs["verdicts"]))
        self.assertEqual(workloads.check_verify_all(self.inputs, self.outputs), [])

    def test_wrong_exit_code_is_caught(self):
        bad = dict(self.outputs, exit_code=1)
        self.assertTrue(workloads.check_verify_all(self.inputs, bad))

    def test_inconsistent_assembly_witness_is_caught(self):
        bad = copy.deepcopy(self.outputs)
        cert = next(c for c in bad["certificates"] if c["claim"] == "assembly")
        cert["witness"]["face_sum"] += 1
        self.assertTrue(workloads.check_verify_all(self.inputs, bad))

    def test_wrong_unisolvence_witness_is_caught(self):
        bad = copy.deepcopy(self.outputs)
        bad["certificates"].append({"claim": "unisolvence", "params": {}, "verdict": "pass",
                                    "witness": {"spec": {"family": "S", "n": 3, "r": 2, "k": 1},
                                                "dim": 47, "dof_count": 48, "per_face": []}})
        self.assertTrue(workloads.check_verify_all(self.inputs, bad))

    def test_perturbed_table_entry_is_caught(self):
        from feforms import tables

        witness = {"entries_checked": 84, "mismatches": []}
        self.assertEqual(workloads.check_table("S", witness), [])
        self.assertTrue(workloads.check_table("S", dict(witness, entries_checked=83)))
        self.assertTrue(workloads.check_table("S", dict(witness, mismatches=[{}])))
        saved = tables.S_TABLE[(3, 1)]
        tables.S_TABLE[(3, 1)] = [saved[0] + 1] + saved[1:]
        try:
            self.assertTrue(workloads.check_table("S", witness))
        finally:
            tables.S_TABLE[(3, 1)] = saved

    def test_rounds_with_different_reports_are_caught(self):
        rounds = [{"problems": [], "digest": d, "attempted": 1, "failed": 0, "steps": [1.0],
                   "metrics": {"setup_s": 0.1, "wall_s": 1.0, "peak_rss_mb": 9.0}}
                  for d in ("a", "b")]
        result, problems = run.summarize(rounds, [0.1, 0.1], 0)
        self.assertFalse(result["correct"])
        result, _ = run.summarize(rounds[:1], [0.1], 0)
        self.assertTrue(result["correct"])


class DofScaleChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs, cls.outputs = small_outputs("dof_scale")

    def test_clean_outputs_pass(self):
        self.assertTrue(all(self.outputs["verdicts"]))
        self.assertEqual(workloads.check_dof_scale(self.inputs, self.outputs), [])

    def test_corrupted_matrix_is_caught(self):
        bad = copy.deepcopy(self.outputs)
        residues = max(bad["residues"], key=lambda r: len(r[oracle.PRIMES[0]]))
        for rows in residues.values():
            rows[1] = rows[0]  # two equal rows: singular mod every prime
        self.assertTrue(workloads.check_dof_scale(self.inputs, bad))

    def test_wrong_nonsingularity_claim_is_caught(self):
        bad = copy.deepcopy(self.outputs)
        bad["reports"][0]["determinant_nonzero"] = False
        self.assertTrue(workloads.check_dof_scale(self.inputs, bad))

    def test_missing_matrix_is_caught(self):
        bad = dict(self.outputs, residues=self.outputs["residues"][1:])
        self.assertTrue(workloads.check_dof_scale(self.inputs, bad))


class MeshGridChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs, cls.outputs = small_outputs("mesh_grid")

    def test_clean_outputs_pass(self):
        self.assertTrue(all(self.outputs["verdicts"]))
        self.assertEqual(workloads.check_mesh_grid(self.inputs, self.outputs), [])

    def test_wrong_dimension_is_caught(self):
        for key in ("dimension", "face_sum", "by_rank"):
            bad = copy.deepcopy(self.outputs)
            bad["results"][0][key] += 1
            self.assertTrue(workloads.check_mesh_grid(self.inputs, bad), key)

    def test_wrong_grid_size_is_caught(self):
        bad_inputs = copy.deepcopy(self.inputs)
        bad_inputs["grids"][1]["m"] += 1
        self.assertTrue(workloads.check_mesh_grid(bad_inputs, self.outputs))

    def test_wrong_commuting_witness_is_caught(self):
        bad = copy.deepcopy(self.outputs)
        bad["results"][1]["witness"]["dim_k1"] += 1
        self.assertTrue(workloads.check_mesh_grid(self.inputs, bad))

    def test_changed_projection_is_caught(self):
        bad = copy.deepcopy(self.outputs)
        pieces = bad["results"][0]["reproduced"]
        first = next(iter(pieces))
        pieces[first] = pieces[first] * Fraction(2)
        self.assertTrue(workloads.check_mesh_grid(self.inputs, bad))

    def test_seed_changes_numbering_not_geometry(self):
        import random

        a = workloads.kuhn_or_box_grid("simplicial", 3, random.Random(1))
        b = workloads.kuhn_or_box_grid("simplicial", 3, random.Random(2))
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(map(tuple, a["vertices"])), sorted(map(tuple, b["vertices"])))

        def triangles(doc):
            return sorted(tuple(sorted(tuple(doc["vertices"][v]) for v in e))
                          for e in doc["elements"])
        self.assertEqual(triangles(a), triangles(b))


def bench_run(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"),
                           "--workload", workload, "--seed", "5", "--seconds", "1",
                           "--trace", str(trace), "--small"],
                          capture_output=True, text=True, cwd=root, timeout=170)


class Smoke(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_every_workload_runs_and_reports_every_metric(self):
        for name in [w["name"] for w in self.spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                proc = bench_run(name, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (name, trace, proc.stderr))
                self.assertEqual(result["failed"], 0, name)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in self.spec[key]}
                got = {m: v["unit"] for m, v in result["metrics"].items()}
                self.assertEqual(got, want, (name, trace))

    def test_traced_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            proc = bench_run("mesh_grid", 1)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["mesh_assembly.project.lu_factors"], 0)

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(BENCH, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench_run("verify_all", 0, root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
