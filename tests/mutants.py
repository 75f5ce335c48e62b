"""A catalogue of mutants of the package, each with the tests that must kill it.

Each entry breaks one rule on purpose: in `file` (a module of
src/feforms), the text `find`, which occurs exactly once there, becomes
`replace`.  Every test named in `tests` must fail on the mutant; a test id
without parameters covers all of its parametrized cases.  A check that a
mutant survives is a check that can no longer fail.

Run it from the repository root, after the tier-1 tests pass:

    python tests/mutants.py [NAME ...]

Each mutant is applied on its own to a temporary copy of src/, tests/,
meshes/ and pyproject.toml, and its tests run there in one pytest
subprocess at a time.  The runner prints one line per mutant and exits 1
when any survives or cannot be run.  Pytest does not collect this file;
`tests/test_mutants.py` checks in tier 1 that every `find` still occurs
exactly once, so a change that moves the code must update its entry.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "feforms"
COPIED = ("src", "tests", "meshes", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    find: str
    replace: str
    tests: tuple


CATALOGUE = (
    # -- the one sparse accumulator, seen through polynomials and forms
    Mutant("sum-terms-keeps-cancelled-entries", "polynomial.py",
           "            if not c:\n                del terms[key]\n                continue\n",
           "",
           ("tests/test_polynomial.py::test_zero_pruning",
            "tests/test_forms.py::test_d_and_koszul_delete_cancelled_entries")),
    Mutant("sum-terms-skips-exact", "polynomial.py",
           "        terms[key] = exact(c)\n",
           "        terms[key] = c\n",
           ("tests/test_polynomial.py::test_integral_coefficients_are_stored_as_ints",
            "tests/test_forms.py::test_integral_results_are_stored_as_ints")),
    # -- substitution on the integer scale of a chart
    Mutant("substitute-powers-in-forward-order", "polynomial.py",
           "_power_image(alpha[:i] + (e - e // 2,) + alpha[i + 1:], rows, power_cache)",
           "_power_image(alpha[:i] + (e // 2,) + alpha[i + 1:], rows, power_cache)",
           ("tests/test_forms.py::test_pullback_functoriality_and_naturality",
            "tests/test_forms.py::test_integer_substitution_on_a_fixed_chart_of_every_kind_of_entry")),
    Mutant("power-image-over-one-scale", "polynomial.py",
           "    return nums, den * scale ** top\n",
           "    return nums, den * scale\n",
           ("tests/test_forms.py::test_integer_substitution_on_a_fixed_chart_of_every_kind_of_entry",)),
    Mutant("power-image-peels-one-at-a-time", "polynomial.py",
           "        if e == 1 or low in power_cache:\n",
           "        if True:\n",
           ("tests/test_polynomial.py::test_a_lone_high_power_caches_logarithmically_many_powers",)),
    Mutant("barycentric-planes-without-exact", "polynomial.py",
           "    return [([exact(Fraction(g, s)) for g in grad], exact(Fraction(const, s)))",
           "    return [([Fraction(g, s) for g in grad], Fraction(const, s))",
           ("tests/test_polynomial.py::test_barycentric_properties_random",)),
    # -- degrees of freedom
    Mutant("dof-matrix-drops-last-row", "dofs.py",
           "    return rows\n",
           "    return rows[:-1]\n",
           ("tests/test_dofs.py::test_dof_matrix_is_the_exact_matrix_rescaled",)),
    Mutant("face-traces-keeps-cancelled-entries", "dofs.py",
           "{j: v.numerator for j, v in entry.items() if v}",
           "{j: v.numerator for j, v in entry.items()}",
           ("tests/test_dofs.py::test_dof_matrix_drops_a_trace_that_cancels",)),
    Mutant("face-traces-skips-integrality-check", "dofs.py",
           "any(v.denominator != 1 for v in entry.values())",
           "False",
           ("tests/test_dofs.py::test_dof_matrix_rejects_a_trace_that_is_not_integral",)),
    Mutant("face-filter-checks-support-against-f", "dofs.py",
           "support & ~near",
           "support & ~seen",
           ("tests/test_dofs.py::test_dof_matrix_matches_the_pullback_oracle",)),
    Mutant("trace-moment-accepts-r-0", "dofs.py",
           "    if r < 1:\n        raise ValueError(f\"the trace-moment",
           "    if r < 0:\n        raise ValueError(f\"the trace-moment",
           ("tests/test_dofs.py::test_trace_moment_vanishing_refuses_degree_0",)),
    Mutant("trace-moment-drops-a-moment-row", "dofs.py",
           "rows(interior, weights, cols):",
           "rows(interior, weights, cols)[1:]:",
           ("tests/test_dofs.py::test_trace_moment_vanishing",)),
    # -- integration, families and tables
    Mutant("moments-pair-a-weight-with-its-own-alternator", "forms.py",
           "                    tau = complement(sigma, q.n)\n",
           "                    tau = sigma\n",
           ("tests/test_dofs.py::test_apply_examples",
            "tests/test_dofs.py::test_unisolvence_spot_checks",
            "tests/test_forms.py::test_face_moments_match_wedge_then_integrate",
            "tests/test_forms.py::test_face_moments_match_on_family_weights")),
    Mutant("face-moment-rows-skip-the-rescale", "forms.py",
           "                v = m * (scale // d)\n",
           "                v = m\n",
           ("tests/test_dofs.py::test_face_moment_rows_match_one_column_calls",
            "tests/test_dofs.py::test_dof_matrix_is_the_exact_matrix_rescaled")),
    Mutant("box-monomial-rule-e-plus-2", "forms.py",
           "        den *= e + 1\n",
           "        den *= e + 2\n",
           ("tests/test_forms.py::test_integrate_box_examples",)),
    Mutant("s-chain-drop-0", "spaces.py",
           '"S": Family("box", 1, 1),',
           '"S": Family("box", 1, 0),',
           ("tests/test_complexes.py::test_chain_degrees",)),
    Mutant("next-level-refuses-the-least-r", "spaces.py",
           "    if spec.k < spec.n and r >= facts.rmin:\n",
           "    if spec.k < spec.n and r > facts.rmin:\n",
           ("tests/test_complexes.py::test_chain_degrees",
            "tests/test_complexes.py::test_chain_degrees_follow_the_family_table")),
    Mutant("table-entry-off-by-one-for-s", "tables.py",
           "got = spaces.dimension(spaces.SpaceSpec(family, n, r, k))\n",
           "got = spaces.dimension(spaces.SpaceSpec(family, n, r, k)) + (family == \"S\")\n",
           ("tests/test_acceptance.py::test_criterion_1_table1_reproduction",
            "tests/test_verify.py::test_table1_certificates_pass")),
    Mutant("s-stream-without-d-j", "spaces.py",
           "    if k >= 1:\n        yield from map(exterior_derivative, _j_generators(",
           "    if False:\n        yield from map(exterior_derivative, _j_generators(",
           ("tests/test_acceptance.py::test_criterion_1_table1_reproduction",
            "tests/test_verify.py::test_table1_certificates_pass",
            "tests/test_spaces.py::test_bases_from_the_streams_match_the_selection_over_all_pieces")),
    Mutant("pminus-count-skips-the-p-part", "spaces.py",
           "return monomial_count(n, k, r - 1) + span_rank(",
           "return span_rank(",
           ("tests/test_verify.py::test_dims_certificates_pass",
            "tests/test_verify.py::test_dims_Pminus_certificate_fails_on_dropped_generator",
            "tests/test_spaces.py::test_count_matches_the_basis_size")),
    Mutant("p-count-off-by-one", "spaces.py",
           "        return monomial_count(n, k, r)\n",
           "        return monomial_count(n, k, r) + 1\n",
           ("tests/test_verify.py::test_dims_certificates_pass",
            "tests/test_verify.py::test_dims_P_certificate_fails_on_dropped_basis_form",
            "tests/test_spaces.py::test_count_matches_the_basis_size")),
    # -- exact linear algebra
    Mutant("mod-p-certifies-a-zero-pivot", "linalg.py",
           "        if not piv:\n            return False\n",
           "        if not piv:\n            return True\n",
           ("tests/test_linalg.py::test_is_nonsingular",)),
    Mutant("mod-p-skips-the-second-prime", "linalg.py",
           "for p in _PRIMES)",
           "for p in _PRIMES[:1])",
           ("tests/test_linalg.py::test_is_nonsingular_second_prime_decides_when_the_first_cannot",)),
    Mutant("lu-solve-drops-the-scale", "linalg.py",
           "for j in range(n)], -sign * s\n",
           "for j in range(n)], 1\n",
           ("tests/test_linalg.py::test_lu_solve_is_exact_or_refuses_a_singular_matrix",)),
    Mutant("lu-singular-check-past-n", "linalg.py",
           "if any(col >= n for col in self.ech.pivots):",
           "if any(col > n for col in self.ech.pivots):",
           ("tests/test_linalg.py::test_lu_solve_is_exact_or_refuses_a_singular_matrix",)),
    # -- meshes
    Mutant("from-dof-values-feeds-zero-coefficients", "mesh_assembly.py",
           "for mon, column in nodal if (c := sum(map(mul, w, column)))}",
           "for mon, column in nodal if (c := sum(map(mul, w, column))) or True}",
           ("tests/test_mesh.py::test_projection_reproduces_global_linears",)),
    Mutant("batched-moments-reuse-the-first-scale", "mesh_assembly.py",
           "            for held, (row, scale) in zip(tables, got):\n",
           "            for held, (row, _), (_, scale) in zip(tables, got, got[:1] * len(got)):\n",
           ("tests/test_mesh.py::test_scaled_moments_and_solves_match_the_one_weight_path",)),
    Mutant("moment-tables-keyed-without-the-weight", "mesh_assembly.py",
           "(psi.matrix, psi.offset, id(q))",
           "(psi.matrix, psi.offset)",
           ("tests/test_mesh.py::test_scaled_moments_and_solves_match_the_one_weight_path",
            "tests/test_mesh.py::test_dof_values_of_discontinuous_pieces_read_the_first_adjacent_element")),
    Mutant("moment-tables-keyed-without-the-chart-offset", "mesh_assembly.py",
           "(psi.matrix, psi.offset, id(q))",
           "(psi.matrix, id(q))",
           ("tests/test_mesh.py::test_scaled_moments_and_solves_match_the_one_weight_path",
            "tests/test_mesh.py::test_dof_values_of_discontinuous_pieces_read_the_first_adjacent_element")),
    Mutant("dof-values-read-the-last-adjacent-element", "mesh_assembly.py",
           "            ei, psi = face.adjacent[0]\n            if ei not in scaled:",
           "            ei, psi = face.adjacent[-1]\n            if ei not in scaled:",
           ("tests/test_mesh.py::test_dof_values_of_discontinuous_pieces_read_the_first_adjacent_element",)),
    Mutant("nodal-pattern-keyed-without-the-chart", "mesh_assembly.py",
           "tuple((id(dof.weight), psi.matrix, psi.offset) for dof, psi in local)",
           "tuple(id(dof.weight) for dof, psi in local)",
           ("tests/test_mesh.py::test_element_factors_are_shared_by_local_pattern",)),
    Mutant("facet-certificate-accepts-more-than-the-shared-vertices", "mesh_assembly.py",
           "if len(on) == len(shared) or _facet_separates(",
           "if True or _facet_separates(",
           ("tests/test_mesh.py::test_pair_the_certificate_cannot_decide_falls_back",)),
    Mutant("validation-planes-negated", "mesh_assembly.py",
           "planes.append([(grad, const) for grad, const, _ in",
           "planes.append([([-g for g in grad], -const) for grad, const, _ in",
           ("tests/test_mesh.py::test_integer_validation_agrees_with_the_oracle_on_thirds_and_sevenths",
            "tests/test_mesh.py::test_moved_vertex_breaks_conformity")),
    Mutant("constraint-rows-skip-faces-of-two-elements", "mesh_assembly.py",
           "            if e0 != ei:\n",
           "            if e0 != ei and len(dof.face.adjacent) > 2:\n",
           ("tests/test_mesh.py::test_assemble_face_sum_and_rank_agree",)),
    Mutant("constraint-rows-forget-a-dof-once-tied", "mesh_assembly.py",
           "first.setdefault(dof.index, (ei, row, scale))",
           "first.pop(dof.index, None) or first.setdefault(dof.index, (ei, row, scale))",
           ("tests/test_mesh.py::test_assemble_face_sum_and_rank_agree",)),
    Mutant("face-values-collect-monomials-of-the-first-column", "mesh_assembly.py",
           "for col in columns for key in col if key not in seen",
           "for col in columns[:1] for key in col if key not in seen",
           ("tests/test_mesh.py::test_scaled_moments_and_solves_match_the_one_weight_path",
            "tests/test_mesh.py::test_element_factors_are_shared_by_local_pattern")),
    Mutant("nodal-solves-ignore-the-row-scales", "mesh_assembly.py",
           "lu.solve([scale * (i == j) for i, (_, scale) in enumerate(rows)])",
           "lu.solve([int(i == j) for i, (_, scale) in enumerate(rows)])",
           ("tests/test_mesh.py::test_scaled_moments_and_solves_match_the_one_weight_path",
            "tests/test_mesh.py::test_element_factors_are_shared_by_local_pattern")),
    Mutant("conformity-needs-every-outside-plane", "mesh_assembly.py",
           "if any(_plane_value(plane, pt, s) for plane in outside):",
           "if all(_plane_value(plane, pt, s) for plane in outside):",
           ("tests/test_mesh.py::test_moved_vertex_breaks_conformity",)),
    Mutant("commuting-always-passes", "mesh_assembly.py",
           "    ok = left == right\n",
           "    ok = True\n",
           ("tests/test_verify.py::test_commuting_certificate_fails_on_wrong_chain_drop",)),
    Mutant("box-grid-axis-n-fastest", "mesh_assembly.py",
           "    points = [p[::-1] for p in product(*(range(m + 1) for m in reversed(shape)))]",
           "    points = list(product(*(range(m + 1) for m in shape)))",
           ("tests/test_mesh.py::test_sample_mesh_files_match_the_builders",)),
    # -- chain certificates
    Mutant("complex-accepts-a-one-level-chain", "complexes.py",
           "    if len(levels) < 2:\n",
           "    if len(levels) < 1:\n",
           ("tests/test_complexes.py::test_check_complex_refuses_a_chain_with_no_step",)),
    Mutant("exactness-kernel-at-0-at-least-the-constants", "complexes.py",
           '("kernel_at_0_is_constants", nullities[0] == 1)',
           '("kernel_at_0_is_constants", nullities[0] >= 1)',
           ("tests/test_verify.py::test_exactness_certificate_fails_on_dropped_component",)),
    Mutant("s-properties-skips-the-subcomplex", "complexes.py",
           "        following = next_level(s.spec)\n",
           "        following = None\n",
           ("tests/test_verify.py::test_S_properties_certificate_fails_on_wrong_chain_drop",)),
    Mutant("exactness-accepts-rank-below-nullity", "complexes.py",
           '(f"exact_at_{j}", ranks[j - 1] == nullities[j])',
           '(f"exact_at_{j}", ranks[j - 1] <= nullities[j])',
           ("tests/test_verify.py::test_exactness_certificate_fails_on_dropped_component",)),
    Mutant("s-properties-ignores-the-degree", "complexes.py",
           "ok = ok and degree_low and degree_high and inclusion",
           "ok = ok and inclusion",
           ("tests/test_verify.py::test_S_properties_certificate_fails_on_a_degree_below_P",)),
    Mutant("s-properties-ignores-the-inclusion", "complexes.py",
           "degree_high and inclusion and trace_ok",
           "degree_high and trace_ok",
           ("tests/test_verify.py::test_S_properties_certificate_fails_when_S_r_leaves_S_r_plus_1",)),
    Mutant("s-properties-ignores-the-top-forms", "complexes.py",
           "ok = ok and sdeg_match and top_match",
           "ok = ok and sdeg_match",
           ("tests/test_verify.py::test_S_properties_certificate_fails_when_top_forms_are_not_P_r",)),
    Mutant("s-properties-ignores-the-sdeg-description", "complexes.py",
           "    ok = ok and sdeg_match and top_match\n",
           "    ok = ok and top_match\n",
           ("tests/test_verify.py::test_S_properties_certificate_fails_on_a_wrong_superlinear_degree",)),
    Mutant("s-brackets-keep-w-with-x-i", "complexes.py",
           "for w in multiindices(3, max_deg) if not w[i]]",
           "for w in multiindices(3, max_deg)]",
           ("tests/test_complexes.py::test_s_brackets_are_the_slot_brackets_up_to_sign",
            "tests/test_complexes.py::test_S_vector_proxies")),
    # -- homogeneous identities
    Mutant("direct-sum-without-the-rank-identity", "complexes.py",
           "    ok = (rank_kappa + rank_d == dim_h) and (rank_union == dim_h)\n",
           "    ok = rank_union == dim_h\n",
           ("tests/test_verify.py::test_direct_sum_certificate_fails_when_the_contraction_image_meets_d",)),
    Mutant("direct-sum-without-the-union-rank", "complexes.py",
           " and (rank_union == dim_h)\n",
           "\n",
           ("tests/test_verify.py::test_direct_sum_certificate_fails_when_the_contraction_image_lies_in_d",)),
    Mutant("homotopy-accepts-an-empty-space", "complexes.py",
           "    if not (basis := basis_H(r, k, n)):\n",
           "    if not (basis := basis_H(r, k, n)) and False:\n",
           ("tests/test_complexes.py::test_homotopy_and_direct_sum_refuse_an_empty_homogeneous_space",
            "tests/test_cli.py::test_homotopy_on_an_empty_homogeneous_space_exits_2")),
    # -- origin independence
    Mutant("origin-compares-the-basis-with-itself", "complexes.py",
           "spans_equal(basis.forms, moved)",
           "spans_equal(basis.forms, basis.forms)",
           ("tests/test_verify.py::test_origin_certificate_fails_on_homogeneous_basis",)),
    # -- the suite's worker pool
    Mutant("suite-drops-the-last-section", "verify.py",
           "pool.map(_run_section, range(len(SECTIONS)))",
           "pool.map(_run_section, range(len(SECTIONS) - 1))",
           ("tests/test_verify.py::test_full_suite_joins_the_workers_sections_in_report_order",
            "tests/test_verify.py::test_verify_all_reports_match_recorded_digests")),
    Mutant("suite-forks-where-fork-is-missing", "verify.py",
           'if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():',
           "if workers == 1:",
           ("tests/test_verify.py::test_full_suite_runs_in_process_without_fork_or_a_second_cpu",)),
    Mutant("suite-imports-the-pool-with-the-module", "verify.py",
           "import os\nimport sys\n",
           "import multiprocessing\nimport os\nimport sys\n",
           ("tests/test_verify.py::test_importing_the_cli_loads_no_process_pool",)),
    # -- exit-2 boundaries of the CLI
    Mutant("project-lets-a-non-utf8-mesh-escape", "cli.py",
           "        except (OSError, ValueError) as exc:",
           "        except (OSError, json.JSONDecodeError, mesh_assembly.MeshError) as exc:",
           ("tests/test_cli.py::test_project_unreadable_mesh",)),
    Mutant("write-lets-oserror-escape", "cli.py",
           "    except OSError as exc:\n        raise ValueError(f\"cannot write {path}",
           "    except ZeroDivisionError as exc:\n        raise ValueError(f\"cannot write {path}",
           ("tests/test_cli.py::test_unwritable_out_exits_2",)),
    Mutant("main-reports-a-crash-as-a-failed-certificate", "cli.py",
           "        code = 3\n",
           "        code = 1\n",
           ("tests/test_verify.py::test_verify_all_exits_1_only_on_a_failed_certificate",)),
    Mutant("form-parser-accepts-an-empty-term", "forms.py",
           "        if not toks:\n            raise ValueError(f\"empty term in {text!r}\")\n",
           "",
           ("tests/test_cli.py::test_project_form_with_repeated_tokens_exits_2",)),
    Mutant("mesh-accepts-float-and-bool-coordinates", "mesh_assembly.py",
           "isinstance(c, (str, Fraction))",
           "isinstance(c, (str, Fraction, float, bool))",
           ("tests/test_mesh.py::test_mesh_refuses_float_and_bool_coordinates",
            "tests/test_cli.py::test_project_mesh_with_bad_coordinate_exits_2")),
    Mutant("assembly-accepts-a-spec-that-is-not-unisolvent", "mesh_assembly.py",
           "            if len(local) != self.basis.dim:\n",
           "            if False:\n",
           ("tests/test_cli.py::test_project_spec_that_is_not_unisolvent_exits_2",)),
    Mutant("mesh-of-dimension-0-accepted", "mesh_assembly.py",
           '            raise MeshError(f"mesh dimension must be at least 1, got {n}")',
           "            pass",
           ("tests/test_cli.py::test_project_on_a_0_dimensional_mesh_exits_2",)),
)


def _failed_tests(output: str) -> set:
    """Node ids of the failed tests in `pytest -rf` output, parameters cut."""
    return {re.sub(r"\[.*$", "", line.split()[1])
            for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply one mutant to a fresh copy and run its tests: ("killed", "")
    when every named test fails, else ("survived" or "error", details)."""
    with tempfile.TemporaryDirectory(prefix="feforms-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        path = Path(tmp) / "src" / "feforms" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.find) != 1:
            return "error", f"the text to replace occurs {text.count(mutant.find)} times"
        path.write_text(text.replace(mutant.find, mutant.replace), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return "error", f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}"
    missed = set(mutant.tests) - _failed_tests(proc.stdout)
    if missed:
        return "survived", "passed: " + ", ".join(sorted(missed))
    return "killed", ""


def main(names) -> int:
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.monotonic()
    bad = 0
    for mutant in chosen:
        verdict, details = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.file}: {mutant.name}" + (f"  ({details})" if details else ""),
              flush=True)
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed "
          f"in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
