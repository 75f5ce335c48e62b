import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from feforms import (complexes, dofs, forms, mesh_assembly, polynomial, spaces, tables,
                     verify)
from feforms.cli import main, run
from feforms.complexes import Certificate, certificates_to_jsonl
from feforms.polynomial import Polynomial

# sha256 of the verify-all reports; any change to a certificate shows here
REPORT_SHA256 = {
    "certificates.jsonl":
        "6223090144e2297d636bd2b8da477908a54976cadfc9031e34237b2fcbff5f5a",
    "summary.tsv":
        "4a1c6244538b21f31c9a02ae3e57ecaaa7502a5e5db31697f1c0071e3ffe7d0a",
}


def test_golden_describe():
    golden = Path(__file__).parent / "golden" / "describe_pminus_r1_k1_n2.json"
    want = json.loads(golden.read_text())
    got = spaces.describe(spaces.make_spec("Pminus", 2, 1, 1))
    assert got == want


def test_unisolvence_certificate_fails_on_duplicated_functional(monkeypatch):
    spec = spaces.make_spec("Pminus", 2, 2, 1)
    assert verify._unisolvence_certificate(spec).passed
    functionals = dofs.dofs_for(spec).functionals
    # the last functional is replaced by the first: same count, repeated row
    broken = dofs.DofSet(spec, functionals[:-1] + functionals[:1])
    monkeypatch.setattr(dofs, "dofs_for", lambda s: broken)
    cert = verify._unisolvence_certificate(spec)
    assert cert.verdict == "fail"
    assert cert.witness["count_ok"] and not cert.witness["determinant_nonzero"]


def test_assembly_certificate_fails_on_dropped_edge_weight(monkeypatch):
    cases = (("two_triangle_square", (("Pminus", 2, 1),)),)
    monkeypatch.setattr(verify, "ASSEMBLY_CASES", cases)
    assert verify._assembly_certificates()[0].passed
    weights = mesh_assembly.weight_basis

    def drop_edge_weight(family, r, k, d):
        got = weights(family, r, k, d)
        # the last edge weight is dropped and the first repeated in its place
        return got[:1] + got[:-1] if d == 1 else got

    monkeypatch.setattr(mesh_assembly, "weight_basis", drop_edge_weight)
    cert = verify._assembly_certificates()[0]
    assert cert.verdict == "fail"
    # the DOF counts still agree; the matching-constraint rank exposes it
    assert cert.witness["global_dim"] == cert.witness["face_sum"]
    assert cert.witness["constraint_rank_dim"] > cert.witness["global_dim"]


def test_commuting_inputs_enumeration():
    forms = spaces.monomial_forms(2, 1, 1)
    # two alternators, three monomials of degree <= 1 each
    assert len(forms) == 6
    assert all(f.k == 1 for f in forms)


def test_assembly_certificates_pass():
    certs = verify._assembly_certificates()
    assert certs and all(c.passed for c in certs)


def test_table1_certificates_pass():
    certs = verify.tables.table1_certificates()
    assert [c.claim for c in certs] == ["table1:Qminus", "table1:S"]
    assert all(c.passed for c in certs)


def test_dims_certificates_pass():
    certs = verify._dims_certificates()
    assert [c.claim for c in certs] == ["dims:P", "dims:Pminus"]
    assert all(c.passed and c.witness["entries_checked"] == 84 for c in certs)


def test_table1_certificate_fails_on_perturbed_entry(monkeypatch):
    row = list(tables.QMINUS_TABLE[(2, 1)])
    row[2] += 1  # r = 3
    monkeypatch.setitem(tables.QMINUS_TABLE, (2, 1), row)
    qminus, s = tables.table1_certificates()
    assert qminus.verdict == "fail" and s.passed
    assert qminus.witness["mismatches"] == [
        {"n": 2, "k": 1, "r": 3, "expected": row[2], "computed": row[2] - 1}]


def off_by_one_at(formula, at):
    """A dimension formula `(n, r, k) -> int` that is one too large at `at`."""
    return lambda n, r, k: formula(n, r, k) + (1 if (n, r, k) == at else 0)


def basis_S_missing_last_form(where):
    """`spaces.basis_S` with the last form dropped wherever `where(n, r, k)`."""
    basis_S = spaces.basis_S

    def build(r, k, n):
        got = basis_S(r, k, n)
        return spaces.SpaceBasis(got.spec, got.forms[:-1]) if where(n, r, k) else got

    return build


def test_table1_certificate_fails_on_formula_that_disagrees_with_rank(monkeypatch, capsys):
    monkeypatch.setattr(spaces, "dimension_Qminus",
                        off_by_one_at(spaces.dimension_Qminus, (2, 2, 1)))
    qminus, s = tables.table1_certificates()
    assert qminus.verdict == "fail" and s.passed
    # the table and the basis agree; only the closed formula is off
    assert qminus.witness["mismatches"] == [
        {"n": 2, "k": 1, "r": 2, "expected": 12, "computed": 13, "rank": 12}]
    assert run(["table1"]) == 1
    assert "FAILURES detected" in capsys.readouterr().out


def test_table1_Qminus_certificate_fails_on_dropped_sigma(monkeypatch):
    qminus_caps = spaces.qminus_caps

    def dropping_first_sigma(r, k, n):
        caps = qminus_caps(r, k, n)
        if (n, r, k) == (3, 2, 1):
            next(caps)
        return caps

    monkeypatch.setattr(spaces, "qminus_caps", dropping_first_sigma)
    qminus, s = tables.table1_certificates()
    assert qminus.verdict == "fail" and s.passed
    # sigma = (1,) carries caps (1, 2, 2), so 18 of the 54 forms go missing
    assert qminus.witness["mismatches"] == [
        {"n": 3, "k": 1, "r": 2, "expected": 54, "computed": 54, "rank": 36}]


CACHED_BASES = ("basis_P", "basis_Pminus", "basis_Qminus", "basis_S", "basis_J",
                "basis_Hrl", "basis_H")


def test_table1_builds_no_Qminus_basis():
    # nor any other basis: table1 and dims count, and keep nothing
    for name in CACHED_BASES:
        getattr(spaces, name).cache_clear()
    tables.table1_certificates()
    verify._dims_certificates()
    assert {name: getattr(spaces, name).cache_info().currsize
            for name in CACHED_BASES} == dict.fromkeys(CACHED_BASES, 0)


def test_table1_verb_counts_each_S_entry_once(monkeypatch, capsys):
    count = spaces.count
    counted = []
    monkeypatch.setattr(spaces, "count",
                        lambda spec: counted.append(spec.family) or count(spec))
    assert run(["table1"]) == 0
    assert "dim S forms on the n-box" in capsys.readouterr().out
    assert counted == ["S"] * 84


def first_generator_dropped(stream, at):
    """A generator stream `(r, k, n) -> iterator` without its first generator
    where (n, r, k) == at; at the specs used here it lies outside the span
    of the others, so the rank falls by one."""
    def gens(r, k, n):
        it = stream(r, k, n)
        if (n, r, k) == at:
            next(it)
        return it

    return gens


def test_table1_S_certificate_fails_on_dropped_basis_form(monkeypatch):
    monkeypatch.setattr(spaces, "_s_generators",
                        first_generator_dropped(spaces._s_generators, (3, 2, 1)))
    qminus, s = tables.table1_certificates()
    assert qminus.passed and s.verdict == "fail"
    assert s.witness["mismatches"] == [
        {"n": 3, "k": 1, "r": 2, "expected": 48, "computed": 47}]


def test_dims_P_certificate_fails_on_dropped_basis_form(monkeypatch):
    # the P count at (3, 2, 1) misses one monomial
    count = spaces.count
    monkeypatch.setattr(spaces, "count", lambda spec: count(spec) - (
        spec == spaces.make_spec("P", 3, 2, 1)))
    p, pminus = verify._dims_certificates()
    assert p.verdict == "fail" and pminus.passed
    assert p.witness["mismatches"] == [
        {"n": 3, "r": 2, "k": 1, "formula": 30, "rank": 29}]


def test_dims_Pminus_certificate_fails_on_perturbed_formula(monkeypatch):
    monkeypatch.setattr(spaces, "dimension_Pminus",
                        off_by_one_at(spaces.dimension_Pminus, (2, 3, 1)))
    p, pminus = verify._dims_certificates()
    assert p.passed and pminus.verdict == "fail"
    # the rank disagrees, and so does the ratio to dim P
    assert pminus.witness["mismatches"] == [
        {"n": 2, "r": 3, "k": 1, "formula": 16, "rank": 15}]
    assert pminus.witness["ratio_failures"] == [{"n": 2, "r": 3, "k": 1}]


def test_dims_Pminus_certificate_fails_on_dropped_generator(monkeypatch):
    monkeypatch.setattr(spaces, "_pminus_generators",
                        first_generator_dropped(spaces._pminus_generators, (2, 3, 1)))
    p, pminus = verify._dims_certificates()
    assert p.passed and pminus.verdict == "fail"
    # the formula and its ratio to dim P hold; the rank falls one short
    assert pminus.witness["mismatches"] == [
        {"n": 2, "r": 3, "k": 1, "formula": 15, "rank": 14}]
    assert pminus.witness["ratio_failures"] == []


def test_S_properties_certificate_fails_on_truncated_edge_space(monkeypatch):
    assert complexes.check_S_properties(2, 1).passed
    # the S 1-forms on an edge lose their last form, so traces leave them
    monkeypatch.setattr(complexes, "basis_S",
                        basis_S_missing_last_form(lambda n, r, k: (n, k) == (1, 1)))
    cert = complexes.check_S_properties(2, 1)
    assert cert.verdict == "fail"
    assert [entry["trace"] for entry in cert.witness["per_k"]] == [True, False, True]
    assert cert.witness["per_k"][1]["counterexample"] == "1/1 x1 dx1"


def test_S_properties_certificate_fails_on_wrong_chain_drop(monkeypatch):
    assert complexes.check_S_properties(2, 3).passed
    # a drop of 2 sends d of S_3 k-forms to S_1 (k+1)-forms, too small to hold them
    monkeypatch.setitem(spaces.FAMILIES, "S", spaces.Family("box", 1, 2))
    cert = complexes.check_S_properties(2, 3)
    assert cert.verdict == "fail"
    assert [(e["subcomplex"], e.get("counterexample")) for e in cert.witness["per_k"]] == [
        (False, "1/1 x2^3"), (False, "1/1 x2^3 dx1"), (None, None)]


def test_S_properties_certificate_fails_on_a_wrong_superlinear_degree(monkeypatch):
    assert complexes.check_S_properties(2, 2).passed
    # superlinear degree one too high: the sdeg <= r monomials span only S_(r-1)
    monkeypatch.setattr(complexes, "sdeg_exponents",
                        lambda a: polynomial.sdeg_exponents(a) + 1)
    cert = complexes.check_S_properties(2, 2)
    assert cert.verdict == "fail"
    assert not cert.witness["sdeg_characterizes_0forms"]
    assert cert.witness["top_forms_equal_P"]
    assert all(e["degree"] and e["inclusion"] and e["trace"] and e["subcomplex"] is not False
               for e in cert.witness["per_k"])


def test_S_properties_certificate_fails_on_a_degree_below_P(monkeypatch):
    assert complexes.check_S_properties(2, 2).passed
    # P_(r+1) in place of P_r below the top: S_r no longer holds it
    basis_P = spaces.basis_P
    monkeypatch.setattr(complexes, "basis_P", lambda r, k, n: basis_P(r + (k < n), k, n))
    cert = complexes.check_S_properties(2, 2)
    assert cert.verdict == "fail"
    assert [e["degree"] for e in cert.witness["per_k"]] == [False, False, True]
    assert cert.witness["sdeg_characterizes_0forms"] and cert.witness["top_forms_equal_P"]
    assert all(e["inclusion"] and e["trace"] and e["subcomplex"] is not False
               for e in cert.witness["per_k"])


def test_S_properties_certificate_fails_when_S_r_leaves_S_r_plus_1(monkeypatch):
    assert complexes.check_S_properties(2, 2).passed
    # S_1 in place of S_3: the inclusion S_2 in S_3 fails, the rest holds
    basis_S = spaces.basis_S
    monkeypatch.setattr(complexes, "basis_S", lambda r, k, n: basis_S(1 if r == 3 else r, k, n))
    cert = complexes.check_S_properties(2, 2)
    assert cert.verdict == "fail"
    assert [e["inclusion"] for e in cert.witness["per_k"]] == [False, False, False]
    assert cert.witness["sdeg_characterizes_0forms"] and cert.witness["top_forms_equal_P"]
    assert all(e["degree"] and e["trace"] and e["subcomplex"] is not False
               for e in cert.witness["per_k"])


def test_S_properties_certificate_fails_when_top_forms_are_not_P_r(monkeypatch):
    assert complexes.check_S_properties(2, 2).passed
    # P_(r-1) in place of P_r at the top: it still lies in S_r, but spans less
    basis_P = spaces.basis_P
    monkeypatch.setattr(complexes, "basis_P", lambda r, k, n: basis_P(r - (k == n), k, n))
    cert = complexes.check_S_properties(2, 2)
    assert cert.verdict == "fail"
    assert not cert.witness["top_forms_equal_P"]
    assert cert.witness["sdeg_characterizes_0forms"]
    assert all(e["degree"] and e["inclusion"] and e["trace"] and e["subcomplex"] is not False
               for e in cert.witness["per_k"])


def test_commuting_certificate_fails_on_wrong_chain_drop(monkeypatch):
    monkeypatch.setattr(verify, "COMMUTING_CASES", (("two_triangle_square", "Pminus", 2),))
    assert all(c.passed for c in verify._commuting_certificates())
    # a P-like drop sends d of Pminus_2 0-forms to Pminus_1 1-forms
    monkeypatch.setitem(spaces.FAMILIES, "Pminus", spaces.Family("simplex", 1, 1))
    [cert] = verify._commuting_certificates()
    assert cert.verdict == "fail" and cert.params["r"] == 2
    # the linear inputs lie in both spaces and still commute
    assert cert.witness["inputs_tested"] == 10
    assert sorted(cert.witness["failures"]) == sorted(
        forms.form_to_string(u) for u in spaces.monomial_forms(2, 0, 3)
        if u.degree() >= 2)


def test_no_verify_all_certificate_checks_nothing():
    # a complex certificate with no level would pass having checked nothing
    certs = verify.full_suite()
    assert all(c.witness["levels"] for c in certs if "levels" in c.witness)


def test_homotopy_certificate_fails_on_flipped_koszul_sign(monkeypatch):
    assert complexes.check_homotopy(2, 1, 1).passed
    monkeypatch.setattr(complexes, "koszul", lambda u: -forms.koszul(u))
    cert = complexes.check_homotopy(2, 1, 1)
    assert cert.verdict == "fail"
    assert len(cert.witness["failures"]) == cert.witness["basis_size"] > 0


def dropping_first_component(operator):
    """`operator` with the first component of each result dropped."""
    def broken(u):
        v = operator(u)
        comps = dict(v.components)
        if comps:
            del comps[min(comps)]
        return forms.PolyForm(v.n, v.k, comps)
    return broken


@pytest.mark.parametrize("kind, name, failing", [
    ("P", "exterior_derivative",
     {"kernel_at_0_is_constants", "exact_at_1", "exact_at_2"}),
    ("koszul", "koszul", {"exact_at_1", "level0_misses_constants_only"})])
def test_exactness_certificate_fails_on_dropped_component(monkeypatch, kind, name,
                                                          failing):
    assert complexes.check_exactness(kind, 2, 3).passed
    monkeypatch.setattr(complexes, name, dropping_first_component(getattr(forms, name)))
    cert = complexes.check_exactness(kind, 2, 3)
    assert cert.verdict == "fail"
    assert {c for c, ok in cert.witness["conditions"].items() if not ok} == failing


def test_direct_sum_certificate_fails_on_dropped_component(monkeypatch):
    assert complexes.check_direct_sum(2, 1, 1).passed
    monkeypatch.setattr(complexes, "exterior_derivative",
                        dropping_first_component(forms.exterior_derivative))
    cert = complexes.check_direct_sum(2, 1, 1)
    assert cert.verdict == "fail"
    assert cert.witness == {"dim": 4, "rank_kappa": 1, "rank_d": 1, "rank_union": 2}


def test_direct_sum_certificate_fails_when_the_contraction_image_meets_d(monkeypatch):
    """kappa(f) + d(x1^2 f_23), with f_23 the dx2^dx3 coefficient of f, is
    one-to-one on the homogeneous 2-forms of degree 1 in 3D and spans the
    same sum with the image of d, but meets it: only the rank identity
    rank_kappa + rank_d == dim can fail."""
    assert complexes.check_direct_sum(3, 2, 1).passed
    x1_squared = Polynomial(3, {(2, 0, 0): 1})

    def overlapping(f):
        g = forms.PolyForm.from_polynomial(f.component((2, 3)) * x1_squared)
        return forms.koszul(f) + forms.exterior_derivative(g)

    monkeypatch.setattr(complexes, "koszul", overlapping)
    cert = complexes.check_direct_sum(3, 2, 1)
    assert cert.verdict == "fail"
    assert cert.witness == {"dim": 18, "rank_kappa": 9, "rank_d": 10, "rank_union": 18}


def test_direct_sum_certificate_fails_when_the_contraction_image_lies_in_d(monkeypatch):
    """A contraction onto d(x1 x2) keeps rank_kappa + rank_d == dim, but
    the two images no longer span: only rank_union == dim can fail."""
    assert complexes.check_direct_sum(2, 1, 1).passed
    exact_form = forms.exterior_derivative(forms.PolyForm.monomial(2, (1, 1), ()))
    monkeypatch.setattr(complexes, "koszul", lambda f: exact_form)
    cert = complexes.check_direct_sum(2, 1, 1)
    assert cert.verdict == "fail"
    assert cert.witness == {"dim": 4, "rank_kappa": 1, "rank_d": 3, "rank_union": 3}


def test_origin_certificate_fails_on_homogeneous_basis(monkeypatch):
    assert complexes.check_origin_independence("S", 2, 1, 1).passed
    # homogeneous forms: a translate picks up lower-degree terms outside the span
    monkeypatch.setattr(complexes, "basis_for", lambda spec: spaces.SpaceBasis(
        spec, spaces.basis_H(spec.r, spec.k, spec.n)))
    cert = complexes.check_origin_independence("S", 2, 1, 1)
    assert cert.verdict == "fail"
    assert cert.witness == {"dim": len(spaces.basis_H(1, 1, 2))}


def test_S_vector_proxy_certificate_fails_on_dropped_basis_form(monkeypatch):
    assert complexes.check_S_vector_proxies(1).passed
    basis_S = spaces.basis_S
    monkeypatch.setattr(complexes, "basis_S", lambda r, k, n: spaces.SpaceBasis(
        spaces.make_spec("S", n, r, k), basis_S(r, k, n).forms[:-1]))
    cert = complexes.check_S_vector_proxies(1)
    assert cert.verdict == "fail"
    assert cert.witness == {"one_forms_match": False, "two_forms_match": False}


def test_verify_all_reports_match_recorded_digests(tmp_path, capsys):
    assert run(["verify-all", "--out", str(tmp_path)]) == 0
    for name, want in REPORT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def serial_suite():
    """The eleven sections of the suite called in this process, in report order."""
    return (tables.table1_certificates() + verify._dims_certificates()
            + verify._unisolvence_certificates() + verify._homotopy_certificates()
            + verify._exactness_certificates() + verify._complex_certificates()
            + verify._s_property_certificates() + verify._origin_certificates()
            + verify._trace_moment_certificates() + verify._commuting_certificates()
            + verify._assembly_certificates())


def test_full_suite_joins_the_workers_sections_in_report_order():
    parallel = certificates_to_jsonl(verify.full_suite())
    assert not multiprocessing.active_children()
    assert parallel == certificates_to_jsonl(serial_suite())


@pytest.mark.parametrize("platform", ["no fork", "cpu count unknown", "one cpu"])
def test_full_suite_runs_in_process_without_fork_or_a_second_cpu(monkeypatch, tmp_path,
                                                                   platform):
    import concurrent.futures

    if platform == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: None if platform == "cpu count unknown" else 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("the suite started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run(["verify-all", "--out", str(tmp_path)]) == 0
    for name, want in REPORT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
    assert not multiprocessing.active_children()


def only_section(monkeypatch, section):
    """Every section of the suite returns no certificate, apart from the
    commuting section, which becomes `section`.  All are local closures,
    which a worker cannot receive pickled: it must look them up by name."""
    for module, name in verify.SECTIONS:
        monkeypatch.setattr(sys.modules[f"feforms.{module}"], name, lambda: [])
    monkeypatch.setattr(verify, "_commuting_certificates", section)


def test_verify_all_fails_on_a_failing_certificate_from_a_worker(monkeypatch, tmp_path,
                                                                   capsys):
    only_section(monkeypatch, lambda: [Certificate("commuting", {}, "fail")])
    assert run(["verify-all", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("0/1 certificates passed")
    assert not multiprocessing.active_children()


def test_full_suite_reraises_a_worker_crash(monkeypatch):
    def crash():
        raise RuntimeError("section crashed")

    only_section(monkeypatch, crash)
    with pytest.raises(RuntimeError, match="section crashed"):
        verify.full_suite()
    assert not multiprocessing.active_children()


def test_verify_all_exits_2_when_a_worker_refuses_its_input(monkeypatch, tmp_path, capsys):
    def refuse():
        raise ValueError("bad input")

    only_section(monkeypatch, refuse)
    monkeypatch.setattr(sys, "argv", ["feforms", "verify-all", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 2
    assert "bad input" in capsys.readouterr().err
    assert not multiprocessing.active_children()


def section_crashes():
    raise RuntimeError("section crashed")


@pytest.mark.parametrize("section, code, message", [
    (lambda: [Certificate("commuting", {}, "fail")], 1, ""),
    (section_crashes, 3, "error: RuntimeError: section crashed\n"),
    (lambda: os._exit(3), 3, "error: BrokenProcessPool: "),
], ids=["failed-certificate", "section-crash", "dead-worker"])
def test_verify_all_exits_1_only_on_a_failed_certificate(monkeypatch, tmp_path, capsys,
                                                         section, code, message):
    only_section(monkeypatch, section)
    monkeypatch.setattr(sys, "argv", ["feforms", "verify-all", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == code
    err_text = capsys.readouterr().err
    assert err_text.startswith(message) if message else err_text == ""
    assert not multiprocessing.active_children()


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported by full_suite, so start-up stays as it was
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, feforms.cli, feforms.verify; print(sorted(name for name in "
            "('concurrent.futures', 'multiprocessing') if name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
