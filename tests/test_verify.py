import hashlib
import json
from pathlib import Path

import pytest

from feforms import complexes, dofs, forms, mesh_assembly, spaces, tables, verify
from feforms.cli import run

# sha256 of the verify-all reports; any change to a certificate shows here
REPORT_SHA256 = {
    "certificates.jsonl":
        "42272dadcc42d554f8dc4f278c290f4e2658a75bb8fcc137bcc02c47ae0dcd40",
    "summary.tsv":
        "b3bf83106881ca0b6dc0c45f43f8c078f3088ece26c02d15e783367fe3bf1dad",
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


def test_table1_certificate_fails_on_perturbed_entry(monkeypatch):
    row = list(tables.QMINUS_TABLE[(2, 1)])
    row[2] += 1  # r = 3
    monkeypatch.setitem(tables.QMINUS_TABLE, (2, 1), row)
    qminus, s = tables.table1_certificates()
    assert qminus.verdict == "fail" and s.passed
    assert qminus.witness["mismatches"] == [
        {"n": 2, "k": 1, "r": 3, "expected": row[2], "computed": row[2] - 1}]


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


def test_origin_certificate_fails_on_homogeneous_basis(monkeypatch):
    assert complexes.check_origin_independence("S", 2, 1, 1).passed
    # homogeneous forms: a translate picks up lower-degree terms outside the span
    monkeypatch.setattr(complexes, "basis_for",
                        lambda spec: spaces.basis_H(spec.r, spec.k, spec.n))
    cert = complexes.check_origin_independence("S", 2, 1, 1)
    assert cert.verdict == "fail"
    assert cert.witness == {"dim": spaces.basis_H(1, 1, 2).dim}


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
