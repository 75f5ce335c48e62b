import json
from pathlib import Path

from feforms import dofs, mesh_assembly, spaces, verify


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

    def drop_edge_weight(family, r, k, d, kind):
        got = weights(family, r, k, d, kind)
        # the last edge weight is dropped and the first repeated in its place
        return got[:1] + got[:-1] if d == 1 else got

    monkeypatch.setattr(mesh_assembly, "weight_basis", drop_edge_weight)
    cert = verify._assembly_certificates()[0]
    assert cert.verdict == "fail"
    # the DOF counts still agree; the matching-constraint rank exposes it
    assert cert.witness["global_dim"] == cert.witness["face_sum"]
    assert cert.witness["constraint_rank_dim"] > cert.witness["global_dim"]


def test_commuting_inputs_enumeration():
    forms = verify.commuting_inputs(2, 1, 1)
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
