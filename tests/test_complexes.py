import json

import pytest

from feforms.complexes import (
    Certificate,
    certificates_to_jsonl,
    chain,
    check_complex,
    check_direct_sum,
    check_exactness,
    check_homotopy,
    check_origin_independence,
    check_S_properties,
    check_S_vector_proxies,
    s_brackets,
    summary_tsv,
)
from feforms.forms import AffineEmbedding, PolyForm, exterior_derivative, koszul
from feforms.spaces import FAMILIES, basis_H
from oracles import slot_brackets


def chain_degrees(family, r, n):
    """The degrees of `chain(family, n, r)`, padded with None to n + 1
    levels, once its level k is checked to hold the family's k-forms on R^n."""
    levels = chain(family, n, r)
    assert [(s.family, s.n, s.k) for s in levels] == [
        (family, n, k) for k in range(len(levels))]
    return [s.r for s in levels] + [None] * (n + 1 - len(levels))


def test_chain_degrees():
    assert chain_degrees("Pminus", 2, 3) == [2, 2, 2, 2]
    assert chain_degrees("P", 2, 3) == [2, 1, 0, None]
    assert chain_degrees("S", 2, 3) == [2, 1, None, None]
    assert chain_degrees("Qminus", 1, 2) == [1, 1, 1]


def family_rule_degrees(family, r, n):
    """The chain degrees by family name: constant for the trimmed families,
    one lower per level for P (down to 0) and S (down to 1)."""
    lowest = {"P": 0, "S": 1}.get(family)
    degrees = [r if family in ("Pminus", "Qminus") else r - k for k in range(n + 1)]
    return [None if lowest is not None and deg < lowest else deg for deg in degrees]


def test_chain_degrees_follow_the_family_table():
    for family in FAMILIES:
        for n in range(5):
            for r in range(1, 7):
                if n == 0:  # a chain needs a derivative to step by
                    with pytest.raises(ValueError, match="chains need n >= 1"):
                        chain(family, n, r)
                else:
                    assert chain_degrees(family, r, n) == family_rule_degrees(family, r, n)


def test_chain_checks_reject_bad_parameters():
    assert check_complex("Qminus", 2, 1).passed
    assert check_exactness("Pminus", 2, 2).passed
    for check, args in ((check_complex, ("S", 2, 0)), (check_complex, ("Qminus", 0, 1)),
                        (check_complex, ("P", -2, 2)), (check_exactness, ("P", 0, 1)),
                        (check_exactness, ("koszul", 2, 0))):
        with pytest.raises(ValueError, match="chains need n >= 1 and r >= 1"):
            check(*args)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_complex_refuses_a_chain_with_no_step(n):
    # S_1 is the bottom of its chain: a certificate would check nothing
    assert len(chain("S", n, 1)) == 1
    with pytest.raises(ValueError, match="no two consecutive levels"):
        check_complex("S", n, 1)


def test_check_complex_families():
    assert check_complex("Pminus", 3, 2).passed
    assert check_complex("P", 2, 3).passed
    assert check_complex("S", 3, 3).passed
    assert check_complex("Qminus", 3, 2).passed


def test_exactness_pdr():
    cert = check_exactness("P", 2, 3)
    assert cert.passed
    assert cert.witness["dims"] == [10, 12, 3]
    assert cert.witness["ranks"] == [9, 3, 0]
    assert cert.witness["nullities"] == [1, 9, 3]


def test_exactness_pmdr_and_koszul():
    assert check_exactness("Pminus", 3, 2).passed
    assert check_exactness("koszul", 2, 3).passed
    cert = check_exactness("koszul", 3, 2)
    assert cert.passed
    assert cert.witness["conditions"]["injective_at_top"]


def test_homotopy_trivial_cases():
    # constants: factor 0
    assert check_homotopy(2, 0, 0).passed
    # r=0, k=1: (contract d + d contract) acts as the identity
    cert = check_homotopy(2, 0, 1)
    assert cert.passed and cert.witness["factor"] == 1
    # hand check: x2 dx1 maps to 2 x2 dx1
    w = PolyForm.monomial(2, (0, 1), (1,))
    lhs = koszul(exterior_derivative(w)) + exterior_derivative(koszul(w))
    assert lhs == 2 * w


def test_homotopy_full_range_small():
    for n in (1, 2, 3):
        for r in (0, 1, 2, 3):
            for k in range(n + 1):
                cert = check_homotopy(n, r, k)
                assert cert.passed
                assert cert.params == {"n": n, "r": r, "k": k}


@pytest.mark.parametrize("n, r, k", [(2, 1, 5), (2, 1, -1), (2, -1, 1)])
def test_homotopy_rejects_out_of_range(n, r, k):
    with pytest.raises(ValueError):
        check_homotopy(n, r, k)


@pytest.mark.parametrize("check, args", [
    (check_homotopy, (0, 3, 0)), (check_direct_sum, (0, 1, 0)),
    (check_direct_sum, (1, 1, 2))])
def test_homotopy_and_direct_sum_refuse_an_empty_homogeneous_space(check, args):
    # with nothing to check, both certificates would pass vacuously
    with pytest.raises(ValueError, match="no homogeneous degree"):
        check(*args)


def test_complex_certificate_fails_on_wrong_degree_target(monkeypatch):
    from feforms import complexes
    from feforms.spaces import make_spec

    assert check_complex("Pminus", 2, 2).passed
    basis_for = complexes.basis_for

    def lower_degree_1_forms(spec):
        if spec.k == 1:
            spec = make_spec(spec.family, spec.n, spec.r - 1, spec.k)
        return basis_for(spec)

    monkeypatch.setattr(complexes, "basis_for", lower_degree_1_forms)
    cert = check_complex("Pminus", 2, 2)
    assert cert.verdict == "fail"
    level0 = cert.witness["levels"][0]
    assert not level0["contained"] and "counterexample" in level0


def test_direct_sum():
    cert = check_direct_sum(2, 1, 1)
    assert cert.passed
    assert cert.witness == {"dim": 4, "rank_kappa": 1, "rank_d": 3,
                            "rank_union": 4}
    # k = 0: no derivative part, contraction hits everything
    cert = check_direct_sum(3, 2, 0)
    assert cert.passed and cert.witness["rank_d"] == 0
    # k = n: no contraction part
    cert = check_direct_sum(2, 2, 2)
    assert cert.passed and cert.witness["rank_kappa"] == 0
    assert cert.witness["rank_d"] == len(basis_H(2, 2, 2))


def test_S_properties():
    for n in (1, 2, 3):
        for r in (1, 2):
            cert = check_S_properties(n, r)
            assert cert.passed, cert.witness
    cert = check_S_properties(2, 3)
    assert cert.witness["sdeg_characterizes_0forms"]
    assert cert.witness["top_forms_equal_P"]


def test_S_vector_proxies():
    for r in (1, 2):
        assert check_S_vector_proxies(r).passed


@pytest.mark.parametrize("max_deg, count", [(0, 3), (1, 9), (2, 18), (3, 30), (4, 45)])
def test_s_brackets_are_the_slot_brackets_up_to_sign(max_deg, count):
    # kappa(x1 w dx2^dx3) is the slot form of w1 itself; kappa(x2 w dx1^dx3)
    # is minus that of w2, since dx1^dx3 = -dx3^dx1
    got, want = s_brackets(max_deg), slot_brackets(max_deg)
    assert len(got) == len(want) == count
    signs = [1 if g == w else -1 if g == -w else 0 for g, w in zip(got, want)]
    assert signs == [1] * (count // 3) + [-1] * (count // 3) + [1] * (count // 3)


def test_origin_independence():
    assert check_origin_independence("Pminus", 2, 2, 1).passed
    assert check_origin_independence("S", 3, 1, 1).passed


def test_certificate_serialization():
    cert = Certificate("demo", {"n": 2}, "pass", {"x": 1})
    doc = json.loads(cert.to_json())
    assert doc == {"claim": "demo", "params": {"n": 2}, "verdict": "pass",
                   "witness": {"x": 1}}
    text = certificates_to_jsonl([cert, cert])
    assert text.count("\n") == 2
    tsv = summary_tsv([cert])
    assert tsv.splitlines()[0] == "claim\tparams\tverdict"
    assert "demo" in tsv


def test_certificates_deterministic():
    a = check_exactness("Pminus", 2, 2)
    b = check_exactness("Pminus", 2, 2)
    assert a.to_json() == b.to_json()


def test_origin_check_builds_one_translation_chart(monkeypatch):
    # one chart per check, so its substitution power cache serves every form
    calls = []
    translation = AffineEmbedding.translation
    monkeypatch.setattr(AffineEmbedding, "translation", classmethod(
        lambda cls, shift: calls.append(shift) or translation(shift)))
    assert check_origin_independence("S", 3, 2, 1).passed
    assert len(calls) == 1
