import random
from fractions import Fraction
from math import comb

import pytest

from feforms import spaces
from feforms.forms import (
    AffineEmbedding,
    PolyForm,
    exterior_derivative,
    koszul,
    pullback,
)
from feforms.polynomial import Polynomial
from feforms.spaces import (
    FAMILIES,
    SpaceSpec,
    basis_H,
    basis_Hrl,
    basis_J,
    basis_P,
    basis_Pminus,
    basis_Qminus,
    basis_S,
    basis_for,
    count,
    describe,
    dimension,
    dimension_P,
    dimension_Pminus,
    dimension_Qminus,
    make_spec,
    membership,
    monomial_forms,
    qminus_count,
    select_independent,
    span_rank,
    spans_equal,
)
from oracles import selected_basis_J, selected_basis_Pminus, selected_basis_S


def test_basis_P_sizes():
    assert basis_P(1, 1, 3).dim == 12          # C(3,1) * C(4,3)
    assert basis_P(0, 0, 2).dim == 1
    assert basis_P(4, 0, 3).dim == comb(7, 3)  # 35


def test_basis_P_formula_factors():
    for n in range(1, 5):
        for r in range(5):
            for k in range(n + 1):
                assert basis_P(r, k, n).dim == comb(n, k) * comb(n + r, n) \
                    == dimension_P(n, r, k)


def test_basis_Hrl_filter():
    b = basis_Hrl(2, 2, 1, 3)
    forms = [next(iter(f.components.items())) for f in b]
    listed = {(sigma, next(iter(poly.terms))) for sigma, poly in forms}
    assert ((1,), (0, 1, 1)) in listed      # x2 x3 dx1 qualifies
    assert ((1,), (0, 2, 0)) not in listed  # x2^2 dx1 has ldeg 0
    assert len(basis_Hrl(0, 1, 1, 3)) == 0  # constants have ldeg 0
    b2 = basis_Hrl(1, 1, 0, 2)
    assert spans_equal(b2, [
        PolyForm.from_polynomial(Polynomial.variable(2, 1)),
        PolyForm.from_polynomial(Polynomial.variable(2, 2))])


def test_basis_Pminus_sizes():
    assert basis_Pminus(1, 1, 3).dim == 6   # one per edge of a tetrahedron
    assert basis_Pminus(1, 0, 3).dim == 4
    assert spans_equal(basis_Pminus(1, 0, 3).forms, basis_P(1, 0, 3).forms)
    assert basis_Pminus(2, 2, 3).dim == comb(5, 1) * comb(3, 2)  # 15


def test_basis_Pminus_formula_everywhere():
    for n in range(1, 5):
        for r in range(1, 5):
            for k in range(n + 1):
                assert basis_Pminus(r, k, n).dim == dimension_Pminus(n, r, k)


def test_Pminus_zero_forms_equal_P():
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            assert spans_equal(basis_Pminus(r, 0, n).forms, basis_P(r, 0, n).forms)


def test_Pminus_top_forms_equal_lower_P():
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            assert spans_equal(basis_Pminus(r, n, n).forms,
                               basis_P(r - 1, n, n).forms)


def test_basis_J():
    assert len(basis_J(1, 2, 2)) == 0         # no 3-forms in two variables
    b = basis_J(1, 1, 2)
    assert len(b) == 0                         # ldeg of a 2-form monomial in 2d is 0
    b2 = basis_J(2, 0, 2)
    assert len(b2) == 2
    # membership in the ambient polynomial space of degree r + n - k - 1
    for (r, k, n) in [(1, 0, 2), (2, 0, 3), (1, 1, 3), (2, 1, 3)]:
        amb = basis_P(r + n - k - 1, k, n)
        for f in basis_J(r, k, n):
            assert amb.contains(f)


def test_basis_S_sizes():
    assert basis_S(2, 1, 3).dim == 48
    assert basis_S(1, 3, 3).dim == 4
    assert basis_S(3, 0, 2).dim == 12


def test_bases_d_and_koszul_build_no_polynomial(monkeypatch):
    """Basis forms are built, contracted and differentiated on their flat
    term maps: no per-alternator Polynomial is made on the way."""
    from feforms import spaces

    for name in ("basis_P", "basis_H", "basis_Hrl", "basis_J"):
        monkeypatch.setattr(spaces, name, getattr(spaces, name).__wrapped__)  # uncached
    made = []
    init, of = Polynomial.__init__, Polynomial._of.__func__
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, *a, **kw: made.append(a) or init(self, *a, **kw))
    monkeypatch.setattr(Polynomial, "_of",
                        classmethod(lambda cls, *a: made.append(a) or of(cls, *a)))
    bases = [basis_S.__wrapped__(3, 1, 3), basis_Pminus.__wrapped__(3, 1, 3)]
    for basis in bases:
        assert basis.dim
        for f in basis.forms:
            exterior_derivative(koszul(f))
    assert made == []
    PolyForm.dx(3, 1).components  # the counters do see both constructors
    assert len(made) == 2


def test_bases_and_their_d_and_koszul_images_hold_int_coefficients():
    """The generators are monomial forms with coefficient 1, and d and the
    contraction have integer coefficients on monomial forms, so every
    basis and its images under d and the contraction hold ints only."""
    for n in range(4):
        for r in range(4):
            for k in range(n + 1):
                forms = [*basis_P(r, k, n).forms, *basis_H(r, k, n), *basis_J(r, k, n)]
                if r >= 1:
                    forms += [*basis_Pminus(r, k, n).forms, *basis_Qminus(r, k, n).forms,
                              *basis_S(r, k, n).forms]
                for f in forms:
                    for g in (f, exterior_derivative(f), koszul(f)):
                        assert all(type(c) is int for c in g.terms.values()), g


def test_bases_from_the_streams_match_the_selection_over_all_pieces():
    """The P part joins the basis unselected and J is not selected before S
    reads it, yet each basis holds the same forms in the same order."""
    for n in range(1, 5):
        for r in range(1, 6):
            for k in range(n + 1):
                assert basis_S(r, k, n).forms == tuple(selected_basis_S(r, k, n))
                assert basis_Pminus(r, k, n).forms == tuple(selected_basis_Pminus(r, k, n))
                assert basis_J(r, k, n) == tuple(selected_basis_J(r, k, n))


def test_stream_generators_lie_above_the_full_polynomial_part():
    """Every term of an S generator has degree above r, and of a Pminus
    generator above r - 1, so no generator meets the P monomials."""
    for n in range(1, 5):
        for r in range(1, 7):
            for k in range(n + 1):
                for low, stream in ((r, spaces._s_generators), (r - 1, spaces._pminus_generators)):
                    for f in stream(r, k, n):
                        assert all(sum(alpha) > low for _, alpha in f.terms), (n, r, k, f)


def test_count_matches_the_basis_size():
    for family in FAMILIES:
        for n in range(1, 4):
            for r in range(1, 4):
                for k in range(n + 1):
                    spec = make_spec(family, n, r, k)
                    assert count(spec) == basis_for(spec).dim, spec


def test_basis_Qminus_sizes():
    assert basis_Qminus(2, 1, 3).dim == 54
    assert basis_Qminus(1, 0, 2).dim == 4
    assert basis_Qminus(1, 2, 2).dim == 1


def test_qminus_count_matches_the_enumeration():
    for n in range(1, 4):
        for r in range(1, 4):
            for k in range(n + 1):
                assert qminus_count(r, k, n) == len(basis_Qminus(r, k, n).forms)


def test_Qminus_tensor_structure_2d():
    # the 1-form space splits as [P_(r-1) x P_r] dx1 + [P_r x P_(r-1)] dx2
    r = 2
    b = basis_Qminus(r, 1, 2)
    for f in b.forms:
        ((sigma, poly),) = f.components.items()
        ((alpha, _),) = poly.terms.items()
        i = sigma[0] - 1
        assert alpha[i] <= r - 1
        assert alpha[1 - i] <= r


def test_dimension_methods_agree():
    for family in ("P", "Pminus", "Qminus"):
        for n in (1, 2, 3):
            for r in (1, 2, 3):
                for k in range(n + 1):
                    spec = make_spec(family, n, r, k)
                    assert dimension(spec) == basis_for(spec).dim


def test_dimension_S_needs_rank():
    spec = make_spec("S", 2, 2, 1)
    assert dimension(spec) == basis_for(spec).dim == 14


def test_dimension_ratio_identity():
    for n in range(1, 5):
        for r in range(1, 7):
            for k in range(n + 1):
                full = dimension_P(n, r, k)
                trimmed = dimension_Pminus(n, r, k)
                assert trimmed * (r + k) == r * full


def test_qminus_formula():
    assert dimension_Qminus(4, 2, 2) == 216
    assert dimension_Qminus(3, 2, 1) == 54


def test_spec_validation():
    with pytest.raises(TypeError):
        SpaceSpec("P", 2, 1, 1, "box")
    with pytest.raises(TypeError):
        SpaceSpec("S", 2, 1, 1, "simplex")
    with pytest.raises(ValueError):
        make_spec("Pminus", 2, 0, 1)
    with pytest.raises(ValueError):
        make_spec("P", 2, 1, 3)
    with pytest.raises(ValueError):
        make_spec("nope", 2, 1, 1)


def test_element_comes_from_the_family():
    assert [make_spec(f, 2, 1, 1).element for f in ("P", "Pminus", "Qminus", "S")] == [
        "simplex", "simplex", "box", "box"]


def test_membership():
    assert membership(PolyForm.monomial(2, (0, 1), (1,)), make_spec("P", 2, 1, 1))
    whitney = PolyForm.monomial(2, (1, 0), (2,)) - PolyForm.monomial(2, (0, 1), (1,))
    assert membership(whitney, make_spec("Pminus", 2, 1, 1))
    assert not membership(PolyForm.monomial(2, (2, 0), (1,)),
                          make_spec("P", 2, 1, 1))
    with pytest.raises(ValueError):
        membership(PolyForm.dx(3, 1), make_spec("P", 2, 1, 1))


def test_select_independent_drops_dependencies():
    """Zero forms are dependent on anything, and lie in every space of
    their shape."""
    a = PolyForm.dx(2, 1)
    b = PolyForm.dx(2, 2)
    c = a + b
    kept = select_independent([a, b, c, a])
    assert kept == [a, b]
    zero = PolyForm.zero(2, 1)
    assert select_independent([zero, a, zero, b]) == [a, b]
    assert span_rank([zero]) == 0
    constants = basis_P(0, 1, 2)
    assert constants.contains(zero)
    assert membership(zero, constants.spec)


def test_describe():
    doc = describe(make_spec("Pminus", 2, 1, 1))
    assert doc["dim"] == 3
    assert len(doc["basis"]) == 3
    assert doc["spec"]["family"] == "Pminus"
    assert all(isinstance(s, str) for s in doc["basis"])


def test_d_maps_P_into_lower_P():
    rng = random.Random(0)
    for n in (2, 3):
        for r in (1, 2, 3):
            for k in range(n):
                target = basis_P(r - 1, k + 1, n)
                for f in basis_P(r, k, n).forms:
                    assert target.contains(exterior_derivative(f))


def test_koszul_maps_P_into_higher_P():
    for n in (2, 3):
        for r in (0, 1, 2):
            for k in range(1, n + 1):
                target = basis_P(r + 1, k - 1, n)
                for f in basis_P(r, k, n).forms:
                    assert target.contains(koszul(f))


def test_d_Pminus_subcomplex():
    for n in (2, 3):
        for r in (1, 2):
            for k in range(n):
                target = basis_Pminus(r, k + 1, n)
                for f in basis_Pminus(r, k, n).forms:
                    assert target.contains(exterior_derivative(f))


def test_origin_independence_of_spans():
    chart = AffineEmbedding.translation((Fraction(1, 3), Fraction(-2, 5)))
    for r in (1, 2):
        for k in (0, 1, 2):
            b = basis_Pminus(r, k, 2)
            moved = [pullback(f, chart) for f in b.forms]
            assert spans_equal(b.forms, moved)
            s = basis_S(r, k, 2)
            moved = [pullback(f, chart) for f in s.forms]
            assert spans_equal(s.forms, moved)


def test_Pminus_affine_invariance():
    """The trimmed family is stable under invertible affine substitutions."""
    rng = random.Random(42)
    for n in (2, 3):
        for r in (1, 2):
            for k in range(n + 1):
                b = basis_Pminus(r, k, n)
                while True:
                    mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                           for _ in range(n)]
                    f = AffineEmbedding(mat, [rng.randint(-1, 1) for _ in range(n)])
                    if f.jacobian_det() != 0:
                        break
                moved = [pullback(g, f) for g in b.forms]
                assert spans_equal(b.forms, moved)


def test_box_families_axis_aligned_invariance():
    scale = AffineEmbedding([[Fraction(3, 2), 0], [0, Fraction(2)]],
                            [Fraction(1, 4), -1])
    for family_basis in (basis_Qminus, basis_S):
        for r in (1, 2):
            for k in (0, 1, 2):
                b = family_basis(r, k, 2)
                moved = [pullback(g, scale) for g in b.forms]
                assert spans_equal(b.forms, moved)


def test_monomial_forms_ordering():
    forms = monomial_forms(2, 1, 1)
    sigmas = [next(iter(f.components)) for f in forms]
    assert sigmas == sorted(sigmas)


def test_H_direct_sum_small():
    # 2d, r=1, k=1: contraction part is 1-dim, derivative part 3-dim
    kpart = [koszul(f) for f in basis_H(0, 2, 2)]
    dpart = [exterior_derivative(f) for f in basis_H(2, 0, 2)]
    assert span_rank(kpart) == 1
    assert span_rank(dpart) == 3
    assert span_rank(kpart + dpart) == 4 == len(basis_H(1, 1, 2))
