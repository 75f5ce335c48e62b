import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from feforms import forms
from feforms.combinatorics import enumerate_sigma, merge, multiindices
from feforms.dofs import weight_basis
from feforms.forms import (
    AffineEmbedding,
    FaceMoments,
    PolyForm,
    exterior_derivative,
    form_from_string,
    form_to_string,
    integrate_box,
    integrate_simplex,
    integrate_std_simplex,
    integrate_unit_box,
    koszul,
    ldeg,
    pullback,
    std_simplex_vertices,
    wedge,
)
from feforms.polynomial import DegenerateSimplexError, Polynomial, affine_polynomial
from oracles import (
    compose,
    evaluate,
    fraction_pullback,
    fraction_substitute,
    iterated_box_integral,
    iterated_simplex_integral,
    polynomial_exterior_derivative,
    polynomial_koszul,
    std_simplex_facets,
    unit_box_facets,
)


def rand_form(rng, n, k, deg):
    u = PolyForm.zero(n, k)
    sigmas = enumerate_sigma(k, n)
    for _ in range(rng.randint(1, 5)):
        sigma = sigmas[rng.randrange(len(sigmas))]
        alpha = [0] * n
        for _ in range(rng.randint(0, deg)):
            alpha[rng.randrange(n)] += 1
        u = u + PolyForm.monomial(n, tuple(alpha), sigma, rng.randint(-3, 3))
    return u


def rand_homogeneous(rng, n, k, r):
    u = PolyForm.zero(n, k)
    sigmas = enumerate_sigma(k, n)
    choices = [a for a in multiindices(n, r) if sum(a) == r]
    for _ in range(rng.randint(1, 5)):
        sigma = sigmas[rng.randrange(len(sigmas))]
        alpha = choices[rng.randrange(len(choices))]
        u = u + PolyForm.monomial(n, alpha, sigma, rng.randint(-3, 3))
    return u


# -- wedge ----------------------------------------------------------------


def test_wedge_examples():
    dx1 = PolyForm.dx(2, 1)
    dx2 = PolyForm.dx(2, 2)
    assert wedge(dx1, dx1).is_zero
    assert wedge(dx1, dx2) == PolyForm.monomial(2, (0, 0), (1, 2))
    a = PolyForm.monomial(2, (0, 1), (1,))  # x2 dx1
    b = PolyForm.monomial(2, (1, 0), (2,))  # x1 dx2
    assert wedge(a, b) == PolyForm.monomial(2, (1, 1), (1, 2))


def test_wedge_anticommutativity():
    rng = random.Random(0)
    for n in (2, 3, 4):
        for k in range(n + 1):
            for j in range(n + 1 - k):
                a = rand_form(rng, n, k, 2)
                b = rand_form(rng, n, j, 2)
                flip = (-1) ** (k * j)
                assert wedge(a, b) == flip * wedge(b, a)


def test_wedge_associativity():
    rng = random.Random(1)
    for _ in range(10):
        a = rand_form(rng, 3, 1, 2)
        b = rand_form(rng, 3, 1, 2)
        c = rand_form(rng, 3, 1, 2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(PolyForm.dx(2, 1), PolyForm.dx(3, 1))


# -- exterior derivative ----------------------------------------------------


def test_d_examples():
    u = PolyForm.from_polynomial(Polynomial.variable(2, 1))
    assert exterior_derivative(u) == PolyForm.dx(2, 1)
    v = PolyForm.monomial(2, (1, 0), (2,))  # x1 dx2
    assert exterior_derivative(v) == PolyForm.monomial(2, (0, 0), (1, 2))
    w = PolyForm.monomial(2, (0, 1), (1,))  # x2 dx1
    assert exterior_derivative(w) == PolyForm.monomial(2, (0, 0), (1, 2), -1)


def test_dd_zero():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for _ in range(5):
                u = rand_form(rng, n, k, 5)
                assert exterior_derivative(exterior_derivative(u)).is_zero


def test_d_lowers_degree_raises_form_degree():
    rng = random.Random(3)
    for _ in range(10):
        u = rand_form(rng, 3, 1, 4)
        du = exterior_derivative(u)
        assert du.k == 2
        assert du.degree() <= max(u.degree() - 1, -1)


def test_d_leibniz():
    rng = random.Random(4)
    for n in (2, 3):
        for k in range(n):
            for j in range(n - k):
                a = rand_form(rng, n, k, 3)
                b = rand_form(rng, n, j, 3)
                lhs = exterior_derivative(wedge(a, b))
                rhs = wedge(exterior_derivative(a), b) + \
                    (-1) ** k * wedge(a, exterior_derivative(b))
                assert lhs == rhs


# -- contraction --------------------------------------------------------------


def test_koszul_examples():
    two = PolyForm.monomial(2, (0, 0), (1, 2))
    assert koszul(two) == (PolyForm.monomial(2, (1, 0), (2,))
                           - PolyForm.monomial(2, (0, 1), (1,)))
    assert koszul(PolyForm.dx(2, 1)) == PolyForm.from_polynomial(
        Polynomial.variable(2, 1))
    assert koszul(koszul(two)).is_zero


def test_koszul_three_index():
    u = PolyForm.monomial(3, (0, 0, 0), (1, 2, 3))
    want = (PolyForm.monomial(3, (1, 0, 0), (2, 3))
            - PolyForm.monomial(3, (0, 1, 0), (1, 3))
            + PolyForm.monomial(3, (0, 0, 1), (1, 2)))
    assert koszul(u) == want


def test_kk_zero_and_leibniz():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for k in range(n + 1):
            for _ in range(5):
                u = rand_form(rng, n, k, 5)
                assert koszul(koszul(u)).is_zero
        for k in range(n + 1):
            for j in range(n + 1 - k):
                a = rand_form(rng, n, k, 3)
                b = rand_form(rng, n, j, 3)
                lhs = koszul(wedge(a, b))
                rhs = wedge(koszul(a), b) + (-1) ** k * wedge(a, koszul(b))
                assert lhs == rhs


def test_koszul_raises_poly_degree():
    rng = random.Random(6)
    u = rand_form(rng, 3, 2, 3)
    assert koszul(u).degree() <= u.degree() + 1
    assert koszul(u).k == 1


def test_homotopy_identity_random():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for r in range(6):
                w = rand_homogeneous(rng, n, k, r)
                lhs = koszul(exterior_derivative(w)) + exterior_derivative(koszul(w))
                assert lhs == Fraction(k + r) * w


# -- ldeg --------------------------------------------------------------------


def test_ldeg():
    assert ldeg((1, 1, 5), (1,)) == 1  # x1 x2 x3^5 dx1, deg 7
    assert sum((1, 1, 5)) == 7
    assert ldeg((0, 1, 1), (1,)) == 2
    assert ldeg((1, 0, 0), (1,)) == 0


# -- pullback and trace --------------------------------------------------------


def test_pullback_identity():
    rng = random.Random(8)
    ident = AffineEmbedding.identity(3)
    for k in range(4):
        u = rand_form(rng, 3, k, 3)
        assert pullback(u, ident) == u


def test_pullback_examples():
    # edge of the unit triangle: t -> (t, 1 - t) pulls dx2 back to -dt
    edge = AffineEmbedding([[1], [-1]], [0, 1])
    assert pullback(PolyForm.dx(2, 2), edge) == -1 * PolyForm.dx(1, 1)
    # t -> (2t, 0): x1 dx1 pulls back to 4 t dt
    f = AffineEmbedding([[2], [0]], [0, 0])
    u = PolyForm.monomial(2, (1, 0), (1,))
    assert pullback(u, f) == PolyForm.monomial(1, (1,), (1,), 4)


def test_pullback_functoriality_and_naturality():
    rng = random.Random(9)
    for _ in range(8):
        g = AffineEmbedding([[rng.randint(-2, 2) for _ in range(2)]
                             for _ in range(3)],
                            [rng.randint(-2, 2) for _ in range(3)])
        f = AffineEmbedding([[rng.randint(-2, 2) for _ in range(3)]
                             for _ in range(3)],
                            [rng.randint(-2, 2) for _ in range(3)])
        for k in range(3):
            u = rand_form(rng, 3, k, 3)
            # (f . g)* = g* . f*
            assert pullback(u, compose(f, g)) == pullback(pullback(u, f), g)
            # pullback commutes with d
            assert pullback(exterior_derivative(u), f) == \
                exterior_derivative(pullback(u, f))
            v = rand_form(rng, 3, 1, 2)
            assert pullback(wedge(u, v), f) == \
                wedge(pullback(u, f), pullback(v, f))


def test_trace_examples():
    # restriction of x1 to the edge x2 = 0 of the unit triangle is t
    edge = AffineEmbedding([[1], [0]], [0, 0])
    u = PolyForm.from_polynomial(Polynomial.variable(2, 1))
    assert pullback(u, edge) == PolyForm.from_polynomial(
        Polynomial.variable(1, 1))
    assert pullback(PolyForm.dx(2, 2), edge).is_zero
    two = PolyForm.monomial(2, (0, 0), (1, 2))
    assert pullback(two, edge).is_zero  # a 2-form dies on a 1-face


def test_nested_traces():
    face = AffineEmbedding([[1, 0], [0, 1], [0, 0]], [0, 0, 0])  # z = 0 plane
    edge = AffineEmbedding([[1], [0]], [0, 0])                    # then y = 0
    rng = random.Random(10)
    for k in range(2):
        u = rand_form(rng, 3, k, 3)
        assert pullback(pullback(u, face), edge) == pullback(u, compose(face, edge))


# -- integration ---------------------------------------------------------------


def test_integrate_simplex_examples():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert integrate_simplex(PolyForm.monomial(2, (0, 0), (1, 2)), tri) == Fraction(1, 2)
    assert integrate_simplex(PolyForm.monomial(2, (1, 1), (1, 2)), tri) == Fraction(1, 24)
    assert integrate_simplex(PolyForm.monomial(1, (1,), (1,)), [(0,), (1,)]) == Fraction(1, 2)


def test_integrate_simplex_orientation():
    tri = [(0, 0), (1, 0), (0, 1)]
    swapped = [(1, 0), (0, 0), (0, 1)]
    u = PolyForm.monomial(2, (0, 0), (1, 2))
    assert integrate_simplex(u, tri) == -integrate_simplex(u, swapped)


def test_integrate_simplex_degenerate():
    with pytest.raises(DegenerateSimplexError):
        integrate_simplex(PolyForm.monomial(2, (0, 0), (1, 2)),
                          [(0, 0), (1, 0), (2, 0)])


def test_integrate_simplex_against_iterated_oracle():
    """Factorial rule vs independent iterated symbolic integration."""
    for d in (1, 2, 3):
        for alpha in multiindices(d, 6):
            u = PolyForm.monomial(d, alpha, tuple(range(1, d + 1)))
            got = integrate_std_simplex(u)
            want = iterated_simplex_integral(Polynomial.monomial(d, alpha))
            assert got == want, (d, alpha)


def test_integrate_mapped_simplex_against_oracle():
    """Chart pullback + factorial rule vs oracle on a skewed triangle."""
    tri = [(Fraction(1, 2), 0), (2, 1), (0, 3)]
    chart = AffineEmbedding.from_simplex(tri)
    for alpha in multiindices(2, 3):
        u = PolyForm.monomial(2, alpha, (1, 2))
        got = integrate_simplex(u, tri)
        pulled = pullback(u, chart)
        want = iterated_simplex_integral(pulled.component((1, 2)))
        assert got == want


def test_integrate_box_examples():
    assert integrate_unit_box(PolyForm.monomial(2, (0, 0), (1, 2))) == 1
    assert integrate_unit_box(PolyForm.monomial(2, (1, 2), (1, 2))) == Fraction(1, 6)
    assert integrate_box(PolyForm.monomial(2, (0, 0), (1, 2)),
                         [(0, 2), (0, 1)]) == 2


def test_integrators_on_R0_are_point_evaluation():
    u = PolyForm.monomial(0, (), (), Fraction(-5, 3))
    assert integrate_std_simplex(u) == integrate_simplex(u, [()]) == Fraction(-5, 3)
    assert integrate_unit_box(u) == integrate_box(u, []) == Fraction(-5, 3)
    assert integrate_std_simplex(PolyForm.zero(0, 0)) == 0


def test_integrate_box_rejects():
    with pytest.raises(ValueError):
        integrate_box(PolyForm.monomial(2, (0, 0), (1, 2)), [(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        integrate_unit_box(PolyForm.dx(2, 1))


def test_stokes_simplex():
    """Signed facet traces sum to the integral of the derivative."""
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(8):
            u = rand_form(rng, d, d - 1, 4)
            lhs = integrate_std_simplex(exterior_derivative(u))
            rhs = Fraction(0)
            for sign, chart in std_simplex_facets(d):
                tr = pullback(u, chart)
                if d - 1 == 0:
                    rhs += sign * evaluate(tr.component(()), ())
                else:
                    rhs += sign * integrate_std_simplex(tr)
            assert lhs == rhs


def test_stokes_box():
    rng = random.Random(12)
    for n in (1, 2, 3):
        for _ in range(8):
            u = rand_form(rng, n, n - 1, 4)
            lhs = integrate_unit_box(exterior_derivative(u))
            rhs = Fraction(0)
            for sign, chart in unit_box_facets(n):
                tr = pullback(u, chart)
                if n - 1 == 0:
                    rhs += sign * evaluate(tr.component(()), ())
                else:
                    rhs += sign * integrate_unit_box(tr)
            assert lhs == rhs


def test_translate():
    u = PolyForm.from_polynomial(Polynomial.variable(2, 1))
    v = pullback(u, AffineEmbedding.translation((1, 0)))
    assert v.component(()) == Polynomial.variable(2, 1) + 1


def test_std_simplex_vertices():
    assert std_simplex_vertices(2) == [(0, 0), (1, 0), (0, 1)]


# -- canonical strings -----------------------------------------------------------


def test_form_strings_roundtrip():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for k in range(n + 1):
            for _ in range(5):
                u = rand_form(rng, n, k, 3)
                s = form_to_string(u)
                assert form_from_string(s, n, k) == u
    assert form_to_string(PolyForm.zero(2, 1)) == "0"
    assert form_from_string("0", 2, 1).is_zero


def test_form_from_string_rejects_indices_outside_dimension():
    # x0 must not wrap around to x2, nor x3 index past the end
    for text, k in (("1/1 x0", 0), ("1/1 x3", 0), ("1/1 x3^2", 0),
                    ("1/1 x1^", 0), ("1/1 dx0", 1), ("1/1 dx3", 1)):
        with pytest.raises(ValueError):
            form_from_string(text, 2, k)
    assert form_from_string("1/1 x2^2", 2, 0) == PolyForm.monomial(2, (0, 2), ())


def test_form_from_string_rejects_repeated_tokens():
    # a repeated variable or a second dx part used to keep only the last one
    for text, k in (("1/1 x1 x1", 0), ("1/1 x1^2 x1", 0),
                    ("1/1 x1 x2 + 1/1 x2 x2", 0), ("1/1 dx1 dx2", 1),
                    ("1/1 dx1 x1 dx2", 1)):
        with pytest.raises(ValueError):
            form_from_string(text, 2, k)
    assert form_from_string("1/1 x1 x2 dx1^dx2", 2, 2) == \
        PolyForm.monomial(2, (1, 1), (1, 2))


def test_form_string_format():
    u = PolyForm.monomial(2, (2, 0), (1,), Fraction(3, 2)) + \
        PolyForm.monomial(2, (0, 1), (2,), -1)
    assert form_to_string(u) == "3/2 x1^2 dx1 + -1/1 x2 dx2"
    two = PolyForm.monomial(3, (0, 0, 1), (1, 3))
    assert form_to_string(two) == "1/1 x3 dx1^dx3"


def test_zero_form_tolerant_algebra():
    z1 = PolyForm.zero(2, 1)
    z0 = PolyForm.zero(2, 0)
    assert z1 == z0  # zero forms compare equal across degrees
    u = PolyForm.dx(2, 1)
    assert u + z0 == u
    assert koszul(PolyForm.from_polynomial(Polynomial.variable(2, 1))).is_zero


def test_high_degree_forms_normalize_to_zero():
    u = PolyForm(2, 3, {})
    assert u.is_zero
    du = exterior_derivative(PolyForm.monomial(2, (0, 0), (1, 2)))
    assert du.is_zero and du.k == 3


# -- the face-moment kernel and the trusted constructors ------------------------

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def raw_terms(draw, n, k, max_degree=3):
    """Random (alternator, exponents, coefficient) triples of a k-form on R^n."""
    sigmas = enumerate_sigma(k, n)
    exps = st.tuples(*[st.integers(0, max_degree)] * n)
    return draw(st.lists(st.tuples(st.sampled_from(sigmas), exps, RATIONALS),
                         max_size=6))


def validated(n, k, terms) -> PolyForm:
    """The form with these terms (repeats added), built by the public
    constructors only."""
    comps: dict = {}
    for sigma, alpha, c in terms:
        coeffs = comps.setdefault(sigma, {})
        coeffs[alpha] = coeffs.get(alpha, 0) + c
    return PolyForm(n, k, {s: Polynomial(n, t) for s, t in comps.items()})


@st.composite
def random_forms(draw, n, k, max_degree=3):
    return validated(n, k, draw(raw_terms(n, k, max_degree)))


@st.composite
def rational_charts(draw):
    """(matrix, offset) of an affine map from Q^m into Q^n with rational
    entries of either sign, one image row zero in about half the draws."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    matrix = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    offset = draw(st.lists(entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        matrix[i], offset[i] = [0] * m, 0
    return matrix, offset


def assert_integer_paths_match_the_fraction_oracles(matrix, offset, polys, forms):
    chart = AffineEmbedding(matrix, offset)
    m = len(matrix[0])
    images = [affine_polynomial(m, row, c) for row, c in zip(matrix, offset)]
    for p in polys:  # one chart, so later polynomials read cached powers
        got = chart.substitute(p)
        assert got == fraction_substitute(p, images, m)
        assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())
    for u in forms:
        got = pullback(u, chart)
        assert got == fraction_pullback(u, matrix, offset)
        assert_invariant(got)


@settings(max_examples=50, deadline=None)
@given(chart=rational_charts(), data=st.data())
def test_integer_substitution_and_pullback_match_the_fraction_oracles(chart, data):
    n = len(chart[1])
    polys = [data.draw(random_forms(n, 0, 4)).component(()) for _ in range(2)]
    forms = [data.draw(random_forms(n, k)) for k in range(n + 1)]
    assert_integer_paths_match_the_fraction_oracles(*chart, polys, forms)


def test_integer_substitution_on_a_fixed_chart_of_every_kind_of_entry():
    """Non-integer matrix and offset entries of both signs and a zero
    image row, for every k."""
    matrix = [[Fraction(1, 2), Fraction(-2, 3)], [0, 0], [3, Fraction(1, 5)]]
    offset = [Fraction(-1, 3), 0, Fraction(5, 2)]
    u = form_from_string("2/3 x1^3 x3^2 + -1/2 x2 x3 + 1/1 x1", 3, 0)
    polys = [u.component(()), Polynomial.monomial(3, (4, 0, 5), Fraction(7, 3))]
    forms = [u, exterior_derivative(u),
             form_from_string("1/1 x1 x3 dx1^dx3 + -3/4 x3^2 dx2^dx3", 3, 2),
             form_from_string("5/6 x1^2 dx1^dx2^dx3", 3, 3)]
    assert [f.k for f in forms] == [0, 1, 2, 3]
    assert_integer_paths_match_the_fraction_oracles(matrix, offset, polys, forms)


def reference_moment(kind, tr, q):
    """The integral of tr ^ q over the reference face, by iterated
    integration of the volume coefficient of the wedge."""
    volume = wedge(tr, q).component(tuple(range(1, tr.n + 1)))
    if kind == "simplex":
        return iterated_simplex_integral(volume)
    return iterated_box_integral(volume, [(0, 1)] * tr.n)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.integers(0, 3), kind=st.sampled_from(["simplex", "box"]))
def test_face_moments_match_wedge_then_integrate(data, d, kind):
    k = data.draw(st.integers(0, d))
    q = data.draw(random_forms(d, d - k))
    moments = FaceMoments(kind)
    # the second trace reads moments the first one tabulated
    for _ in range(2):
        tr = data.draw(random_forms(d, k))
        assert moments(tr, q) == reference_moment(kind, tr, q)


@pytest.mark.parametrize("family, kind", [
    ("P", "simplex"), ("Pminus", "simplex"), ("S", "box"), ("Qminus", "box")])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_face_moments_match_on_family_weights(family, kind, data):
    d = data.draw(st.integers(0, 3))
    k = data.draw(st.integers(0, d))
    r = data.draw(st.integers(1, 3))
    moments = FaceMoments(kind)
    for q in weight_basis(family, r, k, d):
        tr = data.draw(random_forms(d, k))
        assert moments(tr, q) == reference_moment(kind, tr, q)


def test_face_moments_reject_bad_input():
    with pytest.raises(ValueError):
        FaceMoments("prism")
    moments = FaceMoments("simplex")
    with pytest.raises(ValueError):
        moments(PolyForm.dx(2, 1), PolyForm.volume(2))  # a 3-form on R^2
    with pytest.raises(ValueError):
        moments(PolyForm.dx(2, 1), PolyForm.dx(3, 2))


WIDTHS = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 3))
def test_box_integrals_match_iterated_antiderivatives(data, n):
    u = data.draw(random_forms(n, n))
    bounds = [(lo, lo + width) for lo, width in
              data.draw(st.lists(st.tuples(RATIONALS, WIDTHS), min_size=n, max_size=n))]
    top = u.component(tuple(range(1, n + 1)))
    assert integrate_box(u, bounds) == iterated_box_integral(top, bounds)
    assert integrate_unit_box(u) == iterated_box_integral(top, [(0, 1)] * n)


def is_stored_rational(c) -> bool:
    """c is a rational in its one stored form: an int, or a Fraction that
    is not integral; never a float, a bool or an integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_invariant(u: PolyForm):
    """Every key of `terms` is a monomial form (sigma, alpha) of a k-form on
    R^n, every value a nonzero rational in its one stored form, and the
    rebuild by the public constructor from the per-alternator view has
    equal terms."""
    for (sigma, alpha), c in u.terms.items():
        assert len(sigma) == u.k and all(1 <= s <= u.n for s in sigma)
        assert all(s < t for s, t in zip(sigma, sigma[1:]))
        assert len(alpha) == u.n and all(type(e) is int and e >= 0 for e in alpha)
        assert is_stored_rational(c) and c
    rebuilt = PolyForm(u.n, u.k, u.components)
    assert rebuilt == u and rebuilt.terms == u.terms


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 3))
def test_trusted_constructors_match_validating_ones(data, n):
    k = data.draw(st.integers(0, n))
    j = data.draw(st.integers(0, n - k))
    ta, tb = data.draw(raw_terms(n, k)), data.draw(raw_terms(n, k))
    a, b = validated(n, k, ta), validated(n, k, tb)
    c = data.draw(random_forms(n, j))
    s = data.draw(RATIONALS)
    p = data.draw(random_forms(n, 0)).component(())
    # few distinct entries, so that pulled-back terms often cancel
    entries = st.sampled_from([0, 1, -1, Fraction(1, 2)])
    m = data.draw(st.integers(0, n))
    chart = AffineEmbedding(
        data.draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                           min_size=n, max_size=n)),
        data.draw(st.lists(entries, min_size=n, max_size=n)))

    assert a + b == validated(n, k, ta + tb)
    assert a - b == validated(n, k, ta + [(sg, al, -x) for sg, al, x in tb])
    assert (a * s) == validated(n, k, [(sg, al, s * x) for sg, al, x in ta])
    # cancellation: these are zero with every term added in
    assert (a - a).components == {} and (a + (-a)).components == {}
    graded = wedge(a, c) + (-1) ** (k * j + 1) * wedge(c, a)
    assert graded.components == {}

    want: list = []
    for sa, pa in a.components.items():
        for sc, pc in c.components.items():
            sign, merged = merge(sa, sc)
            if sign:
                want += [(merged, tuple(x + y for x, y in zip(al, be)),
                          sign * x * y)
                         for al, x in pa.terms.items() for be, y in pc.terms.items()]
    assert wedge(a, c) == validated(n, k + j, want)
    assert a * p == validated(n, k, [(sg, tuple(x + y for x, y in zip(al, be)), v * w)
                                     for sg, al, v in ta for be, w in p.terms.items()])

    for u in (a + b, a - b, a * s, a * 0, a * p, wedge(a, c), graded, pullback(a, chart),
              exterior_derivative(a), koszul(a)):
        assert_invariant(u)


def test_trusted_arithmetic_drops_cancelled_terms():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    diagonal = AffineEmbedding(((1,), (1,)), (0, 0))  # t -> (t, t)
    p = x1 * x1 + Fraction(1, 2) * x2 - x1 * x2 - Fraction(1, 2) * x1
    assert diagonal.substitute(p).terms == {}
    u = PolyForm(2, 1, {(1,): x1 - x2, (2,): x2 * x2 - x1 * x2})
    assert pullback(u, diagonal).components == {}
    assert (x1 - x1).terms == {} and (u - u).components == {}


def test_integral_results_are_stored_as_ints():
    half = form_from_string("1/2 x1 dx1", 2, 1)
    assert half + half == PolyForm.monomial(2, (1, 0), (1,))
    assert (half + half).terms == {((1,), (1, 0)): 1}
    scale = AffineEmbedding([[2, 0], [0, 2]], [0, 0])
    results = [half + half, 2 * half, Fraction(2) * half,
               exterior_derivative(form_from_string("1/2 x1^2", 2, 0)),
               wedge(half, 2 * PolyForm.dx(2, 2)), pullback(half, scale)]
    for u in results:
        assert_invariant(u)
        assert all(type(c) is int for c in u.terms.values()), u


def test_polynomial_times_form_is_the_wedge_either_way():
    x1, dx1 = Polynomial.variable(2, 1), PolyForm.dx(2, 1)
    assert x1 * dx1 == dx1 * x1 == PolyForm.monomial(2, (1, 0), (1,))


@pytest.mark.parametrize("scalar", ["1/2", Decimal("0.5"), Fraction(1, 2)])
def test_scalar_products_accept_the_same_operands(scalar):
    x1, dx1 = Polynomial.variable(2, 1), PolyForm.dx(2, 1)
    assert x1 * scalar == scalar * x1 == Polynomial.monomial(2, (1, 0), Fraction(1, 2))
    assert dx1 * scalar == scalar * dx1 == PolyForm(2, 1, {(1,): Fraction(1, 2)})


@pytest.mark.parametrize("bad", [0.5, 2.0, True])
def test_float_and_bool_form_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        PolyForm(2, 0, {(): bad})
    with pytest.raises(TypeError):
        PolyForm.monomial(2, (1, 0), (1,), bad)
    with pytest.raises(TypeError):
        PolyForm.dx(2, 1) * bad
    with pytest.raises(TypeError):
        AffineEmbedding.from_simplex([(0, 0), (1, 0), (0, bad)])
    with pytest.raises(TypeError):
        integrate_box(PolyForm.volume(1), [(0, bad)])


# -- d and the contraction against the polynomial-arithmetic oracles ----------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_d_and_koszul_match_the_polynomial_oracles(data, n):
    k = data.draw(st.integers(0, n))
    u = data.draw(random_forms(n, k))
    du, ku = exterior_derivative(u), koszul(u)
    assert du == polynomial_exterior_derivative(u) and du.k == k + 1
    assert ku == polynomial_koszul(u) and ku.k == max(k - 1, 0)
    # dd = 0 and kk = 0: every entry cancels and none may stay behind
    assert exterior_derivative(du).components == {}
    assert koszul(ku).components == {}
    for v in (du, ku):
        assert_invariant(v)


def test_d_and_koszul_delete_cancelled_entries():
    closed = form_from_string("1/1 x2 dx1 + 1/1 x1 dx2", 2, 1)  # d(x1 x2)
    assert exterior_derivative(closed).components == {}
    u = form_from_string("1/1 x2 dx1^dx3 + -1/1 x1 dx2^dx3", 3, 2)
    ku = koszul(u)  # the x1 x2 dx3 terms cancel
    assert ku == form_from_string("-1/1 x2 x3 dx1 + 1/1 x1 x3 dx2", 3, 1)
    assert set(ku.components) == {(1,), (2,)}
    assert koszul(ku).components == {}
    for v in (ku, koszul(ku), exterior_derivative(closed)):
        assert_invariant(v)


# -- traces through coordinate injections --------------------------------------


def general_path(chart: AffineEmbedding) -> AffineEmbedding:
    """The same map, made to pull back by substitution."""
    general = AffineEmbedding(chart.matrix, chart.offset)
    general._coords = None
    return general


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), kind=st.sampled_from(["simplex", "box"]))
def test_coordinate_traces_match_the_substitution_path(data, n, kind):
    from feforms.dofs import reference_faces

    k = data.draw(st.integers(0, n))
    u = data.draw(random_forms(n, k))
    substitutions = []
    substitute = forms.substitute
    for face in reference_faces(kind, n):
        # box faces, vertices and the simplex faces through the origin reindex
        coordinate = kind == "box" or face.label[0] == 0 or face.dim == 0
        assert (face.embedding._coords is not None) == coordinate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "substitute",
                       lambda p, *rest: substitutions.append(p) or substitute(p, *rest))
            substitutions.clear()
            tr = pullback(u, face.embedding)
        assert not (coordinate and substitutions)
        assert tr == pullback(u, general_path(face.embedding))
        assert_invariant(tr)


@pytest.mark.parametrize("matrix, offset", [
    (((0, 1), (1, 0)), (0, 0)),       # free axes out of order
    (((2, 0), (0, 1)), (0, 0)),       # a scaled axis
    (((1,), (0,)), (0, 2)),           # an axis fixed at 2
    (((1,), (0,)), (1, 0)),           # a free axis with an offset
    (((1,), (1,)), (0, 0)),           # the diagonal
])
def test_other_charts_pull_back_by_substitution(matrix, offset, monkeypatch):
    chart = AffineEmbedding(matrix, offset)
    assert chart._coords is None
    calls = []
    substitute = forms.substitute
    monkeypatch.setattr(forms, "substitute",
                        lambda p, *rest: calls.append(p) or substitute(p, *rest))
    u = form_from_string("1/1 x1 x2^2 dx1 + 3/2 x2 dx2", 2, 1)
    pullback(u, chart)
    assert calls
