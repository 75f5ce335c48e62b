import random
from fractions import Fraction
from math import comb

import pytest

from feforms.forms import AffineEmbedding
from feforms.polynomial import (
    DegenerateSimplexError,
    NEG_INF,
    Polynomial,
    affine_polynomial,
    barycentric,
    barycentric_planes,
    rational_from_string,
    rational_to_string,
    sdeg_exponents,
)
from oracles import antiderivative, evaluate, homogeneous_part


def x(n, j):
    return Polynomial.variable(n, j)


def rand_poly(rng, n, deg):
    p = Polynomial.zero(n)
    for _ in range(rng.randint(1, 6)):
        alpha = [0] * n
        for _ in range(rng.randint(0, deg)):
            alpha[rng.randrange(n)] += 1
        p = p + Polynomial.monomial(n, tuple(alpha), rng.randint(-4, 4))
    return p


def test_rational_strings():
    assert rational_to_string(Fraction(0)) == "0/1"
    assert rational_to_string(Fraction(-6, 4)) == "-3/2"
    assert rational_from_string("-3/2") == Fraction(-3, 2)
    assert rational_from_string("7") == 7


def test_arith_examples():
    two = x(2, 1) * x(2, 1)
    assert two == Polynomial.monomial(2, (2, 0))
    assert (x(2, 1) + x(2, 2)) - x(2, 1) == x(2, 2)
    assert 2 * Polynomial.monomial(2, (1, 1), Fraction(1, 2)) == Polynomial.monomial(2, (1, 1))


def test_integral_coefficients_are_stored_as_ints():
    p = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): "6/3"})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 2}
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    half = Polynomial.monomial(1, (1,), Fraction(1, 2))
    doubled = AffineEmbedding([[2]], [0]).substitute(half)
    for q in (half + half, 2 * half, half * Polynomial.constant(1, 2), doubled,
              Polynomial.monomial(1, (2,), Fraction(1, 2)).partial(1)):
        assert q.terms == {(1,): 1} and type(q.terms[(1,)]) is int


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
def test_float_and_bool_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        Polynomial(1, {(0,): bad})
    with pytest.raises(TypeError):
        Polynomial.constant(1, bad)
    with pytest.raises(TypeError):
        x(1, 1) * bad
    with pytest.raises(TypeError):
        AffineEmbedding([[bad]], [0])
    with pytest.raises(TypeError):
        AffineEmbedding([[1]], [bad])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) * x(1, 1)


def test_zero_pruning():
    p = x(2, 1) - x(2, 1)
    assert p.is_zero and p.terms == {}
    assert p.degree() == NEG_INF
    assert p.degree() <= -10  # the sentinel accepts every degree bound
    assert ((x(1, 1) + 1) * (x(1, 1) - 1)).terms == {(2,): 1, (0,): -1}
    assert AffineEmbedding([[1], [-1]], [0, 0]).substitute(x(2, 1) + x(2, 2)).terms == {}


def test_partial_derivative():
    p = Polynomial.monomial(2, (2, 1))  # x1^2 x2
    assert p.partial(1) == 2 * Polynomial.monomial(2, (1, 1))
    assert x(2, 1).partial(2).is_zero
    q = Polynomial.monomial(3, (1, 1, 1))
    assert q.partial(1) == Polynomial.monomial(3, (0, 1, 1))
    with pytest.raises(ValueError):
        p.partial(3)


def test_homogeneous_parts():
    p = Polynomial.constant(1, 1) + x(1, 1) + Polynomial.monomial(1, (2,))
    assert homogeneous_part(p, 1) == x(1, 1)
    q = Polynomial.monomial(2, (1, 1))
    assert homogeneous_part(q, 2) == q
    assert homogeneous_part(q, 1).is_zero


def test_homogeneous_parts_sum_to_poly():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng, 3, 4)
        total = Polynomial.zero(3)
        for r in range(6):
            total = total + homogeneous_part(p, r)
        assert total == p


def test_euler_identity():
    """x . grad p = r p for homogeneous p of degree r."""
    rng = random.Random(5)
    for n in range(1, 5):
        for r in range(6):
            p = Polynomial.zero(n)
            for _ in range(4):
                base = homogeneous_part(rand_poly(rng, n, r), r)
                p = p + base
            lhs = Polynomial.zero(n)
            for j in range(1, n + 1):
                lhs = lhs + Polynomial.variable(n, j) * p.partial(j)
            assert lhs == r * p


def test_sdeg():
    assert sdeg_exponents((1, 3)) == 3     # x1 x2^3: the linear x1 is ignored
    assert sdeg_exponents((1, 1, 1)) == 0  # all variables linear
    assert sdeg_exponents((2,)) == 2
    assert Polynomial.zero(2).sdeg() == NEG_INF
    p = Polynomial.monomial(3, (1, 3, 0)) + Polynomial.monomial(3, (1, 1, 1))
    assert p.sdeg() == 3


def test_evaluate():
    p = Polynomial.monomial(2, (2, 1), Fraction(3, 2))
    assert evaluate(p, (Fraction(2), Fraction(1, 3))) == Fraction(2)


def test_compose_affine():
    # p = x1 + x2 along the segment t -> (t, 1 - t) is the constant 1
    p = x(2, 1) + x(2, 2)
    q = AffineEmbedding([[1], [-1]], [0, 1]).substitute(p)
    assert q == Polynomial.constant(1, 1)
    # identity substitution
    p2 = Polynomial.monomial(2, (2, 1), 5)
    ident = AffineEmbedding.identity(2).substitute(p2)
    assert ident == p2
    # (x1)^2 with x1 = 2t gives 4 t^2
    sq = Polynomial.monomial(1, (2,))
    assert AffineEmbedding([[2]], [0]).substitute(sq) == Polynomial.monomial(1, (2,), 4)
    # a power far beyond the interpreter's recursion limit
    high = Polynomial.monomial(1, (5000,))
    assert (AffineEmbedding([[2]], [0]).substitute(high)
            == Polynomial.monomial(1, (5000,), 2 ** 5000))


def test_a_lone_high_power_caches_logarithmically_many_powers():
    # x1 -> 1 - t2 on the second triangle of the unit square: not a
    # coordinate chart, so x1^200 is substituted, by halving its exponent
    chart = AffineEmbedding([[0, -1], [1, 1]], [1, 0])
    assert chart._coords is None
    image = chart.substitute(Polynomial.monomial(2, (200, 0)))
    assert image.terms == {(0, j): (-1) ** j * comb(200, j) for j in range(201)}
    assert len(chart._powers) <= 2 * (200).bit_length() + 2


def test_antiderivative_inverts_partial():
    rng = random.Random(9)
    for _ in range(10):
        p = rand_poly(rng, 2, 3)
        assert antiderivative(p, 1).partial(1) == p


def test_barycentric_unit_triangle():
    sys = barycentric([(0, 0), (1, 0), (0, 1)])
    lam0, lam1, lam2 = sys.lambdas
    one = Polynomial.constant(2, 1)
    assert lam0 == one - x(2, 1) - x(2, 2)
    assert lam1 == x(2, 1)
    assert lam2 == x(2, 2)


def test_barycentric_interval():
    sys = barycentric([(0,), (1,)])
    assert sys.lambdas[0] == Polynomial.constant(1, 1) - x(1, 1)
    assert sys.lambdas[1] == x(1, 1)


def test_barycentric_properties_random():
    rng = random.Random(1)
    for n in (1, 2, 3):
        for _ in range(5):
            verts = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                           for _ in range(n)) for _ in range(n + 1)]
            try:
                sys = barycentric(verts)
            except DegenerateSimplexError:
                continue
            total = Polynomial.zero(n)
            for lam in sys.lambdas:
                total = total + lam
            assert total == Polynomial.constant(n, 1)
            for i, lam in enumerate(sys.lambdas):
                for j, v in enumerate(verts):
                    assert evaluate(lam, v) == (1 if i == j else 0)
            planes = barycentric_planes(verts)
            assert [affine_polynomial(n, grad, const)
                    for grad, const in planes] == list(sys.lambdas)
            assert all(type(c) is int or c.denominator > 1
                       for grad, const in planes for c in (*grad, const))


def test_barycentric_degenerate():
    with pytest.raises(DegenerateSimplexError):
        barycentric([(0, 0), (1, 0), (2, 0)])
