import random
from fractions import Fraction
from math import gcd

import pytest

from feforms import linalg


def test_echelon_rank_identity():
    ech = linalg.Echelon()
    for i in range(4):
        assert ech.add({i: 2})
    assert ech.rank == 4
    assert not ech.add({0: 3, 2: -5})


def test_echelon_membership():
    ech = linalg.Echelon()
    ech.add({0: 1, 1: 2})
    ech.add({1: 1, 2: 1})
    assert ech.contains({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
    assert not ech.contains({2: Fraction(1)})


def test_rank_random_products():
    """Rank of an outer-product style matrix equals the factor rank."""
    rng = random.Random(7)
    for _ in range(10):
        m, n, r = 6, 5, rng.randint(1, 3)
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(m)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
        prod = [[sum(left[i][t] * right[t][j] for t in range(r))
                 for j in range(n)] for i in range(m)]
        assert linalg.rank(prod) <= r


def test_solve_and_lu():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = linalg.solve(a, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]
    lu = linalg.LUFactor(a)
    assert lu.solve([Fraction(0), Fraction(0)]) == ([0, 0], 1)
    assert lu.solve([Fraction(5, 2), 5]) == ([1, 3], 2)


@pytest.mark.parametrize("b", [[3, 2, 99], [3], []])
def test_solve_rejects_a_right_hand_side_of_the_wrong_length(b):
    a = [[2, 1], [1, 1]]
    assert linalg.solve(a, [3, 2]) == [1, 1]
    with pytest.raises(ValueError, match="right-hand side"):
        linalg.solve(a, b)
    with pytest.raises(ValueError, match="right-hand side"):
        linalg.LUFactor(a).solve(b)


def test_lu_solve_is_exact_or_refuses_a_singular_matrix():
    """Random rational matrices, some made singular by replacing a later
    column with a combination of earlier ones: a full-rank matrix gives
    A x == b exactly, any other raises SingularMatrixError."""
    rng = random.Random(23)
    solved = refused = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else 0
              for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            j = rng.randrange(1, n)
            mix = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(j)]
            for row in a:
                row[j] = sum(c * row[i] for i, c in enumerate(mix))
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        if linalg.rank(a) == n:
            t, s = linalg.LUFactor(a).solve(b)
            assert all(type(v) is int for v in t) and type(s) is int and s > 0
            assert gcd(*t, s) == 1
            x = [Fraction(v, s) for v in t]
            assert [sum(r[j] * x[j] for j in range(n)) for r in a] == b
            solved += 1
        else:
            with pytest.raises(linalg.SingularMatrixError):
                linalg.LUFactor(a)
            refused += 1
    assert solved > 100 and refused > 50


def test_solve_singular():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve([[1, 2], [2, 4]], [1, 1])


def test_is_nonsingular():
    assert linalg.is_nonsingular([[Fraction(1, 2), 0], [5, Fraction(1, 3)]])
    assert not linalg.is_nonsingular([[1, 2], [2, 4]])
    assert not linalg.is_nonsingular([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        linalg.is_nonsingular([[1, 2, 3], [4, 5, 6]])


def test_is_nonsingular_random_vs_rank():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        assert linalg.is_nonsingular(a) == (linalg.rank(a) == n)


P1, P2 = linalg._PRIMES  # the moduli of the modular passes, in order


@pytest.fixture
def exact_runs(monkeypatch):
    """Counts the exact eliminations that `is_nonsingular` falls back to."""
    runs = []

    class Counting(linalg.Echelon):
        def __init__(self):
            super().__init__()
            runs.append(1)

    monkeypatch.setattr(linalg, "Echelon", Counting)
    return runs


def test_moduli_fit_one_cpython_digit():
    """A residue product plus a residue stays below 2^30."""
    for p in (P1, P2):
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))
        assert (p - 1) * (p - 1) + (p - 1) < 2 ** 30
    assert P1 != P2


@pytest.mark.parametrize("rows", [
    [[P1, 0], [0, 1]],
    [[1, 1, 0], [0, 1, 1], [P1 - 1, 0, 1]],  # det = p1
])
def test_is_nonsingular_second_prime_decides_when_the_first_cannot(rows, exact_runs):
    assert not linalg._nonsingular_mod(rows, P1)
    assert linalg.is_nonsingular(rows)
    assert not exact_runs, "the second prime certifies these"


@pytest.mark.parametrize("rows", [
    [[P1 * P2, 0], [0, 1]],
    [[1, 1, 0], [0, 1, 1], [P1 * P2 - 1, 0, 1]],  # det = p1 p2
    [[Fraction(1, P1), 0], [0, 1]],               # Fractions skip the modular passes
    [[Fraction(3, 2 * P1), 1], [Fraction(1, P2), 1]],
])
def test_is_nonsingular_falls_back_to_exact_when_p_cannot_decide(rows, exact_runs):
    assert linalg.is_nonsingular(rows)
    assert exact_runs, "the modular passes cannot certify these"


def test_is_nonsingular_singular_with_denominator_p(exact_runs):
    assert not linalg.is_nonsingular([[Fraction(1, P1), Fraction(2, P1)], [1, 2]])
    assert exact_runs


def test_is_nonsingular_sparse_random_vs_rank(exact_runs):
    """Small entries keep |det| below p1 p2: Hadamard's bound for n <= 8
    with entries <= 3 is 3^8 8^4 < 2.7e7.  So every nonsingular matrix here
    is certified by the modular passes alone."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) if rng.random() < 0.35 else 0 for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[rng.randrange(n)] = [a - 2 * b for a, b in zip(rows[0], rows[-1])]
        nonsingular = linalg.rank(rows) == n
        exact_runs.clear()
        assert linalg.is_nonsingular(rows) == nonsingular
        assert bool(exact_runs) != nonsingular
