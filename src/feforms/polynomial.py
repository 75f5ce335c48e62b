"""Exact multivariate polynomials over the rationals.

A polynomial in the Cartesian variables x1..xn is a dict mapping length-n
exponent tuples to rational coefficients in the one form `exact` gives
them: an int when integral, else a Fraction.  Zero coefficients are never
stored and the zero polynomial is the empty dict.  The degree of the zero
polynomial is the sentinel NEG_INF, so predicates like ``p.degree() <= r``
accept zero for every r.

Rationals serialize as canonical reduced "p/q" strings ("0/1" for zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add

from feforms import linalg
from feforms.combinatorics import MultiIndex

NEG_INF = float("-inf")

Point = tuple  # rational coordinates


class DegenerateSimplexError(ValueError):
    pass


def rational_to_string(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def exact(c):
    """The rational c in its one stored form: an int when c is integral,
    else a Fraction.  Raises TypeError on a float or a bool, which are not
    exact rationals."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, (float, bool)):
            raise TypeError(f"{c!r} is not an exact rational; "
                            "pass an int, a Fraction or a 'p/q' string")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratios(nums: dict, den: int) -> dict:
    """{key: v / den} for int values v and den > 0, each formed once in its
    `exact` form."""
    return nums if den == 1 else {key: exact(Fraction(v, den)) for key, v in nums.items()}


def sum_terms(pairs) -> dict:
    """Sum (key, c) pairs of nonzero ints and Fractions into one sparse
    map, deleting entries that cancel, so no zero coefficient is kept, and
    storing each coefficient in its `exact` form.  Polynomials and forms
    keep their invariant through this one accumulator."""
    terms: dict = {}
    for key, c in pairs:
        if key in terms:
            c += terms[key]
            if not c:
                del terms[key]
                continue
        terms[key] = exact(c)
    return terms


def rational_from_string(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


class Polynomial:
    """Immutable exact polynomial; do not mutate `terms` after construction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        if n < 0:
            raise ValueError(f"ambient dimension must be nonnegative, got {n}")
        clean: dict[MultiIndex, int | Fraction] = {}
        for alpha, c in (terms or {}).items():
            if len(alpha) != n or any(e < 0 for e in alpha):
                raise ValueError(f"bad exponent tuple {alpha!r} for n={n}")
            c = exact(c)
            if c:
                clean[tuple(alpha)] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _of(cls, n: int, terms: dict) -> "Polynomial":
        """Trusted constructor for arithmetic that already keeps the invariant:
        `terms` maps length-n exponent tuples to nonzero `exact` values."""
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, j: int) -> "Polynomial":
        """The coordinate x^j, 1-based."""
        if not 1 <= j <= n:
            raise ValueError(f"variable index {j} out of range 1..{n}")
        alpha = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls(n, {alpha: 1})

    @classmethod
    def monomial(cls, n: int, alpha, coeff=1) -> "Polynomial":
        return cls(n, {tuple(alpha): coeff})

    # -- ring operations ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check(other)
        return Polynomial._of(self.n, sum_terms(chain(self.terms.items(),
                                                      other.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            try:
                c = exact(other)
            except (TypeError, ValueError):
                return NotImplemented
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._of(self.n, {a: exact(c * v) for a, v in self.terms.items()})
        self._check(other)
        return Polynomial._of(self.n, sum_terms(
            (tuple(x + y for x, y in zip(a, b)), ca * cb)
            for a, ca in self.terms.items() for b, cb in other.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"Polynomial({self.n}, {self.to_string()!r})"

    # -- calculus and structure ------------------------------------------

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(a) for a in self.terms)

    def partial(self, j: int) -> "Polynomial":
        """Exact partial derivative with respect to x^j, 1-based."""
        if not 1 <= j <= self.n:
            raise ValueError(f"variable index {j} out of range 1..{self.n}")
        i = j - 1
        return Polynomial._of(self.n, sum_terms(
            (a[:i] + (a[i] - 1,) + a[i + 1:], c * a[i])
            for a, c in self.terms.items() if a[i]))

    def sdeg(self):
        """Superlinear degree: max over monomials, NEG_INF for zero."""
        if not self.terms:
            return NEG_INF
        return max(sdeg_exponents(a) for a in self.terms)

    def to_string(self) -> str:
        if not self.terms:
            return "0/1"
        return " + ".join(monomial_string(self.terms[a], a) for a in sorted(self.terms))


def monomial_string(coeff, alpha) -> str:
    toks = [rational_to_string(coeff)]
    for i, e in enumerate(alpha):
        if e == 1:
            toks.append(f"x{i + 1}")
        elif e > 1:
            toks.append(f"x{i + 1}^{e}")
    return " ".join(toks)


def sdeg_exponents(alpha) -> int:
    """Total degree ignoring variables that enter to the first power."""
    return sum(e for e in alpha if e != 1)


def affine_polynomial(m: int, coeffs, constant) -> Polynomial:
    """The affine polynomial constant + sum_j coeffs[j] * t_j in m variables."""
    return Polynomial(m, {(0,) * m: constant, **{
        tuple(int(i == j) for i in range(m)): c for j, c in enumerate(coeffs)}})


def substitute(p: Polynomial, rows: list[dict], scale: int, m: int,
               power_cache: dict | None = None) -> tuple[dict, int]:
    """p with rows[i] / scale substituted for x^(i+1), as (numerators, den):
    integer coefficients over one positive denominator.  The rows, and the
    values of `power_cache` (scale^|alpha| times the image of x^alpha, by
    alpha), map length-m exponent tuples to ints; pass a shared cache to
    reuse work across many substitutions into the same map."""
    if power_cache is None:
        power_cache = {}
    if not power_cache:
        power_cache[(0,) * p.n] = {(0,) * m: 1}
    den = lcm(*[c.denominator for c in p.terms.values()])
    top = max(map(sum, p.terms), default=0)
    # monomials in a variable mapped to zero vanish; skipping them keeps
    # their (zero) images out of the shared cache
    dead = [i for i, row in enumerate(rows) if not row]
    weights = [(alpha, c.numerator * (den // c.denominator) * scale ** (top - sum(alpha)))
               for alpha, c in p.terms.items() if not (dead and any(alpha[i] for i in dead))]
    nums = sum_terms((b, w * v) for alpha, w in weights
                     for b, v in _power_image(alpha, rows, power_cache).items())
    return nums, den * scale ** top


def _power_image(alpha, rows, power_cache: dict) -> dict:
    """The cached image of x^alpha: x^alpha / x_i times row i, for the last
    variable x_i of alpha, when that power is cached or x_i enters once,
    else two powers that split the exponent of x_i in halves, so a lone
    power x^e caches O(log e) entries."""
    got = power_cache.get(alpha)
    if got is None:
        i = max(i for i, e in enumerate(alpha) if e)
        e, zero = alpha[i], (0,) * len(alpha)
        low = alpha[:i] + (e - 1,) + alpha[i + 1:]
        if e == 1 or low in power_cache:
            a, b = _power_image(low, rows, power_cache), rows[i]
        else:
            a = _power_image(alpha[:i] + (e - e // 2,) + alpha[i + 1:], rows, power_cache)
            b = _power_image(zero[:i] + (e // 2,) + zero[i + 1:], rows, power_cache)
        got = power_cache[alpha] = sum_terms((tuple(map(add, x, y)), u * v)
                                             for x, u in a.items() for y, v in b.items())
    return got


@dataclass(frozen=True)
class BarycentricSystem:
    """The affine coordinates of a nondegenerate simplex.

    lambdas[i] is the affine polynomial with lambdas[i](v_j) = delta_ij;
    the lambdas sum to the constant 1.
    """
    vertices: tuple
    lambdas: tuple


def integer_planes(vertices) -> list[tuple]:
    """(gradient, constant, s) of each barycentric coordinate of n+1 points
    in Q^n, on integers, with lambda_i(x) = (gradient_i . x + constant_i) / s_i
    and s_i > 0.  Raises DegenerateSimplexError on affinely dependent points."""
    if not vertices:
        raise ValueError("no vertices given")
    n = len(vertices[0])
    if len(vertices) != n + 1 or any(len(v) != n for v in vertices):
        raise ValueError(f"need {n + 1} points in Q^{n}")
    try:
        lu = linalg.LUFactor([[1, *v] for v in vertices])
    except linalg.SingularMatrixError as exc:
        raise DegenerateSimplexError(
            "vertices are affinely dependent") from exc
    planes = []
    for i in range(n + 1):
        t, s = lu.solve([int(j == i) for j in range(n + 1)])
        planes.append((t[1:], t[0], s))
    return planes


def barycentric_planes(vertices) -> list[tuple]:
    """(gradient, constant) of each barycentric coordinate of n+1 points in
    Q^n, so that lambda_i(x) = gradient_i . x + constant_i, with `exact`
    entries.  Raises DegenerateSimplexError on affinely dependent points."""
    return [([exact(Fraction(g, s)) for g in grad], exact(Fraction(const, s)))
            for grad, const, s in integer_planes(vertices)]


def barycentric(vertices) -> BarycentricSystem:
    """Barycentric coordinate polynomials for n+1 points in Q^n."""
    verts = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    planes = barycentric_planes(verts)
    return BarycentricSystem(verts, tuple(affine_polynomial(len(grad), grad, const)
                                          for grad, const in planes))
