"""Exact linear algebra over the rationals.

One engine: an incremental sparse echelon form on integer rows
(fraction-free: rows are rescaled to coprime integers and combined by
cross-multiplication).  Rows of ints or Fractions are scaled to integers
once, on entry.  Pivoting is deterministic: the pivot of a row is its
smallest column key, so repeated runs produce identical echelons.  Ranks,
span membership and square solves (`LUFactor`) all run on it.

Nonsingularity of a square matrix has a modular shortcut: a determinant
that is nonzero mod p certifies a nonzero determinant over Q.  A sparse
elimination on integer entries reduced mod p decides the integer DOF
matrices of `dofs.dof_matrix` without a Fraction: mod the first of
`_PRIMES`, mod the second only when the first is inconclusive, then by
exact elimination, where a matrix with Fraction entries goes at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_PRIMES = (32749, 32719)  # below 2^15: (p-1)*p < 2^30, one CPython int digit


class SingularMatrixError(ValueError):
    pass


def _normalize(row: dict) -> dict:
    """Divide through by the gcd and make the leading coefficient positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def int_row(row: dict) -> dict:
    """A sparse row of ints or Fractions as a proportional row of ints,
    times the lcm of its denominators.  The `Echelon` divides out the gcd
    when it reduces the row."""
    denom = lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (denom // v.denominator) for c, v in row.items()}


class Echelon:
    """Incrementally built row echelon form over Q.

    Rows are dicts from totally ordered column keys to ints or Fractions;
    `reduce` drops the zero entries and scales the rest to integers with
    `int_row`.  Feeding a row reduces it against the stored pivots; a
    nonzero remainder becomes a new pivot row.
    """

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        row = _normalize(int_row({c: v for c, v in row.items() if v}))
        while row:
            col = min(row)
            piv = self.pivots.get(col)
            if piv is None:
                return row
            a, b = row[col], piv[col]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            new = {}
            for c in row.keys() | piv.keys():
                w = ca * row.get(c, 0) - cb * piv.get(c, 0)
                if w:
                    new[c] = w
            row = _normalize(new)
        return row

    def add(self, row: dict) -> bool:
        """Feed a row; True when it enlarges the span."""
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[min(row)] = row
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def rank(rows: list) -> int:
    """Rank of a dense matrix given as lists of ints or Fractions."""
    ech = Echelon()
    for r in rows:
        ech.add(dict(enumerate(r)))
    return ech.rank


def _nonsingular_mod(rows: list[list[int]], p: int) -> bool:
    """True when det != 0 mod p; False means inconclusive.

    Rows are reduced mod p into sparse dicts, and each step pivots on the
    row with the fewest nonzeros.
    """
    active = [{j: w for j, v in enumerate(r) if v and (w := v % p)} for r in rows]
    while active:
        sizes = list(map(len, active))
        piv = active.pop(sizes.index(min(sizes)))
        if not piv:
            return False
        col = max(piv)
        inv = pow(piv[col], -1, p)
        items = list(piv.items())
        for row in active:
            if col in row:
                f = p - row[col] * inv % p
                get = row.get
                for c, v in items:
                    w = (get(c, 0) + f * v) % p
                    if w:
                        row[c] = w
                    else:
                        del row[c]
    return True


def is_nonsingular(rows: list) -> bool:
    """Exact nonsingularity of a square matrix of ints or Fractions.

    det != 0 mod p implies det != 0 over Q, so the modular passes can
    only certify success; the exact echelon settles the remaining cases.
    """
    n = len(rows)
    if n == 0:
        return True
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ints = not any(Fraction in set(map(type, r)) for r in rows)
    return (ints and any(_nonsingular_mod(rows, p) for p in _PRIMES)) or rank(rows) == n


class LUFactor:
    """A square matrix held as an `Echelon` for repeated exact solves.

    Column j enters as the row (A_j, e_j): its entries under keys 0..n-1
    and a tag 1 under key n+j.  The matrix is nonsingular exactly when
    every pivot lands on a key below n.  A solve reduces (b, 1), with the 1
    under key 2n.  The remainder is s(b, 1) - sum_j t_j (A_j, e_j) with
    nothing left below n, so s b = sum_j t_j A_j and x_j = t_j / s.
    """

    def __init__(self, rows: list):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.n = n
        self.ech = Echelon()
        for j in range(n):
            column = {i: r[j] for i, r in enumerate(rows)}
            column[n + j] = 1
            self.ech.add(column)
        if any(col >= n for col in self.ech.pivots):
            raise SingularMatrixError("matrix is singular")

    def solve(self, b: list) -> tuple[list[int], int]:
        """x with A x = b as ints (t, s): x_j = t_j / s, s > 0, gcd(*t, s) = 1."""
        n = self.n
        if len(b) != n:
            raise ValueError(f"right-hand side has length {len(b)}, need {n}")
        rest = self.ech.reduce({**dict(enumerate(b)), 2 * n: 1})
        s = rest[2 * n]
        sign = -1 if s > 0 else 1
        return [sign * rest.get(n + j, 0) for j in range(n)], -sign * s


def solve(rows: list, b: list) -> list[Fraction]:
    t, s = LUFactor(rows).solve(b)
    return [Fraction(v, s) for v in t]
