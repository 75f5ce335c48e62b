"""Exact linear algebra over the rationals.

Two engines.  The rank workhorse is an incremental sparse echelon form on
integer rows (fraction-free: rows are rescaled to coprime integers and
combined by cross-multiplication).  Pivoting is deterministic: the pivot of
a row is its smallest column key, so repeated runs produce identical
echelons.  Dense Fraction LU factors handle square solves.

Nonsingularity of a square matrix has a modular shortcut: a determinant
that is nonzero mod p certifies a nonzero determinant over Q, while an
inconclusive reduction falls back to exact elimination.  The modular pass
is a sparse elimination on integer entries reduced directly mod p, so the
integer DOF matrices of `dofs.dof_matrix` are decided without a Fraction;
a matrix with Fraction entries goes straight to exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_PRIME = (1 << 31) - 1  # Mersenne prime, fits machine words


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

    Rows are dicts from totally ordered column keys to nonzero integers.
    Feeding a row reduces it against the stored pivots; a nonzero remainder
    becomes a new pivot row.
    """

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        row = _normalize({c: v for c, v in row.items() if v})
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
        """Feed an integer row; True when it enlarges the span."""
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[min(row)] = row
        return True

    def add_fractions(self, row: dict) -> bool:
        """Feed a row of ints or Fractions; True when it enlarges the span."""
        return self.add(int_row(row))

    def contains(self, row: dict) -> bool:
        return not self.reduce(int_row(row))


def rank(rows: list) -> int:
    """Rank of a dense matrix given as lists of ints or Fractions."""
    ech = Echelon()
    for r in rows:
        ech.add_fractions({j: v for j, v in enumerate(r) if v})
    return ech.rank


def _nonsingular_mod(rows: list[list[int]], p: int) -> bool:
    """True when det != 0 mod p; False means inconclusive.

    Rows are reduced mod p into sparse dicts, and each step pivots on the
    row with the fewest nonzeros.
    """
    active = [{j: w for j, v in enumerate(r) if v and (w := v % p)} for r in rows]
    while active:
        piv = active.pop(min(range(len(active)), key=lambda i: len(active[i])))
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

    det != 0 mod p implies det != 0 over Q, so the modular pass can only
    certify success; the exact echelon settles the remaining cases.
    """
    n = len(rows)
    if n == 0:
        return True
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ints = not any(Fraction in set(map(type, r)) for r in rows)
    return (ints and _nonsingular_mod(rows, _PRIME)) or rank(rows) == n


class LUFactor:
    """PLU factorization over Q for repeated exact solves."""

    def __init__(self, rows: list):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        a = [[Fraction(v) for v in r] for r in rows]
        perm = list(range(n))
        for col in range(n):
            piv = None
            for i in range(col, n):
                if a[i][col]:
                    piv = i
                    break
            if piv is None:
                raise SingularMatrixError(f"singular at column {col}")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                perm[col], perm[piv] = perm[piv], perm[col]
            inv = 1 / a[col][col]
            for i in range(col + 1, n):
                if a[i][col]:
                    f = a[i][col] * inv
                    a[i][col] = f  # store the multiplier in the L part
                    arow = a[col]
                    irow = a[i]
                    for j in range(col + 1, n):
                        if arow[j]:
                            irow[j] -= f * arow[j]
        self.n = n
        self.lu = a
        self.perm = perm

    def solve(self, b: list) -> list[Fraction]:
        n = self.n
        if len(b) != n:
            raise ValueError(f"right-hand side has length {len(b)}, need {n}")
        y = [Fraction(b[self.perm[i]]) for i in range(n)]
        for i in range(n):
            row = self.lu[i]
            s = y[i]
            for j in range(i):
                if row[j] and y[j]:
                    s -= row[j] * y[j]
            y[i] = s
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            row = self.lu[i]
            s = y[i]
            for j in range(i + 1, n):
                if row[j] and x[j]:
                    s -= row[j] * x[j]
            x[i] = s / row[i]
        return x


def solve(rows: list, b: list) -> list[Fraction]:
    return LUFactor(rows).solve(b)
