"""Independent oracles for the benchmark's correctness checks.

Nothing here imports feforms.  Dimensions come from closed formulas and the
Koszul complex, DOF counts from the weight spaces of each family, mesh
counts from the grid's own parameters, and nonsingularity from a modular
elimination at primes other than the program's 2^31 - 1.
"""

from __future__ import annotations

from math import comb

# Two primes below 2^30, so residues stay small Python ints; a determinant
# divisible by both is nonzero over Q with negligible probability.
PRIMES = (1_000_000_007, 998_244_353)


def dim_P(n: int, r: int, k: int) -> int:
    """dim P_r Lambda^k(R^n): C(n, k) components of degree <= r."""
    if r < 0 or not 0 <= k <= n:
        return 0
    return comb(n, k) * comb(n + r, n)


def dim_H(n: int, r: int, k: int) -> int:
    """dim H_r Lambda^k(R^n): C(n, k) components homogeneous of degree r."""
    if r < 0 or not 0 <= k <= n:
        return 0
    if n == 0:
        return int(r == 0)
    return comb(n, k) * comb(r + n - 1, n - 1)


def dim_koszul_image(n: int, r: int, k: int) -> int:
    """dim kappa(H_r Lambda^k), from exactness of the Koszul complex.

    The kernel of kappa on H_r Lambda^k is the image of kappa on
    H_(r-1) Lambda^(k+1), so the dimensions telescope.
    """
    if r < 0 or k < 1 or k > n:
        return 0
    return dim_H(n, r, k) - dim_koszul_image(n, r - 1, k + 1)


def dim_Pminus(n: int, r: int, k: int) -> int:
    """dim P-_r Lambda^k = dim P_(r-1) Lambda^k + dim kappa(H_(r-1) Lambda^(k+1))."""
    if r < 1 or not 0 <= k <= n:
        return 0
    return dim_P(n, r - 1, k) + dim_koszul_image(n, r - 1, k + 1)


def dim_Qminus(n: int, r: int, k: int) -> int:
    """Tensor-product count: degree <= r-1 on the k alternator axes, <= r off."""
    if r < 1 or not 0 <= k <= n:
        return 0
    return comb(n, k) * r ** k * (r + 1) ** (n - k)


def dim_S(n: int, r: int, k: int) -> int:
    """Arnold-Awanou: sum_d 2^(n-d) C(n,d) C(r-d+2k, d) C(d,k)."""
    if r < 1 or not 0 <= k <= n:
        return 0
    total = 0
    for d in range(k, n + 1):
        top = r - d + 2 * k
        if top >= d:
            total += 2 ** (n - d) * comb(n, d) * comb(top, d) * comb(d, k)
    return total


DIMENSION = {"P": dim_P, "Pminus": dim_Pminus, "Qminus": dim_Qminus, "S": dim_S}
ELEMENT = {"P": "simplex", "Pminus": "simplex", "Qminus": "box", "S": "box"}


def per_face_dofs(family: str, r: int, k: int, d: int) -> int:
    """Number of weights (DOFs) attached to one d-dimensional face."""
    j = d - k
    if j < 0:
        return 0
    if family == "Pminus":
        return dim_P(d, r + k - d - 1, j)
    if family == "P":
        return dim_Pminus(d, r + k - d, j)
    if family == "S":
        return dim_P(d, r - 2 * j, j)
    if family == "Qminus":
        if r < 2 and j > 0:
            return 0
        return comb(d, j) * (r - 1) ** j * r ** (d - j)
    raise ValueError(f"unknown family {family!r}")


def reference_face_count(element: str, n: int, d: int) -> int:
    if element == "simplex":
        return comb(n + 1, d + 1)
    return 2 ** (n - d) * comb(n, d)


def dof_total(family: str, n: int, r: int, k: int) -> int:
    element = ELEMENT[family]
    return sum(reference_face_count(element, n, d) * per_face_dofs(family, r, k, d)
               for d in range(n + 1))


def check_unisolvence_report(report: dict) -> list[str]:
    """Problems with a unisolvence report's counts; empty when it agrees."""
    spec = report["spec"]
    family, n, r, k = spec["family"], spec["n"], spec["r"], spec["k"]
    problems = []
    want_dim = DIMENSION[family](n, r, k)
    if report["dim"] != want_dim:
        problems.append(f"{spec}: dim {report['dim']}, formula {want_dim}")
    want_dofs = dof_total(family, n, r, k)
    if report["dof_count"] != want_dofs:
        problems.append(f"{spec}: {report['dof_count']} DOFs, formula {want_dofs}")
    for entry in report["per_face"]:
        want = per_face_dofs(family, r, k, entry["d"])
        if entry["count_per_face"] != want:
            problems.append(f"{spec}: {entry['count_per_face']} DOFs on a "
                            f"{entry['d']}-face, formula {want}")
    return problems


# -- modular nonsingularity --------------------------------------------------


def reduce_mod(rows, p: int) -> list[list[int]]:
    """The rational matrix reduced entrywise mod p (denominators inverted)."""
    inverses: dict[int, int] = {}

    def residue(v) -> int:  # v is an int or a Fraction
        den = v.denominator
        inv = inverses.get(den)
        if inv is None:
            inv = inverses[den] = pow(den, -1, p)
        return v.numerator * inv % p

    return [[residue(v) if v else 0 for v in row] for row in rows]


def nonsingular_mod(a: list[list[int]], p: int) -> bool:
    """Gaussian elimination over GF(p); consumes `a`."""
    n = len(a)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        tail = a[col][col:]
        for i in range(col + 1, n):
            f = a[i][col] * inv % p
            if f:
                a[i][col:] = [(x - f * y) % p for x, y in zip(a[i][col:], tail)]
    return True


def certified_nonsingular(residues: dict) -> bool:
    """True when some prime certifies det != 0; `residues` maps p to a matrix."""
    for p, a in residues.items():
        if any(len(row) != len(a) for row in a):
            return False
        if nonsingular_mod(a, p):
            return True
    return False


# -- structured grids ----------------------------------------------------------


def grid_face_counts(kind: str, m: int) -> list[int]:
    """Vertices, edges and 2-cells of an m x m grid of the unit square.

    The simplicial grid cuts every square along its main diagonal.
    """
    vertices = (m + 1) ** 2
    edges = 2 * m * (m + 1)
    if kind == "simplicial":
        return [vertices, edges + m * m, 2 * m * m]
    return [vertices, edges, m * m]


def grid_dimension(kind: str, m: int, family: str, r: int, k: int) -> int:
    """Global dimension: per-dimension face counts times per-face DOFs."""
    return sum(count * per_face_dofs(family, r, k, d)
               for d, count in enumerate(grid_face_counts(kind, m)))
