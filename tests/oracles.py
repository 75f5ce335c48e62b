"""Independent oracles used to pin expected values.

The simplex integration oracle performs iterated one-dimensional symbolic
integration over the standard simplex parametrization (innermost variable
from 0 to one minus the sum of the outer ones), so it shares no formula
with the factorial-based rule in the package.

The exterior derivative and the contraction oracles go through generic
Polynomial arithmetic (partial derivatives, products with a coordinate),
the reference for the exponent-level operators in the package.

The box integration oracle takes antiderivatives in the last variable
and evaluates them at its two limits, axis by axis, sharing no formula
with the per-monomial rule in the package.

The signed facet charts of the standard simplex and the unit box serve
the Stokes tests.

The mesh-face oracle enumerates faces element by element on its own: the
sorted-id subsets of each simplex, the corner bits of each box.

Evaluation, antiderivatives and homogeneous parts of a Polynomial, and the
composition of two affine embeddings, are plain functions here: only the
tests need them.

The DOF-matrix oracle pulls every form back through every face chart
and forms every dense entry from the whole trace, the reference for the
per-monomial traces and sparse fill of `dofs.dof_matrix`.

The conformity oracle checks every pair of simplices, in `combinations`
order, by enumerating the vertices of their intersection polytope in
integer arithmetic (Cramer's rule on coordinates scaled to integers); it
imports nothing from the mesh code.

The basis oracles are the Pminus and S constructions the package used
before its generator streams: the full polynomial monomials, the
contractions and the J pieces (found by stopping at the first empty piece)
all go through one greedy selection, and S reads d of the J_(r+1) basis.

The S vector-proxy bracket oracle places the products x_i w x_j of the
bracket (x2 x3 (w2 - w3), x3 x1 (w3 - w1), x1 x2 (w1 - w2)) in their 1-form
slots by hand with Polynomial arithmetic, the reference for the package's
brackets as contractions.

The substitution oracle is the Fraction substitution the package used
before it moved charts to one integer scale: each power's image is a
Polynomial with rational coefficients, built from the nearest cached
lower power, and the pullback oracle multiplies its results by rational
minors from cofactor expansion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, groupby, product
from math import lcm

from feforms.combinatorics import enumerate_sigma, merge, multiindices
from feforms.forms import (
    AffineEmbedding,
    FaceMoments,
    PolyForm,
    box_face_chart,
    exterior_derivative,
    koszul,
    pullback,
    std_simplex_vertices,
)
from feforms.polynomial import Polynomial, affine_polynomial, sum_terms
from feforms.spaces import basis_H, basis_Hrl, basis_P, select_independent


def evaluate(p: Polynomial, point) -> Fraction:
    """p at a rational point."""
    if len(point) != p.n:
        raise ValueError(f"point has {len(point)} coordinates, need {p.n}")
    pt = [Fraction(v) for v in point]
    total = Fraction(0)
    for a, c in p.terms.items():
        v = c
        for x, e in zip(pt, a):
            if e:
                v *= x ** e
        total += v
    return total


def antiderivative(p: Polynomial, j: int) -> Polynomial:
    """Antiderivative of p in x^j with zero constant term."""
    if not 1 <= j <= p.n:
        raise ValueError(f"variable index {j} out of range 1..{p.n}")
    i = j - 1
    out = {}
    for a, c in p.terms.items():
        b = a[:i] + (a[i] + 1,) + a[i + 1:]
        out[b] = Fraction(c, a[i] + 1)
    return Polynomial(p.n, out)


def homogeneous_part(p: Polynomial, r: int) -> Polynomial:
    """The terms of p of total degree r."""
    return Polynomial(p.n, {a: c for a, c in p.terms.items() if sum(a) == r})


def compose(outer: AffineEmbedding, inner: AffineEmbedding) -> AffineEmbedding:
    """outer after inner: t -> outer(inner(t))."""
    if inner.target_dim != outer.source_dim:
        raise ValueError("composition shape mismatch")
    mid = range(outer.source_dim)
    matrix = tuple(
        tuple(sum(outer.matrix[i][l] * inner.matrix[l][j] for l in mid)
              for j in range(inner.source_dim))
        for i in range(outer.target_dim))
    offset = tuple(outer.offset[i] + sum(outer.matrix[i][l] * inner.offset[l] for l in mid)
                   for i in range(outer.target_dim))
    return AffineEmbedding(matrix, offset)


def iterated_simplex_integral(p: Polynomial) -> Fraction:
    """Integral of p over the standard simplex in its ambient dimension."""
    d = p.n
    if d == 0:
        return evaluate(p, ())
    anti = antiderivative(p, d)
    # upper limit t_d = 1 - t_1 - ... - t_(d-1), lower limit 0
    upper_matrix = []
    for i in range(d):
        if i < d - 1:
            upper_matrix.append([Fraction(int(j == i)) for j in range(d - 1)])
        else:
            upper_matrix.append([Fraction(-1)] * (d - 1))
    upper_offset = [Fraction(0)] * (d - 1) + [Fraction(1)]
    lower_matrix = [row[:] for row in upper_matrix]
    lower_matrix[d - 1] = [Fraction(0)] * (d - 1)
    lower_offset = [Fraction(0)] * d
    at_upper = AffineEmbedding(upper_matrix, upper_offset).substitute(anti)
    at_lower = AffineEmbedding(lower_matrix, lower_offset).substitute(anti)
    return iterated_simplex_integral(at_upper - at_lower)


def iterated_box_integral(p: Polynomial, bounds) -> Fraction:
    """Integral of p over the box with the given (lo, hi) per axis."""
    d = p.n
    if d == 0:
        return evaluate(p, ())
    anti = antiderivative(p, d)
    keep = [[Fraction(int(j == i)) for j in range(d - 1)] for i in range(d - 1)]
    matrix = keep + [[Fraction(0)] * (d - 1)]
    at_lo, at_hi = (AffineEmbedding(matrix, [Fraction(0)] * (d - 1) + [Fraction(end)])
                    .substitute(anti) for end in bounds[-1])
    return iterated_box_integral(at_hi - at_lo, bounds[:-1])


def polynomial_exterior_derivative(u: PolyForm) -> PolyForm:
    """d(a dx^sigma) = sum_j (da/dx^j) dx^j ^ dx^sigma, by Polynomial.partial."""
    n = u.n
    total = PolyForm.zero(n, u.k + 1)
    for sigma, a in u.components.items():
        for j in range(1, n + 1):
            sign, merged = merge((j,), sigma)
            if sign:
                total = total + PolyForm(n, u.k + 1, {merged: sign * a.partial(j)})
    return total


def polynomial_koszul(u: PolyForm) -> PolyForm:
    """sum_i (-1)^(i-1) a x^(sigma_i) dx^(sigma minus sigma_i), by products
    with Polynomial.variable; zero on 0-forms."""
    n = u.n
    if u.k == 0:
        return PolyForm.zero(n, 0)
    total = PolyForm.zero(n, u.k - 1)
    for sigma, a in u.components.items():
        for pos, s in enumerate(sigma):
            term = (-1) ** pos * (a * Polynomial.variable(n, s))
            total = total + PolyForm(n, u.k - 1, {sigma[:pos] + sigma[pos + 1:]: term})
    return total


def std_simplex_facets(d: int):
    """(sign, chart) per boundary facet of the standard d-simplex.

    Facet i omits vertex i and carries the sign (-1)^i, so that the signed
    facet integrals of a trace add up to the integral of the derivative.
    """
    verts = std_simplex_vertices(d)
    out = []
    for i in range(d + 1):
        sub = [v for j, v in enumerate(verts) if j != i]
        sign = -1 if i % 2 else 1
        out.append((sign, AffineEmbedding.from_simplex(sub)))
    return out


def unit_box_facets(n: int):
    """(sign, chart) per facet of the unit box, outward-consistent."""
    out = []
    for i in range(1, n + 1):
        axes = tuple(axis for axis in range(1, n + 1) if axis != i)
        for side in (0, 1):
            sign = (1 if side else -1) * (-1 if (i - 1) % 2 else 1)
            out.append((sign, box_face_chart(n, axes, (side,))))
    return out


def brute_force_subsets(items, k):
    """All k-subsets as sorted tuples, by explicit filtering."""
    items = list(items)
    out = []
    for mask in range(1 << len(items)):
        chosen = [items[i] for i in range(len(items)) if (mask >> i) & 1]
        if len(chosen) == k:
            out.append(tuple(sorted(chosen)))
    return sorted(out)


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting seq, 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _det(rows) -> int:
    """Determinant of a small square integer matrix by cofactor expansion."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _integer_planes(corners):
    """Barycentric planes (grad, const) of a simplex with integer corners,
    each scaled by a positive integer: lambda_i(x) is det(M with row i
    replaced by (1, x)) / det(M), where M has the rows (1, corner)."""
    m = [[1, *c] for c in corners]
    sign = 1 if _det(m) > 0 else -1
    planes = []
    for i in range(len(m)):
        minor_rows = [r for k, r in enumerate(m) if k != i]
        cof = [sign * (-1) ** (i + j) * _det([r[:j] + r[j + 1:] for r in minor_rows])
               for j in range(len(m))]
        planes.append((cof[1:], cof[0]))
    return planes


def _intersection_points(planes) -> set:
    """Points where n of the planes meet and every plane is >= 0."""
    n = len(planes[0][0])
    points = set()
    for subset in combinations(planes, n):
        a = [list(grad) for grad, _ in subset]
        rhs = [-c for _, c in subset]
        d = _det(a)
        if d == 0:
            continue
        nums = [_det([row[:j] + [b] + row[j + 1:] for row, b in zip(a, rhs)])
                for j in range(n)]
        if all((sum(g * x for g, x in zip(grad, nums)) + c * d) * d >= 0
               for grad, c in planes):
            points.add(tuple(Fraction(x, d) for x in nums))
    return points


def integer_simplices(vertices, elements):
    """Integer barycentric planes per element after scaling every coordinate
    by the common denominator, or None if an element is flat."""
    scale = lcm(*(Fraction(c).denominator for v in vertices for c in v))
    ints = [tuple(int(Fraction(c) * scale) for c in v) for v in vertices]
    planes = []
    for e in elements:
        corners = [ints[i] for i in e]
        if _det([[1, *c] for c in corners]) == 0:
            return None
        planes.append(_integer_planes(corners))
    return planes


def pair_conforms(planes_a, planes_b, ea, eb) -> bool:
    """Two simplices meet in the convex hull of their shared vertices: at
    every intersection vertex, the planes of A's unshared vertices vanish."""
    outside = [plane for i, plane in zip(ea, planes_a) if i not in eb]
    return not any(sum(g * x for g, x in zip(grad, pt)) + c
                   for pt in _intersection_points(planes_a + planes_b)
                   for grad, c in outside)


def conformity_verdict(vertices, elements):
    """"degenerate", ("identical", a, b), ("outside", a, b) or "conforming",
    naming the first failing pair in `combinations` order."""
    planes = integer_simplices(vertices, elements)
    if planes is None:
        return "degenerate"
    for a, b in combinations(range(len(elements)), 2):
        ea, eb = elements[a], elements[b]
        if set(ea) == set(eb):
            return ("identical", a, b)
        if not pair_conforms(planes[a], planes[b], ea, eb):
            return ("outside", a, b)
    return "conforming"


def mesh_faces(mesh):
    """(dim, sorted ids, ((element, chart), ...)) per face of the mesh, in
    mesh-face order: ids ascending by count, then lexicographically.

    Simplex faces are the sorted-id subsets of each element, charted in
    sorted global order; box faces are picked by the corner bits of each
    element (bit j of a corner position selects the high end of axis j+1)
    and keep the chart of the unit-box face.
    """
    n = mesh.n
    verts = std_simplex_vertices(n)
    table = {}
    for ei, elem in enumerate(mesh.elements):
        for d in range(n + 1):
            if mesh.kind == "simplicial":
                for ids in combinations(sorted(elem), d + 1):
                    psi = AffineEmbedding.from_simplex([verts[elem.index(g)] for g in ids])
                    table.setdefault(ids, []).append((ei, psi))
                continue
            for axes in combinations(range(1, n + 1), d):
                fixed = [ax for ax in range(1, n + 1) if ax not in axes]
                for bits in product((0, 1), repeat=n - d):
                    ids = tuple(sorted(
                        vid for pos, vid in enumerate(elem)
                        if all((pos >> (ax - 1)) & 1 == bit for ax, bit in zip(fixed, bits))))
                    table.setdefault(ids, []).append((ei, box_face_chart(n, axes, bits)))
    out = []
    for ids in sorted(table, key=lambda t: (len(t), t)):
        dim = len(ids) - 1 if mesh.kind == "simplicial" else len(ids).bit_length() - 1
        out.append((dim, ids, tuple(sorted(table[ids], key=lambda pair: pair[0]))))
    return out


def pullback_dof_matrix(forms, dofset) -> list[list[int]]:
    """The integer DOF matrix of `dofs.dof_matrix`, with every form pulled
    back whole through every face chart: column j scaled by the lcm of the
    coefficient denominators of form j, row i by the lcm of the moments of
    its weight over every trace monomial of its face.  The traces index
    the columns for `FaceMoments.rows`, with no face filter and no
    per-monomial trace."""
    scaled = []
    for f in forms:
        den = lcm(*[c.denominator for c in f.terms.values()])
        scaled.append(f if den == 1 else f * den)
    if any((f.n, f.k) != (dofset.spec.n, dofset.spec.k) for f in scaled):
        raise ValueError(f"forms do not all lie in the space of {dofset.spec}")
    moments = FaceMoments(dofset.spec.element)
    rows = []
    for face, group in groupby(dofset.functionals, key=lambda phi: phi.face):
        index = {}
        for j, f in enumerate(scaled):
            for key, c in pullback(f, face.embedding).terms.items():
                if c.denominator != 1:
                    raise ValueError(f"a trace on face {face.label} is not integral")
                index.setdefault(key, {})[j] = c.numerator
        weights = [phi.weight for phi in group]
        for q in weights:
            if (q.n, q.k) != (face.dim, face.dim - dofset.spec.k):
                raise ValueError(f"weight {q} does not fit face {face.label}")
        rows += [row for row, _ in moments.rows(index, weights, len(scaled))]
    return rows


def fraction_substitute(p: Polynomial, images: list, m: int,
                        power_cache: dict | None = None) -> Polynomial:
    """Substitute the Polynomial images[i] (in m variables) for x^(i+1) in
    p, on Fraction coefficients: each power's image is built in a loop
    from the nearest cached lower power, caching each power on the way."""
    if power_cache is None:
        power_cache = {}
    dead = [i for i, im in enumerate(images) if im.is_zero]
    return Polynomial._of(m, sum_terms(
        (b, c * v) for alpha, c in p.terms.items()
        if not (dead and any(alpha[i] for i in dead))
        for b, v in _fraction_power_image(alpha, images, m, power_cache).terms.items()))


def _fraction_power_image(alpha, images, m: int, power_cache: dict) -> Polynomial:
    steps = []
    beta = alpha
    while beta not in power_cache:
        i = max((i for i, e in enumerate(beta) if e), default=None)
        if i is None:
            power_cache[beta] = Polynomial.constant(m, 1)
            break
        steps.append((beta, i))
        beta = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
    image = power_cache[beta]
    for beta, i in reversed(steps):
        image = power_cache[beta] = image * images[i]
    return image


def fraction_pullback(u: PolyForm, matrix, offset) -> PolyForm:
    """The pullback of u through t -> offset + matrix @ t: each component
    substituted by `fraction_substitute`, times the rational (sigma, tau)
    minor of the matrix for every tau."""
    m = len(matrix[0])
    images = [affine_polynomial(m, row, c) for row, c in zip(matrix, offset)]
    total = PolyForm.zero(m, u.k)
    if u.k > m:
        return total
    for sigma, a in u.components.items():
        a_t = fraction_substitute(a, images, m)
        for tau in enumerate_sigma(u.k, m):
            det = _det([[matrix[s - 1][t - 1] for t in tau] for s in sigma]) if sigma else 1
            if det:
                total = total + PolyForm(m, u.k, {tau: a_t * det})
    return total


def selected_basis_Pminus(r: int, k: int, n: int) -> list[PolyForm]:
    """Greedy selection over P_(r-1) and the contractions of H_(r-1)."""
    gens = [*basis_P(r - 1, k, n).forms, *map(koszul, basis_H(r - 1, k + 1, n))]
    return select_independent(gens)


def selected_basis_J(r: int, k: int, n: int) -> list[PolyForm]:
    """Greedy selection over the contracted (r+l-1, l) pieces, l = 1, 2, ...
    up to the first empty one."""
    gens, l = [], 1
    while piece := basis_Hrl(r + l - 1, l, k + 1, n):
        gens += map(koszul, piece)
        l += 1
    return select_independent(gens)


def selected_basis_S(r: int, k: int, n: int) -> list[PolyForm]:
    """Greedy selection over P_r, the J_r basis and d of the J_(r+1) basis."""
    gens = [*basis_P(r, k, n).forms, *selected_basis_J(r, k, n)]
    if k >= 1:
        gens += map(exterior_derivative, selected_basis_J(r + 1, k - 1, n))
    return select_independent(gens)


def slot_brackets(max_deg: int) -> list[PolyForm]:
    """The 1-forms x_i w (x_j dx_k - x_k dx_j) of the 3D S vector-proxy
    bracket, one per i and monomial w of degree <= max_deg free of x_i,
    with (i, j, k) cyclic, each slot product built from Polynomials."""
    x = [Polynomial.variable(3, j) for j in range(1, 4)]
    slots = {1: [(2, x[2], -1), (3, x[1], 1)],   # w1: -x3 x1 dx2 + x2 x1 dx3
             2: [(1, x[2], 1), (3, x[0], -1)],   # w2: +x2 x3 dx1 - x1 x2 dx3
             3: [(1, x[1], -1), (2, x[0], 1)]}   # w3: -x3 x2 dx1 + x3 x1 dx2
    out = []
    for i in (1, 2, 3):
        for beta in multiindices(3, max_deg):
            if beta[i - 1] != 0:
                continue
            w = Polynomial.monomial(3, beta)
            form = PolyForm.zero(3, 1)
            for slot, other, sign in slots[i]:
                form = form + PolyForm(3, 1, {(slot,): w * x[i - 1] * other * sign})
            out.append(form)
    return out
