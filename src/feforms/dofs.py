"""Degrees of freedom: face-attached integral functionals and unisolvence.

Every functional has the shape  u -> integral over a face f of
(trace of u on f) wedge q,  where q is a weight form on the reference
face.  Vertices are zero-dimensional faces; their "integral" is point
evaluation, consistent with the convention that the weight space on a
vertex is the constants.

Weight spaces per family, for a face of dimension d >= k:

  Pminus   q in P_(r+k-d-1) (d-k)-forms on the face
  P        q in Pminus_(r+k-d) (d-k)-forms on the face
  S        q in P_(r-2(d-k))  (d-k)-forms on the face
  Qminus   monomial (d-k)-forms with per-axis degree <= r-2 on the weight
           alternator axes and <= r-1 on the others (the tensor-product
           construction materialized as explicit face moments)

with the convention that a space of negative degree is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, product

from feforms import linalg, spaces
from feforms.forms import (
    AffineEmbedding,
    FaceMoments,
    PolyForm,
    box_face_chart,
    monomial_trace,
    pullback,
    simplex_face_chart,
)
from feforms.spaces import SpaceSpec, monomial_forms


@dataclass(frozen=True, eq=False)
class FaceRef:
    """One face of a reference element with its chart into the element."""
    kind: str          # "simplex" | "box"
    dim: int           # face dimension
    label: tuple       # simplex: vertex indices; box: (free axes, fixed bits)
    corners: tuple     # face vertex positions in the element (box: binary order)
    embedding: AffineEmbedding = field(repr=False)


@dataclass(frozen=True, eq=False)
class DofFunctional:
    face: FaceRef
    weight: PolyForm  # (d - k)-form on the reference face


@dataclass(frozen=True, eq=False)
class DofSet:
    spec: SpaceSpec
    functionals: tuple


@lru_cache(maxsize=None)
def reference_faces(kind: str, n: int) -> tuple[FaceRef, ...]:
    """Canonical face enumeration: dimension ascending, labels lexicographic."""
    out = []
    if kind == "simplex":
        for d in range(n + 1):
            for subset in combinations(range(n + 1), d + 1):
                emb = simplex_face_chart(n, subset)
                out.append(FaceRef(kind, d, subset, subset, emb))
    elif kind == "box":
        for d in range(n + 1):
            for axes in combinations(range(1, n + 1), d):
                fixed = [ax for ax in range(1, n + 1) if ax not in axes]
                for bits in product((0, 1), repeat=n - d):
                    corners = tuple(pos for pos in range(2 ** n) if all(
                        (pos >> (ax - 1)) & 1 == bit for ax, bit in zip(fixed, bits)))
                    emb = box_face_chart(n, axes, bits)
                    out.append(FaceRef(kind, d, (axes, bits), corners, emb))
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    return tuple(out)


@lru_cache(maxsize=None)
def weight_basis(family: str, r: int, k: int, d: int) -> tuple[PolyForm, ...]:
    """Weight forms spanning the functionals attached to one d-face."""
    if d < k:
        return ()
    j = d - k
    if family == "Pminus":
        s = r + k - d - 1
        return tuple(monomial_forms(d, j, s)) if s >= 0 else ()
    if family == "P":
        s = r + k - d
        return spaces.basis_Pminus(s, j, d).forms if s >= 1 else ()
    if family == "S":
        s = r - 2 * j
        return tuple(monomial_forms(d, j, s)) if s >= 0 else ()
    if family == "Qminus":
        # per-axis degree <= r-2 on the alternator axes, <= r-1 on the others
        if r > 1:
            return spaces.basis_Qminus(r - 1, j, d).forms
        return tuple(monomial_forms(d, 0, 0)) if j == 0 else ()
    raise ValueError(f"unknown family {family!r}")


@lru_cache(maxsize=None)
def dofs_for(spec: SpaceSpec) -> DofSet:
    if spec.family == "P" and spec.r < 1:
        # no face carries a weight, while P_0 holds the constants
        raise ValueError("P DOFs need r ≥ 1")
    functionals = []
    for face in reference_faces(spec.element, spec.n):
        for q in weight_basis(spec.family, spec.r, spec.k, face.dim):
            functionals.append(DofFunctional(face, q))
    return DofSet(spec, tuple(functionals))


def apply(phi: DofFunctional, u: PolyForm) -> Fraction:
    """Exact value of the functional: the moment of the trace of u on the face."""
    face = phi.face
    return FaceMoments(face.kind)(pullback(u, face.embedding), phi.weight)


def dof_matrix(forms, dofset: DofSet) -> list[list[int]]:
    """M[i][j] = functional i applied to form j, times a positive factor
    for row i and one for column j: an integer matrix with the rank and
    zero pattern of the exact one, whose entries `apply` gives.

    Column j is scaled by the lcm of the coefficient denominators of form
    j; reference charts have 0/1 entries, so every trace is then integral.
    Each face traces only the monomials it can see (`face_traces`), and
    `FaceMoments.rows` applies its weights to those traces: row i is scaled
    by the lcm of the denominators of its weight's moments over the trace
    monomials of its face.  Moment tables live for this call.
    """
    if any((f.n, f.k) != (dofset.spec.n, dofset.spec.k) for f in forms):
        raise ValueError(f"forms do not all lie in the space of {dofset.spec}")
    groups = monomial_groups([linalg.int_row(f.terms) for f in forms])
    moments = FaceMoments(dofset.spec.element)
    rows: list[list[int]] = []
    for face, group in groupby(dofset.functionals, key=lambda phi: phi.face):
        weights = [phi.weight for phi in group]
        for q in weights:
            if (q.n, q.k) != (face.dim, face.dim - dofset.spec.k):
                raise ValueError(f"weight {q} does not fit face {face.label}")
        index = face_traces(groups, face.embedding)
        rows += [row for row, _ in moments.rows(index, weights, len(forms))]
    return rows


def monomial_groups(columns) -> dict:
    """The monomials of integer columns ({(sigma, alpha): int} each) as
    {(bits of sigma, bits of the support of alpha): {key: [(j, c), ...]}}."""
    groups: dict = {}
    for j, col in enumerate(columns):
        for (sigma, alpha), c in col.items():
            axes = sum([1 << s for s in sigma]), sum([1 << i for i, e in enumerate(alpha, 1) if e])
            groups.setdefault(axes, {}).setdefault((sigma, alpha), []).append((j, c))
    return groups


def face_traces(groups, chart: AffineEmbedding) -> dict:
    """The traces through `chart` of the columns grouped by
    `monomial_groups`, as {trace key: {j: int}}: the index that
    `FaceMoments.rows` reads.  dx^sigma traces to 0 unless sigma lies in the
    axes F of nonzero chart rows, x^alpha unless alpha is 0 off the axes N
    of nonzero rows or offsets; only groups inside both are traced, once
    each, by `monomial_trace` (on a coordinate chart, none of them to 0).
    Cancelled entries and empty keys are dropped; a non-integral trace raises ValueError."""
    seen = sum([1 << i for i, row in enumerate(chart.matrix, 1) if any(row)])
    near = seen | sum([1 << i for i, c in enumerate(chart.offset, 1) if c])
    sums: dict = {}
    for (sigma, support), monomials in groups.items():
        if sigma & ~seen or support & ~near:
            continue
        for key, got in monomials.items():
            for tr, t in monomial_trace(chart, *key):
                entry = sums.setdefault(tr, {})
                for j, c in got:
                    entry[j] = entry.get(j, 0) + c * t
    index = {}
    for tr, entry in sums.items():
        if any(v.denominator != 1 for v in entry.values()):
            raise ValueError(f"a trace through the chart {chart.matrix} is not integral")
        if entry := {j: v.numerator for j, v in entry.items() if v}:
            index[tr] = entry
    return index


def per_face_counts(spec: SpaceSpec) -> list[dict]:
    """DOF count attached to a single face of each dimension."""
    dofs_for(spec)  # refuses the specs that carry no DOFs
    return [{"d": d, "count_per_face": len(weight_basis(spec.family, spec.r, spec.k, d))}
            for d in range(spec.n + 1)]


def unisolvence_check(spec: SpaceSpec) -> dict:
    """Count check plus exact nonsingularity of the DOF matrix."""
    basis = spaces.basis_for(spec)
    dofset = dofs_for(spec)
    matrix = dof_matrix(basis.forms, dofset)
    count_ok = len(dofset.functionals) == basis.dim
    return {
        "spec": spec.as_dict(),
        "dim": basis.dim,
        "dof_count": len(dofset.functionals),
        "per_face": per_face_counts(spec),
        "count_ok": count_ok,
        "determinant_nonzero": count_ok and linalg.is_nonsingular(matrix),
    }


def trace_moment_vanishing_check(r: int, k: int, n: int) -> dict:
    """Nullspace test behind unisolvence on the reference simplex.

    A degree-(r-1) k-form whose trace vanishes on every facet and whose
    moments against all (n-k)-form weights of degree r+k-n-1 vanish must be
    zero; equivalently the stacked constraint matrix has full column rank.
    The moment rows come from `FaceMoments.rows` on the cell.  r = 0 is
    refused: with no form to test, the check could not fail.
    """
    if r < 1:
        raise ValueError(f"the trace-moment check needs r >= 1, got r={r}")
    forms = monomial_forms(n, k, r - 1)
    cols = len(forms)
    ech = linalg.Echelon()
    groups = monomial_groups([linalg.int_row(f.terms) for f in forms])
    faces = reference_faces("simplex", n)
    for face in [face for face in faces if face.dim == n - 1]:
        for _, entry in sorted(face_traces(groups, face.embedding).items()):
            ech.add(entry)
    interior = face_traces(groups, faces[-1].embedding)
    weights = monomial_forms(n, n - k, r + k - n - 1)
    for row, _ in FaceMoments("simplex").rows(interior, weights, cols):
        ech.add(dict(enumerate(row)))
    return {
        "r": r, "k": k, "n": n,
        "space_dim": cols,
        "constraint_rank": ech.rank,
        "nullity": cols - ech.rank,
        "pass": cols == ech.rank,
    }
