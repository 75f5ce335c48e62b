"""Small conforming meshes, global DOF assembly, and commuting projections.

A mesh is a list of rational vertices plus ordered vertex-id tuples per
element (simplices, or axis-aligned boxes with corners listed in binary
order: bit j of the corner position selects the high end of axis j+1).

Global degrees of freedom are attached to mesh faces.  A face of dimension
d carries the same weight forms as the corresponding reference face; the
functional is evaluated through the face's canonical chart (sorted global
vertex order for simplex faces, increasing free axes for box faces)
composed into each adjacent element's reference coordinates.  Because the
weight spans are invariant under the affine reparametrizations between
charts, every adjacent element induces the same functional, which is what
makes shared-face DOFs single-valued without explicit sign tables.

Piecewise forms are dicts element index -> PolyForm in the element's
reference coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby, product
from math import lcm
from operator import mul

from feforms import linalg, spaces
from feforms.complexes import Certificate
from feforms.forms import (
    AffineEmbedding,
    FaceMoments,
    PolyForm,
    exterior_derivative,
    form_to_string,
    pullback,
    simplex_face_chart,
)
from feforms.dofs import face_traces, monomial_groups, reference_faces, weight_basis
from feforms.polynomial import (
    DegenerateSimplexError,
    exact,
    integer_planes,
    ratios,
    rational_from_string,
    rational_to_string,
)


class MeshError(ValueError):
    pass


class NonconformingMeshError(MeshError):
    pass


class DegenerateElementError(MeshError):
    pass


@dataclass(frozen=True, eq=False)
class MeshFace:
    dim: int
    ids: tuple            # sorted global vertex ids
    adjacent: tuple       # ((element index, psi), ...) in element order
    index: int


class Mesh:
    """A validated conforming mesh of simplices or axis-aligned boxes."""

    def __init__(self, kind: str, n: int, vertices, elements):
        if kind not in ("simplicial", "cubical"):
            raise MeshError(f"unknown mesh kind {kind!r}")
        if not _is_int(n):
            raise MeshError(f"mesh dimension {n!r} is not an integer")
        if n < 1:
            raise MeshError(f"mesh dimension must be at least 1, got {n}")
        self.kind = kind
        self.n = n
        self.vertices = tuple(tuple(_coordinate(c) for c in v) for v in vertices)
        self.elements = tuple(tuple(e) for e in elements)
        if not all(_is_int(i) for e in self.elements for i in e):
            raise MeshError("element vertex ids must be integers")
        self._spaces: dict[tuple, GlobalSpace] = {}
        self._validate()

    @property
    def element_kind(self) -> str:
        return "simplex" if self.kind == "simplicial" else "box"

    # -- validation -----------------------------------------------------

    def _validate(self):
        n = self.n
        for v in self.vertices:
            if len(v) != n:
                raise MeshError(f"vertex {v} does not have {n} coordinates")
        if len(set(self.vertices)) != len(self.vertices):
            raise MeshError("duplicate vertex coordinates")
        per_elem = (n + 1) if self.kind == "simplicial" else 2 ** n
        for e in self.elements:
            if len(e) != per_elem or len(set(e)) != per_elem:
                raise MeshError(f"element {e} must list {per_elem} distinct vertices")
            if any(not 0 <= i < len(self.vertices) for i in e):
                raise MeshError(f"element {e} references a missing vertex")
        # on the common denominator, every plane and point below is integral
        den = lcm(*[c.denominator for v in self.vertices for c in v])
        ints = [tuple(c.numerator * (den // c.denominator) for c in v) for v in self.vertices]
        if self.kind == "simplicial":
            planes = []
            for e in self.elements:
                try:
                    planes.append([(grad, const) for grad, const, _ in
                                   integer_planes([ints[i] for i in e])])
                except DegenerateSimplexError:
                    raise DegenerateElementError(f"element {e} is degenerate") from None
            self._check_simplicial_conformity(planes, ints)
        else:
            self._check_cubical_conformity(
                [self._validate_box(e, ints) for e in self.elements])

    def _validate_box(self, elem, verts):
        n = self.n
        corners = [verts[i] for i in elem]
        lo = corners[0]
        hi = corners[-1]
        if any(l >= h for l, h in zip(lo, hi)):
            raise DegenerateElementError(f"element {elem} has empty extent")
        for pos, c in enumerate(corners):
            want = tuple(hi[ax] if (pos >> ax) & 1 else lo[ax] for ax in range(n))
            if c != want:
                raise MeshError(
                    f"element {elem} corners are not in binary order for an "
                    "axis-aligned box")
        return tuple(zip(lo, hi))

    def _check_simplicial_conformity(self, planes, verts):
        """Each pair of elements meets in a common face (or not at all).

        `planes` holds each element's barycentric planes, each scaled by a
        positive factor, for the vertices `verts`.  Only pairs whose
        bounding boxes meet can intersect; a separating facet decides most
        of them, and the exact intersection-vertex enumeration the rest.
        """
        boxes = [tuple((min(c), max(c)) for c in zip(*(verts[i] for i in e)))
                 for e in self.elements]
        for a, b in _meeting_pairs(boxes):
            ea, eb = self.elements[a], self.elements[b]
            shared = set(ea) & set(eb)
            if set(ea) == set(eb):
                raise NonconformingMeshError(
                    f"elements {a} and {b} have identical vertices")
            if (_facet_separates(planes[a], eb, shared, verts)
                    or _facet_separates(planes[b], ea, shared, verts)):
                continue
            # a point of A lies in its face conv(shared) exactly when the
            # barycentric coordinates of A's other vertices vanish there
            outside = [plane for i, plane in zip(ea, planes[a]) if i not in shared]
            for pt, s in _intersection_vertices(planes[a] + planes[b]):
                if any(_plane_value(plane, pt, s) for plane in outside):
                    raise NonconformingMeshError(
                        f"elements {a} and {b} meet outside a common face")

    def _check_cubical_conformity(self, bounds):
        for a, b in _meeting_pairs(bounds):
            ba, bb = bounds[a], bounds[b]
            inter = [(max(l1, l2), min(h1, h2))
                     for (l1, h1), (l2, h2) in zip(ba, bb)]
            degenerate_axes = 0
            for (lo, hi), (l1, h1), (l2, h2) in zip(inter, ba, bb):
                if lo == hi:
                    degenerate_axes += 1
                    if lo not in (l1, h1) or lo not in (l2, h2):
                        raise NonconformingMeshError(
                            f"elements {a} and {b} touch at a hanging point")
                else:
                    if (lo, hi) != (l1, h1) or (lo, hi) != (l2, h2):
                        raise NonconformingMeshError(
                            f"elements {a} and {b} share a partial face")
            if degenerate_axes == 0:
                raise NonconformingMeshError(
                    f"elements {a} and {b} have overlapping interiors")

    # -- geometry --------------------------------------------------------
    # Charts and faces are built on first use, by `assemble`: built in the
    # constructor, they cost the mesh benchmarks up to 0.3 MB of peak memory.

    @cached_property
    def charts(self) -> tuple[AffineEmbedding, ...]:
        """Affine charts from the reference element onto each element."""
        corners = [[self.vertices[i] for i in elem] for elem in self.elements]
        if self.kind == "simplicial":
            return tuple(map(AffineEmbedding.from_simplex, corners))
        return tuple(AffineEmbedding.from_box(zip(c[0], c[-1])) for c in corners)

    def element_chart(self, e: int) -> AffineEmbedding:
        """Affine chart from the reference element onto element e."""
        return self.charts[e]

    # -- face enumeration --------------------------------------------------

    @cached_property
    def _face_table(self) -> tuple[MeshFace, ...]:
        table: dict[tuple, tuple] = {}
        for ei, elem in enumerate(self.elements):
            for ref in reference_faces(self.element_kind, self.n):
                order = tuple(sorted(ref.corners, key=elem.__getitem__))
                psi = (simplex_face_chart(self.n, order)
                       if self.kind == "simplicial" else ref.embedding)
                ids = tuple(elem[pos] for pos in order)
                table.setdefault(ids, (ref.dim, []))[1].append((ei, psi))
        faces = sorted(table.items(), key=lambda item: (len(item[0]), item[0]))
        return tuple(MeshFace(dim, ids, tuple(adjacent), index)
                     for index, (ids, (dim, adjacent)) in enumerate(faces))

    def faces(self) -> tuple[MeshFace, ...]:
        """Each element's reference faces, keyed by sorted global ids.  A box
        face keeps its reference chart, a simplex face follows the ids."""
        return self._face_table

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "vertices": [[rational_to_string(c) for c in v]
                         for v in self.vertices],
            "elements": [list(e) for e in self.elements],
        }


def read_mesh(source) -> Mesh:
    """Build a validated mesh from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
    if not isinstance(doc, dict):
        raise MeshError("mesh document is not a JSON object")
    try:
        kind, n, vertices, elements = (doc[key] for key in
                                       ("kind", "n", "vertices", "elements"))
    except KeyError as exc:
        raise MeshError(f"mesh document is missing key {exc}") from exc
    for key, rows in (("vertices", vertices), ("elements", elements)):
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise MeshError(f"mesh {key} must be a list of lists")
    return Mesh(kind, n, vertices, elements)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _coordinate(c) -> Fraction:
    """An exact coordinate from a `p/q` string, an integer or a Fraction.
    Floats are refused: their binary value is rarely the rational meant."""
    if not (_is_int(c) or isinstance(c, (str, Fraction))):
        raise MeshError(f"coordinate {c!r} is not a p/q string, an integer or a Fraction")
    try:
        return rational_from_string(c) if isinstance(c, str) else Fraction(c)
    except ValueError as exc:
        raise MeshError(f"bad coordinate {c!r}: {exc}") from exc


# -- exact conformity helpers ------------------------------------------------


def _meeting_pairs(boxes) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, whose closed boxes meet, in ascending order.

    `boxes[i]` lists (lo, hi) per axis.  Sort by the low end on axis 1 and
    sweep: the boxes that can meet box a on that axis follow it in the
    order up to the first one starting beyond its high end.
    """
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0])
    pairs = []
    for pos, a in enumerate(order):
        box_a = boxes[a]
        for q in range(pos + 1, len(order)):
            b = order[q]
            box_b = boxes[b]
            if box_b[0][0] > box_a[0][1]:
                break
            if all(l1 <= h2 and l2 <= h1
                   for (l1, h1), (l2, h2) in zip(box_a, box_b)):
                pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


def _plane_value(plane, point, s=1):
    """s times the plane's value at point / s."""
    grad, const = plane
    return sum(g * x for g, x in zip(grad, point)) + const * s


def _facet_separates(planes, ids, shared, vertices) -> bool:
    """A facet plane lambda_i = 0 with every vertex `ids` of the other
    simplex on its closed outer side and only the `shared` ones on it, or
    with the vertices on it decided in the same way by the other planes.

    The intersection lies in the facet and in the other simplex's face
    spanned by the vertices on the plane, which include the shared ones:
    at the end it is conv(shared), a face of both, and the pair conforms.
    False means undecided, not nonconforming.
    """
    for pos, plane in enumerate(planes):
        values = [_plane_value(plane, vertices[i]) for i in ids]
        if max(values) > 0:
            continue
        on = [i for i, value in zip(ids, values) if not value]
        if len(on) == len(shared) or _facet_separates(
                planes[:pos] + planes[pos + 1:], on, shared, vertices):
            return True
    return False


def _intersection_vertices(planes) -> set[tuple]:
    """Vertices of the polytope where every barycentric plane is >= 0, each
    as (numerators, s): the point numerators / s, with s > 0.

    Brute force over n-subsets of the planes (those of two simplices);
    each nonsingular subset contributes its solution when it satisfies all
    the halfspace constraints.
    """
    n = len(planes[0][0])
    out = set()
    for subset in combinations(planes, n):
        try:
            t, s = linalg.LUFactor([list(grad) for grad, _ in subset]).solve(
                [-c for _, c in subset])
        except linalg.SingularMatrixError:
            continue
        if all(_plane_value(plane, t, s) >= 0 for plane in planes):
            out.add((tuple(t), s))
    return out


# -- global spaces -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GlobalDof:
    index: int
    face: MeshFace
    weight: PolyForm


class GlobalSpace:
    """A finite element space assembled from per-face degrees of freedom.  It
    keeps the mesh's faces and charts, not the mesh, whose cache holds it."""

    def __init__(self, mesh: Mesh, family: str, r: int, k: int):
        self.spec = spaces.make_spec(family, mesh.n, r, k)
        if self.spec.element != mesh.element_kind:
            raise MeshError(f"family {family} lives on {self.spec.element} "
                            f"elements; the mesh is {mesh.kind}")
        self.faces = mesh.faces()
        self.charts = mesh.charts
        self.basis = spaces.basis_for(self.spec)
        self._basis_den = lcm(*[c.denominator for b in self.basis.forms
                                for c in b.terms.values()])
        int_basis = self._int_basis = [(b * self._basis_den).terms for b in self.basis.forms]
        self._basis_columns = [(mon, [b.get(mon, 0) for b in int_basis])
                               for mon in dict.fromkeys(m for b in int_basis for m in b)]
        self.dofs: list[GlobalDof] = []
        element_dofs: list[list] = [[] for _ in mesh.elements]
        for face in self.faces:
            for q in weight_basis(family, r, k, face.dim):
                dof = GlobalDof(len(self.dofs), face, q)
                self.dofs.append(dof)
                for ei, psi in face.adjacent:
                    element_dofs[ei].append((dof, psi))
        self.element_dofs = [tuple(lst) for lst in element_dofs]
        for ei, local in enumerate(self.element_dofs):
            if len(local) != self.basis.dim:
                raise MeshError(
                    f"{family} r={r} k={k} is not unisolvent: element {ei} carries "
                    f"{len(local)} DOFs for a space of dimension {self.basis.dim}")
        # an element's local pattern, numbered by first appearance: its weights (cached
        # by `weight_basis`, so their ids name them) through its face charts, in order
        keys: dict = {}
        self._patterns = [keys.setdefault(
            tuple((id(dof.weight), psi.matrix, psi.offset) for dof, psi in local), len(keys))
            for local in self.element_dofs]
        self._rows: dict[int, list] = {}
        self._nodal: dict[int, tuple[list, int]] = {}
        self._tables: dict[tuple, list] = {}
        self._moments = FaceMoments(mesh.element_kind)

    @property
    def dimension(self) -> int:
        return len(self.dofs)

    # -- functional evaluation ------------------------------------------

    def dof_values(self, pieces: dict) -> list:
        """Global DOF values of a piecewise form, taken from the first
        adjacent element of each face: each read piece as integers over one
        denominator, and each value one integer dot product with a table."""
        out, scaled = [], {}
        for face, group in groupby(self.dofs, key=lambda dof: dof.face):
            ei, psi = face.adjacent[0]
            if ei not in scaled:
                piece = pieces[ei]
                if (piece.n, piece.k) != (self.spec.n, self.spec.k):
                    raise ValueError(f"element {ei} holds a {piece.k}-form on R^{piece.n}, "
                                     f"need a {self.spec.k}-form on R^{self.spec.n}")
                den = lcm(*[c.denominator for c in piece.terms.values()])
                scaled[ei] = {key: c.numerator * (den // c.denominator)
                              for key, c in piece.terms.items()}, den
            nums, den = scaled[ei]
            for [value], scale in self._face_values(psi, [dof.weight for dof in group], [nums]):
                out.append(exact(Fraction(value, den * scale)))
        return out

    def _face_values(self, psi: AffineEmbedding, weights, columns) -> list[tuple[list, int]]:
        """Per weight q, (values, scale): values[j] / scale is the moment against
        q of the trace through psi of integer column j, {(sigma, alpha): int}.
        Read from one table per (chart value, weight) on one integer scale;
        unseen monomials are traced by `face_traces`, applied by
        `FaceMoments.rows` and rescaled together."""
        tables = [self._tables.setdefault((psi.matrix, psi.offset, id(q)), [1, {}])
                  for q in weights]
        seen = tables[0][1]
        if new := list(dict.fromkeys(key for col in columns for key in col if key not in seen)):
            index = face_traces(monomial_groups([{key: 1} for key in new]), psi)
            got = self._moments.rows(index, weights, len(new))
            for held, (row, scale) in zip(tables, got):
                common = lcm(held[0], scale)
                held[1] = {key: v * (common // held[0]) for key, v in held[1].items()}
                held[1].update(zip(new, [v * (common // scale) for v in row]))
                held[0] = common
        return [([sum([c * table[key] for key, c in col.items()]) for col in columns], scale)
                for scale, table in tables]

    def _element_rows(self, ei: int) -> list[tuple[list, int]]:
        """The element's local DOFs applied to the integer basis, as (row,
        scale): row[j] / scale is the DOF's value on basis form j.  Kept per
        local pattern; nothing is factored, so a singular pattern has rows."""
        key = self._patterns[ei]
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = []
            for (_, psi), group in groupby(self.element_dofs[ei],
                                           key=lambda pair: (pair[0].face, pair[1])):
                got = self._face_values(psi, [dof.weight for dof, _ in group], self._int_basis)
                rows += [(row, scale * self._basis_den) for row, scale in got]
        return rows

    def _nodal_basis(self, ei: int) -> tuple[list, int]:
        """The integer basis dual to the element's local DOFs over one
        denominator, kept per local pattern: the factored element rows solved
        for each scaled unit vector, held as (basis monomial, coefficients)."""
        key = self._patterns[ei]
        got = self._nodal.get(key)
        if got is None:
            rows = self._element_rows(ei)
            lu = linalg.LUFactor([row for row, _ in rows])
            solved = [lu.solve([scale * (i == j) for i, (_, scale) in enumerate(rows)])
                      for j in range(lu.n)]
            den = lcm(*[s for _, s in solved])
            solved = [[c * (den // s) for c in t] for t, s in solved]
            got = self._nodal[key] = ([
                (mon, [sum(map(mul, t, column)) for t in solved])
                for mon, column in self._basis_columns], den * self._basis_den)
        return got

    def from_dof_values(self, values) -> dict:
        """The member with these global DOF values, inverting `dof_values`: per
        element, the local values combine its pattern's nodal basis; an
        element whose local values all vanish gets zero without work."""
        n, k = self.spec.n, self.spec.k
        pieces = {}
        for ei, local in enumerate(self.element_dofs):
            rhs = [values[dof.index] for dof, _ in local]
            terms, den = {}, 1
            if any(rhs):
                nodal, den = self._nodal_basis(ei)
                scale = lcm(*[v.denominator for v in rhs])
                den *= scale
                w = [v.numerator * (scale // v.denominator) for v in rhs]
                terms = {mon: c for mon, column in nodal if (c := sum(map(mul, w, column)))}
            pieces[ei] = PolyForm._of(n, k, ratios(terms, den))
        return pieces

    def as_pieces(self, u) -> dict:
        """Normalize input to reference-coordinate pieces per element."""
        if isinstance(u, PolyForm):
            return {ei: pullback(u, chart) for ei, chart in enumerate(self.charts)}
        return dict(u)

    def project(self, u) -> dict:
        """DOF interpolation onto the space; exact on per-element polynomials."""
        return self.from_dof_values(self.dof_values(self.as_pieces(u)))


def assemble(mesh: Mesh, family: str, r: int, k: int) -> GlobalSpace:
    """The space of (family, r, k) on the mesh, built once per mesh so that
    its element factorizations are shared by every later caller."""
    key = (family, r, k)
    space = mesh._spaces.get(key)
    if space is None:
        space = mesh._spaces[key] = GlobalSpace(mesh, family, r, k)
    return space


def face_sum_dimension(mesh: Mesh, family: str, r: int, k: int) -> int:
    """Sum over mesh faces of the per-face DOF counts."""
    return sum(len(weight_basis(family, r, k, face.dim)) for face in mesh.faces())


def assembled_dimension_by_rank(space: GlobalSpace) -> int:
    """Dimension of the matching-constraint solution space, computed by rank.

    Variables are per-element basis coefficients; each shared DOF ties the
    first element that holds it to every other one by their cached element
    rows, y_e0 = y_ei.  Each element's local rows through its charts are
    independent, so the rank of each star of rows y_e0 - c * y_ei does not
    depend on c != 0: the count checks local independence and the face sum
    formula, not orientation, which `continuity_check` and the commuting
    certificates check.
    """
    first, ech = {}, linalg.Echelon()
    for ei, local in enumerate(space.element_dofs):
        for (dof, _), (row, scale) in zip(local, space._element_rows(ei)):
            e0, row0, scale0 = first.setdefault(dof.index, (ei, row, scale))
            if e0 != ei:
                ech.add({**{(e0, j): v * scale for j, v in enumerate(row0) if v},
                         **{(ei, j): -v * scale0 for j, v in enumerate(row) if v}})
    return len(space.element_dofs) * space.basis.dim - ech.rank


def continuity_check(space: GlobalSpace, pieces: dict) -> bool:
    """Traces agree, as forms, on every shared face."""
    for face in space.faces:
        if len(face.adjacent) < 2:
            continue
        e0, psi0 = face.adjacent[0]
        ref = pullback(pieces[e0], psi0)
        for ei, psi in face.adjacent[1:]:
            if pullback(pieces[ei], psi) != ref:
                return False
    return True


def pieces_d(pieces: dict) -> dict:
    return {e: exterior_derivative(p) for e, p in pieces.items()}


def pieces_to_json_dict(pieces: dict) -> dict:
    return {str(e): form_to_string(p) for e, p in sorted(pieces.items())}


def check_commuting(mesh: Mesh, family: str, r: int, u) -> Certificate:
    """d(projection at level k) equals projection at level k+1 of du.

    `r` is the polynomial degree at the level of u; the next level comes
    from `spaces.next_level` and must carry DOFs (r >= 1).
    """
    k = u.k if isinstance(u, PolyForm) else next(iter(u.values())).k
    following = spaces.next_level(spaces.SpaceSpec(family, mesh.n, r, k))
    if following is None or following.r < 1:
        raise MeshError("the next chain level does not exist for these parameters")
    space_k = assemble(mesh, family, r, k)
    space_k1 = assemble(mesh, family, following.r, following.k)
    pieces = space_k.as_pieces(u)
    left = pieces_d(space_k.project(pieces))
    right = space_k1.project(pieces_d(pieces))
    ok = left == right
    witness = {"dim_k": space_k.dimension, "dim_k1": space_k1.dimension}
    if not ok:
        witness["left"] = pieces_to_json_dict(left)
        witness["right"] = pieces_to_json_dict(right)
    params = {"family": family, "r": r, "k": k,
              "input": form_to_string(u) if isinstance(u, PolyForm) else "piecewise"}
    return Certificate("commuting", params, "pass" if ok else "fail", witness)


# -- sample meshes -----------------------------------------------------------


def two_triangle_square() -> Mesh:
    return Mesh("simplicial", 2,
                [(0, 0), (1, 0), (0, 1), (1, 1)],
                [(0, 1, 2), (1, 3, 2)])


def crisscross_square() -> Mesh:
    return Mesh("simplicial", 2,
                [(0, 0), (1, 0), (1, 1), (0, 1),
                 (Fraction(1, 2), Fraction(1, 2))],
                [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def two_tetrahedra() -> Mesh:
    return Mesh("simplicial", 3,
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                [(0, 1, 2, 3), (1, 2, 3, 4)])


def box_grid(shape) -> Mesh:
    """The grid of unit boxes with shape[j] cells along axis j+1.  Vertices
    and cells, each named by its lowest corner, are numbered with axis 1
    fastest; the corners of a cell are in binary order."""
    n = len(shape)
    points = [p[::-1] for p in product(*(range(m + 1) for m in reversed(shape)))]
    ids = {p: i for i, p in enumerate(points)}
    elements = [tuple(ids[tuple(x + ((pos >> ax) & 1) for ax, x in enumerate(cell))]
                      for pos in range(2 ** n))
                for cell in points if all(x < m for x, m in zip(cell, shape))]
    return Mesh("cubical", n, points, elements)


SAMPLE_MESHES = {
    "two_triangle_square": two_triangle_square,
    "crisscross_square": crisscross_square,
    "two_tetrahedra": two_tetrahedra,
    "two_boxes_2d": lambda: box_grid((2, 1)),
    "grid_boxes_2x2": lambda: box_grid((2, 2)),
    "two_cubes_3d": lambda: box_grid((2, 1, 1)),
}
