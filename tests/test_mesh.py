import gc
import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from feforms import complexes, dofs, linalg, verify
from feforms import mesh_assembly as ma
from feforms.forms import (
    FaceMoments,
    PolyForm,
    exterior_derivative,
    form_from_string,
    form_to_string,
    pullback,
)
from feforms.polynomial import Polynomial, barycentric_planes
from feforms.spaces import make_spec, monomial_forms
from feforms.dofs import reference_faces
from oracles import conformity_verdict, integer_simplices, mesh_faces, pair_conforms


def element_rows(space, ei):
    """The exact DOF rows of element ei, from its pattern's integer rows."""
    return [[Fraction(v, scale) for v in row] for row, scale in space._element_rows(ei)]


def unit_member(space, index):
    """The member of the space whose DOF `index` is one and the rest zero."""
    return space.from_dof_values([int(i == index) for i in range(space.dimension)])


def test_read_mesh_roundtrip(tmp_path):
    mesh = ma.two_triangle_square()
    doc = mesh.to_json_dict()
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    back = ma.read_mesh(str(path))
    assert back.vertices == mesh.vertices
    assert back.elements == mesh.elements
    also = ma.read_mesh(json.dumps(doc))
    assert also.vertices == mesh.vertices


def test_read_mesh_missing_key():
    with pytest.raises(ma.MeshError):
        ma.read_mesh({"kind": "simplicial", "n": 2})


def test_sample_mesh_files_match_the_builders():
    paths = sorted((Path(__file__).parent.parent / "meshes").glob("*.json"))
    assert [p.stem for p in paths] == sorted(ma.SAMPLE_MESHES)
    for path in paths:
        assert (ma.read_mesh(str(path)).to_json_dict()
                == ma.SAMPLE_MESHES[path.stem]().to_json_dict()), path.name


def test_two_triangle_square_faces():
    mesh = ma.two_triangle_square()
    dims = [f.dim for f in mesh.faces()]
    assert dims.count(0) == 4 and dims.count(1) == 5 and dims.count(2) == 2


def test_single_cube_faces():
    mesh = ma.Mesh("cubical", 3,
                   [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)],
                   [tuple(range(8))])
    dims = [f.dim for f in mesh.faces()]
    assert dims.count(0) == 8 and dims.count(1) == 12 and dims.count(2) == 6


def test_nonconforming_half_edge():
    with pytest.raises(ma.NonconformingMeshError):
        ma.Mesh("simplicial", 2,
                [(0, 0), (1, 0), (0, 1),
                 (Fraction(1, 2), 0), (Fraction(3, 2), 0), (1, -1)],
                [(0, 1, 2), (3, 4, 5)])


def test_nonconforming_t_junction():
    with pytest.raises(ma.NonconformingMeshError):
        ma.Mesh("simplicial", 2, [(0, 0), (2, 0), (0, 2), (1, 0), (2, -1)],
                [(0, 1, 2), (3, 1, 4)])


def test_nonconforming_hanging_box():
    with pytest.raises(ma.NonconformingMeshError):
        ma.Mesh("cubical", 2,
                [(0, 0), (2, 0), (0, 1), (2, 1), (1, 1), (1, 2), (0, 2)],
                [(0, 1, 2, 3), (2, 4, 6, 5)])


def test_degenerate_element():
    with pytest.raises(ma.DegenerateElementError):
        ma.Mesh("simplicial", 2, [(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_duplicate_vertices_rejected():
    with pytest.raises(ma.MeshError):
        ma.Mesh("simplicial", 2, [(0, 0), (1, 0), (0, 1), (0, 0)],
                [(0, 1, 2)])


def test_box_corner_order_enforced():
    with pytest.raises(ma.MeshError):
        ma.Mesh("cubical", 2, [(0, 0), (1, 0), (0, 1), (1, 1)],
                [(0, 1, 3, 2)])


def test_assemble_dimensions_two_triangles():
    mesh = ma.two_triangle_square()
    assert ma.assemble(mesh, "P", 1, 0).dimension == 4
    assert ma.assemble(mesh, "Pminus", 1, 1).dimension == 5
    # discontinuous top forms: interior DOFs only, 3 per triangle
    assert ma.assemble(mesh, "P", 1, 2).dimension == 6


def test_assemble_face_sum_and_rank_agree():
    cases = [
        (ma.two_triangle_square(), "Pminus", 2, 1),
        (ma.crisscross_square(), "P", 2, 0),
        (ma.two_tetrahedra(), "Pminus", 1, 2),
        (ma.SAMPLE_MESHES["two_boxes_2d"](), "Qminus", 2, 1),
        (ma.SAMPLE_MESHES["grid_boxes_2x2"](), "S", 2, 0),
        (ma.SAMPLE_MESHES["two_cubes_3d"](), "S", 1, 1),
    ]
    for mesh, family, r, k in cases:
        space = ma.assemble(mesh, family, r, k)
        assert space.dimension == ma.face_sum_dimension(mesh, family, r, k)
        assert space.dimension == ma.assembled_dimension_by_rank(space)


def test_whitney_edge_count_three_meshes():
    for mesh in (ma.two_triangle_square(), ma.crisscross_square(),
                 ma.two_tetrahedra()):
        space = ma.assemble(mesh, "Pminus", 1, 1)
        edges = sum(1 for f in mesh.faces() if f.dim == 1)
        assert space.dimension == edges


def test_assemble_refuses_spec_that_is_not_unisolvent():
    # P_0 has dimension 1 per element but no DOFs
    with pytest.raises(ma.MeshError, match="not unisolvent"):
        ma.assemble(ma.two_triangle_square(), "P", 0, 0)


def test_family_mesh_kind_mismatch():
    with pytest.raises(ma.MeshError):
        ma.assemble(ma.two_triangle_square(), "Qminus", 1, 0)
    with pytest.raises(ma.MeshError):
        ma.assemble(ma.box_grid((2, 1)), "P", 1, 0)


def test_projection_identity_on_members():
    mesh = ma.two_triangle_square()
    for family, r, k in (("P", 2, 0), ("Pminus", 1, 1), ("Pminus", 2, 1)):
        space = ma.assemble(mesh, family, r, k)
        for index in range(space.dimension):
            member = unit_member(space, index)
            again = space.project(member)
            assert member == again


def test_projection_idempotent_on_polynomials():
    mesh = ma.crisscross_square()
    space = ma.assemble(mesh, "P", 2, 0)
    u = PolyForm.from_polynomial(
        Polynomial.monomial(2, (3, 1), 2) + Polynomial.monomial(2, (1, 0)))
    once = space.project(u)
    twice = space.project(once)
    assert once == twice


def test_projection_reproduces_global_linears():
    mesh = ma.two_tetrahedra()
    space = ma.assemble(mesh, "P", 1, 0)
    u = PolyForm.from_polynomial(Polynomial.variable(3, 1))
    proj = space.project(u)
    assert proj == space.as_pieces(u)


def test_projection_vertex_interpolant():
    single = ma.Mesh("simplicial", 2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    space = ma.assemble(single, "P", 1, 0)
    u = PolyForm.from_polynomial(Polynomial.monomial(2, (2, 0)))
    proj = space.project(u)
    assert form_to_string(proj[0]) == "1/1 x1"  # vertex values 0, 1, 0


def test_global_basis_functions_are_continuous():
    mesh = ma.two_triangle_square()
    for family, r, k in (("P", 2, 0), ("Pminus", 1, 1)):
        space = ma.assemble(mesh, family, r, k)
        for index in range(space.dimension):
            assert ma.continuity_check(space, unit_member(space, index))


def test_continuity_negative_control():
    mesh = ma.two_triangle_square()
    space = ma.assemble(mesh, "P", 1, 0)
    broken = {0: PolyForm.from_polynomial(Polynomial.constant(2, 1)),
              1: PolyForm.from_polynomial(Polynomial.constant(2, 2))}
    assert not ma.continuity_check(space, broken)


def test_whitney_tangential_trace_agreement():
    mesh = ma.two_triangle_square()
    space = ma.assemble(mesh, "Pminus", 1, 1)
    member = unit_member(space, 2)
    assert ma.continuity_check(space, member)


def test_commuting_simple():
    mesh = ma.two_triangle_square()
    u = PolyForm.from_polynomial(Polynomial.monomial(2, (2, 1)))
    assert ma.check_commuting(mesh, "Pminus", 2, u).passed
    u1 = PolyForm.monomial(2, (1, 1), (1,))
    assert ma.check_commuting(mesh, "Pminus", 1, u1).passed


def test_commuting_member_inputs():
    mesh = ma.box_grid((2, 1))
    space = ma.assemble(mesh, "Qminus", 1, 0)
    member = unit_member(space, 0)
    cert = ma.check_commuting(mesh, "Qminus", 1, member)
    assert cert.passed


def test_commuting_missing_level():
    mesh = ma.two_triangle_square()
    u = PolyForm.monomial(2, (0, 0), (1, 2))
    with pytest.raises(ma.MeshError):
        ma.check_commuting(mesh, "P", 1, u)  # next level would need degree 0
    with pytest.raises(ma.MeshError):
        ma.check_commuting(mesh, "Pminus", 1, u)  # k+1 beyond top degree


def test_commuting_all_monomials_small():
    mesh = ma.two_triangle_square()
    for u in monomial_forms(2, 0, 2):
        assert ma.check_commuting(mesh, "Pminus", 1, u).passed


def test_element_charts():
    mesh = ma.box_grid((2, 1))
    chart = mesh.element_chart(1)
    assert chart.apply((0, 0)) == (1, 0)
    assert chart.apply((1, 1)) == (2, 1)


def test_pieces_helpers():
    mesh = ma.two_triangle_square()
    space = ma.assemble(mesh, "P", 2, 0)
    u = PolyForm.from_polynomial(Polynomial.monomial(2, (1, 1)))
    pieces = space.as_pieces(u)
    dp = ma.pieces_d(pieces)
    for e, piece in pieces.items():
        assert dp[e] == exterior_derivative(piece)
    doc = ma.pieces_to_json_dict(pieces)
    assert set(doc) == {"0", "1"}


def test_assemble_is_shared_per_mesh_and_spec(monkeypatch):
    mesh = ma.two_triangle_square()
    space = ma.assemble(mesh, "Pminus", 1, 0)
    assert ma.assemble(mesh, "Pminus", 1, 0) is space
    assert ma.assemble(mesh, "Pminus", 1, 1) is not space
    assert ma.assemble(ma.two_triangle_square(), "Pminus", 1, 0) is not space
    # x1 x2 alone vanishes at every vertex of triangle 0, which then needs no factor
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    u = PolyForm.from_polynomial(x1 * x2 + x1)
    space.project(u)
    factored = []
    lu = ma.linalg.LUFactor

    def counting(rows):
        factored.append(len(rows))
        return lu(rows)

    monkeypatch.setattr(ma.linalg, "LUFactor", counting)
    assert ma.check_commuting(mesh, "Pminus", 1, u).passed
    # only the k = 1 space is new; the k = 0 factorizations are reused
    assert len(factored) == len(mesh.elements)


# -- conformity: pruning, certificate and fallback -------------------------------


def kuhn_grid(n, m, rng=None):
    """Vertices and elements of the Kuhn triangulation of the unit n-cube
    into m^n cells of n! simplices; `rng` permutes the vertex ids."""
    coords = list(product(range(m + 1), repeat=n))
    new_id = list(range(len(coords)))
    if rng is not None:
        rng.shuffle(new_id)
    vertices = [None] * len(coords)
    index = {}
    for old, c in enumerate(coords):
        vertices[new_id[old]] = tuple(Fraction(x, m) for x in c)
        index[c] = new_id[old]
    elements = []
    for cell in product(range(m), repeat=n):
        for order in permutations(range(n)):
            corner = list(cell)
            simplex = [index[cell]]
            for ax in order:
                corner[ax] += 1
                simplex.append(index[tuple(corner)])
            elements.append(tuple(simplex))
    return vertices, elements


@st.composite
def moved_kuhn_grids(draw, n, sizes):
    """A Kuhn grid, elements shuffled, with one interior vertex moved by an
    odd number of eighths of a cell width (at most 11/8) on each axis, so
    that it never lands on another vertex."""
    m = draw(st.sampled_from(sizes))
    vertices, elements = kuhn_grid(n, m)
    elements = draw(st.permutations(elements))
    interior = [i for i, v in enumerate(vertices) if all(0 < c < 1 for c in v)]
    i = draw(st.sampled_from(interior))
    step = st.integers(-6, 5).map(lambda k: Fraction(2 * k + 1, 8))
    vertices[i] = tuple(c + draw(step) / m for c in vertices[i])
    return vertices, elements


def mesh_verdict(n, vertices, elements):
    """The verdict of `Mesh` in the form of `oracles.conformity_verdict`."""
    try:
        ma.Mesh("simplicial", n, vertices, elements)
    except ma.DegenerateElementError:
        return "degenerate"
    except ma.NonconformingMeshError as exc:
        found = re.fullmatch(r"elements (\d+) and (\d+) "
                             r"(have identical vertices|meet outside a common face)",
                             str(exc))
        kind = "identical" if found[3].startswith("have") else "outside"
        return (kind, int(found[1]), int(found[2]))
    return "conforming"


@settings(max_examples=30, deadline=None)
@given(moved_kuhn_grids(2, (2, 3, 4)))
def test_pruned_conformity_agrees_with_brute_force_2d(grid):
    assert mesh_verdict(2, *grid) == conformity_verdict(*grid)


@settings(max_examples=5, deadline=None)
@given(moved_kuhn_grids(3, (2,)))
def test_pruned_conformity_agrees_with_brute_force_3d(grid):
    assert mesh_verdict(3, *grid) == conformity_verdict(*grid)


@pytest.mark.parametrize("n, offset", [
    (2, (Fraction(3, 10), Fraction(-3, 10))),
    (3, (Fraction(2, 5), Fraction(-2, 5), Fraction(0)))])
def test_moved_vertex_breaks_conformity(n, offset):
    vertices, elements = kuhn_grid(n, 2)
    centre = vertices.index((Fraction(1, 2),) * n)
    vertices[centre] = tuple(c + o for c, o in zip(vertices[centre], offset))
    verdict = mesh_verdict(n, vertices, elements)
    assert verdict[0] == "outside"
    assert verdict == conformity_verdict(vertices, elements)


@pytest.mark.parametrize("m", [3, 7])
def test_integer_validation_agrees_with_the_oracle_on_thirds_and_sevenths(m):
    """A Kuhn grid of spacing 1/m conforms; with an interior vertex moved by
    (1, -1)/(3m), which stays inside its star, and by 4(1, -1)/(3m), which
    does not, each verdict is the oracle's."""
    vertices, elements = kuhn_grid(2, m, random.Random(m))
    assert mesh_verdict(2, vertices, elements) == "conforming"
    centre = min(range(len(vertices)),
                 key=lambda i: sum(abs(c - Fraction(1, 2)) for c in vertices[i]))
    verdicts = []
    for step in (Fraction(1, 3 * m), Fraction(4, 3 * m)):
        moved = list(vertices)
        moved[centre] = (vertices[centre][0] + step, vertices[centre][1] - step)
        verdicts.append(mesh_verdict(2, moved, elements))
        assert verdicts[-1] == conformity_verdict(moved, elements)
    assert verdicts[0] == "conforming" and verdicts[1][0] == "outside"


@pytest.mark.parametrize("bad", [0.1, 1.0, True])
def test_mesh_refuses_float_and_bool_coordinates(bad):
    with pytest.raises(ma.MeshError, match="not a p/q string"):
        ma.Mesh("simplicial", 2, [(0, 0), (bad, 0), (0, 1)], [(0, 1, 2)])


def assert_facet_certificate_sound(vertices, elements):
    int_planes = integer_simplices(vertices, elements)
    assume(int_planes is not None)
    planes = [barycentric_planes([vertices[i] for i in e]) for e in elements]
    for a, b in combinations(range(len(elements)), 2):
        ea, eb = elements[a], elements[b]
        shared = set(ea) & set(eb)
        if (ma._facet_separates(planes[a], eb, shared, vertices)
                or ma._facet_separates(planes[b], ea, shared, vertices)):
            assert pair_conforms(int_planes[a], int_planes[b], ea, eb)


@settings(max_examples=25, deadline=None)
@given(moved_kuhn_grids(2, (2, 3, 4)))
def test_facet_certificate_accepts_only_conforming_pairs_2d(grid):
    assert_facet_certificate_sound(*grid)


@settings(max_examples=3, deadline=None)
@given(moved_kuhn_grids(3, (2,)))
def test_facet_certificate_accepts_only_conforming_pairs_3d(grid):
    assert_facet_certificate_sound(*grid)


def test_nested_triangle_is_nonconforming():
    # no shared vertex, and the inner box lies inside the outer one
    with pytest.raises(ma.NonconformingMeshError, match="elements 0 and 1 meet"):
        ma.Mesh("simplicial", 2, [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)],
                [(0, 1, 2), (3, 4, 5)])


def test_tetrahedra_with_apexes_on_one_side_are_nonconforming():
    with pytest.raises(ma.NonconformingMeshError, match="elements 0 and 1 meet"):
        ma.Mesh("simplicial", 3,
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (Fraction(1, 4), Fraction(1, 4), 2)],
                [(0, 1, 2, 3), (0, 1, 2, 4)])


def test_reordered_duplicate_element_is_nonconforming():
    with pytest.raises(ma.NonconformingMeshError, match="identical vertices"):
        ma.Mesh("simplicial", 2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (2, 0, 1)])


def test_pair_the_certificate_cannot_decide_falls_back(monkeypatch):
    enumerated = []
    enumerate_vertices = ma._intersection_vertices

    def counting(planes):
        enumerated.append(len(planes))
        return enumerate_vertices(planes)

    monkeypatch.setattr(ma, "_intersection_vertices", counting)
    # one shared vertex and collinear edges: the facet line y = 0 of the
    # first triangle also holds (-1, 0), and its line x = 0 decides the rest
    ma.Mesh("simplicial", 2, [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1, 2), (0, 3, 4)])
    assert enumerated == []
    # a half edge: the triangles meet in [(0, 0), (1, 0)], half of an edge of
    # the first; the line y = 0 of each holds an unshared vertex of the other,
    # and no line through the shared vertex alone separates them
    with pytest.raises(ma.NonconformingMeshError, match="elements 0 and 1 meet"):
        ma.Mesh("simplicial", 2, [(0, 0), (2, 0), (0, 2), (1, 0), (0, -1)],
                [(0, 1, 2), (0, 3, 4)])
    assert enumerated == [6]


def test_validation_checks_near_linearly_many_pairs(monkeypatch):
    vertices, elements = kuhn_grid(2, 16)
    swept, enumerated = [], []
    meeting_pairs = ma._meeting_pairs
    enumerate_vertices = ma._intersection_vertices

    def counting_pairs(boxes):
        pairs = meeting_pairs(boxes)
        swept.append(len(pairs))
        return pairs

    def counting_vertices(planes):
        enumerated.append(1)
        return enumerate_vertices(planes)

    monkeypatch.setattr(ma, "_meeting_pairs", counting_pairs)
    monkeypatch.setattr(ma, "_intersection_vertices", counting_vertices)
    ma.Mesh("simplicial", 2, vertices, elements)
    assert len(elements) == 512
    assert swept[0] <= 20 * len(elements)  # C(512, 2) = 130,816
    assert len(enumerated) <= swept[0]


def test_3d_kuhn_grid_validates_without_enumeration(monkeypatch):
    """The recursive facet certificate decides every meeting pair of a
    4 x 4 x 4 Kuhn grid: 384 tetrahedra, 2,694 pairs that the single-plane
    certificate left to the enumeration."""
    enumerated = []
    enumerate_vertices = ma._intersection_vertices
    monkeypatch.setattr(ma, "_intersection_vertices",
                        lambda planes: enumerated.append(1) or enumerate_vertices(planes))
    vertices, elements = kuhn_grid(3, 4, random.Random(4))
    ma.Mesh("simplicial", 3, vertices, elements)
    assert len(elements) == 384 and enumerated == []


def test_element_factors_are_shared_by_local_pattern():
    vertices, elements = kuhn_grid(2, 3, random.Random(5))
    mesh = ma.Mesh("simplicial", 2, vertices, elements)
    space = ma.assemble(mesh, "Pminus", 2, 1)
    u = PolyForm.monomial(2, (2, 1), (1,)) + PolyForm.monomial(2, (0, 3), (2,), 3)
    projected = space.project(u)
    values = space.dof_values(space.as_pieces(u))
    for ei, local in enumerate(space.element_dofs):
        fresh = ma.linalg.LUFactor(element_rows(space, ei))
        t, s = fresh.solve([values[dof.index] for dof, _ in local])
        piece = PolyForm.zero(2, 1)
        for c, b in zip(t, space.basis.forms):
            piece = piece + Fraction(c, s) * b
        assert projected[ei] == piece
    patterns = {tuple((form_to_string(dof.weight), psi.matrix, psi.offset)
                      for dof, psi in local)
                for local in space.element_dofs}
    assert len(space._nodal) == len(patterns) < len(elements)


def test_rank_count_after_a_projection_reads_the_cached_element_rows(monkeypatch):
    """The projection fills the element rows, one entry per local pattern;
    `assembled_dimension_by_rank` then traces and integrates nothing."""
    vertices, elements = kuhn_grid(2, 3, random.Random(5))
    space = ma.assemble(ma.Mesh("simplicial", 2, vertices, elements), "Pminus", 2, 1)
    calls = []
    rows, traces = FaceMoments.rows, ma.face_traces
    monkeypatch.setattr(FaceMoments, "rows",
                        lambda self, *args: calls.append("rows") or rows(self, *args))
    monkeypatch.setattr(ma, "face_traces", lambda *args: calls.append("traces") or traces(*args))
    space.project(form_from_string("1 x1^2 x2 dx1 + 3 x2^3 dx2", 2, 1))
    assert {"rows", "traces"} <= set(calls)
    calls.clear()
    assert ma.assembled_dimension_by_rank(space) == space.dimension
    assert calls == []
    assert len(space._rows) == len(set(space._patterns)) < len(elements)


# -- the two maps, the assembled complex, freeing without the cyclic GC ----------


@pytest.mark.parametrize("name, family, r, k", [
    ("crisscross_square", "P", 3, 0), ("two_triangle_square", "Pminus", 2, 1),
    ("two_tetrahedra", "Pminus", 1, 2), ("grid_boxes_2x2", "Qminus", 2, 1),
    ("two_cubes_3d", "S", 2, 1)])
def test_from_dof_values_inverts_dof_values(name, family, r, k):
    mesh = ma.SAMPLE_MESHES[name]()
    space = ma.assemble(mesh, family, r, k)
    rng = random.Random(r + 10 * k)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in space.dofs]
    member = space.from_dof_values(values)
    assert space.dof_values(member) == values
    assert ma.continuity_check(space, member)
    for u in monomial_forms(mesh.n, k, r + 1):
        values = space.dof_values(space.as_pieces(u))
        assert space.from_dof_values(values) == space.project(u)


@pytest.mark.parametrize("family, r, k", [("Pminus", 2, 1), ("P", 3, 0), ("Pminus", 1, 2)])
def test_scaled_moments_and_solves_match_the_one_weight_path(family, r, k):
    """On a grid of spacing 1/3: `dof_values` equals one `FaceMoments`
    call per DOF, and `project` equals a Fraction solve per element of the
    rows those calls give."""
    mesh = ma.Mesh("simplicial", 2, *kuhn_grid(2, 3, random.Random(11)))
    space = ma.assemble(mesh, family, r, k)
    moments = FaceMoments("simplex")
    u = (PolyForm.monomial(2, (3, 1), (), Fraction(-2, 7)) + PolyForm.monomial(2, (0, 2), (), 5)
         if k == 0 else form_from_string("-2/7 x1^3 x2 dx1 + 5/3 x2^2 dx2", 2, 1))
    u = exterior_derivative(u) if k == 2 else u
    pieces = space.as_pieces(u)
    values = [moments(pullback(pieces[dof.face.adjacent[0][0]], dof.face.adjacent[0][1]),
                      dof.weight) for dof in space.dofs]
    assert space.dof_values(pieces) == values
    projected = space.project(u)
    for ei, local in enumerate(space.element_dofs):
        rows = [[moments(pullback(b, psi), dof.weight) for b in space.basis.forms]
                for dof, psi in local]
        assert element_rows(space, ei) == rows
        coeffs = linalg.solve(rows, [values[dof.index] for dof, _ in local])
        assert projected[ei] == sum((c * b for c, b in zip(coeffs, space.basis.forms)),
                                    PolyForm.zero(2, k))


def random_pieces(space, n_elements, degree, rng):
    """A piecewise form, discontinuous across faces: on each element a
    different combination of the monomial forms up to `degree`."""
    forms = monomial_forms(space.spec.n, space.spec.k, degree)
    return {ei: sum((Fraction(rng.randint(-9, 9), rng.randint(1, 7)) * u
                     for u in rng.sample(forms, 5)), PolyForm.zero(space.spec.n, space.spec.k))
            for ei in range(n_elements)}


@pytest.mark.parametrize("kind, m, family, r, k", [
    ("simplicial", 3, "Pminus", 2, 1), ("simplicial", 2, "P", 2, 0),
    ("cubical", 3, "Qminus", 2, 1), ("cubical", 2, "S", 2, 1)])
def test_dof_values_of_discontinuous_pieces_read_the_first_adjacent_element(kind, m, family,
                                                                              r, k):
    """One `FaceMoments` call per DOF, on the trace from the face's first
    adjacent element, is the oracle; the tables grow across calls."""
    rng = random.Random(m + 7 * r)
    mesh = (ma.Mesh("simplicial", 2, *kuhn_grid(2, m, rng)) if kind == "simplicial"
            else ma.box_grid((m, m)))
    space = ma.assemble(mesh, family, r, k)
    moments = FaceMoments(mesh.element_kind)
    for degree in (r, r + 2):
        pieces = random_pieces(space, len(mesh.elements), degree, rng)
        first = [moments(pullback(pieces[dof.face.adjacent[0][0]], dof.face.adjacent[0][1]),
                         dof.weight) for dof in space.dofs]
        last = [moments(pullback(pieces[dof.face.adjacent[-1][0]], dof.face.adjacent[-1][1]),
                        dof.weight) for dof in space.dofs]
        assert first != last  # the pieces do not agree across faces
        assert space.dof_values(pieces) == first


@pytest.mark.parametrize("n, k", [(2, 2), (2, 0), (3, 1)])
def test_dof_values_refuse_a_piece_of_the_wrong_shape(n, k):
    space = ma.assemble(ma.two_triangle_square(), "Pminus", 2, 1)
    pieces = {0: PolyForm.monomial(2, (1, 0), (1,)),
              1: PolyForm.monomial(n, (0,) * n, tuple(range(1, k + 1)))}
    with pytest.raises(ValueError, match="element 1 holds"):
        space.dof_values(pieces)
    with pytest.raises(ValueError, match="element 1 holds"):
        space.project(pieces)


def test_a_unit_vector_solves_only_next_to_its_face(monkeypatch):
    vertices, elements = kuhn_grid(2, 3, random.Random(3))
    space = ma.assemble(ma.Mesh("simplicial", 2, vertices, elements), "Pminus", 2, 1)
    nodal_basis = ma.GlobalSpace._nodal_basis
    for index in (0, len(space.dofs) // 2, len(space.dofs) - 1):
        combined = []
        monkeypatch.setattr(ma.GlobalSpace, "_nodal_basis",
                            lambda self, ei: combined.append(ei) or nodal_basis(self, ei))
        member = unit_member(space, index)
        adjacent = {ei for ei, _ in space.dofs[index].face.adjacent}
        assert sorted(combined) == sorted(adjacent)
        assert {ei for ei, piece in member.items() if not piece.is_zero} == adjacent


def global_d(space, target):
    """The matrix of d from `space` to `target`, composed from the two maps:
    column i holds the DOF values of d of the basis function dual to DOF i."""
    columns = []
    for index in range(space.dimension):
        d_phi = ma.pieces_d(unit_member(space, index))
        values = target.dof_values(d_phi)
        assert ma.continuity_check(target, d_phi)
        assert target.from_dof_values(values) == d_phi
        columns.append(values)
    return [list(row) for row in zip(*columns)]


def betti_numbers(mesh, family, r):
    chain = [ma.assemble(mesh, family, level.r, level.k)
             for level in complexes.chain(family, mesh.n, r)]
    ds = [global_d(a, b) for a, b in zip(chain, chain[1:])]
    for first, second in zip(ds, ds[1:]):  # D_(k+1) D_k = 0
        assert all(not sum(x * y for x, y in zip(row, col))
                   for row in second for col in zip(*first))
    ranks = [0] + [linalg.rank(d) for d in ds] + [0]
    return [space.dimension - ranks[k] - ranks[k + 1] for k, space in enumerate(chain)]


# Pminus and Qminus at r <= 2, P and S at r = n + 1, where their chains end
# at degree 1; the 3D cases at r >= 2 take seconds each and are left out
COMPLEX_CASES = [
    (name, family, r)
    for names, chains in (
        (("two_triangle_square", "crisscross_square"),
         (("Pminus", 1), ("Pminus", 2), ("P", 3))),
        (("two_boxes_2d", "grid_boxes_2x2"), (("Qminus", 1), ("Qminus", 2), ("S", 3))),
        (("two_tetrahedra",), (("Pminus", 1),)),
        (("two_cubes_3d",), (("Qminus", 1),)))
    for name in names for family, r in chains]


@pytest.mark.parametrize("name, family, r", COMPLEX_CASES)
def test_assembled_complex_is_acyclic_on_a_contractible_mesh(name, family, r):
    mesh = ma.SAMPLE_MESHES[name]()
    assert betti_numbers(mesh, family, r) == [1] + [0] * mesh.n


def test_assembled_complex_sees_the_hole_of_an_annulus():
    grid = ma.box_grid((3, 3))
    ring = ma.Mesh("cubical", 2, grid.vertices, grid.elements[:4] + grid.elements[5:])
    assert betti_numbers(ring, "Qminus", 1) == [1, 1, 0]


def test_library_calls_leave_no_reference_cycles():
    """Meshes, spaces, element factors and power caches are freed by
    reference counting alone, so memory does not wait for the cyclic GC."""
    path = Path(__file__).parent.parent / "meshes" / "crisscross_square.json"
    u = PolyForm.from_polynomial(Polynomial.monomial(2, (3, 1), 2)
                                 + Polynomial.monomial(2, (1, 0)))
    gc.collect()
    gc.disable()
    try:
        dofs.unisolvence_check(make_spec("P", 3, 3, 1))
        verify._commuting_certificates()
        mesh = ma.read_mesh(str(path))
        space = ma.assemble(mesh, "P", 2, 0)
        assert ma.continuity_check(space, space.project(u))
        assert ma.check_commuting(mesh, "P", 2, u).passed
        assert ma.assembled_dimension_by_rank(space) == space.dimension
        del mesh, space
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- mesh faces from the reference faces -------------------------------------------


def box_grid(n, m, rng):
    """Vertices and elements of `ma.box_grid` on the m^n grid; `rng`
    permutes the vertex ids and the element order."""
    grid = ma.box_grid((m,) * n)
    new_id = list(range(len(grid.vertices)))
    rng.shuffle(new_id)
    vertices = [None] * len(new_id)
    for old, c in enumerate(grid.vertices):
        vertices[new_id[old]] = c
    elements = [tuple(new_id[i] for i in e) for e in grid.elements]
    rng.shuffle(elements)
    return vertices, elements


def permuted_grid(kind, n, m, seed):
    rng = random.Random(seed)
    if kind == "cubical":
        return ma.Mesh(kind, n, *box_grid(n, m, rng))
    vertices, elements = kuhn_grid(n, m, rng)
    rng.shuffle(elements)
    return ma.Mesh(kind, n, vertices, elements)


FACE_MESHES = dict(ma.SAMPLE_MESHES)
FACE_MESHES.update({
    f"{kind}-{n}d-m{m}": (lambda kind=kind, n=n, m=m: permuted_grid(kind, n, m, 10 * n + m))
    for kind in ("simplicial", "cubical") for n, m in ((2, 1), (2, 2), (2, 3), (3, 2))})
FACE_MESHES["box_grid-2x2x2"] = lambda: ma.box_grid((2, 2, 2))


@pytest.mark.parametrize("name", sorted(FACE_MESHES))
def test_mesh_faces_match_element_by_element_enumeration(name):
    mesh = FACE_MESHES[name]()
    got, want = mesh.faces(), mesh_faces(mesh)
    assert [(face.index, face.dim, face.ids) for face in got] == [
        (index, dim, ids) for index, (dim, ids, _) in enumerate(want)]
    refs = reference_faces(mesh.element_kind, mesh.n)
    for face, (_, _, adjacent) in zip(got, want):
        assert [ei for ei, _ in face.adjacent] == [ei for ei, _ in adjacent]
        assert [(psi.matrix, psi.offset) for _, psi in face.adjacent] == [
            (psi.matrix, psi.offset) for _, psi in adjacent]
        if mesh.kind == "cubical":
            for _, psi in face.adjacent:
                ref = next(ref for ref in refs if ref.dim == face.dim and
                           (ref.embedding.matrix, ref.embedding.offset)
                           == (psi.matrix, psi.offset))
                assert psi is ref.embedding
