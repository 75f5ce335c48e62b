import json
from fractions import Fraction

import pytest

from feforms import mesh_assembly as ma
from feforms.forms import PolyForm, exterior_derivative, form_to_string
from feforms.polynomial import Polynomial
from feforms.verify import commuting_inputs


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
        (ma.two_boxes_2d(), "Qminus", 2, 1),
        (ma.grid_boxes_2x2(), "S", 2, 0),
        (ma.two_cubes_3d(), "S", 1, 1),
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
        ma.assemble(ma.two_boxes_2d(), "P", 1, 0)


def test_projection_identity_on_members():
    mesh = ma.two_triangle_square()
    for family, r, k in (("P", 2, 0), ("Pminus", 1, 1), ("Pminus", 2, 1)):
        space = ma.assemble(mesh, family, r, k)
        for index in range(space.dimension):
            member = space.global_basis_function(index)
            again = space.project(member)
            assert ma.pieces_equal(member, again)


def test_projection_idempotent_on_polynomials():
    mesh = ma.crisscross_square()
    space = ma.assemble(mesh, "P", 2, 0)
    u = PolyForm.from_polynomial(
        Polynomial.monomial(2, (3, 1), 2) + Polynomial.monomial(2, (1, 0)))
    once = space.project(u)
    twice = space.project(once)
    assert ma.pieces_equal(once, twice)


def test_projection_reproduces_global_linears():
    mesh = ma.two_tetrahedra()
    space = ma.assemble(mesh, "P", 1, 0)
    u = PolyForm.from_polynomial(Polynomial.variable(3, 1))
    proj = space.project(u)
    assert ma.pieces_equal(proj, space.as_pieces(u))


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
            assert ma.continuity_check(space, space.global_basis_function(index))


def test_continuity_negative_control():
    mesh = ma.two_triangle_square()
    space = ma.assemble(mesh, "P", 1, 0)
    broken = {0: PolyForm.from_polynomial(Polynomial.constant(2, 1)),
              1: PolyForm.from_polynomial(Polynomial.constant(2, 2))}
    assert not ma.continuity_check(space, broken)


def test_whitney_tangential_trace_agreement():
    mesh = ma.two_triangle_square()
    space = ma.assemble(mesh, "Pminus", 1, 1)
    member = space.global_basis_function(2)
    assert ma.continuity_check(space, member)


def test_commuting_simple():
    mesh = ma.two_triangle_square()
    u = PolyForm.from_polynomial(Polynomial.monomial(2, (2, 1)))
    assert ma.check_commuting(mesh, "Pminus", 2, u).passed
    u1 = PolyForm.monomial(2, (1, 1), (1,))
    assert ma.check_commuting(mesh, "Pminus", 1, u1).passed


def test_commuting_member_inputs():
    mesh = ma.two_boxes_2d()
    space = ma.assemble(mesh, "Qminus", 1, 0)
    member = space.global_basis_function(0)
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
    for u in commuting_inputs(2, 0, 2):
        assert ma.check_commuting(mesh, "Pminus", 1, u).passed


def test_element_charts():
    mesh = ma.two_boxes_2d()
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
    u = PolyForm.from_polynomial(Polynomial.variable(2, 1) * Polynomial.variable(2, 2))
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
