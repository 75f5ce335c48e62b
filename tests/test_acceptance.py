"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero; these are integer and rational identities.  Each
test prints a single summary line (visible with pytest -s) in addition to
its pass/fail status.
"""

from math import comb

from feforms import mesh_assembly as ma
from feforms import spaces, tables
from feforms.combinatorics import multiindices
from feforms.complexes import (
    chain,
    check_direct_sum,
    check_exactness,
    check_homotopy,
    check_S_properties,
)
from feforms.dofs import unisolvence_check
from feforms.forms import PolyForm, integrate_std_simplex
from feforms.polynomial import Polynomial
from feforms.spaces import make_spec, monomial_forms
from oracles import iterated_simplex_integral


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_table1_reproduction():
    """Box-family dimension tables match the embedded fixture exactly."""
    certs = tables.table1_certificates()
    assert tables.QMINUS_TABLE[(3, 1)][1] == 54
    assert tables.S_TABLE[(4, 2)][5] == 1602
    for cert in certs:
        assert cert.witness["entries_checked"] == sum(
            (n + 1) * 6 for n in range(1, 5))
        assert cert.witness["mismatches"] == []
    _report("1 table1", all(c.passed for c in certs))


def test_criterion_2_dimension_formulas():
    """Constructed ranks match the closed formulas for n <= 4, r <= 6."""
    ok = True
    for n in range(1, 5):
        for r in range(1, 7):
            for k in range(n + 1):
                full = spaces.basis_P(r, k, n).dim
                trimmed = spaces.basis_Pminus(r, k, n).dim
                ok &= full == comb(n + r, n - k) * comb(r + k, r)
                ok &= trimmed == comb(n + r, n - k) * comb(r + k - 1, k)
                # exact ratio identity: trimmed / full = r / (r + k)
                ok &= trimmed * (r + k) == full * r
    _report("2 dimension formulas", ok)


def test_criterion_3_unisolvence():
    """DOF count equals dimension and the DOF matrix is nonsingular."""
    ok = True
    cases = []
    for family, rmax in (("P", 4), ("Pminus", 4), ("Qminus", 3), ("S", 3)):
        for n in range(1, 4):
            for r in range(1, rmax + 1):
                for k in range(n + 1):
                    cases.append(make_spec(family, n, r, k))
    for spec in cases:
        report = unisolvence_check(spec)
        good = report["count_ok"] and report["determinant_nonzero"]
        if not good:
            print("unisolvence failure:", report)
        ok &= good
    _report(f"3 unisolvence ({len(cases)} specs)", ok)


def test_criterion_4_homotopy_formula():
    """(contract d + d contract) = (k + r) id on full homogeneous bases."""
    ok = True
    for n in range(1, 5):
        for r in range(0, 6):
            for k in range(n + 1):
                cert = check_homotopy(n, r, k)
                ok &= cert.passed
    _report("4 homotopy formula", ok)


def test_criterion_5_exactness_and_direct_sum():
    """Rank-nullity exactness of the three chains plus the homogeneous split."""
    ok = True
    for kind in ("P", "Pminus", "koszul"):
        for n in range(1, 4):
            for r in range(1, 5):
                cert = check_exactness(kind, n, r)
                ok &= cert.passed
                dims = cert.witness["dims"]
                ranks = cert.witness["ranks"]
                nulls = cert.witness["nullities"]
                ok &= all(r_ + nu == d for r_, nu, d in zip(ranks, nulls, dims))
    for n in range(1, 4):
        for r in range(1, 5):
            for k in range(n + 1):
                ok &= check_direct_sum(n, r, k).passed
    _report("5 exactness + direct sum", ok)


def test_criterion_6_S_property_suite():
    """Degree, inclusion, trace, subcomplex; sdeg 0-forms; top forms."""
    ok = True
    for n in range(1, 4):
        for r in range(1, 4):
            cert = check_S_properties(n, r)
            ok &= cert.passed
            ok &= cert.witness["sdeg_characterizes_0forms"]
            ok &= cert.witness["top_forms_equal_P"]
    _report("6 serendipity property suite", ok)


def test_criterion_7_commuting_diagram():
    """d after projection equals projection after d on two-element meshes."""
    ok = True
    tested = 0
    cases = (
        (ma.two_triangle_square(), "P", 3),
        (ma.two_triangle_square(), "Pminus", 2),
        (ma.SAMPLE_MESHES["two_boxes_2d"](), "Qminus", 2),
        (ma.SAMPLE_MESHES["two_boxes_2d"](), "S", 3),
    )
    for mesh, family, r in cases:
        levels = chain(family, mesh.n, r)
        for level, following in zip(levels, levels[1:]):
            if following.r < 1:  # P_0 carries no DOFs
                continue
            for u in monomial_forms(mesh.n, level.k, level.r + 1):
                cert = ma.check_commuting(mesh, family, level.r, u)
                tested += 1
                ok &= cert.passed
    _report(f"7 commuting diagram ({tested} inputs)", ok)


def test_criterion_8_assembly_identity():
    """Global dimension equals the face sum, recomputed by constraint rank."""
    ok = True
    simplicial = (ma.two_triangle_square(), ma.crisscross_square(),
                  ma.two_tetrahedra())
    cubical = tuple(ma.SAMPLE_MESHES[name]()
                    for name in ("two_boxes_2d", "grid_boxes_2x2", "two_cubes_3d"))
    for mesh in simplicial:
        # the Whitney case: one DOF per edge
        space = ma.assemble(mesh, "Pminus", 1, 1)
        edges = sum(1 for f in mesh.faces() if f.dim == 1)
        ok &= space.dimension == edges
        ok &= ma.assembled_dimension_by_rank(space) == edges
        for family, r, k in (("P", 2, 0), ("Pminus", 2, 1)):
            if k > mesh.n:
                continue
            space = ma.assemble(mesh, family, r, k)
            ok &= space.dimension == ma.face_sum_dimension(mesh, family, r, k)
            ok &= space.dimension == ma.assembled_dimension_by_rank(space)
    for mesh in cubical:
        for family, r, k in (("Qminus", 1, 0), ("Qminus", 2, 1), ("S", 2, 1)):
            space = ma.assemble(mesh, family, r, k)
            ok &= space.dimension == ma.face_sum_dimension(mesh, family, r, k)
            ok &= space.dimension == ma.assembled_dimension_by_rank(space)
    _report("8 assembly identity", ok)


def test_criterion_9_integration_oracle():
    """Factorial rule equals iterated symbolic integration, all monomials."""
    ok = True
    checked = 0
    for d in (1, 2, 3):
        top = tuple(range(1, d + 1))
        for alpha in multiindices(d, 6):
            got = integrate_std_simplex(PolyForm.monomial(d, alpha, top))
            want = iterated_simplex_integral(Polynomial.monomial(d, alpha))
            ok &= got == want
            checked += 1
    assert checked == sum(comb(d + 6, d) for d in (1, 2, 3))
    _report(f"9 integration oracle ({checked} monomials)", ok)
