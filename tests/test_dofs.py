import random
from fractions import Fraction
from itertools import permutations
from math import comb, lcm

import pytest

import feforms.forms
from feforms import dofs, linalg
from feforms.dofs import (
    DofFunctional,
    DofSet,
    FaceRef,
    apply,
    dof_matrix,
    dofs_for,
    reference_faces,
    unisolvence_check,
    trace_moment_vanishing_check,
    weight_basis,
)
from feforms.forms import AffineEmbedding, FaceMoments, PolyForm, pullback, simplex_face_chart
from feforms.polynomial import Polynomial
from feforms.spaces import basis_Pminus, basis_S, basis_for, make_spec
from oracles import pullback_dof_matrix


def counts_by_dim(dofset):
    out = {}
    for phi in dofset.functionals:
        out[phi.face.dim] = out.get(phi.face.dim, 0) + 1
    return out


def test_reference_faces_simplex():
    faces = reference_faces("simplex", 3)
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 4, 1: 6, 2: 4, 3: 1}


def test_reference_faces_box():
    faces = reference_faces("box", 3)
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}


def test_lagrange_quartic_counts():
    dofset = dofs_for(make_spec("P", 3, 4, 0))
    assert counts_by_dim(dofset) == {0: 4, 1: 6 * 3, 2: 4 * 3, 3: 1}
    assert len(dofset.functionals) == 35


def test_lagrange_linear_and_interval():
    assert counts_by_dim(dofs_for(make_spec("P", 2, 1, 0))) == {0: 3}
    assert counts_by_dim(dofs_for(make_spec("P", 1, 2, 0))) == {0: 2, 1: 1}


def test_dofs_Pminus_counts():
    assert counts_by_dim(dofs_for(make_spec("Pminus", 3, 1, 1))) == {1: 6}
    assert counts_by_dim(dofs_for(make_spec("Pminus", 2, 2, 1))) == {1: 6, 2: 2}
    assert counts_by_dim(dofs_for(make_spec("Pminus", 2, 1, 0))) == {0: 3}


def test_dofs_P_counts():
    assert counts_by_dim(dofs_for(make_spec("P", 2, 1, 1))) == {1: 6}
    # interior only: weights run over the degree-1 trimmed 0-form space,
    # so the count matches dim P_1 Lambda^2 = 3
    assert counts_by_dim(dofs_for(make_spec("P", 2, 1, 2))) == {2: 3}
    # 0-forms: the Lagrange vertex values plus edge and interior moments
    assert counts_by_dim(dofs_for(make_spec("P", 2, 3, 0))) == {0: 3, 1: 6, 2: 1}


def test_dofs_S_counts():
    assert counts_by_dim(dofs_for(make_spec("S", 2, 2, 0))) == {0: 4, 1: 4}
    # each edge carries a full degree-r tangential moment space
    assert counts_by_dim(dofs_for(make_spec("S", 2, 1, 1))) == {1: 8}
    assert counts_by_dim(dofs_for(make_spec("S", 3, 2, 3))) == {3: 10}


def test_dofs_Qminus_counts():
    assert counts_by_dim(dofs_for(make_spec("Qminus", 2, 1, 0))) == {0: 4}
    assert counts_by_dim(dofs_for(make_spec("Qminus", 2, 1, 1))) == {1: 4}
    assert counts_by_dim(dofs_for(make_spec("Qminus", 3, 2, 3))) == {3: 8}


def test_pminus_count_identity():
    """Face-count sum equals the space dimension, as integers."""
    for n in range(1, 5):
        for r in range(1, 7):
            for k in range(n + 1):
                total = 0
                for d in range(k, n + 1):
                    per = len(weight_basis("Pminus", r, k, d))
                    total += comb(n + 1, d + 1) * per
                assert total == comb(n + r, r + k) * comb(r + k - 1, k)


def test_apply_examples():
    # point evaluation of x1 at the vertex e1
    dofset = dofs_for(make_spec("P", 2, 1, 0))
    u = PolyForm.from_polynomial(Polynomial.variable(2, 1))
    vertex_values = [apply(phi, u) for phi in dofset.functionals]
    assert vertex_values == [0, 1, 0]
    # edge moment of dx1 along the edge from the origin to e1
    dofset = dofs_for(make_spec("Pminus", 2, 1, 1))
    edge01 = [phi for phi in dofset.functionals if phi.face.label == (0, 1)][0]
    assert apply(edge01, PolyForm.dx(2, 1)) == 1
    # interior moment of the volume form against q = 1
    dofset = dofs_for(make_spec("Pminus", 2, 1, 2))
    interior = dofset.functionals[-1]
    assert interior.face.dim == 2
    assert apply(interior, PolyForm.monomial(2, (0, 0), (1, 2))) == Fraction(1, 2)


def test_lagrange_linear_matrix_is_identity():
    """Barycentric basis against vertex evaluations."""
    from feforms.polynomial import barycentric
    from feforms.forms import std_simplex_vertices
    sys = barycentric(std_simplex_vertices(2))
    forms = [PolyForm.from_polynomial(lam) for lam in sys.lambdas]
    mat = dof_matrix(forms, dofs_for(make_spec("P", 2, 1, 0)))
    assert mat == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_dropping_a_functional_breaks_rank():
    spec = make_spec("Pminus", 2, 1, 1)
    dofset = dofs_for(spec)
    truncated = DofSet(spec, dofset.functionals[:-1])
    mat = dof_matrix(basis_for(spec).forms, truncated)
    assert len(mat) == 2
    assert linalg.rank(mat) < 3


@pytest.mark.parametrize("family,n,r,k", [
    ("Pminus", 3, 3, 1), ("S", 3, 3, 2), ("P", 3, 2, 1),
    ("Qminus", 2, 3, 1), ("S", 2, 3, 1), ("P", 1, 3, 0),
])
def test_unisolvence_spot_checks(family, n, r, k):
    report = unisolvence_check(make_spec(family, n, r, k))
    assert report["count_ok"] and report["determinant_nonzero"]


def test_unisolvence_report_shape():
    report = unisolvence_check(make_spec("S", 2, 2, 0))
    assert report["dim"] == 8 and report["dof_count"] == 8
    assert {entry["d"]: entry["count_per_face"] for entry in report["per_face"]} \
        == {0: 1, 1: 1, 2: 0}


def test_weight_space_trace_pairing_vanishes():
    """A form with zero trace on a face kills that face's functionals."""
    dofset = dofs_for(make_spec("Pminus", 2, 2, 1))
    lam = PolyForm.from_polynomial(
        Polynomial.variable(2, 2))  # vanishes on the edge x2 = 0
    u = lam.wedge(PolyForm.zero(2, 0) + PolyForm.dx(2, 1))  # x2 dx1
    for phi in dofset.functionals:
        if phi.face.label == (0, 1):  # the edge on the x1 axis
            assert apply(phi, u) == 0


def test_trace_compatibility():
    """Traces of the trimmed and serendipity families land in the face family."""
    for r in (1, 2):
        for k in (0, 1):
            b = basis_Pminus(r, k, 3)
            for face in reference_faces("simplex", 3):
                if face.dim < max(k, 1) or face.dim == 3:
                    continue
                target = basis_Pminus(r, k, face.dim)
                for f in b.forms:
                    assert target.contains(pullback(f, face.embedding))
    for r in (1, 2):
        for k in (0, 1):
            b = basis_S(r, k, 2)
            for face in reference_faces("box", 2):
                if face.dim < max(k, 1) or face.dim == 2:
                    continue
                target = basis_S(r, k, face.dim)
                for f in b.forms:
                    assert target.contains(pullback(f, face.embedding))


def test_trace_moment_vanishing():
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for k in range(n + 1):
                report = trace_moment_vanishing_check(r, k, n)
                assert report["pass"], report


def test_trace_moment_vanishing_refuses_degree_0():
    """P_(-1) holds no form, so at r = 0 the check could not fail."""
    with pytest.raises(ValueError, match="needs r >= 1"):
        trace_moment_vanishing_check(0, 0, 1)


def test_lagrange_coincides_with_pminus_zero_forms():
    lag = dofs_for(make_spec("P", 2, 2, 0))
    pm = dofs_for(make_spec("Pminus", 2, 2, 0))
    basis = basis_for(make_spec("P", 2, 2, 0))
    m1 = dof_matrix(basis.forms, lag)
    m2 = dof_matrix(basis.forms, pm)
    assert m1 == m2


@pytest.mark.parametrize("family, n, r, k", [
    ("P", 2, 2, 1), ("Pminus", 3, 2, 1), ("S", 2, 3, 1), ("Qminus", 2, 2, 2),
    ("P", 1, 3, 0)])
def test_dof_matrix_is_the_exact_matrix_rescaled(family, n, r, k):
    """Row i of the integer matrix is the exact row of `apply` times one
    positive factor, with column j scaled by the lcm of form j's
    coefficient denominators."""
    rng = random.Random(family + str((n, r, k)))
    spec = make_spec(family, n, r, k)
    basis = basis_for(spec).forms
    forms = [f * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
             + basis[rng.randrange(len(basis))] * Fraction(1, rng.randint(1, 5))
             for f in basis]
    dofset = dofs_for(spec)
    exact = [[apply(phi, f) for f in forms] for phi in dofset.functionals]
    got = dof_matrix(forms, dofset)
    columns = [lcm(*[c.denominator for c in f.terms.values()]) for f in forms]
    assert any(c > 1 for c in columns)
    assert len(got) == len(exact)
    for row, want in zip(got, exact):
        assert all(type(v) is int for v in row)
        assert [v == 0 for v in row] == [w == 0 for w in want]
        factors = {Fraction(v, c) / w for v, c, w in zip(row, columns, want) if w}
        assert len(factors) <= 1 and all(f > 0 for f in factors)
    assert got == pullback_dof_matrix(forms, dofset)


@pytest.mark.parametrize("family, n, r, k", [("Pminus", 2, 1, 1), ("Pminus", 3, 5, 1)] + [
    (family, 4, r, k) for family in ("P", "Pminus", "S", "Qminus")
    for r in (1, 2) for k in range(5)])
def test_dof_matrix_matches_the_pullback_oracle(family, n, r, k):
    """Cancelled trace entries must not enter a row's lcm factor, and the
    face filter must keep every monomial a face sees: at n = 4 the box
    faces fix axes at 1 and the simplex faces off the origin have offsets."""
    spec = make_spec(family, n, r, k)
    basis = basis_for(spec).forms
    dofset = dofs_for(spec)
    assert dof_matrix(basis, dofset) == pullback_dof_matrix(basis, dofset)


@pytest.mark.parametrize("family, n, r, k", [("Pminus", 4, 2, 2), ("S", 3, 3, 1)])
def test_dof_matrix_matches_the_pullback_oracle_on_mixed_columns(family, n, r, k):
    """Columns that are random rational combinations of basis forms share
    monomials; one of them, times a polynomial that vanishes on a facet,
    has every trace entry cancel on that facet."""
    rng = random.Random(family + str((n, r, k)))
    spec = make_spec(family, n, r, k)
    basis, dofset = basis_for(spec).forms, dofs_for(spec)
    forms = []
    for _ in basis:
        f = PolyForm.zero(n, k)
        for i in rng.sample(range(len(basis)), 3):
            f = f + basis[i] * Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7))
        forms.append(f)
    # 1 - x1 - ... - xn vanishes on the facet opposite the origin, 1 - x1 on x1 = 1
    ones = (1,) * n if dofset.spec.element == "simplex" else (1,) + (0,) * (n - 1)
    vanish = Polynomial(n, {(0,) * n: 1, **{tuple(int(i == j) for i in range(n)): -1
                                           for j, one in enumerate(ones) if one}})
    forms.append(forms[0] * vanish)
    facet = [face for face in reference_faces(dofset.spec.element, n)
             if face.dim == n - 1 and pullback(forms[-1], face.embedding).is_zero
             and not pullback(forms[0], face.embedding).is_zero][0]
    groups = dofs.monomial_groups([linalg.int_row(f.terms) for f in forms])
    assert sum(len(monomials) for monomials in groups.values()) < sum(len(f.terms) for f in forms)
    assert all(len(forms) - 1 not in entry for entry in dofs.face_traces(groups, facet.embedding).values())
    assert dof_matrix(forms, dofset) == pullback_dof_matrix(forms, dofset)


@pytest.mark.parametrize("family, n, r, k", [
    ("P", 2, 3, 1), ("Pminus", 3, 2, 1), ("P", 3, 2, 0), ("S", 3, 2, 1), ("Qminus", 2, 3, 0)])
def test_face_moment_rows_match_one_column_calls(family, n, r, k):
    """`FaceMoments.rows` on the traces of many integer columns gives, for
    each column j, row[j] / scale equal to a call on column j alone.  The
    charts are every reference face chart and, on simplices, every vertex
    order of every face: the charts `Mesh.faces` hands out, with entries
    -1 and offsets 1, which `face_traces` then traces directly."""
    rng = random.Random(family + str((n, r, k)))
    spec = make_spec(family, n, r, k)
    basis = basis_for(spec).forms
    forms = []
    for f in basis:  # integer columns that share monomials
        g = f + basis[rng.randrange(len(basis))] * rng.randint(-3, 3)
        forms.append(g * lcm(*[c.denominator for c in g.terms.values()]))
    groups = dofs.monomial_groups([f.terms for f in forms])
    faces = [face for face in reference_faces(spec.element, n) if face.dim >= k]
    charts = [face.embedding for face in faces]
    if spec.element == "simplex":
        charts += [simplex_face_chart(n, order) for face in faces
                   for order in permutations(face.corners)]
        assert any(-1 in row for chart in charts for row in chart.matrix)
        assert any(1 in chart.offset for chart in charts if chart.source_dim)
    moments = FaceMoments(spec.element)
    read = 0
    for chart in charts:
        weights = weight_basis(family, r, k, chart.source_dim)
        got = moments.rows(dofs.face_traces(groups, chart), weights, len(forms))
        assert len(got) == len(weights)
        for q, (row, scale) in zip(weights, got):
            assert all(type(v) is int for v in row) and scale > 0
            for j, f in enumerate(forms):
                assert Fraction(row[j], scale) == moments(pullback(f, chart), q)
                read += row[j] != 0
    assert read


def test_dof_matrix_drops_a_trace_that_cancels():
    """x1 dx1 - x1 x2 dx1 has zero trace on the edge x2 = 1, so that edge's
    rows are scaled as for dx1 alone."""
    cancels = PolyForm.monomial(2, (1, 0), (1,)) - PolyForm.monomial(2, (1, 1), (1,))
    dofset = dofs_for(make_spec("Qminus", 2, 2, 1))
    edge = [phi.face for phi in dofset.functionals if phi.face.label == ((1,), (1,))][0]
    assert pullback(cancels, edge.embedding).is_zero
    forms = [cancels, PolyForm.dx(2, 1)]
    assert dof_matrix(forms, dofset) == pullback_dof_matrix(forms, dofset)


def count_calls(monkeypatch, owner, name, counter):
    real = getattr(owner, name)

    def counted(*args):
        counter[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("family, n, r, k", [("Qminus", 3, 2, 1), ("P", 3, 3, 1)])
def test_dof_matrix_traces_each_monomial_once_per_face(monkeypatch, family, n, r, k):
    """Coordinate charts are traced by reindexing, with no pullback and no
    substitution; any other chart pulls each distinct monomial back once.
    On a coordinate chart the face filter is exact: no monomial it lets
    through has a zero trace."""
    spec = make_spec(family, n, r, k)
    basis, dofset = basis_for(spec).forms, dofs_for(spec)
    calls = {"pullback": 0, "substitute": 0}
    count_calls(monkeypatch, feforms.forms, "pullback", calls)
    count_calls(monkeypatch, dofs, "pullback", calls)
    count_calls(monkeypatch, feforms.forms, "substitute", calls)
    traced = []
    real = dofs.monomial_trace

    def recorded(chart, sigma, alpha):
        got = real(chart, sigma, alpha)
        traced.append((chart._coords is not None, got))
        return got

    monkeypatch.setattr(dofs, "monomial_trace", recorded)
    dof_matrix(basis, dofset)
    assert any(coords for coords, _ in traced)
    assert all(got for coords, got in traced if coords)
    monomials = {key for f in basis for key in f.terms}
    charts = {phi.face for phi in dofset.functionals if phi.face.embedding._coords is None}
    if family == "Qminus":
        assert not charts and calls == {"pullback": 0, "substitute": 0}
    else:
        assert charts and 0 < calls["pullback"] <= len(monomials) * len(charts)


def test_dof_matrix_rejects_a_trace_that_is_not_integral():
    half_edge = AffineEmbedding(((Fraction(1, 2),), (0,)), (0, 0))
    face = FaceRef("simplex", 1, (0, 1), (0, 1), half_edge)
    spec = make_spec("Pminus", 2, 1, 1)
    dofset = DofSet(spec, (DofFunctional(face, PolyForm(1, 0, {(): 1})),))
    with pytest.raises(ValueError, match="not integral"):
        dof_matrix([PolyForm.dx(2, 1)], dofset)


def test_dof_matrix_rejects_a_weight_of_the_wrong_degree():
    spec = make_spec("Pminus", 2, 1, 1)
    edge = dofs_for(spec).functionals[0].face
    dofset = DofSet(spec, (DofFunctional(edge, PolyForm.dx(1, 1)),))
    with pytest.raises(ValueError, match="does not fit"):
        dof_matrix(basis_for(spec).forms, dofset)


def test_dof_matrix_rejects_forms_of_another_degree():
    spec = make_spec("Pminus", 2, 1, 1)
    with pytest.raises(ValueError):
        dof_matrix(basis_for(make_spec("P", 2, 1, 0)).forms, dofs_for(spec))


def test_trace_moment_vanishing_fails_without_a_moment_weight(monkeypatch):
    """Dropping one interior weight leaves a form every constraint misses."""
    real = dofs.monomial_forms

    def one_weight_short(n, k, max_degree):
        forms = real(n, k, max_degree)
        return forms[:-1] if k == 0 else forms  # the weights are 0-forms here

    monkeypatch.setattr(dofs, "monomial_forms", one_weight_short)
    report = trace_moment_vanishing_check(2, 2, 2)
    assert not report["pass"]
    assert report["nullity"] > 0
