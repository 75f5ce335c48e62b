"""Theorem-level verification drivers with machine-readable certificates.

Each check recomputes an algebraic claim from scratch in exact arithmetic:
subcomplex containments by span membership of derivatives, exactness by
rank-nullity bookkeeping, the contraction/derivative anticommutator on full
homogeneous bases, the homogeneous direct-sum split, and the property
suite of the serendipity-type box family.  Certificates are deterministic:
the elimination pivots in a fixed order, so identical parameters always
produce identical witness data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from feforms import dofs
from feforms.forms import (
    AffineEmbedding,
    PolyForm,
    exterior_derivative,
    form_to_string,
    koszul,
    pullback,
)
from feforms.polynomial import Polynomial, rational_to_string, sdeg_exponents
from feforms.spaces import (
    SpaceSpec,
    basis_for,
    basis_H,
    basis_P,
    basis_S,
    make_spec,
    next_level,
    span_rank,
    spans_equal,
)


@dataclass
class Certificate:
    claim: str
    params: dict
    verdict: str  # "pass" | "fail"
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {"claim": self.claim, "params": self.params,
             "verdict": self.verdict, "witness": self.witness},
            sort_keys=True)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def certificates_to_jsonl(certs) -> str:
    return "".join(c.to_json() + "\n" for c in certs)


def summary_tsv(certs) -> str:
    lines = ["claim\tparams\tverdict"]
    for c in certs:
        lines.append(f"{c.claim}\t{json.dumps(c.params, sort_keys=True)}\t{c.verdict}")
    return "\n".join(lines) + "\n"


# -- chain layouts -----------------------------------------------------------


def chain(family: str, n: int, r: int) -> tuple[SpaceSpec, ...]:
    """The family's de Rham chain on R^n from its r-level 0-forms: each
    level is `next_level` of the one before, up to the last that exists."""
    if n < 1 or r < 1:
        raise ValueError(f"chains need n >= 1 and r >= 1, got n={n}, r={r}")
    levels = [make_spec(family, n, r, 0)]
    while (following := next_level(levels[-1])) is not None:
        levels.append(following)
    return tuple(levels)


def _maps_into(target, forms, entry: dict, operator=None) -> bool:
    """Whether every operator(f) lies in `target`; the first f whose image
    does not is kept as the entry's counterexample, unless it has one."""
    for f in forms:
        if not target.contains(operator(f) if operator else f):
            entry.setdefault("counterexample", form_to_string(f))
            return False
    return True


def check_complex(family: str, n: int, r: int) -> Certificate:
    """The derivative maps each level's span into the next level's span."""
    levels = chain(family, n, r)
    if len(levels) < 2:
        raise ValueError(f"the {family} chain at n={n}, r={r} has no two "
                         f"consecutive levels to check")
    entries = []
    for source, target in zip(levels, levels[1:]):
        src, dst = basis_for(source), basis_for(target)
        entry = {"k": source.k, "src_dim": src.dim, "dst_dim": dst.dim}
        entry["contained"] = _maps_into(dst, src.forms, entry, exterior_derivative)
        entries.append(entry)
    return Certificate("complex", {"family": family, "n": n, "r": r},
                       _verdict(all(e["contained"] for e in entries)),
                       {"levels": entries})


def check_exactness(kind: str, n: int, r: int) -> Certificate:
    """Rank-nullity exactness of a polynomial chain.

    kind "P":      levels P_(r-j) j-forms with the derivative, exact except
                   for the constants at level 0.
    kind "Pminus": levels Pminus_r j-forms with the derivative, same
                   homology.
    kind "koszul": levels P_(r-j) j-forms with the contraction running the
                   other way; injective at the top level and hitting every
                   polynomial without constant term at level 0.
    Levels past the end of the chain count as zero spaces.
    """
    levels = chain("Pminus" if kind == "Pminus" else "P", n, r)
    if kind not in ("P", "Pminus", "koszul"):
        raise ValueError(f"unknown exactness kind {kind!r}")
    bases = [basis_for(s) for s in levels]
    operator = koszul if kind == "koszul" else exterior_derivative
    padding = [0] * (n + 1 - len(bases))
    dims = [b.dim for b in bases] + padding
    ranks = [span_rank(map(operator, b.forms)) for b in bases] + padding
    nullities = [dims[j] - ranks[j] for j in range(n + 1)]

    conditions = []
    if kind == "koszul":
        # contraction lowers the form degree: map at level j lands in level j-1
        conditions.append(("injective_at_top", nullities[n] == 0))
        for j in range(1, n):
            conditions.append((f"exact_at_{j}", ranks[j + 1] == nullities[j]))
        if dims[0] > 0:
            conditions.append(("level0_misses_constants_only",
                               ranks[1] == dims[0] - 1))
    else:
        if dims[0] > 0:
            conditions.append(("kernel_at_0_is_constants", nullities[0] == 1))
        for j in range(1, n + 1):
            conditions.append((f"exact_at_{j}", ranks[j - 1] == nullities[j]))
    ok = all(v for _, v in conditions)
    witness = {"dims": dims, "ranks": ranks, "nullities": nullities,
               "conditions": {name: v for name, v in conditions}}
    return Certificate("exactness", {"kind": kind, "n": n, "r": r}, _verdict(ok), witness)


def _homogeneous_basis(r: int, k: int, n: int):
    """basis_H(r, k, n), refused when empty: a check over it could not fail."""
    if not (basis := basis_H(r, k, n)):
        raise ValueError(f"no homogeneous degree-{r} {k}-forms on R^{n} to check")
    return basis


def check_homotopy(n: int, r: int, k: int) -> Certificate:
    """(contract after d) + (d after contract) = (k + r) id on homogeneous forms.

    Verified on the full monomial basis of the homogeneous space.  Both
    sides are linear, so this proves the identity on every combination.
    """
    if r < 0 or not 0 <= k <= n:
        raise ValueError(f"need r >= 0 and 0 <= k <= n, got n={n}, r={r}, k={k}")
    basis = _homogeneous_basis(r, k, n)
    factor = r + k
    failures = []
    for w in basis:
        lhs = koszul(exterior_derivative(w)) + exterior_derivative(koszul(w))
        if lhs != factor * w:
            failures.append(form_to_string(w))
    return Certificate(
        "homotopy", {"n": n, "r": r, "k": k},
        _verdict(not failures),
        {"basis_size": len(basis), "factor": r + k, "failures": failures})


def check_direct_sum(n: int, r: int, k: int) -> Certificate:
    """Homogeneous k-forms split as contraction image plus derivative image."""
    if r < 1:
        raise ValueError("the direct sum needs r >= 1")
    dim_h = len(_homogeneous_basis(r, k, n))
    kappa_part = [koszul(f) for f in basis_H(r - 1, k + 1, n)]
    d_part = ([exterior_derivative(f) for f in basis_H(r + 1, k - 1, n)]
              if k >= 1 else [])
    rank_kappa = span_rank(kappa_part)
    rank_d = span_rank(d_part)
    rank_union = span_rank(kappa_part + d_part)
    ok = (rank_kappa + rank_d == dim_h) and (rank_union == dim_h)
    return Certificate(
        "direct_sum", {"n": n, "r": r, "k": k}, _verdict(ok),
        {"dim": dim_h, "rank_kappa": rank_kappa, "rank_d": rank_d,
         "rank_union": rank_union})


# -- serendipity-type family property suite ---------------------------------


def check_S_properties(n: int, r: int) -> Certificate:
    """Degree sandwich, inclusion, trace and subcomplex properties, the
    superlinear-degree description of the 0-form space, and the top-form
    coincidence with the full polynomial space."""
    per_k = []
    ok = True
    box_faces = dofs.reference_faces("box", n)
    for k in range(n + 1):
        s = basis_S(r, k, n)
        entry = {"k": k, "dim": s.dim}
        degree_low = _maps_into(s, basis_P(r, k, n).forms, entry)
        degree_high = all(f.degree() <= r + n - k for f in s.forms)
        inclusion = _maps_into(basis_S(r + 1, k, n), s.forms, entry)
        trace_ok = all(_maps_into(basis_S(r, k, face.dim), s.forms, entry,
                                  lambda f: pullback(f, face.embedding))
                       for face in box_faces if k <= face.dim < n)
        following = next_level(s.spec)
        subcomplex = (_maps_into(basis_for(following), s.forms, entry,
                                 exterior_derivative) if following else None)
        entry.update({"degree": degree_low and degree_high,
                      "inclusion": inclusion, "trace": trace_ok,
                      "subcomplex": subcomplex})
        per_k.append(entry)
        ok = ok and degree_low and degree_high and inclusion and trace_ok \
            and (subcomplex is not False)

    sdeg_forms = [PolyForm.from_polynomial(Polynomial.monomial(n, a))
                  for a in _sdeg_monomials(n, r)]
    sdeg_match = spans_equal(basis_S(r, 0, n).forms, sdeg_forms)
    top_match = spans_equal(basis_S(r, n, n).forms, basis_P(r, n, n).forms)
    ok = ok and sdeg_match and top_match
    return Certificate(
        "S_properties", {"n": n, "r": r}, _verdict(ok),
        {"per_k": per_k, "sdeg_characterizes_0forms": sdeg_match,
         "top_forms_equal_P": top_match})


def _sdeg_monomials(n: int, r: int):
    """Exponent tuples of superlinear degree <= r (degree <= r + n overall)."""
    from feforms.combinatorics import multiindices
    return [a for a in multiindices(n, r + n) if sdeg_exponents(a) <= r]


def check_S_vector_proxies(r: int) -> Certificate:
    """The 3D vector-field descriptions of the 1-form and 2-form spaces.

    1-forms: fields v + (x2 x3 (w2 - w3), x3 x1 (w3 - w1), x1 x2 (w1 - w2))
    + grad u with deg v <= r, deg w_i <= r-1 (w_i free of x_i) and
    sdeg u <= r + 1.  2-forms: v + curl of the same bracket with
    deg w_i <= r, under the usual proxy identifications.
    """
    n = 3
    ok = True
    witness = {}

    def w_field_forms(max_deg):
        out = []
        from feforms.combinatorics import multiindices
        x = [Polynomial.variable(n, j) for j in range(1, 4)]
        slots = {1: [(2, x[2], -1), (3, x[1], 1)],   # w1: -x3 x1 dx2 + x2 x1 dx3
                 2: [(1, x[2], 1), (3, x[0], -1)],   # w2: +x2 x3 dx1 - x1 x2 dx3
                 3: [(1, x[1], -1), (2, x[0], 1)]}   # w3: -x3 x2 dx1 + x3 x1 dx2
        for i in (1, 2, 3):
            for beta in multiindices(n, max_deg):
                if beta[i - 1] != 0:
                    continue
                w = Polynomial.monomial(n, beta)
                form = PolyForm.zero(n, 1)
                for slot, other, sign in slots[i]:
                    coeff = w * x[i - 1] * other * sign
                    form = form + PolyForm(n, 1, {(slot,): coeff})
                out.append(form)
        return out

    # 1-form description
    gens1 = list(basis_P(r, 1, n).forms)
    gens1 += w_field_forms(r - 1)
    gens1 += [exterior_derivative(PolyForm.from_polynomial(Polynomial.monomial(n, a)))
              for a in _sdeg_monomials(n, r + 1)]
    match1 = spans_equal(gens1, basis_S(r, 1, n).forms)
    witness["one_forms_match"] = match1
    ok = ok and match1

    # 2-form description
    gens2 = list(basis_P(r, 2, n).forms)
    gens2 += [exterior_derivative(f) for f in w_field_forms(r)]
    match2 = spans_equal(gens2, basis_S(r, 2, n).forms)
    witness["two_forms_match"] = match2
    ok = ok and match2

    return Certificate("S_vector_proxies", {"n": n, "r": r}, _verdict(ok), witness)


def check_origin_independence(family: str, n: int, r: int, k: int) -> Certificate:
    """Translating the element leaves the family's span unchanged.

    The contraction operator is anchored at the coordinate origin; this
    check pulls every basis form back through the translation
    x -> x + (1/3, 2/3, ...) and compares spans, so a base-point dependence
    shows as a rank change.
    """
    shift = tuple(Fraction(i + 1, 3) for i in range(n))
    basis = basis_for(make_spec(family, n, r, k))
    chart = AffineEmbedding.translation(shift)
    moved = [pullback(f, chart) for f in basis.forms]
    same = spans_equal(basis.forms, moved)
    return Certificate(
        "origin_independence",
        {"family": family, "n": n, "r": r, "k": k,
         "shift": [rational_to_string(s) for s in shift]},
        _verdict(same), {"dim": basis.dim})
