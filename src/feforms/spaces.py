"""Bases for the polynomial differential form families on reference elements.

The four families (reference simplex conv{0, e_1, ..., e_n}, reference box
[0,1]^n):

  P       full k-forms with coefficients of degree <= r      (simplex)
  Pminus  trimmed family: P_(r-1) plus contractions of homogeneous
          degree-(r-1) (k+1)-forms                            (simplex)
  Qminus  tensor-product family: monomial forms with per-axis degree
          capped at r-1 on alternator axes and r elsewhere    (box)
  S       serendipity-type family: P_r + J_r + d J_(r+1)      (box)

The graded pieces used in the constructions are plain tuples of forms, not
spaces: H (homogeneous forms), Hrl (homogeneous forms of linear degree >= l)
and J (sums of contractions of the Hrl pieces).  The P and Qminus bases are
distinct monomial forms.  Pminus and S add one generator stream each to
P_(r-1), resp. P_r; every generator has only terms of higher degree, so an
exact echelon fed the stream alone keeps those that enlarge the span, and
the bases are rank-certified at construction.  Bases are memoized per
spec; `count` ranks a stream and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, prod
from typing import NamedTuple

from feforms import linalg
from feforms.combinatorics import enumerate_sigma, multiindices, multiindices_exact
from feforms.forms import (
    PolyForm,
    exterior_derivative,
    form_to_string,
    koszul,
    ldeg,
)


class Family(NamedTuple):
    element: str  # reference element, "simplex" or "box"
    rmin: int     # least r
    drop: int     # degree drop per chain step


FAMILIES = {
    "P": Family("simplex", 0, 1),
    "Pminus": Family("simplex", 1, 0),
    "Qminus": Family("box", 1, 0),
    "S": Family("box", 1, 1),
}


@dataclass(frozen=True)
class SpaceSpec:
    family: str
    n: int
    r: int
    k: int

    def __post_init__(self):
        facts = FAMILIES.get(self.family)
        if facts is None:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 0 or not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if self.r < facts.rmin:
            raise ValueError(f"family {self.family} needs r >= {facts.rmin}, got {self.r}")

    @property
    def element(self) -> str:
        return FAMILIES[self.family].element

    def as_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "r": self.r,
                "k": self.k, "element": self.element}


def make_spec(family: str, n: int, r: int, k: int) -> SpaceSpec:
    return SpaceSpec(family, n, r, k)


def next_level(spec: SpaceSpec) -> SpaceSpec | None:
    """The level after `spec` in its family's de Rham chain: (k+1)-forms of
    degree lower by the family's drop; None past n or below the least r."""
    facts = FAMILIES[spec.family]
    r = spec.r - facts.drop
    if spec.k < spec.n and r >= facts.rmin:
        return SpaceSpec(spec.family, spec.n, r, spec.k + 1)
    return None


class SpaceBasis:
    """A rank-certified list of forms spanning one family member."""

    def __init__(self, spec: SpaceSpec, forms):
        self.spec = spec
        self.forms = tuple(forms)
        self._checker = None

    @property
    def dim(self) -> int:
        return len(self.forms)

    def checker(self) -> linalg.Echelon:
        if self._checker is None:
            ech = linalg.Echelon()
            for f in self.forms:
                if not ech.add(f.terms):
                    raise RuntimeError(f"basis for {self.spec} is not independent")
            self._checker = ech
        return self._checker

    def contains(self, form: PolyForm) -> bool:
        if form.n != self.spec.n or form.k != self.spec.k:
            raise ValueError("form shape does not match the space")
        return self.checker().contains(form.terms)

    def __repr__(self):
        return f"SpaceBasis({self.spec}, dim={self.dim})"


def select_independent(forms) -> list[PolyForm]:
    """Greedy maximal independent subset, scanned in the given order."""
    ech = linalg.Echelon()
    return [f for f in forms if ech.add(f.terms)]


def span_rank(forms) -> int:
    ech = linalg.Echelon()
    return sum(ech.add(f.terms) for f in forms)


def spans_equal(forms_a, forms_b) -> bool:
    """Equal ranks, and b inside the span of a."""
    ech = linalg.Echelon()
    ra = sum(ech.add(f.terms) for f in forms_a)
    forms_b = list(forms_b)
    return ra == span_rank(forms_b) and all(ech.contains(f.terms) for f in forms_b)


def _monomial_form(n: int, alpha: tuple, sigma: tuple) -> PolyForm:
    """x^alpha dx^sigma through the trusted constructors: alpha must be a
    length-n exponent tuple and sigma an increasing tuple in 1..n."""
    return PolyForm._of(n, len(sigma), {(sigma, alpha): 1})


def monomial_forms(n: int, k: int, max_degree: int) -> list[PolyForm]:
    """Monomial k-forms of coefficient degree <= max_degree, (sigma, alpha) lex."""
    if k < 0 or k > n or max_degree < 0:
        return []
    return [_monomial_form(n, alpha, sigma)
            for sigma in enumerate_sigma(k, n)
            for alpha in multiindices(n, max_degree)]


def monomial_count(n: int, k: int, max_degree: int) -> int:
    """len(monomial_forms(n, k, max_degree)) for valid arguments."""
    return len(enumerate_sigma(k, n)) * len(multiindices(n, max_degree))


# -- generator streams and family constructors (memoized) -------------------


def _homogeneous_monomials(r: int, l: int, k: int, n: int):
    """Homogeneous degree-r monomial k-forms of linear degree >= l, (sigma,
    alpha) lex; none when r < 0 or k > n."""
    for sigma in enumerate_sigma(k, n) if k <= n else ():
        for alpha in multiindices_exact(n, r):
            if ldeg(alpha, sigma) >= l:
                yield _monomial_form(n, alpha, sigma)


def _pminus_generators(r: int, k: int, n: int):
    """Contractions of the homogeneous degree-(r-1) monomial (k+1)-forms."""
    return map(koszul, _homogeneous_monomials(r - 1, 0, k + 1, n))


def _j_generators(r: int, k: int, n: int):
    """Contractions of the (r+l-1, l) homogeneous (k+1)-form pieces, l >= 1;
    a monomial (k+1)-form in n variables has linear degree <= n - k - 1."""
    for l in range(1, n - k):
        yield from map(koszul, _homogeneous_monomials(r + l - 1, l, k + 1, n))


def _s_generators(r: int, k: int, n: int):
    """The J_r generators, then d of the J_(r+1) generators."""
    yield from _j_generators(r, k, n)
    if k >= 1:
        yield from map(exterior_derivative, _j_generators(r + 1, k - 1, n))


@lru_cache(maxsize=None)
def basis_P(r: int, k: int, n: int) -> SpaceBasis:
    return SpaceBasis(SpaceSpec("P", n, r, k), monomial_forms(n, k, r))


@lru_cache(maxsize=None)
def basis_H(r: int, k: int, n: int) -> tuple[PolyForm, ...]:
    """Forms with homogeneous degree-r coefficients."""
    return basis_Hrl(r, 0, k, n)


@lru_cache(maxsize=None)
def basis_Hrl(r: int, l: int, k: int, n: int) -> tuple[PolyForm, ...]:
    """Homogeneous degree-r monomial k-forms of linear degree >= l."""
    return tuple(_homogeneous_monomials(r, l, k, n))


@lru_cache(maxsize=None)
def basis_Pminus(r: int, k: int, n: int) -> SpaceBasis:
    """Basis of P_(r-1) k-forms plus contractions of homogeneous (k+1)-forms."""
    return SpaceBasis(SpaceSpec("Pminus", n, r, k), [
        *basis_P(r - 1, k, n).forms, *select_independent(_pminus_generators(r, k, n))])


@lru_cache(maxsize=None)
def basis_J(r: int, k: int, n: int) -> tuple[PolyForm, ...]:
    """The generators of J_r that enlarge the span, in stream order."""
    return tuple(select_independent(_j_generators(r, k, n)))


@lru_cache(maxsize=None)
def basis_S(r: int, k: int, n: int) -> SpaceBasis:
    return SpaceBasis(SpaceSpec("S", n, r, k), [
        *basis_P(r, k, n).forms, *select_independent(_s_generators(r, k, n))])


def qminus_caps(r: int, k: int, n: int):
    """(sigma, per-axis degree caps): r-1 on alternator axes, r off."""
    for sigma in enumerate_sigma(k, n):
        yield sigma, [r - 1 if i + 1 in sigma else r for i in range(n)]


def qminus_count(r: int, k: int, n: int) -> int:
    """Size of the Qminus basis enumeration, without building a form."""
    return sum(prod(c + 1 for c in caps) for _, caps in qminus_caps(r, k, n))


@lru_cache(maxsize=None)
def basis_Qminus(r: int, k: int, n: int) -> SpaceBasis:
    """Tensor-product basis: the monomials under the caps of `qminus_caps`."""
    return SpaceBasis(SpaceSpec("Qminus", n, r, k), [
        _monomial_form(n, alpha, sigma) for sigma, caps in qminus_caps(r, k, n)
        for alpha in product(*(range(c + 1) for c in caps))])


def basis_for(spec: SpaceSpec) -> SpaceBasis:
    build = {"P": basis_P, "Pminus": basis_Pminus,
             "Qminus": basis_Qminus, "S": basis_S}[spec.family]
    return build(spec.r, spec.k, spec.n)


# -- dimensions --------------------------------------------------------------


def dimension_P(n: int, r: int, k: int) -> int:
    if r < 0 or k < 0 or k > n:
        return 0
    return comb(n + r, n - k) * comb(r + k, r)


def dimension_Pminus(n: int, r: int, k: int) -> int:
    if r < 1 or k < 0 or k > n:
        return 0
    return comb(n + r, n - k) * comb(r + k - 1, k)


def dimension_Qminus(n: int, r: int, k: int) -> int:
    if r < 1 or k < 0 or k > n:
        return 0
    return comb(n, k) * r ** k * (r + 1) ** (n - k)


def count(spec: SpaceSpec) -> int:
    """Dimension by counting, with no basis built: the size of the monomial
    enumeration plus the rank of the family's generator stream."""
    n, r, k = spec.n, spec.r, spec.k
    if spec.family == "Qminus":
        return qminus_count(r, k, n)
    if spec.family == "P":
        return monomial_count(n, k, r)
    if spec.family == "Pminus":
        return monomial_count(n, k, r - 1) + span_rank(_pminus_generators(r, k, n))
    return monomial_count(n, k, r) + span_rank(_s_generators(r, k, n))


def dimension(spec: SpaceSpec) -> int:
    """Dimension by closed formula where one exists, else by `count`."""
    formula = {"P": dimension_P, "Pminus": dimension_Pminus,
               "Qminus": dimension_Qminus}.get(spec.family)
    return formula(spec.n, spec.r, spec.k) if formula else count(spec)


def membership(u: PolyForm, spec: SpaceSpec) -> bool:
    """Exact span membership: does adding u increase the basis rank?"""
    return basis_for(spec).contains(u)


def describe(spec: SpaceSpec) -> dict:
    basis = basis_for(spec)
    return {
        "spec": spec.as_dict(),
        "dim": basis.dim,
        "basis": [form_to_string(f) for f in basis.forms],
    }
