"""Polynomial differential forms and their exact calculus.

A k-form u = sum c x^alpha dx^sigma is stored as one flat map
{(sigma, alpha): c} from monomial forms to nonzero rational coefficients,
each an int when integral and else a Fraction (`polynomial.exact`):
sigma is an increasing alternator of length k and alpha a length-n exponent
tuple.  Wedge, exterior derivative, contraction with the position field and
affine pullback act term by term on this map and stay inside rational
arithmetic, as does integration over simplices and boxes.

Degree bookkeeping: forms of degree k > n are identically zero and
normalize to the empty map, so chain-complex code needs no special cases
at the ends.  Contraction of a 0-form returns the zero 0-form for the same
reason.  Zero forms compare equal regardless of their nominal degree and
may be added to a form of any degree.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm
from operator import add

from feforms.combinatorics import check_sigma, complement, enumerate_sigma, merge, merge_sign
from feforms.polynomial import (
    DegenerateSimplexError,
    NEG_INF,
    Polynomial,
    affine_polynomial,
    exact,
    monomial_string,
    ratios,
    rational_from_string,
    substitute,
    sum_terms,
)


class PolyForm:
    """Immutable polynomial differential k-form on R^n.

    `terms` maps each monomial form (sigma, alpha), standing for
    x^alpha dx^sigma, to its nonzero `exact` coefficient; do not mutate it
    after construction.  The public constructor takes the per-alternator
    map {sigma: Polynomial or number}, validates it and flattens it.
    """

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, components: dict | None = None):
        if n < 0 or k < 0:
            raise ValueError(f"need n >= 0 and k >= 0, got n={n}, k={k}")
        terms: dict = {}
        if k <= n:
            for sigma, a in (components or {}).items():
                sigma = check_sigma(sigma, n)
                if len(sigma) != k:
                    raise ValueError(f"alternator {sigma!r} has length != {k}")
                if not isinstance(a, Polynomial):
                    a = Polynomial.constant(n, a)
                if a.n != n:
                    raise ValueError("coefficient dimension mismatch")
                for alpha, c in a.terms.items():
                    terms[sigma, alpha] = c
        self.n = n
        self.k = k
        self.terms = terms

    @classmethod
    def _of(cls, n: int, k: int, terms: dict) -> "PolyForm":
        """Trusted constructor for calculus on validated forms: `terms` maps
        valid (sigma, alpha) keys of k-forms on R^n to nonzero `exact`
        values: ints, or Fractions that are not integral."""
        u = object.__new__(cls)
        u.n = n
        u.k = k
        u.terms = terms
        return u

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int) -> "PolyForm":
        return cls(n, k, {})

    @classmethod
    def monomial(cls, n: int, alpha, sigma, coeff=1) -> "PolyForm":
        return cls(n, len(sigma), {tuple(sigma): Polynomial.monomial(n, alpha, coeff)})

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "PolyForm":
        return cls(p.n, 0, {(): p})

    @classmethod
    def dx(cls, n: int, i: int) -> "PolyForm":
        return cls(n, 1, {(i,): Polynomial.constant(n, 1)})

    @classmethod
    def volume(cls, n: int) -> "PolyForm":
        """The constant top form dx^1 ^ ... ^ dx^n."""
        return cls(n, n, {tuple(range(1, n + 1)): Polynomial.constant(n, 1)})

    # -- access -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def components(self) -> dict:
        """The per-alternator view {sigma: Polynomial coefficient of dx^sigma},
        built anew on each access; alternators with no term are absent."""
        comps: dict = {}
        for (sigma, alpha), c in self.terms.items():
            comps.setdefault(sigma, {})[alpha] = c
        return {s: Polynomial._of(self.n, t) for s, t in comps.items()}

    def component(self, sigma) -> Polynomial:
        return self.components.get(tuple(sigma), Polynomial.zero(self.n))

    def degree(self):
        """Largest coefficient degree, NEG_INF for the zero form."""
        if not self.terms:
            return NEG_INF
        return max(sum(alpha) for _, alpha in self.terms)

    # -- linear structure -------------------------------------------------

    def _check_add(self, other: "PolyForm"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.k != other.k and not (self.is_zero or other.is_zero):
            raise ValueError(f"form degree mismatch: {self.k} vs {other.k}")

    def __add__(self, other: "PolyForm") -> "PolyForm":
        self._check_add(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return _sum(self.n, self.k, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "PolyForm":
        return PolyForm._of(self.n, self.k,
                            {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def __mul__(self, other) -> "PolyForm":
        """Multiply by a scalar, or by a Polynomial as a 0-form wedge."""
        if isinstance(other, PolyForm):
            raise TypeError("use wedge() for products of forms")
        if isinstance(other, Polynomial):
            return wedge(PolyForm.from_polynomial(other), self)
        c = exact(other)
        if not c:
            return PolyForm.zero(self.n, self.k)
        return _sum(self.n, self.k, ((key, c * v) for key, v in self.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return (self.n == other.n and self.k == other.k
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"PolyForm({self.n}, {self.k}, {form_to_string(self)!r})"

    def wedge(self, other: "PolyForm") -> "PolyForm":
        return wedge(self, other)


def _sum(n: int, k: int, pairs) -> PolyForm:
    """The k-form on R^n summed from ((sigma, alpha), c) pairs by `sum_terms`."""
    return PolyForm._of(n, k, sum_terms(pairs))


def wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    """Exterior product, term by term through merge signs."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")

    def pairs():
        for (sa, alpha), x in a.terms.items():
            for (sb, beta), y in b.terms.items():
                sign, merged = merge(sa, sb)
                if sign:
                    yield (merged, tuple(map(add, alpha, beta))), sign * x * y

    return _sum(a.n, a.k + b.k, pairs())


def exterior_derivative(u: PolyForm) -> PolyForm:
    """d(a dx^sigma) = sum_j (da/dx^j) dx^j ^ dx^sigma, on exponent tuples:
    each term c x^alpha dx^sigma with alpha_j > 0 and j not in sigma sends
    (-1)^p * alpha_j * c to x^(alpha - e_j) dx^(sigma with j inserted at
    position p).  No polynomial is differentiated or multiplied."""
    def pairs():
        for (sigma, alpha), c in u.terms.items():
            for j, e in enumerate(alpha, 1):
                if e and j not in sigma:
                    pos = bisect(sigma, j)
                    beta = alpha[:j - 1] + (e - 1,) + alpha[j:]
                    yield (sigma[:pos] + (j,) + sigma[pos:], beta), c * (-e if pos % 2 else e)

    return _sum(u.n, u.k + 1, pairs())


def koszul(u: PolyForm) -> PolyForm:
    """Contraction with the position field x (based at the origin), from
    k-forms to (k-1)-forms, on exponent tuples with no multiplication: each
    term c x^alpha dx^sigma sends (-1)^(i-1) c to x^(alpha + e_(sigma_i))
    dx^(sigma minus sigma_i).  On 0-forms the contraction is zero."""
    if u.k == 0:
        return PolyForm.zero(u.n, 0)

    def pairs():
        for (sigma, alpha), c in u.terms.items():
            for pos, s in enumerate(sigma):
                beta = alpha[:s - 1] + (alpha[s - 1] + 1,) + alpha[s:]
                yield (sigma[:pos] + sigma[pos + 1:], beta), -c if pos % 2 else c

    return _sum(u.n, u.k - 1, pairs())


def ldeg(alpha, sigma) -> int:
    """Linear degree of the monomial form x^alpha dx^sigma.

    Counts variables that appear to the first power in the coefficient and
    do not occur in the alternator.
    """
    inside = set(sigma)
    return sum(1 for i, e in enumerate(alpha) if e == 1 and (i + 1) not in inside)


# -- affine maps and pullback ---------------------------------------------


class AffineEmbedding:
    """Affine map t -> offset + matrix @ t from Q^m into Q^n.

    `scale`, the lcm of the entry denominators, puts substitution and
    minors on integers.  Caches substitution powers and alternator minors,
    so reusing one embedding across many pullbacks (as the degree-of-freedom
    machinery does) stays cheap, and so does deciding, once, whether the
    map is a coordinate injection (`_coordinate_axes`).
    """

    __slots__ = ("source_dim", "target_dim", "matrix", "offset", "scale",
                 "_powers", "_minors", "_images", "_coords")

    def __init__(self, matrix, offset):
        matrix = tuple(tuple(exact(v) for v in row) for row in matrix)
        offset = tuple(exact(v) for v in offset)
        n = len(offset)
        if len(matrix) != n:
            raise ValueError("matrix row count does not match offset length")
        m = len(matrix[0]) if matrix else 0
        if any(len(row) != m for row in matrix):
            raise ValueError("ragged matrix")
        self.source_dim = m
        self.target_dim = n
        self.matrix = matrix
        self.offset = offset
        self.scale = lcm(*[v.denominator for v in chain(offset, *matrix)])
        self._images = [{a: exact(v * self.scale) for a, v in
                         affine_polynomial(m, row, c).terms.items()}
                        for row, c in zip(matrix, offset)]
        self._powers: dict = {}
        self._minors: dict = {}
        self._coords = _coordinate_axes(matrix, offset, m)

    @classmethod
    def identity(cls, n: int) -> "AffineEmbedding":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                   (0,) * n)

    @classmethod
    def translation(cls, shift) -> "AffineEmbedding":
        return cls(cls.identity(len(shift)).matrix, shift)

    @classmethod
    def from_simplex(cls, vertices) -> "AffineEmbedding":
        """Chart of the standard simplex onto conv(vertices), vertex order kept."""
        verts = [tuple(exact(c) for c in v) for v in vertices]
        d = len(verts) - 1
        n = len(verts[0]) if verts else 0
        if any(len(v) != n for v in verts):
            raise ValueError("ragged vertex list")
        matrix = tuple(tuple(verts[j + 1][i] - verts[0][i] for j in range(d))
                       for i in range(n))
        return cls(matrix, verts[0])

    @classmethod
    def from_box(cls, bounds) -> "AffineEmbedding":
        """Chart of the unit box onto the axis-aligned box with given bounds."""
        bounds = [(exact(lo), exact(hi)) for lo, hi in bounds]
        n = len(bounds)
        matrix = tuple(tuple((b[1] - b[0]) if i == j else 0
                             for j, b in enumerate(bounds)) for i in range(n))
        return cls(matrix, tuple(b[0] for b in bounds))

    def apply(self, t):
        t = [Fraction(v) for v in t]
        if len(t) != self.source_dim:
            raise ValueError("point dimension mismatch")
        return tuple(c + sum(row[j] * t[j] for j in range(self.source_dim))
                     for row, c in zip(self.matrix, self.offset))

    def substitute(self, p: Polynomial) -> Polynomial:
        """Exact composition p(offset + matrix @ t), with shared power cache."""
        if p.n != self.target_dim:
            raise ValueError("polynomial dimension mismatch")
        nums, den = substitute(p, self._images, self.scale, self.source_dim, self._powers)
        return Polynomial._of(self.source_dim, ratios(nums, den))

    def minor(self, sigma, tau) -> int:
        """det of the submatrix of scale * matrix with rows sigma and columns
        tau (1-based): scale^len(sigma) times the minor of the map."""
        key = (sigma, tau)
        got = self._minors.get(key)
        if got is None:
            got = _det([[self.matrix[s - 1][t - 1] * self.scale for t in tau] for s in sigma])
            self._minors[key] = got
        return got

    def jacobian_det(self):
        if self.source_dim != self.target_dim:
            raise ValueError("jacobian determinant needs a square map")
        d = self.source_dim
        full = tuple(range(1, d + 1))
        return exact(Fraction(self.minor(full, full), self.scale ** d))


def _det(rows):
    """Laplace expansion along the first row, of and to `exact` values."""
    if not rows:
        return 1
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            sub = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-a if j % 2 else a) * _det(sub)
    return exact(total)


def _coordinate_axes(matrix, offset, m: int):
    """(source, free, zeros) when each image axis is the next source axis
    (offset 0) or fixed at 0 or 1, as on box faces, vertices and the
    reference-simplex faces through the origin; else None.  `source` maps free image axes to
    source axes, 1-based; `free` and `zeros` list the free image axes and
    those fixed at 0 as exponent positions."""
    free, zeros = [], []
    for i, (row, c) in enumerate(zip(matrix, offset)):
        if not any(row) and c in (0, 1):
            if c == 0:
                zeros.append(i)
        elif c == 0 and row == tuple(int(j == len(free)) for j in range(m)):
            free.append(i)
        else:
            return None
    if len(free) != m:
        return None
    return {t + 1: j + 1 for j, t in enumerate(free)}, tuple(free), tuple(zeros)


def _coordinate_trace(coords, sigma, alpha):
    """Trace key (tau, beta) of the monomial x^alpha dx^sigma through a
    coordinate injection with axes `coords` (see `_coordinate_axes`), or
    None where the trace is zero.  It is zero unless sigma lies within the
    free axes and alpha is 0 on the axes fixed at 0; then beta is alpha on
    the free axes, tau is sigma renumbered, and the coefficient is kept."""
    source, free, zeros = coords
    for i in zeros:
        if alpha[i]:
            return None
    for s in sigma:
        if s not in source:
            return None
    return tuple([source[s] for s in sigma]), tuple([alpha[i] for i in free])


def pullback(u: PolyForm, f: AffineEmbedding) -> PolyForm:
    """Pullback of a k-form on the target through the affine map f.

    Coefficients are composed with f; each alternator dx^sigma turns into
    the wedge of the pulled-back coordinate differentials, whose dt^tau
    coefficient is the (sigma, tau) minor of the linear part.  Both run on
    the integer scale of f, and each output coefficient is formed once.
    """
    if u.n != f.target_dim:
        raise ValueError(f"form lives on R^{u.n}, map targets R^{f.target_dim}")
    m = f.source_dim
    k = u.k
    if k > m:
        return PolyForm.zero(m, k)
    if f._coords is not None:  # a coordinate chart: reindex alone
        return _sum(m, k, [(key, c) for (sigma, alpha), c in u.terms.items()
                           if (key := _coordinate_trace(f._coords, sigma, alpha))])
    taus = enumerate_sigma(k, m)
    images = [(sigma, *substitute(a, f._images, f.scale, m, f._powers))
              for sigma, a in u.components.items()]
    den = lcm(*[d for *_, d in images])
    pairs = []
    for sigma, nums, d in images:
        for tau in taus:
            det = f.minor(sigma, tau) * (den // d)
            if det:
                pairs += [((tau, beta), c * det) for beta, c in nums.items()]
    return PolyForm._of(m, k, ratios(sum_terms(pairs), den * f.scale ** k))


def monomial_trace(chart: AffineEmbedding, sigma, alpha) -> list:
    """The pullback of x^alpha dx^sigma through `chart`, as (trace key
    (tau, beta), coefficient) pairs: by reindexing on a coordinate chart,
    else by one `pullback`."""
    if chart._coords is not None:
        key = _coordinate_trace(chart._coords, sigma, alpha)
        return [(key, 1)] if key else []
    tr = pullback(PolyForm.monomial(chart.target_dim, alpha, sigma), chart)
    return list(tr.terms.items())


# -- exact integration -----------------------------------------------------


@lru_cache(maxsize=None)
def _std_simplex_monomial_integral(alpha) -> Fraction:
    # barycentric monomial rule with exponents (0, alpha); the volume
    # factor 1/d! of the standard simplex is already folded in
    d = len(alpha)
    num = 1
    for e in alpha:
        num *= factorial(e)
    return Fraction(num, factorial(sum(alpha) + d))


def _unit_box_monomial_integral(alpha) -> Fraction:
    den = 1
    for e in alpha:
        den *= e + 1
    return Fraction(1, den)


# the closed integral of a monomial over the reference face of each kind
_MONOMIAL_RULES = {"simplex": _std_simplex_monomial_integral,
                   "box": _unit_box_monomial_integral}


def integrate_std_simplex(u: PolyForm) -> Fraction:
    """Integral of a top form over the standard simplex in R^d: its face
    moment against the constant 0-form 1."""
    return FaceMoments("simplex")(u, PolyForm(u.n, 0, {(): 1}))


def integrate_simplex(u: PolyForm, vertices) -> Fraction:
    """Integral of a top form over the simplex with the given ordered vertices.

    The orientation is that of the vertex order: swapping two vertices
    flips the sign.  Raises DegenerateSimplexError on flat input.
    """
    verts = [tuple(exact(c) for c in v) for v in vertices]
    d = len(verts) - 1
    if u.k != d or u.n != d:
        raise ValueError(f"need a {d}-form on R^{d} for a {d}-simplex")
    chart = AffineEmbedding.from_simplex(verts)
    if chart.jacobian_det() == 0:
        raise DegenerateSimplexError("simplex vertices are affinely dependent")
    return integrate_std_simplex(pullback(u, chart))


def integrate_box(u: PolyForm, bounds) -> Fraction:
    """Integral of a top form over an axis-aligned box given as (lo, hi) pairs."""
    bounds = [(exact(lo), exact(hi)) for lo, hi in bounds]
    n = len(bounds)
    if u.k != n or u.n != n:
        raise ValueError(f"need an {n}-form on R^{n} for an {n}-box")
    if any(lo >= hi for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo < hi on every axis")
    return integrate_unit_box(pullback(u, AffineEmbedding.from_box(bounds)))


def integrate_unit_box(u: PolyForm) -> Fraction:
    """Integral of a top form over the unit box in R^d: its face moment
    against the constant 0-form 1."""
    return FaceMoments("box")(u, PolyForm(u.n, 0, {(): 1}))


class FaceMoments:
    """Exact face moments (tr, q) -> integral of tr ^ q over a reference face.

    The face is the standard d-simplex or the unit d-box, chosen once by
    `kind`; tr is a k-form and q a (d-k)-form on R^d.  Per weight q, a
    table maps each trace monomial (tau, alpha) to the moment of
    x^alpha dx^tau against q, filled on first use from the closed monomial
    integral.  `rows`, the one kernel, applies weights to integer columns
    given by their trace monomials, as sparse dot products over integers
    with no wedge formed; a call runs it on one column.  On
    R^0 the empty monomial integrates to 1: point evaluation, so vertices
    need no special case.

    Tables grow with every monomial met and keep their weights alive, so
    scope an instance to one computation, not to the process.
    """

    def __init__(self, kind: str):
        self._integral = _MONOMIAL_RULES.get(kind)
        if self._integral is None:
            raise ValueError(f"unknown element kind {kind!r}")
        self._tables: dict[int, tuple[PolyForm, dict]] = {}

    def __call__(self, tr: PolyForm, q: PolyForm):
        """The moment of tr against q, in `exact` form."""
        if q.n != tr.n or tr.k + q.k != tr.n:
            raise ValueError(f"need a k-form and a (d-k)-form on R^d, got a "
                             f"{tr.k}-form on R^{tr.n} and a {q.k}-form on R^{q.n}")
        den = lcm(*[c.denominator for c in tr.terms.values()])
        index = {key: {0: c.numerator * (den // c.denominator)} for key, c in tr.terms.items()}
        [(row, scale)] = self.rows(index, (q,), 1)
        return exact(Fraction(row[0], den * scale))

    def rows(self, index: dict, weights, width: int) -> list[tuple[list, int]]:
        """The moments against each weight of `width` integer columns, whose
        traces `index` maps as {(tau, alpha): {column j: int}}, as (row,
        scale): row[j] / scale is the moment of column j, and scale the lcm
        of the denominators of the moments read.  Only the keys whose tau
        complements an alternator of q are read: every other moment is 0."""
        by_tau: dict = {}
        for key in index:
            by_tau.setdefault(key[0], []).append(key)
        out = []
        for q in weights:
            held = self._tables.get(id(q))
            if held is None:
                # only q's component on the complement of tau pairs with dx^tau;
                # the table holds its weight, so no other object can take its id
                parts = {}
                for sigma, b in q.components.items():
                    tau = complement(sigma, q.n)
                    parts[tau] = (merge_sign(tau, sigma), [
                        (beta, c.numerator, c.denominator) for beta, c in b.terms.items()])
                held = self._tables[id(q)] = (q, parts, {})
            _, parts, table = held
            got = [(key, table.get(key) or table.setdefault(key, self._moment(parts, *key)))
                   for tau in parts for key in by_tau.get(tau, ())]
            scale = lcm(*[d for _, (_, d) in got])
            row = [0] * width
            for key, (m, d) in got:
                v = m * (scale // d)
                for j, c in index[key].items():
                    row[j] += c * v
            out.append((row, scale))
        return out

    def _moment(self, parts: dict, tau, alpha) -> tuple[int, int]:
        """Integral of x^alpha dx^tau ^ q as a reduced fraction (num, den)."""
        sign, terms = parts[tau]
        num, den = 0, 1
        for beta, cn, cd in terms:
            m = self._integral(tuple(map(add, alpha, beta)))
            pd = cd * m.denominator
            num, den = num * pd + sign * cn * m.numerator * den, den * pd
        g = gcd(num, den)
        return num // g, den // g


def std_simplex_vertices(d: int):
    """Vertices (0, e_1, ..., e_d) of the standard simplex in Q^d."""
    return [tuple(int(j == i - 1) for j in range(d)) for i in range(d + 1)]


@lru_cache(maxsize=None)
def simplex_face_chart(n: int, positions: tuple) -> AffineEmbedding:
    """Chart of the standard d-simplex onto the face of the standard
    n-simplex whose vertices, in order, are (0, e_1, ..., e_n)[positions].
    Memoized: faces with one vertex order share a chart and its caches."""
    verts = std_simplex_vertices(n)
    return AffineEmbedding.from_simplex([verts[i] for i in positions])


def box_face_chart(n: int, axes, bits) -> AffineEmbedding:
    """Chart of the unit d-box onto a face of the unit n-box.

    `axes` lists the d free axes (1-based, increasing); they keep their
    order as face coordinates.  The other axes, in increasing order, are
    fixed at the 0/1 values in `bits`.
    """
    d = len(axes)
    fixed = iter(bits)
    rows, offset = [], []
    for axis in range(1, n + 1):
        if axis in axes:
            pos = axes.index(axis)
            rows.append(tuple(int(j == pos) for j in range(d)))
            offset.append(0)
        else:
            rows.append((0,) * d)
            offset.append(next(fixed))
    return AffineEmbedding(tuple(rows), tuple(offset))


# -- canonical text rendering ----------------------------------------------


def form_to_string(u: PolyForm) -> str:
    """Render as "coef x-part dx-part" terms in lexicographic (sigma, alpha) order."""
    if u.is_zero:
        return "0"
    parts = []
    for sigma, alpha in sorted(u.terms):
        dx = "^".join(f"dx{s}" for s in sigma)
        term = monomial_string(u.terms[sigma, alpha], alpha)
        parts.append(f"{term} {dx}".strip())
    return " + ".join(parts)


def form_from_string(text: str, n: int, k: int) -> PolyForm:
    """Parse the canonical rendering back into a form on R^n of degree k."""
    text = text.strip()
    if text == "0" or not text:
        return PolyForm.zero(n, k)
    total = PolyForm.zero(n, k)
    for term in text.split(" + "):
        toks = term.split()
        if not toks:
            raise ValueError(f"empty term in {text!r}")
        coeff = rational_from_string(toks[0])
        alpha = [0] * n
        seen = set()
        sigma = None
        for tok in toks[1:]:
            if tok.startswith("dx"):
                if sigma is not None:
                    raise ValueError(f"term {term!r} has more than one dx part")
                sigma = tuple(int(p[2:]) for p in tok.split("^"))
            elif tok.startswith("x"):
                var, caret, exp = tok.partition("^")
                i = int(var[1:])
                if not 1 <= i <= n:
                    raise ValueError(f"variable {var!r} is outside x1..x{n}")
                if i in seen:
                    raise ValueError(f"variable {var!r} repeats in term {term!r}")
                seen.add(i)
                alpha[i - 1] = int(exp) if caret else 1
            else:
                raise ValueError(f"cannot parse token {tok!r}")
        sigma = sigma or ()
        if len(sigma) != k:
            raise ValueError(f"term {term!r} has alternator length != {k}")
        total = total + PolyForm.monomial(n, tuple(alpha), sigma, coeff)
    return total
