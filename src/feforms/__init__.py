"""Exact construction and verification of finite element differential forms.

Builds explicit bases for four families of polynomial differential k-forms
on reference elements (two simplicial families, a tensor-product family and
a serendipity-type family on boxes), equips each with face-integral degrees
of freedom, and verifies dimension formulas, unisolvence, complex and
exactness identities, and commuting projections on assembled meshes, all in
exact rational arithmetic.
"""

__version__ = "0.1.0"

from feforms.combinatorics import complement, enumerate_sigma, merge_sign
from feforms.forms import (
    AffineEmbedding,
    PolyForm,
    exterior_derivative,
    form_from_string,
    form_to_string,
    integrate_box,
    integrate_simplex,
    koszul,
    ldeg,
    pullback,
    wedge,
)
from feforms.polynomial import NEG_INF, Polynomial, barycentric
from feforms.spaces import SpaceBasis, SpaceSpec, basis_for, dimension, make_spec, membership

__all__ = [
    "AffineEmbedding",
    "NEG_INF",
    "PolyForm",
    "Polynomial",
    "SpaceBasis",
    "SpaceSpec",
    "barycentric",
    "basis_for",
    "complement",
    "dimension",
    "enumerate_sigma",
    "exterior_derivative",
    "form_from_string",
    "form_to_string",
    "integrate_box",
    "integrate_simplex",
    "koszul",
    "ldeg",
    "make_spec",
    "membership",
    "merge_sign",
    "pullback",
    "wedge",
]
