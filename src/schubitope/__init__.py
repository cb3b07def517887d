"""Exact combinatorics of Schubitopes.

Halfspace descriptions come from parenthesis-word bounds; vertices are
Edmonds' greedy vectors of those bounds, enumerated by prefix mask without
the n! orders and checked against the per-column greedy fillings; Schubert
and key polynomials act as independent Newton-polytope oracles; and
everything is cross-checked by brute force at desk scale with exact
rational arithmetic.
"""

from .diagrams import Diagram, rothe, skyline
from .fillings import (
    fill_column,
    fill_diagram,
    rank_columns,
    rank_diagram,
    rank_filling,
    sort_filling,
    standardize,
    vertex_vector,
    vertex_vectors,
)
from .lp import convex_combination, hull_vertices
from .perms import (
    act,
    bruhat_leq,
    composition_leq,
    lambda_of,
    length,
    vertex_compositions,
    w_of,
)
from .polyoracle import (
    Polynomial,
    demazure,
    divided_difference,
    key_polynomial,
    newton_exponents,
    schubert_polynomial,
)
from .polytope import (
    Certification,
    HRep,
    certify_vertices,
    column_word,
    edmonds_vertex,
    hrep,
    member,
    theta,
    theta_columns,
    vertices,
)

__version__ = "0.1.0"

__all__ = [
    "Certification",
    "Diagram",
    "HRep",
    "Polynomial",
    "act",
    "bruhat_leq",
    "certify_vertices",
    "column_word",
    "composition_leq",
    "convex_combination",
    "demazure",
    "divided_difference",
    "edmonds_vertex",
    "fill_column",
    "fill_diagram",
    "hrep",
    "hull_vertices",
    "key_polynomial",
    "lambda_of",
    "length",
    "member",
    "newton_exponents",
    "rank_brute",
    "rank_columns",
    "rank_diagram",
    "rank_filling",
    "rank_max_filling",
    "rothe",
    "schubert_matroid_bases",
    "schubert_polynomial",
    "skyline",
    "sort_filling",
    "standardize",
    "theta",
    "theta_columns",
    "vertex_compositions",
    "vertex_vector",
    "vertex_vectors",
    "vertices",
    "w_of",
]


def __getattr__(name: str):
    # the reference ranks and the Gale-order basis enumeration live in
    # `oracles`, loaded on first use: compiling `oracles` in every cold
    # `import schubitope` made that import 5-12% slower
    if name in ("rank_brute", "rank_max_filling", "schubert_matroid_bases"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
