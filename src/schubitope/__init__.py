"""Exact combinatorics of Schubitopes.

Halfspace descriptions come from parenthesis-word bounds; vertices are
Edmonds' greedy vectors of those bounds, enumerated by prefix mask without
the n! orders and checked against the per-column greedy fillings; Schubert
and key polynomials act as independent Newton-polytope oracles; and
everything is cross-checked by brute force at desk scale with exact
rational arithmetic.

A cold ``import schubitope`` loads neither `dataclasses`, `typing` nor
`fractions`.  `fillings` and the reference ranks of `oracles` load on the
first use of one of their names (`_LAZY`).
"""

from .diagrams import Diagram, rothe, skyline
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


# exported names whose module loads on first use, and that module.  The
# reference ranks and the Gale-order basis enumeration live in `oracles`:
# compiling it in every cold `import schubitope` made that import 5-12%
# slower.  No library path calls the greedy fillings, and `fillings` took
# about 3 ms of a cold import to compile.
_LAZY = {
    **dict.fromkeys(("rank_brute", "rank_max_filling", "schubert_matroid_bases"), "oracles"),
    **dict.fromkeys(("fill_column", "fill_diagram", "rank_columns", "rank_diagram", "rank_filling",
                     "sort_filling", "standardize", "vertex_vector", "vertex_vectors"), "fillings"),
}


def __getattr__(name: str):
    # `schubitope.fillings` and the names of `_LAZY`, each read from its
    # module on every use, so a name rebound there is seen here; the import
    # system, not `from . import`, loads the module, since `from . import`
    # asks this function for the module and would recurse
    if name == "fillings" or name in _LAZY:
        import importlib

        module = importlib.import_module(f"{__name__}.{_LAZY.get(name, name)}")
        return module if name == "fillings" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
