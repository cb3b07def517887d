"""Schubert and key polynomials via divided differences, as Newton-polytope oracles.

Polynomials are sparse, immutable, hashable and picklable values: a
read-only mapping from exponent vectors to non-zero integer coefficients.
The divided difference of a single monomial has a closed form (a geometric
sum between the two exponents), so the division by x_i - x_{i+1} is
carried out termwise and is exact by construction.

Inputs are checked once, at the public edge: the constructor
`Polynomial(n, terms)`, `monomial` and `poly_from_json_dict` check every
exponent and coefficient.  The operators (`+`, `-`, `*`,
`swap_variables`, `divided_difference`, `demazure`) build their results
from checked polynomials with exponents and coefficients they computed
themselves, so they go through `Polynomial._from_terms`, which only drops
zero coefficients.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .diagrams import Value, read_document
from .perms import INTS, check_composition, check_permutation, check_range, check_size, is_int, swap_adjacent

SCHUBERT_CAP = 7
KEY_CAP_N = 6
KEY_CAP_PART = 4


class Polynomial(Value):
    """Sparse integer-coefficient polynomial in n variables; ``terms`` is
    read-only, so memoized results can be shared.  Hashed on n and the set
    of its terms; pickled as n and a plain dict of its terms."""

    _fields = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] = MappingProxyType({})):
        check_size(n, "variable count")
        clean: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != n or any(type(x) not in INTS or x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e!r} for {n} variables")
            if not is_int(c):
                raise ValueError(f"coefficient of {e!r} must be an integer, got {c!r}")
            if c:
                clean[e] = c
        self.__dict__.update(n=n, terms=MappingProxyType(clean))

    @classmethod
    def _from_terms(cls, n: int, terms: Mapping[tuple[int, ...], int]) -> Polynomial:
        """The polynomial of terms an operator built, unchecked: the caller
        guarantees length-n tuples of non-negative ints as exponents and int
        coefficients.  Zero coefficients are dropped, as the constructor
        drops them, in insertion order."""
        f = cls.__new__(cls)
        f.__dict__.update(n=n, terms=MappingProxyType({e: c for e, c in terms.items() if c}))
        return f

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __reduce__(self):
        return Polynomial, (self.n, dict(self.terms))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial._from_terms(self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial._from_terms(self.n, out)


def monomial(n: int, exponent: Sequence[int]) -> Polynomial:
    return Polynomial(n, {tuple(exponent): 1})


def swap_variables(f: Polynomial, i: int) -> Polynomial:
    """Exchange x_i and x_{i+1} in every term."""
    check_range(i, 1, f.n - 1, "variable index")
    return Polynomial._from_terms(f.n, {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: c for e, c in f.terms.items()})


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """(f - s_i f) / (x_i - x_{i+1}), computed exactly termwise.

    For a single monomial with x_i^p x_{i+1}^q the quotient is the signed
    geometric sum of the monomials x_i^k x_{i+1}^{p+q-1-k} with k running
    between min(p, q) and max(p, q) - 1, so no actual division happens.

    >>> sorted(divided_difference(monomial(2, (2, 0)), 1).terms)
    [(0, 1), (1, 0)]
    """
    check_range(i, 1, f.n - 1, "operator index")
    a, b = i - 1, i
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        p, q = e[a], e[b]
        if p == q:
            continue
        if p < q:  # the sign, folded into the coefficient once per term
            p, q, c = q, p, -c
        head, tail, top = e[:a], e[b + 1:], p + q - 1
        for k in range(q, p):
            key = head + (k, top - k) + tail
            out[key] = out.get(key, 0) + c
    return Polynomial._from_terms(f.n, out)


def demazure(f: Polynomial, i: int) -> Polynomial:
    """The operator sending f to divided_difference(x_i * f, i)."""
    check_range(i, 1, f.n - 1, "operator index")
    bumped = {e[:i - 1] + (e[i - 1] + 1,) + e[i:]: c for e, c in f.terms.items()}
    return divided_difference(Polynomial._from_terms(f.n, bumped), i)


@functools.cache
def _schubert(w: tuple[int, ...]) -> Polynomial:
    n = len(w)
    ascent = next((i for i in range(1, n) if w[i - 1] < w[i]), None)
    if ascent is None:  # the longest element: staircase monomial
        return monomial(n, tuple(n - k for k in range(1, n + 1)))
    return divided_difference(_schubert(swap_adjacent(w, ascent)), ascent)


def schubert_polynomial(w: Sequence[int]) -> Polynomial:
    """Schubert polynomial, by descending divided-difference recursion.

    Starts from the staircase monomial of the longest element and applies
    one divided difference per step along the first ascent; the result is
    independent of which ascent is chosen.  Memoized per session.

    >>> sorted(schubert_polynomial((1, 3, 2)).terms)
    [(0, 1, 0), (1, 0, 0)]
    """
    w = check_permutation(w)
    if len(w) > SCHUBERT_CAP:
        raise ValueError(f"Schubert recursion capped at n <= {SCHUBERT_CAP}")
    return _schubert(w)


@functools.cache
def _key(alpha: tuple[int, ...]) -> Polynomial:
    n = len(alpha)
    ascent = next((i for i in range(1, n) if alpha[i - 1] < alpha[i]), None)
    if ascent is None:  # weakly decreasing: a single monomial
        return monomial(n, alpha)
    return demazure(_key(swap_adjacent(alpha, ascent)), ascent)


def key_polynomial(alpha: Sequence[int]) -> Polynomial:
    """Key polynomial (Demazure character), by the ascending-swap recursion.

    A weakly decreasing composition gives the bare monomial x^alpha; one
    Demazure operator is applied per adjacent swap needed to sort alpha.
    Independent of the order the swaps are performed in; memoized.

    >>> sorted(key_polynomial((0, 1)).terms)
    [(0, 1), (1, 0)]
    """
    alpha = check_composition(alpha)
    if len(alpha) > KEY_CAP_N or any(a > KEY_CAP_PART for a in alpha):
        raise ValueError(
            f"key recursion capped at n <= {KEY_CAP_N} with parts <= {KEY_CAP_PART}"
        )
    return _key(alpha)


def newton_exponents(f: Polynomial) -> set[tuple[int, ...]]:
    """The support of the polynomial as a point set."""
    return set(f.terms)


def poly_to_json_dict(f: Polynomial) -> dict:
    """JSON form: {"n": 3, "terms": [{"e": [3, 1, 0], "c": 1}, ...]},
    terms sorted by exponent lexicographically."""
    return {"n": f.n, "terms": [{"e": list(e), "c": c} for e, c in sorted(f.terms.items())]}


def poly_from_json_dict(data) -> Polynomial:
    """Inverse of :func:`poly_to_json_dict`, with field-naming diagnostics
    (`diagrams.read_document`)."""
    raw = read_document(data, "polynomial", ("n", "terms"), "objects")
    terms: dict[tuple[int, ...], int] = {}
    for entry in raw:
        if not isinstance(entry, dict) or "e" not in entry or "c" not in entry:
            raise ValueError(f"field 'terms': bad entry {entry!r}, expected {{'e': [...], 'c': int}}")
        e = entry["e"]
        if not isinstance(e, list) or not all(map(is_int, e)):
            raise ValueError(f"field 'terms': exponent {e!r} must be a list of integers")
        key = tuple(e)
        if key in terms:
            raise ValueError(f"field 'terms': duplicate exponent {e!r}")
        terms[key] = entry["c"]
    return Polynomial(data["n"], terms)


def poly_to_text(f: Polynomial) -> str:
    """Human-readable form "x1^3*x2 + ..." with terms in decreasing lex order."""
    if not f.terms:
        return "0"
    rendered = []
    for e, c in sorted(f.terms.items(), reverse=True):
        factors = "*".join(
            f"x{i}" + (f"^{p}" if p > 1 else "")
            for i, p in enumerate(e, 1)
            if p
        )
        if not factors:
            rendered.append(str(c))
        elif c == 1:
            rendered.append(factors)
        elif c == -1:
            rendered.append(f"-{factors}")
        else:
            rendered.append(f"{c}*{factors}")
    out = rendered[0]
    for piece in rendered[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out
