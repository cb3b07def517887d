"""Permutations, compositions, the Bruhat order, and composition lower intervals.

Permutations are plain tuples in one-line notation with values 1..n, so
2641375 is written ``(2, 6, 4, 1, 3, 7, 5)``.  Compositions are tuples of
non-negative integers.  All functions are pure and never mutate their
arguments; values are safe to share between workers.

The public functions check their arguments once, on entry.  Both orders
then run one unchecked kernel, `_bruhat_leq`: the tableau test that
compares the increasingly sorted prefixes of two words of one length.
`bruhat_leq` runs it on two permutations.  The composition order runs it
on the compositions themselves, with the arguments swapped, so neither
`composition_leq` nor `vertex_compositions` builds a permutation label.

This leaf module also owns the library's integer rule, which every other
module imports from here: a size, an index, a subset element or an integer
coordinate is exactly an `int` (`is_int`, `INTS`), so a subclass such as
`bool` is refused.  An index or a subset element outside its range is
refused by `check_range`, a size by `check_size`, each with one message
for every caller.  The exact numbers are `int` and, once `fractions` is
loaded, `Fraction` (`exact_types`).
"""
from __future__ import annotations

import functools
import itertools
import operator
import sys
from bisect import insort
from collections.abc import Iterable, Iterator, Sequence

Perm = tuple[int, ...]
Composition = tuple[int, ...]


def is_int(x) -> bool:
    """Whether x is exactly an int: a subclass of int, such as bool or an
    IntEnum, is never a size, an index, a coordinate or a bound."""
    return type(x) is int


# the one integer type, for a type test of many values at once or of one
# value in a loop; type() rather than isinstance(), since True == 1 passes
# isinstance(x, int)
INTS = frozenset({int})
_exact = INTS  # the types `exact_types` admits; it adds Fraction once


def exact_types() -> frozenset[type]:
    """The types of the library's exact numbers: `int`, and `Fraction` once
    `fractions` is loaded.  No Fraction exists before something imports
    that module, so no type test loads it.  A point costs one call and one
    subset test, of ints or of Fractions alike; the set is built once."""
    global _exact
    if _exact is INTS and (fractions := sys.modules.get("fractions")) is not None:
        _exact = frozenset({int, fractions.Fraction})
    return _exact


def check_range(x, lo: int, hi: int, what: str) -> None:
    """Refuse x, with one message naming it as ``what``, unless it is exactly
    an int in lo..hi: the rule for every index, word letter and subset element."""
    if type(x) is not int or not lo <= x <= hi:
        raise ValueError(f"{what} {x!r} out of range {lo}..{hi}")


def check_size(n, what: str) -> None:
    """Refuse n, with one message naming it as ``what``, unless it is exactly
    a non-negative int: the rule for every size and dimension."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {n!r}")


@functools.lru_cache(maxsize=None)
def _identity_list(n: int) -> list[int]:
    """[1, ..., n], built once per length; callers compare it and never
    mutate it."""
    return list(range(1, n + 1))


def check_permutation(w: Sequence[int]) -> Perm:
    """Return ``w`` as a tuple after checking it is a bijection on 1..n."""
    t = tuple(w)
    # one type test, before sorting, which raises TypeError on mixed types
    if not {*map(type, t)} <= INTS or sorted(t) != _identity_list(len(t)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t


def check_composition(alpha: Sequence[int]) -> Composition:
    """Return ``alpha`` as a tuple after checking all parts are >= 0."""
    t = tuple(alpha)
    if not {*map(type, t)} <= INTS or t and min(t) < 0:
        raise ValueError(f"composition parts must be non-negative integers: {t!r}")
    return t


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def inverse(w: Sequence[int]) -> Perm:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def length(w: Sequence[int]) -> int:
    """Coxeter length, i.e. the number of inversions."""
    w = check_permutation(w)
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def act(v: Sequence, w: Sequence[int]) -> tuple:
    """Right action of a permutation on a vector: entry k of the result is v[w_k].

    >>> act((3, 2, 2, 1, 1, 0, 0), (2, 6, 4, 1, 3, 7, 5))
    (2, 0, 1, 3, 2, 0, 1)
    """
    w = check_permutation(w)
    if len(v) != len(w):
        raise ValueError(f"vector length {len(v)} does not match permutation degree {len(w)}")
    return tuple(v[k - 1] for k in w)


def swap_adjacent(v: Sequence, i: int) -> tuple:
    """Exchange entries i and i+1 (1-based).  For a permutation this is w*s_i."""
    check_range(i, 1, len(v) - 1, "adjacent-swap index")
    out = list(v)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def swap_values(w: Sequence[int], i: int) -> Perm:
    """Exchange the values i and i+1 wherever they occur; for a permutation this is s_i*w."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


def bruhat_leq(u: Sequence[int], w: Sequence[int]) -> bool:
    """Strong Bruhat order test, by prefix dominance.

    u <= w iff for every i the increasingly sorted prefix u_1..u_i is
    entrywise <= the sorted prefix w_1..w_i.  This is equivalent to the
    subword criterion on reduced expressions but runs in polynomial time.

    >>> bruhat_leq((3, 1, 2), (3, 2, 1))
    True
    >>> bruhat_leq((3, 2, 1), (3, 1, 2))
    False
    """
    u, w = check_permutation(u), check_permutation(w)
    if len(u) != len(w):
        raise ValueError(f"permutation degrees differ: {len(u)} vs {len(w)}")
    return _bruhat_leq(u, w)


def _bruhat_leq(u: Sequence[int], w: Sequence[int]) -> bool:
    """The tableau test on two words of one length, one a rearrangement
    of the other, unchecked: each increasingly sorted prefix u_1..u_i is
    entrywise <= the sorted w_1..w_i.  `bruhat_leq` runs it on two
    permutations; `composition_leq` and `vertex_compositions` run it on
    two compositions, the larger one first.  Both sorted prefixes grow by
    one insertion per step; the full prefixes are equal, so the last is
    skipped.

    The prefixes are compared only after a step that inserts a > b.  A
    step with a <= b keeps entrywise order: if the sorted prefixes p <= q
    entrywise, then p + {a} <= p + {b} <= q + {b}, since inserting a
    smaller entry into one sorted list, or one entry into two entrywise
    ordered sorted lists, keeps them entrywise ordered."""
    pu: list[int] = []
    pw: list[int] = []
    for a, b in zip(u[:-1], w[:-1]):
        insort(pu, a)
        insort(pw, b)
        if a > b and any(map(operator.gt, pu, pw)):
            return False
    return True


def reduced_word(w: Sequence[int]) -> tuple[int, ...]:
    """One reduced word (i_1, ..., i_k) with w = s_{i_1} * ... * s_{i_k}.

    Built by repeatedly removing the leftmost descent; the word length
    equals length(w).
    """
    u = list(check_permutation(w))
    word = []
    while True:
        i = next((i for i in range(len(u) - 1) if u[i] > u[i + 1]), None)
        if i is None:
            break
        u[i], u[i + 1] = u[i + 1], u[i]
        word.append(i + 1)
    word.reverse()
    return tuple(word)


def perm_from_word(word: Iterable[int], n: int) -> Perm:
    """Evaluate the product s_{i_1} * ... * s_{i_k} in S_n."""
    check_size(n, "permutation degree")
    u = list(range(1, n + 1))
    for i in word:
        check_range(i, 1, n - 1, "word letter")
        u[i - 1], u[i] = u[i], u[i - 1]
    return tuple(u)


def lambda_of(alpha: Sequence[int]) -> Composition:
    """The parts of ``alpha`` rearranged weakly decreasingly."""
    return tuple(sorted(check_composition(alpha), reverse=True))


def w_of(alpha: Sequence[int]) -> Perm:
    """The shortest permutation w with act(lambda_of(alpha), w) == alpha.

    Positions holding the largest part receive the labels 1, 2, ... in
    left-to-right order, then the positions of the next largest part, and
    so on; equal parts therefore get consecutive labels.  A stable sort of
    the positions by decreasing part hands them out.

    >>> w_of((2, 0, 1, 3, 2, 0, 1))
    (2, 6, 4, 1, 3, 7, 5)
    """
    alpha = check_composition(alpha)
    w = [0] * len(alpha)
    for label, pos in enumerate(sorted(range(len(alpha)), key=alpha.__getitem__, reverse=True), 1):
        w[pos] = label
    return tuple(w)


def composition_leq(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    """Composition order: beta <= alpha iff beta is a rearrangement of
    alpha and w_of(beta) <= w_of(alpha) in Bruhat order.

    Decided on the compositions themselves by the tableau criterion for
    Bruhat order on the quotient S_n/S_lambda (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, ch. 2): beta <= alpha exactly when
    beta is a rearrangement of alpha and each increasingly sorted prefix
    alpha_1..alpha_i is entrywise <= the sorted beta_1..beta_i.  w_of gives
    larger parts smaller labels, which is why the arguments swap.

    Compositions compare only at equal length; pad with trailing zeros
    before calling if needed.

    >>> composition_leq((3, 1, 0), (1, 0, 3))
    True
    """
    b, a = tuple(beta), tuple(alpha)
    # one type test over both, then one sort each: the first sorted entry
    # is the smallest part, and the sorted lists decide the multiset test
    if {*map(type, b), *map(type, a)} <= INTS:
        sb, sa = sorted(b), sorted(a)
        if (not sb or sb[0] >= 0) and (not sa or sa[0] >= 0):
            if len(b) != len(a):
                raise ValueError(f"composition lengths differ: {len(b)} vs {len(a)}")
            return sb == sa and _bruhat_leq(a, b)
    # some part is bad: check_composition raises its message, beta first
    check_composition(b)
    check_composition(a)
    raise AssertionError(f"a bad part in {b!r} or {a!r} passed check_composition")


def _rearrangements(parts: Composition) -> Iterator[Composition]:
    """The distinct rearrangements of ``parts`` in increasing lexicographic
    order, one at a time, by the classic next-permutation step."""
    p = sorted(parts)
    last = len(p) - 1
    while True:
        yield tuple(p)
        i = last - 1
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]


def vertex_compositions(alpha: Sequence[int]) -> list[Composition]:
    """All compositions beta <= alpha, as a lexicographically sorted list.

    The distinct rearrangements beta of alpha, generated lazily in
    increasing lexicographic order and kept when each sorted prefix of
    alpha is entrywise <= that of beta: the tableau criterion of
    `composition_leq` (Bjorner-Brenti, ch. 2).  Memory is O(output), not
    O(n!).

    >>> vertex_compositions((1, 0, 3))
    [(1, 0, 3), (1, 3, 0), (3, 0, 1), (3, 1, 0)]
    """
    alpha = check_composition(alpha)
    return [beta for beta in _rearrangements(alpha) if _bruhat_leq(alpha, beta)]


def parse_perm(text: str) -> Perm:
    """Parse one-line notation: "2641375" for n <= 9, comma-separated
    otherwise; an empty or blank string is the permutation of n = 0."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        pieces = text.split(",")
    elif text.isdigit():
        pieces = list(text)
    else:
        raise ValueError(f"bad permutation {text!r}: use a digit string or comma-separated integers")
    try:
        entries = [int(p) for p in pieces]
    except ValueError:
        raise ValueError(f"bad permutation {text!r}: entries must be integers") from None
    return check_permutation(entries)


def parse_composition(text: str) -> Composition:
    """Parse a comma-separated composition, e.g. "1,0,3"."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"bad composition {text!r}: parts must be integers") from None
    return check_composition(parts)
