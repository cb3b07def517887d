"""Exact rational linear algebra on integer rows: phase-1 simplex, hull vertices.

Answers are never approximate.  All elimination goes through one kernel,
`eliminate`, shared with the tight-row rank test of `oracles`.  The simplex
scales its system once by the common denominator of its entries; its
pivots are positive, so each tableau row is a positive multiple of the exact
rational row, and signs, ratio tests (by cross-multiplication) and Bland's
choices match the `Fraction` tableau of `oracles.solve_nonnegative_by_fractions`.
Bland's rule makes it terminate; sizes here are tiny, so dense rows are fine.
`hull_vertices`, the simplex's one user, runs it only on the points that
two exact certificates leave open: a unique lexicographic extreme is a
vertex, and the midpoint of two other points is not.  A set of at most two
distinct points needs neither: each of its points is a vertex.
`oracles.hull_vertices_by_lp` runs it on every point.  Points must be
tuples of `int` and `Fraction` of one dimension, and LP entries `int` or
`Fraction` (`perms.exact_types`: `perms` owns the library's integer rule);
the module imports `fractions` only to build the simplex's answer.
Points are checked in bulk, one set of lengths and one set of coordinate
types per call, and one by one only to name the first bad point.  The
certificates compare integer keys of the points, which are the coordinates
themselves when every coordinate is an int.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain

from .perms import INTS, exact_types


def eliminate(row: list[int], pivot_row: list[int], enter: int) -> list[int]:
    """Clear column ``enter`` of row: ``piv * row - f * pivot_row`` over its
    gcd.  That scales the row by the pivot, so its sign flips when piv < 0."""
    piv, f = pivot_row[enter], row[enter]
    out = [piv * a - f * b for a, b in zip(row, pivot_row)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Find x >= 0 with A x = b exactly, or return None when infeasible.

    Entries are integers or Fractions, the library's exact numbers
    (`exact_types`); any other type, a float (inexact) or a bool included,
    raises ValueError."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    system = [[*rows[i], rhs[i]] for i in range(m)]
    entries = {type(v) for r in system for v in r}
    if not entries <= exact_types():
        bad = next(v for r in system for v in r if type(v) not in exact_types())
        raise ValueError(f"LP entry {bad!r} is not an integer or a Fraction")
    scale = math.lcm(*{v.denominator for r in system for v in r})
    tab: list[list[int]] = []
    for i, r in enumerate(system):
        r = [(v * scale).numerator for v in r]
        if r[-1] < 0:
            r = [-v for v in r]
        tab.append(r[:-1] + [scale * (p == i) for p in range(m)] + r[-1:])
    basis = list(range(k, k + m))
    # reduced-cost row for minimizing the artificial sum, times scale;
    # last entry is -objective
    cost = [-sum(col) for col in zip(*tab)] if m else [0] * (k + 1)
    for j in range(k, k + m):
        cost[j] += scale

    while True:
        enter = next((j for j in range(k + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio tab[i][-1] / coef against the best one so far
                here, best = tab[i][-1] * tab[leave][enter], tab[leave][-1] * coef
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:  # the phase-1 objective is bounded below by 0, so this is a bug
            raise RuntimeError(f"phase-1 simplex found no leaving row for column {enter}")
        pivot_row = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter]:
                tab[i] = eliminate(tab[i], pivot_row, enter)
        if cost[enter]:
            cost = eliminate(cost, pivot_row, enter)
        basis[leave] = enter

    if cost[-1] != 0:  # leftover artificial value: no solution exists
        return None
    from fractions import Fraction  # loads with the first answer, not with the module

    x = [Fraction(0)] * k
    for i, bi in enumerate(basis):
        if bi < k:
            x[bi] = Fraction(tab[i][-1], tab[i][bi])
    return x


def _check_points(points: Sequence[tuple], dim: int) -> None:
    """Raise a one-line ValueError naming the first point whose dimension is
    not ``dim`` or that has a coordinate other than an int or a Fraction.
    One set of lengths and one set of coordinate types decide a good set;
    only a bad one is walked point by point, to name its first bad point."""
    if {*map(len, points)} <= {dim} and {*map(type, chain.from_iterable(points))} <= exact_types():
        return
    for p in points:
        if len(p) != dim:
            raise ValueError(f"point {p} has dimension {len(p)}, expected {dim}")
        if not {*map(type, p)} <= exact_types():
            bad = next(c for c in p if type(c) not in exact_types())
            raise ValueError(f"point {p} has coordinate {bad!r}, expected an integer or a Fraction")


def convex_combination(target: Sequence, points: Iterable[Sequence]) -> list[Fraction] | None:
    """Coefficients expressing target as a convex combination of points, or
    None.  Every point must have the target's dimension, and every
    coordinate must be an int or a Fraction."""
    target = tuple(target)
    points = [tuple(p) for p in points]
    _check_points([target, *points], len(target))
    if not points:
        return None
    rows = [[q[i] for q in points] for i in range(len(target))]
    rows.append([1] * len(points))
    return solve_nonnegative(rows, [*target, 1])


def _lexicographic_extremes(pts: list[tuple]) -> list[bool]:
    """Per point p, whether p is the unique lexicographic extreme of pts for
    some order and signs of the coordinates, which makes it a hull vertex.

    Starting from all points, each unused coordinate where p is the largest
    or the smallest of the points left keeps only those equal to p there.
    A coordinate where p is extreme stays so on every smaller set, so the
    points left at the end do not depend on the order the coordinates are
    taken in.  Sets of points are bitmasks over their indices in pts."""
    everyone = (1 << len(pts)) - 1
    tables = []  # per coordinate: value -> (points equal to it, above it, below it)
    for column in zip(*pts):
        equal: dict = {}
        for k, v in enumerate(column):
            equal[v] = equal.get(v, 0) | 1 << k
        table, below = {}, 0
        for v in sorted(equal):
            table[v] = (equal[v], everyone & ~below & ~equal[v], below)
            below |= equal[v]
        tables.append(table)
    out = []
    for k, p in enumerate(pts):
        rows = [table[v] for table, v in zip(tables, p)]
        alive, me = everyone, 1 << k
        while alive != me:
            rest = []
            for row in rows:
                if alive & row[1] and alive & row[2]:
                    rest.append(row)
                else:
                    alive &= row[0]
            if len(rest) == len(rows):
                break
            rows = rest
        out.append(alive == me)
    return out


def _keys(pts: list[tuple]) -> list[int]:
    """One int per point, linear in its coordinates, and distinct on the
    points and on every 2p - q: the coordinates times the lcm of their
    denominators (the coordinates themselves when all are ints), as digits
    in a balanced base 6M + 1, where M bounds them."""
    if {*map(type, chain.from_iterable(pts))} <= INTS:
        scaled = pts
    else:
        scale = math.lcm(*{c.denominator for p in pts for c in p})
        scaled = [[(c * scale).numerator for c in p] for p in pts]
    base = 6 * max(map(abs, chain.from_iterable(scaled)), default=0) + 1
    keys = []
    for p in scaled:
        key = 0
        for c in p:
            key = key * base + c
        keys.append(key)
    return keys


def hull_vertices(points, candidates=None) -> set[tuple]:
    """The exact vertex set of the convex hull of a finite point set.

    A point is kept iff it is not a convex combination of the remaining
    points.  Two exact certificates decide most points without the simplex:
    the unique lexicographic extreme of the set for some order and signs of
    the coordinates is a vertex, and a point p with 2p - q in the set for
    another point q is the midpoint of two others, so not a vertex.  They
    decide every point of the Schubert supports up to n = 5 and of the key
    supports up to n = 4.  Only the points neither decides go to the
    simplex, each tested against the points not known to be non-vertices;
    dropping those keeps the test exact, because no vertex is ever dropped.

    ``candidates`` may supply a set of points expected to contain every
    vertex.  Undecided points outside it that lie in the (much smaller)
    candidates' hull are dropped first.  That never changes the answer:
    such a point is a convex combination of other points.

    Every point and candidate must have the dimension of the first point,
    or with no points that of the first candidate.  A set of at most two
    distinct points is its own vertex set, returned once both the points
    and the candidates have passed their checks.
    """
    pts = [tuple(p) for p in points]
    _check_points(pts, len(pts[0]) if pts else 0)
    if candidates is not None:
        wanted = [tuple(p) for p in candidates]
        _check_points(wanted, len((pts or wanted or [()])[0]))
        wanted = set(wanted)
    distinct = set(pts)
    if len(distinct) <= 2:
        return distinct
    pts = sorted(distinct)
    keys = _keys(pts)
    present = set(keys)
    out, undecided = set(), []
    for p, key, extreme in zip(pts, keys, _lexicographic_extremes(pts)):
        if extreme:
            out.add(p)
        elif not any(2 * key - other in present for other in keys if other != key):
            undecided.append(p)
    if undecided and candidates is not None:
        inside = [p for p in pts if p in wanted]
        undecided = [p for p in undecided if p in wanted or convex_combination(p, inside) is None]
    pool = out | set(undecided)
    for p in undecided:
        pool.discard(p)
        if convex_combination(p, sorted(pool)) is None:
            out.add(p)
            pool.add(p)
    return out
