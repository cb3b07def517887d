"""Exact rational linear algebra on integer rows: phase-1 simplex, hull vertices.

Answers are never approximate.  All elimination goes through one kernel,
`eliminate`, shared with the echelon forms of `polytope`.  The simplex
scales its system once by the common denominator of its entries; its
pivots are positive, so each tableau row is a positive multiple of the exact
rational row, and signs, ratio tests (by cross-multiplication) and Bland's
choices match the `Fraction` tableau of `oracles.solve_nonnegative_by_fractions`.
Bland's rule makes it terminate; sizes here are tiny, so dense rows are fine.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def eliminate(row: list[int], pivot_row: list[int], enter: int) -> list[int]:
    """Clear column ``enter`` of row: ``piv * row - f * pivot_row`` over its
    gcd.  That scales the row by the pivot, so its sign flips when piv < 0."""
    piv, f = pivot_row[enter], row[enter]
    out = [piv * a - f * b for a, b in zip(row, pivot_row)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Find x >= 0 with A x = b exactly, or return None when infeasible."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    system = [[*rows[i], rhs[i]] for i in range(m)]
    scale = math.lcm(*(Fraction(v).denominator for r in system for v in r if not isinstance(v, int)))
    tab: list[list[int]] = []
    for i, r in enumerate(system):
        r = [v * scale if isinstance(v, int) else int(Fraction(v) * scale) for v in r]
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
    x = [Fraction(0)] * k
    for i, bi in enumerate(basis):
        if bi < k:
            x[bi] = Fraction(tab[i][-1], tab[i][bi])
    return x


def convex_combination(target: Sequence, points: Sequence[Sequence]) -> list[Fraction] | None:
    """Coefficients expressing target as a convex combination of points, or None."""
    if not points:
        return None
    rows = [[q[i] for q in points] for i in range(len(target))]
    rows.append([1] * len(points))
    return solve_nonnegative(rows, [*target, 1])


def hull_vertices(points, candidates=None) -> set[tuple]:
    """The exact vertex set of the convex hull of a finite point set.

    A point is kept iff it is not a convex combination of the remaining
    points.  ``candidates`` may supply a set of points expected to contain
    every vertex.  Points outside it that lie in the (much smaller)
    candidates' hull are dropped first, and the rest are tested only
    against each other.  That never changes the answer: substituting each
    dropped point's combination of candidates turns a combination of all
    other points into one of the kept others.
    """
    pts = sorted({tuple(p) for p in points})
    if candidates is not None:
        cand = {tuple(p) for p in candidates} & set(pts)
        inside = sorted(cand)
        pts = [p for p in pts if p in cand or convex_combination(p, inside) is None]
    out = set()
    for i, p in enumerate(pts):
        if convex_combination(p, pts[:i] + pts[i + 1:]) is None:
            out.add(p)
    return out

