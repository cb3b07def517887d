"""Exact rational linear algebra: feasibility by phase-1 simplex, square solves.

Everything runs on `fractions.Fraction`, so answers are never approximate.
Bland's rule makes the simplex terminate on every input.  Problem sizes
here are tiny (tens of columns, up to ~7 rows), so dense tableaus are fine.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Find x >= 0 with A x = b exactly, or return None when infeasible."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    tab: list[list[Fraction]] = []
    for i in range(m):
        r = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-v for v in r]
            b = -b
        tab.append(r + [Fraction(int(p == i)) for p in range(m)] + [b])
    basis = list(range(k, k + m))
    # reduced-cost row for minimizing the artificial sum; last entry is -objective
    cost = [Fraction(0)] * (k + m + 1)
    for row in tab:
        for j in range(k + m + 1):
            cost[j] -= row[j]
    for j in range(k, k + m):
        cost[j] += 1

    while True:
        enter = next((j for j in range(k + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:  # the phase-1 objective is bounded below by 0, so this is a bug
            raise RuntimeError(f"phase-1 simplex found no leaving row for column {enter}")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for row in (*(tab[i] for i in range(m) if i != leave), cost):
            factor = row[enter]
            if factor:
                pivot_row = tab[leave]
                for j in range(k + m + 1):
                    row[j] -= factor * pivot_row[j]
        basis[leave] = enter

    if cost[-1] != 0:  # leftover artificial value: no solution exists
        return None
    x = [Fraction(0)] * k
    for i, bi in enumerate(basis):
        if bi < k:
            x[bi] = tab[i][-1]
    return x


def convex_combination(target: Sequence, points: Sequence[Sequence]) -> list[Fraction] | None:
    """Coefficients expressing target as a convex combination of points, or None."""
    if not points:
        return None
    dim = len(target)
    rows = [[Fraction(q[i]) for q in points] for i in range(dim)]
    rows.append([Fraction(1)] * len(points))
    rhs = [Fraction(x) for x in target] + [Fraction(1)]
    return solve_nonnegative(rows, rhs)


def hull_vertices(points, candidates=None) -> set[tuple]:
    """The exact vertex set of the convex hull of a finite point set.

    A point is kept iff it is not a convex combination of the remaining
    points.  ``candidates`` may supply a set of points expected to contain
    every vertex; points outside it are first tested against the (much
    smaller) candidate set, which only ever skips work, never changes the
    answer.
    """
    pts = sorted({tuple(p) for p in points})
    cand = {tuple(p) for p in candidates} & set(pts) if candidates is not None else None
    out = set()
    for i, p in enumerate(pts):
        if cand is not None and p not in cand:
            if convex_combination(p, sorted(cand - {p})) is not None:
                continue
        others = pts[:i] + pts[i + 1:]
        if convex_combination(p, others) is None:
            out.add(p)
    return out


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Solve a square system exactly; None when singular or inconsistent."""
    n = len(rows)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][-1] for i in range(n)]
