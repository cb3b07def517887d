"""The benchmark's own greedy-filling helper: expected answers without the library.

Everything here is written from the definitions, independently of
``schubitope``, so that a change to the library cannot change what the
benchmark expects.  Boxes are (row, column) pairs, 1-indexed; subsets of
[n] are bitmasks with bit i-1 standing for i.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def rothe_boxes(w):
    """Boxes (i, j) with j < w_i and w^-1(j) > i."""
    n = len(w)
    pos = {v: i for i, v in enumerate(w, 1)}
    return sorted((i, j) for i in range(1, n + 1) for j in range(1, w[i - 1]) if pos[j] > i)


def skyline_boxes(alpha):
    """The first alpha_i boxes of row i."""
    return sorted((i, j) for i, a in enumerate(alpha, 1) for j in range(1, a + 1))


def columns(n, boxes):
    """Sorted row lists, one per column."""
    cols = [[] for _ in range(n)]
    for r, c in boxes:
        cols[c - 1].append(r)
    return [sorted(col) for col in cols]


def fill_column(rows, values):
    """Greedy filling of one column: each value, in the given order, takes the
    topmost empty row whose index is at least the value, or is skipped."""
    filled = {}
    for v in values:
        for r in rows:
            if r >= v and r not in filled:
                filled[r] = v
                break
    return filled


def greedy_vertex(n, boxes, w):
    """How often each value 1..n appears when every column is filled by w."""
    counts = [0] * n
    for rows in columns(n, boxes):
        for v in fill_column(rows, w).values():
            counts[v - 1] += 1
    return tuple(counts)


def theta_table(n, boxes):
    """table[mask] = sum over columns of the greedy filling size of the subset.

    The size of a greedy filling does not depend on the order the values
    are taken in.  Taking them in decreasing order, value v is placed
    exactly when more rows >= v exist than values already placed, which
    needs only the per-column count of rows >= v.
    """
    suffix = []
    for rows in columns(n, boxes):
        ge = [0] * (n + 2)
        for v in range(n, 0, -1):
            ge[v] = ge[v + 1] + (v in rows)
        suffix.append(ge)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        values = [v for v in range(n, 0, -1) if mask >> (v - 1) & 1]
        total = 0
        for ge in suffix:
            placed = 0
            for v in values:
                if ge[v] > placed:
                    placed += 1
            total += placed
        table[mask] = total
    return table


def vertex_set(n, boxes):
    """All greedy vectors of the bound table, one per order of [n] (Edmonds' rule)."""
    table = theta_table(n, boxes)
    out = set()
    for w in itertools.permutations(range(1, n + 1)):
        x = [0] * n
        mask = prev = 0
        for k in w:
            mask |= 1 << (k - 1)
            x[k - 1] = table[mask] - prev
            prev = table[mask]
        out.add(tuple(x))
    return out


def hrep_document(n, boxes):
    """The halfspace description in the library's JSON layout."""
    table = theta_table(n, boxes)
    bounds = [
        {"S": [i for i in range(1, n + 1) if mask >> (i - 1) & 1], "b": table[mask]}
        for mask in range(1, max((1 << n) - 1, 1))
    ]
    return {"n": n, "total": len(boxes), "bounds": bounds}


def membership_points(n, boxes, w):
    """(tight vertex, interior point, outside point) for the order w.

    The vertex is the greedy filling vector of w, so it is tight on every
    prefix of w.  The interior point is its midpoint with the vertex of the
    reversed order.  The outside point moves one unit from w_n to w_1; it
    keeps the coordinate sum but exceeds the tight bound on {w_1}.
    """
    x = greedy_vertex(n, boxes, w)
    y = greedy_vertex(n, boxes, tuple(reversed(w)))
    mid = tuple(Fraction(a + b, 2) for a, b in zip(x, y))
    out = list(x)
    out[w[0] - 1] += 1
    out[w[-1] - 1] -= 1
    return x, mid, tuple(out)
