"""Greedy column fillings and the Schubert-matroid rank they compute.

A filling of a column is a dict mapping row index to the value placed in
that row.  Fillings produced here are always column-strict (distinct
values) and flagged (the value in row i never exceeds i).

Every column of a diagram is filled by the same values in the same order,
so the filling runs on all columns at once, on the diagram's packed
columns (`Diagram.packed_columns`: one slot of n + 1 bits per column, the
column's free rows in the low n bits and a guard bit n that is always
set).  One fill step, `_placements`, places a value in every column with a
few big-integer operations, and the callers read what it placed: its bit
count is the value's coordinate of `vertex_vector`, the counts over a
sorted subset sum to `rank_diagram`, each slot's count is a column's rank
(`rank_columns`), and the bits decode into boxes (`fill_diagram`).
`vertex_vectors` walks every order of [n] at once: the fill state after a
prefix does not depend on what follows it, so it keeps the state after
each prefix depth and refills only the suffix in which an order differs
from the one before it.
`fill_column` and `rank_filling` run the same step on one slot over the
ranks of the column's rows, so a huge row index costs no more than a
small one.  Each public function checks its inputs once, on entry.  The
per-column loop the fill step replaced is `oracles._fill`, its reference;
the reference ranks that the greedy rank is checked against, by basis
enumeration and by exhaustive search, are `oracles.rank_brute` and
`oracles.rank_max_filling`.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import permutations, repeat

from .diagrams import Box, Diagram, check_subset, column_slots, split_columns
from .perms import INTS, check_permutation, is_int


def fill_column(rows: Iterable[int], values: Sequence[int]) -> dict[int, int]:
    """Greedy filling of one column.

    Values are processed left to right; each value lands in the topmost
    empty box whose row index is >= the value, and is skipped when no such
    box remains.

    >>> fill_column({2, 3, 4, 6}, (3, 1, 5, 6, 2, 4))
    {3: 3, 2: 1, 6: 5, 4: 2}
    """
    rows = [0, *_column_rows(rows)]
    _check_values(values)
    # only the order between rows and values decides where a value lands,
    # so the column is one slot over the ranks of its rows, all free: bit
    # k-1 stands for rows[k], and value v starts from bisect_left(rows, v),
    # the rank of the first row at or after it
    m = len(rows) - 1
    placed = _placements((2 << m) - 1, 1, m, map(bisect_left, repeat(rows), values))
    return {rows[p.bit_length()]: v for v, p in zip(values, placed) if p}


def _column_rows(rows: Iterable[int]) -> list[int]:
    """The column's distinct rows, increasing; a repeated row counts once.
    The rows are type-checked first, so True is no row 1."""
    rows = [*rows]
    if not {*map(type, rows)} <= INTS or rows and min(rows) < 1:
        bad = next(r for r in rows if not is_int(r) or r < 1)
        raise ValueError(f"column rows must be positive integers, got {bad!r}")
    return sorted({*rows})


def _check_values(values: Sequence[int]) -> None:
    # type() rather than isinstance(), so True is no row or value; one type
    # test per call, since fillings run once per order or subset
    if not {*map(type, values)} <= INTS:
        bad = next(v for v in values if not is_int(v))
        raise ValueError(f"filling values must be positive integers, got {bad!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"filling values must be distinct: {tuple(values)!r}")
    if values and min(values) < 1:
        raise ValueError(f"filling values must be positive integers, got {next(v for v in values if v < 1)}")


def _placements(cols: int, low: int, n: int, values: Iterable[int]) -> list[int]:
    """The fill step for each value in turn, on every column at once,
    unchecked: the bits each value takes, at most one per slot.

    cols packs each column's free rows into the low n bits of a slot n + 1
    bits wide, whose bit n, the guard, is set; low has a one at bit 0 of
    each slot, and every value is in 1..n + 1 (n + 1 finds only guards).
    For value v, x = cols >> (v-1) starts each slot with that column's free
    rows v..n, then its guard; the bits above the guard come from the next
    slot.  The guard keeps every slot of x nonzero, so x - low borrows only
    inside each slot, and x & ~(x - low) is each slot's lowest set bit: the
    topmost free box with row index >= v, or the guard where none is left.
    Shifted back and without the guards, those are the boxes v takes; they
    are no longer free.  `vertex_vectors` writes the same step inline, the
    one other place it is written: it runs on short suffixes, where a call
    and a list per order cost about as much as the step itself."""
    rows = low * ((1 << n) - 1)
    placed = []
    for v in values:
        v -= 1
        x = cols >> v
        p = (x & ~(x - low)) << v & rows
        cols ^= p
        placed.append(p)
    return placed


def _check_order(d: Diagram, w: Sequence[int]) -> tuple[int, ...]:
    w = check_permutation(w)
    if len(w) != d.n:
        raise ValueError(f"permutation degree {len(w)} does not match grid size {d.n}")
    return w


def fill_diagram(d: Diagram, w: Sequence[int]) -> dict[Box, int]:
    """Apply the greedy filling to every column independently, with the entries of w.
    The boxes come in fill order, value by value along w."""
    w = _check_order(d, w)
    width, low = column_slots(d.n)
    out: dict[Box, int] = {}
    for v, p in zip(w, _placements(d.packed_columns, low, d.n, w)):
        while p:
            k = p.bit_length() - 1  # from the top, so p shrinks as its bits go
            c, r = divmod(k, width)
            out[(r + 1, c + 1)] = v
            p ^= 1 << k
    return out


def vertex_vector(d: Diagram, w: Sequence[int]) -> tuple[int, ...]:
    """Count of each value 1..n in the greedy filling; the coordinates sum to the box count.

    >>> vertex_vector(Diagram(3, {(1, 1), (3, 1), (3, 2), (3, 3)}), (2, 1, 3))
    (1, 3, 0)
    """
    w = _check_order(d, w)
    counts = [0] * d.n
    for v, p in zip(w, _placements(d.packed_columns, column_slots(d.n)[1], d.n, w)):
        counts[v - 1] = p.bit_count()
    return tuple(counts)


def vertex_vectors(d: Diagram) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(w, vertex_vector(d, w)) for every order w of [n], lazily, in
    `itertools.permutations(range(1, n + 1))` order.

    states[k] is the packed fill state after the first k values of the
    current order; each order reruns the fill step only from the first
    position where it differs from the previous order: about e = 2.718...
    steps per order on average instead of n.  The walk holds O(n) integers.

    >>> [x for _, x in vertex_vectors(Diagram(2, {(2, 1)}))]
    [(1, 0), (0, 1)]
    """
    n = d.n
    low = column_slots(n)[1]
    rows = low * ((1 << n) - 1)
    states = [d.packed_columns] * (n + 1)
    counts = [0] * n
    prev = (0,) * n
    for w in permutations(range(1, n + 1)):
        i = 0
        while i < n and w[i] == prev[i]:
            i += 1
        cols = states[i]
        for k in range(i, n):
            v = w[k] - 1
            x = cols >> v
            p = (x & ~(x - low)) << v & rows
            cols ^= p
            counts[v] = p.bit_count()
            states[k + 1] = cols
        prev = w
        yield w, tuple(counts)


def rank_filling(rows: Iterable[int], subset: Iterable[int]) -> int:
    """Rank of a subset in the column's Schubert matroid, via the greedy filling.

    The filling size does not depend on the order in which the subset is
    processed (the `fill-order-independence` check sweeps every order at
    small n), so one increasing pass suffices.
    """
    s = tuple(subset)
    _check_values(s)  # before sorting, which raises TypeError on mixed types
    return len(fill_column(rows, sorted(s)))


def _subset_placements(d: Diagram, subset: Iterable[int]) -> list[int]:
    """The fill step's placements for a subset of [n], checked by the rule
    theta uses, in increasing order (the Diagram checked its columns)."""
    return _placements(d.packed_columns, column_slots(d.n)[1], d.n, sorted(check_subset(subset, d.n)))


def rank_columns(d: Diagram, subset: Iterable[int]) -> list[int]:
    """Per-column ranks of a subset of [n], the rank analogue of
    `polytope.theta_columns`: each slot's count of the placed bits."""
    placed = sum(_subset_placements(d, subset))  # disjoint bits
    return [c.bit_count() for c in split_columns(placed, d.n)]


def rank_diagram(d: Diagram, subset: Iterable[int]) -> int:
    """Sum of the column ranks over all columns of the diagram."""
    return sum(map(int.bit_count, _subset_placements(d, subset)))


def _check_column_filling(filling: Mapping[int, int]) -> None:
    for r, v in filling.items():
        if not (is_int(r) and is_int(v)):  # before hashing a value, so True is no row 1
            raise ValueError(f"filling rows and values must be integers, got {v!r} in row {r!r}")
    if len(set(filling.values())) != len(filling):
        raise ValueError(f"filling is not column-strict: {dict(filling)!r}")
    for r, v in filling.items():
        if not 1 <= v <= r:
            raise ValueError(f"value {v} in row {r} violates the flag condition")


def sort_filling(filling: Mapping[int, int]) -> dict[int, int]:
    """Rearrange the entries increasingly from top to bottom over the same boxes.

    The input must be column-strict and flagged, its rows and values
    exactly `int`; the output is again flagged (sorting can only move
    small values up).

    >>> sort_filling({3: 3, 4: 1, 7: 6, 8: 2})
    {3: 1, 4: 2, 7: 3, 8: 6}
    """
    _check_column_filling(filling)
    out = dict(zip(sorted(filling), sorted(filling.values())))
    assert all(v <= r for r, v in out.items())  # sorting preserves the flag condition
    return out


def standardize(rows: Iterable[int], filling: Mapping[int, int]) -> dict[int, int]:
    """Move entries as high as the flag condition allows, smallest entry first.

    The input must be an increasing (top to bottom) column-strict flagged
    filling of the given column, its rows and values exactly `int`.  Each
    entry a_t, taken in increasing order, moves to the topmost currently
    empty box strictly above it with row index >= a_t, if one exists.  The
    result is again increasing.

    >>> standardize({1, 3, 4, 5, 7, 8}, {3: 1, 4: 2, 7: 3, 8: 6})
    {1: 1, 3: 2, 4: 3, 7: 6}
    """
    rows = _column_rows(rows)
    boxset = set(rows)
    for r in filling:
        if r not in boxset:
            raise ValueError(f"filled row {r} is not a box of the column {tuple(rows)}")
    _check_column_filling(filling)
    by_row = sorted(filling.items())
    if [v for _, v in by_row] != sorted(filling.values()):
        raise ValueError(f"entries must increase from top to bottom: {dict(filling)!r}")
    current = dict(filling)
    for v in sorted(filling.values()):
        at = next(r for r, x in current.items() if x == v)
        target = next((r for r in rows if v <= r < at and r not in current), None)
        if target is not None:
            del current[at]
            current[target] = v
    result = dict(sorted(current.items()))
    assert [v for _, v in sorted(result.items())] == sorted(result.values())
    return result
