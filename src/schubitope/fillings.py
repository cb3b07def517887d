"""Greedy column fillings and the Schubert-matroid rank they compute.

A filling of a column is a dict mapping row index to the value placed in
that row.  Fillings produced here are always column-strict (distinct
values) and flagged (the value in row i never exceeds i).

A column is its row bitmask, bit i-1 set iff row i holds a box, as the
diagram keeps it (`Diagram.column_masks`).  Each public function checks
its inputs once, on entry, and then runs the unchecked kernel `_fill` per
column mask, so a sweep over many orders or subsets of one diagram builds
no column twice.  The reference ranks that the greedy rank is checked
against, by basis enumeration and by exhaustive search, are
`oracles.rank_brute` and `oracles.rank_max_filling`.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .diagrams import Box, Diagram, check_subset
from .perms import check_permutation


def fill_column(rows: Iterable[int], values: Sequence[int]) -> dict[int, int]:
    """Greedy filling of one column.

    Values are processed left to right; each value lands in the topmost
    empty box whose row index is >= the value, and is skipped when no such
    box remains.

    >>> fill_column({2, 3, 4, 6}, (3, 1, 5, 6, 2, 4))
    {3: 3, 2: 1, 6: 5, 4: 2}
    """
    col = _column_mask(rows)
    _check_values(values)
    return _fill(col, values)


def _column_mask(rows: Iterable[int]) -> int:
    """The column's row bitmask; a repeated row counts once.  The rows are
    type-checked first, so True is no row 1."""
    rows = [*rows]
    if not {*map(type, rows)} <= {int} or rows and min(rows) < 1:
        bad = next(r for r in rows if type(r) is not int or r < 1)
        raise ValueError(f"column rows must be positive integers, got {bad!r}")
    return sum(1 << (r - 1) for r in {*rows})


def _check_values(values: Sequence[int]) -> None:
    # type() rather than isinstance(), so True is no row or value; one type
    # test per call, since fillings run once per column per order or subset
    if not {*map(type, values)} <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"filling values must be positive integers, got {bad!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"filling values must be distinct: {tuple(values)!r}")
    if values and min(values) < 1:
        raise ValueError(f"filling values must be positive integers, got {next(v for v in values if v < 1)}")


def _fill(col: int, values: Sequence[int]) -> dict[int, int]:
    """`fill_column` on a row bitmask and distinct positive values, unchecked:
    value v takes the lowest set bit at or above bit v-1, which is cleared."""
    filled: dict[int, int] = {}
    for v in values:
        free = col >> (v - 1)
        if free:
            low = free & -free
            filled[v - 1 + low.bit_length()] = v
            col ^= low << (v - 1)
    return filled


def _check_order(d: Diagram, w: Sequence[int]) -> tuple[int, ...]:
    w = check_permutation(w)
    if len(w) != d.n:
        raise ValueError(f"permutation degree {len(w)} does not match grid size {d.n}")
    return w


def fill_diagram(d: Diagram, w: Sequence[int]) -> dict[Box, int]:
    """Apply the greedy filling to every column independently, with the entries of w."""
    w = _check_order(d, w)
    out: dict[Box, int] = {}
    for j, col in enumerate(d.column_masks, 1):  # rows checked by Diagram, values by _check_order
        for r, v in _fill(col, w).items():
            out[(r, j)] = v
    return out


def vertex_vector(d: Diagram, w: Sequence[int]) -> tuple[int, ...]:
    """Count of each value 1..n in the greedy filling; the coordinates sum to the box count.

    >>> vertex_vector(Diagram(3, {(1, 1), (3, 1), (3, 2), (3, 3)}), (2, 1, 3))
    (1, 3, 0)
    """
    w = _check_order(d, w)
    counts = [0] * d.n
    for col in d.column_masks:
        for v in _fill(col, w).values():
            counts[v - 1] += 1
    return tuple(counts)


def rank_filling(rows: Iterable[int], subset: Iterable[int]) -> int:
    """Rank of a subset in the column's Schubert matroid, via the greedy filling.

    The filling size does not depend on the order in which the subset is
    processed (the `fill-order-independence` check sweeps every order at
    small n), so one increasing pass suffices.
    """
    s = tuple(subset)
    _check_values(s)  # before sorting, which raises TypeError on mixed types
    return len(fill_column(rows, sorted(s)))


def rank_columns(d: Diagram, subset: Iterable[int]) -> list[int]:
    """Per-column ranks of a subset of [n], the rank analogue of
    `polytope.theta_columns`; the subset is checked by the same rule."""
    s = sorted(check_subset(subset, d.n))  # the Diagram checked its columns
    return [len(_fill(col, s)) for col in d.column_masks]


def rank_diagram(d: Diagram, subset: Iterable[int]) -> int:
    """Sum of the column ranks over all columns of the diagram."""
    return sum(rank_columns(d, subset))


def _check_column_filling(filling: Mapping[int, int]) -> None:
    vals = list(filling.values())
    if len(set(vals)) != len(vals):
        raise ValueError(f"filling is not column-strict: {dict(filling)!r}")
    for r, v in filling.items():
        if not 1 <= v <= r:
            raise ValueError(f"value {v} in row {r} violates the flag condition")


def sort_filling(filling: Mapping[int, int]) -> dict[int, int]:
    """Rearrange the entries increasingly from top to bottom over the same boxes.

    The input must be column-strict and flagged; the output is again
    flagged (sorting can only move small values up).

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
    filling of the given column.  Each entry a_t, taken in increasing
    order, moves to the topmost currently empty box strictly above it with
    row index >= a_t, if one exists.  The result is again increasing.

    >>> standardize({1, 3, 4, 5, 7, 8}, {3: 1, 4: 2, 7: 3, 8: 6})
    {1: 1, 3: 2, 4: 3, 7: 6}
    """
    rows = sorted(rows)
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
