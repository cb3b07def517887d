"""Greedy column fillings and the Schubert-matroid rank functions they compute.

A filling of a column is a dict mapping row index to the value placed in
that row.  Fillings produced here are always column-strict (distinct
values) and flagged (the value in row i never exceeds i).

The same rank is computed three independent ways: by the greedy filling
(`rank_filling`), by enumerating matroid bases (`rank_brute`), and by
exhaustive search over flagged fillings (`rank_max_filling`).  The brute
variants exist as oracles; they agree with the greedy one on every input
small enough to enumerate.

Each public function checks its inputs once, on entry, and then runs the
unchecked kernel `_fill` per column.  The diagram functions read each
column's sorted rows from `Diagram.column_rows`, which the diagram
computes once, so a sweep over many orders or subsets of one diagram
sorts no column twice.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .diagrams import Box, Diagram, check_subset
from .perms import check_permutation

# cap for the oracle enumerations: C(n, k) bases stay small at desk scale
ENUMERATION_CAP = 12


def fill_column(rows: Iterable[int], values: Sequence[int]) -> dict[int, int]:
    """Greedy filling of one column.

    Values are processed left to right; each value lands in the topmost
    empty box whose row index is >= the value, and is skipped when no such
    box remains.

    >>> fill_column({2, 3, 4, 6}, (3, 1, 5, 6, 2, 4))
    {3: 3, 2: 1, 6: 5, 4: 2}
    """
    order = _sorted_rows(rows)
    _check_values(values)
    return _fill(order, values)


def _sorted_rows(rows: Iterable[int]) -> list[int]:
    """The column rows in increasing order, type-checked before sorting,
    which raises TypeError on mixed types."""
    order = [*rows]
    if not {*map(type, order)} <= {int} or order and min(order) < 1:
        bad = next(r for r in order if type(r) is not int or r < 1)
        raise ValueError(f"column rows must be positive integers, got {bad!r}")
    order.sort()
    return order


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


def _fill(order: Sequence[int], values: Sequence[int]) -> dict[int, int]:
    """`fill_column` on increasing rows and distinct positive values, unchecked."""
    filled: dict[int, int] = {}
    for v in values:
        for r in order:
            if r >= v and r not in filled:
                filled[r] = v
                break
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
    for j, rows in enumerate(d.column_rows, 1):  # rows checked by Diagram, values by _check_order
        for r, v in _fill(rows, w).items():
            out[(r, j)] = v
    return out


def vertex_vector(d: Diagram, w: Sequence[int]) -> tuple[int, ...]:
    """Count of each value 1..n in the greedy filling; the coordinates sum to the box count.

    >>> vertex_vector(Diagram(3, {(1, 1), (3, 1), (3, 2), (3, 3)}), (2, 1, 3))
    (1, 3, 0)
    """
    w = _check_order(d, w)
    counts = [0] * d.n
    for rows in d.column_rows:
        for v in _fill(rows, w).values():
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


def _check_enumeration_size(rows: Sequence[int]) -> None:
    if len(rows) > ENUMERATION_CAP or (rows and rows[-1] > ENUMERATION_CAP):
        raise ValueError(
            f"column {tuple(rows)} too large for oracle enumeration (cap {ENUMERATION_CAP})"
        )


def rank_brute(rows: Iterable[int], subset: Iterable[int]) -> int:
    """Oracle rank: max |subset ∩ B| over all bases B of the column's Schubert matroid.

    A basis is any set of the same size whose sorted entries are dominated
    entrywise by the sorted column rows (Gale order).
    """
    values = tuple(subset)
    _check_values(values)  # the checks and messages of `rank_filling`
    rows = _sorted_rows(rows)
    _check_enumeration_size(rows)
    if not rows:
        return 0
    want = set(values)
    best = 0
    for basis in itertools.combinations(range(1, rows[-1] + 1), len(rows)):
        if all(a <= b for a, b in zip(basis, rows)):
            best = max(best, len(want.intersection(basis)))
    return best


def rank_max_filling(rows: Iterable[int], subset: Iterable[int]) -> int:
    """Oracle rank: the largest column-strict flagged filling drawing values from the subset.

    Exhaustive backtracking over all partial assignments; independent of
    both the greedy algorithm and the basis enumeration.
    """
    values = tuple(subset)
    _check_values(values)  # the checks and messages of `rank_filling`
    values = sorted(values)
    rows = _sorted_rows(rows)
    _check_enumeration_size(rows)
    best = 0

    def search(vi: int, occupied: frozenset[int], count: int) -> None:
        nonlocal best
        if vi == len(values):
            best = max(best, count)
            return
        search(vi + 1, occupied, count)
        v = values[vi]
        for r in rows:
            if r >= v and r not in occupied:
                search(vi + 1, occupied | {r}, count + 1)

    search(0, frozenset(), 0)
    return best


def rank_columns(d: Diagram, subset: Iterable[int]) -> list[int]:
    """Per-column ranks of a subset of [n], the rank analogue of
    `polytope.theta_columns`; the subset is checked by the same rule."""
    s = sorted(check_subset(subset, d.n))  # the Diagram checked its columns
    return [len(_fill(rows, s)) for rows in d.column_rows]


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
