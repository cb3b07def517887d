"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately naive:

- subword enumeration for the Bruhat order;
- breadth-first swap closure for the composition order;
- chain recursions re-run with different choices;
- one column and one value at a time for the packed fill step (`_fill`);
- one column and one row at a time for the packed theta scans, which keep
  the Hall deficiency (`_column_theta`, the one column-word rule on bitmasks);
- one greedy filling per permutation for the vertex set;
- one `edmonds_vertex` run per permutation for the prefix-mask enumeration
  of greedy vectors, and for the missing vertices certification names;
- one `Fraction` sum per subset for the integer subset-sum walk;
- every pair of masks for the local submodularity test;
- the rank of a claimed point's tight rows (`tight_rank`) for the vertex
  lookup of certification;
- a phase-1 simplex on `Fraction` entries for the integer-tableau one;
- one simplex per point for the certified hull;
- every k-subset compared in the Gale order for a column's Schubert
  matroid bases, and for the greedy filling's rank in that matroid, the
  largest intersection with a basis (`rank_brute`) and an exhaustive
  search over flagged fillings (`rank_max_filling`).

Slow, obvious, and independent of the code they vouch for.  The n! sweeps
share one cap of their own, and the enumerations keep another.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from . import fillings, polyoracle
from .diagrams import Diagram, check_subset
from .fillings import _check_values, _column_rows
from .lp import convex_combination, eliminate
from .perms import (
    Composition,
    Perm,
    check_composition,
    check_size,
    identity,
    length,
    lambda_of,
    perm_from_word,
    reduced_word,
    swap_adjacent,
)
from .polytope import HRep, _walk, edmonds_vertex

SWEEP_CAP = 8    # the n! sweeps below; independent of the fast enumerator's cap
# cap for the basis and filling enumerations: C(n, k) bases stay small at desk scale
ENUMERATION_CAP = 12


def bruhat_lower_interval(w: Sequence[int]) -> set[Perm]:
    """{u : u <= w}, via the subword property on one fixed reduced word of w.

    A subexpression whose product has length equal to its letter count is a
    reduced expression of that product.
    """
    word = reduced_word(w)
    n = len(w)
    found: set[Perm] = set()
    for k in range(len(word) + 1):
        for picks in itertools.combinations(range(len(word)), k):
            u = perm_from_word([word[p] for p in picks], n)
            if length(u) == k:
                found.add(u)
    return found


def swap_reachable_set(alpha: Sequence[int]) -> set[Composition]:
    """Compositions reachable by repeatedly swapping a larger later part earlier.

    One move exchanges positions i < j when the part at i is strictly
    smaller than the part at j.
    """
    start = check_composition(alpha)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                if cur[i] < cur[j]:
                    nxt = list(cur)
                    nxt[i], nxt[j] = nxt[j], nxt[i]
                    t = tuple(nxt)
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
    return seen


def descent_violations(alpha: Sequence[int]) -> list[int]:
    """Positions r with alpha_r < alpha_{r+1} (1-based)."""
    return [r for r in range(1, len(alpha)) if alpha[r - 1] < alpha[r]]


def vertex_compositions_recursive(alpha: Sequence[int], pick: Callable = min) -> set[Composition]:
    """Lower interval of a composition by the swap recursion.

    Sorting one violated adjacent pair at position r reduces the problem:
    the interval of alpha is the interval of the sorted neighbour together
    with its image under the swap at r.  ``pick`` chooses which violation
    to recurse on; the result does not depend on the choice.
    """
    alpha = check_composition(alpha)
    rs = descent_violations(alpha)
    if not rs:
        return {alpha}
    r = pick(rs)
    below = vertex_compositions_recursive(swap_adjacent(alpha, r), pick)
    return below | {swap_adjacent(v, r) for v in below}


def w_of_recursive(alpha: Sequence[int]) -> tuple[Perm, tuple[int, ...]]:
    """Sorting permutation of a composition built swap by swap.

    Returns the permutation together with the accumulated swap positions,
    which form a reduced word for it.
    """
    alpha = check_composition(alpha)
    rs = descent_violations(alpha)
    if not rs:
        return identity(len(alpha)), ()
    r = rs[0]
    w, word = w_of_recursive(swap_adjacent(alpha, r))
    return swap_adjacent(w, r), word + (r,)


def shortest_sorting_perms(alpha: Sequence[int]) -> list[Perm]:
    """All minimum-length permutations sending lambda_of(alpha) to alpha, by full search."""
    from .perms import act

    alpha = check_composition(alpha)
    lam = lambda_of(alpha)
    hits = [
        sigma
        for sigma in itertools.permutations(range(1, len(alpha) + 1))
        if act(lam, sigma) == alpha
    ]
    best = min(length(s) for s in hits)
    return [s for s in hits if length(s) == best]


def vertices_by_filling(d: Diagram) -> set[tuple[int, ...]]:
    """Vertex set as the distinct greedy-filling count vectors over all of
    S_n, one filling per permutation; never reads a bound table."""
    if d.n > SWEEP_CAP:
        raise ValueError(f"full S_{d.n} sweep exceeds the enumeration budget (n <= {SWEEP_CAP})")
    return {fillings.vertex_vector(d, w) for w in itertools.permutations(range(1, d.n + 1))}


def schubert_matroid_bases(subset: Iterable[int], n: int) -> set[frozenset[int]]:
    """All subsets of [n] dominated by the given one in the Gale order.

    T <= S means |T| = |S| and, after sorting both increasingly, each entry
    of T is <= the matching entry of S.

    >>> sorted(sorted(b) for b in schubert_matroid_bases({1, 3}, 3))
    [[1, 2], [1, 3]]
    """
    check_size(n, "ground set size")
    s = sorted(check_subset(subset, n))
    if n > ENUMERATION_CAP:
        raise ValueError(f"basis enumeration capped at n <= {ENUMERATION_CAP}")
    return {
        frozenset(t)
        for t in itertools.combinations(range(1, n + 1), len(s))
        if all(a <= b for a, b in zip(t, s))
    }


def _check_enumeration_size(rows: Iterable[int]) -> list[int]:
    """The distinct column rows, increasing, checked as `fillings.fill_column`
    checks them and refused past `ENUMERATION_CAP`."""
    rows = _column_rows(rows)
    if rows and rows[-1] > ENUMERATION_CAP:
        raise ValueError(f"column {tuple(rows)} too large for oracle enumeration (cap {ENUMERATION_CAP})")
    return rows


def _fill(col: int, values: Sequence[int]) -> dict[int, int]:
    """`fillings.fill_column` on a row bitmask and distinct positive values,
    one column and one value at a time: value v takes the lowest set bit
    at or above bit v-1, which is cleared.  The reference for the packed
    fill step (`fillings._placements`)."""
    filled: dict[int, int] = {}
    for v in values:
        free = col >> (v - 1)
        if free:
            low = free & -free
            filled[v - 1 + low.bit_length()] = v
            col ^= low << (v - 1)
    return filled


def _column_theta(col: int, mask: int) -> int:
    """Stars plus inside-out matched '()' pairs of the column word, read
    straight from the column's row bitmask and the subset bitmask, one row
    at a time.  Rows below the column's last box can only add an unmatched
    '('.  The reference for the packed scans behind `polytope.theta` (all
    columns, one subset) and `polytope.hrep` (one column, every subset),
    which both keep the Hall deficiency instead of the word's depth."""
    depth = count = 0
    bit = 1
    while bit <= col:
        if mask & bit:
            if col & bit:
                count += 1           # star
            else:
                depth += 1           # '('
        elif col & bit and depth:    # ')' closing an open '('
            depth -= 1
            count += 1
        bit <<= 1
    return count


def rank_brute(rows: Iterable[int], subset: Iterable[int]) -> int:
    """Rank by the bases: max |subset ∩ B| over all bases B of the column's
    Schubert matroid (`schubert_matroid_bases`)."""
    values = tuple(subset)
    _check_values(values)  # the checks and messages of `fillings.rank_filling`
    rows = _check_enumeration_size(rows)
    want = set(values)
    return max(len(want & b) for b in schubert_matroid_bases(rows, max(rows, default=0)))


def rank_max_filling(rows: Iterable[int], subset: Iterable[int]) -> int:
    """Rank as the largest column-strict flagged filling drawing values from the subset.

    Exhaustive backtracking over all partial assignments; independent of
    both the greedy algorithm and the basis enumeration.
    """
    values = tuple(subset)
    _check_values(values)  # the checks and messages of `fillings.rank_filling`
    values = sorted(values)
    rows = _check_enumeration_size(rows)
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


def greedy_vectors_by_sweep(table: Sequence[int], n: int) -> set[tuple]:
    """The greedy vectors of a bound table (indexed by subset bitmask), one
    `edmonds_vertex` run per permutation of S_n."""
    if n > SWEEP_CAP:
        raise ValueError(f"full S_{n} sweep exceeds the enumeration budget (n <= {SWEEP_CAP})")
    return {edmonds_vertex(table, w) for w in itertools.permutations(range(1, n + 1))}


def walk_by_fractions(h: HRep, point: Sequence) -> tuple[str | None, list[int]]:
    """The subset-sum walk of `polytope._walk`, naively: each subset's sum is
    added afresh in `Fraction`s, masks in increasing order.  Returns the
    first violated constraint (None inside) and the tight masks before it."""
    if len(point) != h.n:
        raise ValueError(f"point has dimension {len(point)}, expected {h.n}")
    x = [Fraction(c) for c in point]
    total = sum(x, Fraction(0))
    if total != h.total:
        return f"coordinate sum {total} != {h.total}", []
    tight = []
    for mask in range(1, 2 ** h.n - 1):
        subset = [i for i in range(1, h.n + 1) if mask >> (i - 1) & 1]
        got = sum((x[i - 1] for i in subset), Fraction(0))
        if got > h.table[mask]:
            return f"sum over {subset} is {got} > {h.table[mask]}", tight
        if got == h.table[mask]:
            tight.append(mask)
    return None, tight


def is_submodular_by_pairs(table: Sequence[int], n: int) -> bool:
    """Submodularity by its definition: f(A) + f(B) >= f(A | B) + f(A & B)
    for every pair of masks A, B of [n]."""
    size = 2 ** n
    return all(table[a] + table[b] >= table[a | b] + table[a & b] for a in range(size) for b in range(size))


def _rank(n: int, masks: Iterable[int]) -> int:
    """Rank of the all-ones row plus the bound rows of the given masks, by
    exact integer elimination into rows kept with their pivot columns."""
    echelon: list = []
    for mask in itertools.chain([2 ** n - 1], masks):  # the full mask's row is all ones
        if len(echelon) == n:
            break
        row = [(mask >> i) & 1 for i in range(n)]
        for p, e in echelon:
            if row[p]:
                row = eliminate(row, e, p)
        p = next((i for i in range(n) if row[i]), None)
        if p is not None:
            echelon.append((p, row))
    return len(echelon)


def tight_rank(h: HRep, point: Sequence) -> int:
    """Rank of the rows tight at a point of the polytope: the all-ones row
    plus each bound row met with equality.  The point is a vertex exactly
    when this is n."""
    bad, tight = _walk(h, point)
    if bad is not None:
        raise ValueError(f"point {tuple(point)} is outside the polytope: {bad}")
    return _rank(h.n, tight)


def schubert_by_last_ascent(w: Sequence[int]) -> polyoracle.Polynomial:
    """Schubert recursion along the last ascent instead of the first, unmemoized."""
    w = tuple(w)
    n = len(w)
    ascents = [i for i in range(1, n) if w[i - 1] < w[i]]
    if not ascents:
        return polyoracle.monomial(n, tuple(n - k for k in range(1, n + 1)))
    i = ascents[-1]
    return polyoracle.divided_difference(schubert_by_last_ascent(swap_adjacent(w, i)), i)


def key_by_last_ascent(alpha: Sequence[int]) -> polyoracle.Polynomial:
    """Key recursion along the last ascent instead of the first, unmemoized."""
    alpha = tuple(alpha)
    n = len(alpha)
    ascents = [i for i in range(1, n) if alpha[i - 1] < alpha[i]]
    if not ascents:
        return polyoracle.monomial(n, alpha)
    i = ascents[-1]
    return polyoracle.demazure(key_by_last_ascent(swap_adjacent(alpha, i)), i)


def solve_nonnegative_by_fractions(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Find x >= 0 with A x = b exactly, or return None when infeasible: the
    phase-1 simplex with Bland's rule on a `Fraction` tableau, pivot by pivot
    the one `lp.solve_nonnegative` runs on integer rows."""
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


def hull_vertices_by_lp(points) -> set[tuple]:
    """The exact vertex set of the convex hull of a finite point set, one
    phase-1 simplex per distinct point: a point is kept iff it is not a
    convex combination of the remaining points."""
    pts = sorted({tuple(p) for p in points})
    return {p for i, p in enumerate(pts) if convex_combination(p, pts[:i] + pts[i + 1:]) is None}
