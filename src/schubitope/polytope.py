"""The Schubitope of a diagram: halfspace description, vertices, certification.

The polytope of a diagram D in the n x n grid lives in the hyperplane
sum(x) = #D and is cut out by one inequality sum_{i in S} x_i <= theta(D, S)
per proper nonempty subset S, read off column by column from a parenthesis
word into one table indexed by subset bitmask (bit i-1 set iff i in S).
A column's part of it is a rank in the column's Schubert matroid: |S|
minus the Hall deficiency of S against the column's box rows, which one
read of the rows top to bottom computes.  Both packed scans run that
rule; only `column_word` and its reference `oracles._column_theta` read
the parenthesis word.
For one subset, `theta` and `theta_columns` scan the rows once on every
column at once, each column's deficiency packed in its slot of the
diagram's packed columns (`Diagram.packed_columns`, n + 1 bits per
column), so theta is one remainder of the packed ranks.  For the whole
table, each column enters as its row bitmask, which the diagram computes
once (`Diagram.column_masks`).
`hrep` builds that table in packed integers.  Each distinct column's
deficiency is one integer with a slot per subset, built by reading the
column's rows once, each row doubling the packed deficiencies with a few
big-integer operations (`_deficits`); |S| and the slot ones are shared by
every column (`_ladder`).  The table is |S| times the number of nonempty
columns, minus each distinct column's deficiency, subtracted once and
multiplied only for a column that repeats.  Every bound is at most the
box count, so the slots are 8 bits wide below 256 boxes, and the result
is widened once, through its bytes, to the 16-bit slots the `HRep` keeps
(`HRep._from_packed`); the `table` tuple is built from those slots only
when something first reads it.  `hrep` keeps the last diagram's `HRep`.
Membership and a point's tight rows come from its subset sums, all 2^n of
them in one packed integer built by the same doubling, one coordinate at
a time, and compared with the 16-bit packed table in a few big-integer
operations (`_slack`); the point's denominators are cleared once, each
coordinate read once as a ratio of integers, so the sums stay integers,
and the slots are as wide as the bounds and coordinates need.  `member`
refuses a coordinate outside the range the bounds allow before it builds
any slot, so a huge coordinate does not widen them.
theta is submodular, so the vertices are Edmonds' greedy vectors of the
table.  A greedy vector depends only on its chain of prefix masks, so an
enumeration over the masks in increasing popcount, each holding the
partial vectors its prefix orders reach, lists them without the n! orders
(`_reach`).  From n = 6 on it stops at the middle layer and meets a second
one, run from the full set down on the dual table: every order passes
through one prefix S of n // 2 elements, and its greedy vector is that of
the restriction to S beside that of the contraction by S, read off the
dual.  Each mask's free elements come from a table cached per n, one
entry per layer (`_moves`).  A partial vector is one int with a slot of
whole bytes per coordinate, the fewest whose top bit exceeds the table's
span, holding its increment unsigned, coordinate i in slot i, read
little-endian as every packed integer here is; the vertices decode in
one pass over their joined bytes, single-byte slots as those bytes and
wider ones slot by slot (`_decoded`).  A monotone table, as every theta
table is, has no negative increment; any other table is first lifted by
span times |S|, which makes every increment non-negative and adds the
span to every coordinate, taken off again at the decode.  Each extension
of a set of partial vectors by one element is one plain int addition per
vector, the passes' inner loop: most sets hold one or two vectors, so
any per-move setup would cost more than the additions.  A one-entry memo
keyed by the `HRep` lets `vertices` and `certify_vertices` share one
enumeration.  `certify_vertices` checks a claim's lengths and types in
bulk, and point by point only to name the first bad point; it refuses a
table that is not submodular, proves a claimed point a vertex by finding
it among them, and walks each other point once, only to name the bound
it violates, if any; no step of it runs the simplex.  It names each
missing vertex by the first order reaching it, found in one forward pass
(`_first_order`).
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from .diagrams import Diagram, Value, check_subset, column_slots, read_document, split_columns
from .perms import INTS, check_permutation, check_range, check_size, exact_types, is_int

STAR = "★"

HREP_CAP = 18        # 2^n - 2 stored inequalities
SWEEP_CAP = 10       # greedy-vector enumeration by prefix mask, behind `vertices` and `certify_vertices`

_SLOT = 16           # bits per mask in `HRep.packed` (bounds at most n^2 <= 324), the narrowest in `_slack`


def _subset_mask(s: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in s)


def _mask_subset(mask: int, n: int) -> list[int]:
    """The elements of a bitmask, increasing."""
    return [i for i in range(1, n + 1) if (mask >> (i - 1)) & 1]


def column_word(d: Diagram, j: int, subset: Iterable[int]) -> str:
    """Parenthesis word of column j: scan rows top to bottom and record
    '(' for an empty cell in a subset row, ')' for a box outside the
    subset rows, and a star for a box in a subset row.

    >>> d9 = Diagram(5, {(1,1),(2,4),(2,5),(3,2),(3,4),(4,1),(5,1),(5,3),(5,4)})
    >>> column_word(d9, 1, {1, 3})
    '★())'
    """
    check_range(j, 1, d.n, "column")
    s = check_subset(subset, d.n)
    col = d.column_masks[j - 1]
    out = []
    for i in range(1, d.n + 1):
        inside = col >> (i - 1) & 1
        if not inside and i in s:
            out.append("(")
        elif inside and i not in s:
            out.append(")")
        elif inside and i in s:
            out.append(STAR)
    return "".join(out)


@functools.cache
def _ladder(n: int, w: int) -> tuple[tuple[int, ...], int]:
    """The tables every column's kernel shares, w bits per slot, mask 0 in
    the lowest: ones[i], for i < n, has a one in each of the 2^i slots of
    the masks of rows 1..i, and biased holds |S| + 2^(w-1) - 1 in slot S of
    every mask of [n].  There are at most two widths per n <= HREP_CAP."""
    ones = [1]
    pop = 0
    for i in range(n):
        shift = w << i
        pop |= (pop + ones[i]) << shift
        ones.append(ones[i] | ones[i] << shift)
    return tuple(ones[:n]), pop + ((1 << (w - 1)) - 1) * ones[n]


def _deficits(col: int, ones: Sequence[int], w: int) -> int:
    """The column's Hall deficiency q(S), biased by 2^(w-1) - 1, for every
    mask S of [n], packed w bits per mask, mask 0 in the lowest slot; n is
    len(ones) (`_ladder`).

    A value v of S may sit in any box row r >= v of the column C, and these
    neighbourhoods are nested, so by Hall's theorem the column's theta, the
    rank of S in its Schubert matroid, is |S| - q(S) with
    q(S) = max(0, max_t |S & [t, n]| - |C & [t, n]|).  Read top to bottom,
    q <- max(0, q + [row in S] - [row in C]) ends at q(S).  Over rows
    1..i, q is kept packed for every subset of those rows; each row doubles
    the masks, and the subsets holding the new row are the upper half,
    which keeps mask order.  A box row takes q - [q > 0] outside S and keeps
    q inside it; an empty row keeps q outside S and takes q + 1 inside it.
    The bias puts q > 0 in a slot's top bit.  q stays at most n, so no slot
    borrows from or carries into the next."""
    top = w - 1
    q = (1 << top) - 1
    for i, one in enumerate(ones):
        if col >> i & 1:
            q = (q - (q >> top & one)) | q << (w << i)
        else:
            q |= (q + one) << (w << i)
    return q


def _unpack(packed: int, n: int) -> tuple[int, ...]:
    """The 2^n 16-bit slots of a packed table, mask 0 first, read
    little-endian by `struct`, which loads on the first table of 256 boxes
    or more, not with the module."""
    import struct

    return struct.unpack(f"<{2 ** n}H", packed.to_bytes(2 << n, "little"))


def _pack(table: Sequence[int], w: int) -> int:
    """Sum of table[mask] << (w * mask), the inverse of `_unpack` at w = _SLOT.
    Only the last entry, the total, may be negative: it has the highest
    slot, so no other slot borrows from it."""
    *low, total = table
    return int.from_bytes(b"".join(b.to_bytes(w // 8, "little") for b in low), "little") + (total << w * len(low))


def _theta_counts(d: Diagram, subset: Iterable[int]) -> int:
    """Every column's theta for one subset, packed in the slots of the
    diagram's packed columns (`Diagram.packed_columns`), by one scan of the
    rows top to bottom on all columns at once.

    Each slot keeps only the column's Hall deficiency q(S), by the rule
    `_deficits` runs for every subset of one column, and the column's theta
    is |S| - q(S).  A subset row adds one to q where it is empty; any other
    row's box takes one from q where q is positive.  q is kept biased by
    2^n - 1, so bit n of a slot is set exactly when q is positive.  q stays
    at most n, so no slot carries into the next."""
    n = d.n
    s = check_subset(subset, n)
    _, low = column_slots(n)
    cols = d.packed_columns
    q = bias = low * ((1 << n) - 1)
    for i in range(n):
        box = cols >> i & low
        if i + 1 in s:
            q += low ^ box
        else:
            q -= box & q >> n
    return len(s) * low + bias - q


def theta_columns(d: Diagram, subset: Iterable[int]) -> list[int]:
    """Per-column bound contributions."""
    return split_columns(_theta_counts(d, subset), d.n)


def theta(d: Diagram, subset: Iterable[int]) -> int:
    """Upper bound for sum_{i in subset} x_i over the diagram's polytope: the
    sum of the packed column counts, which is their remainder mod
    2^(n+1) - 1, since 2^(n+1) is 1 mod it and theta is at most n^2, below it."""
    return _theta_counts(d, subset) % ((2 << d.n) - 1)


class HRep(Value):
    """Equality sum(x) == total plus sum_{i in S} x_i <= table[mask] for every
    proper nonempty subset S of [n], where bit i-1 of mask is set iff i is
    in S.  table[0] = 0 and table[-1] = total, so the table is the whole
    set function.  Bounds are stored exactly as given.

    These values are derived on first read and kept in the instance dict:
    the table packed 16 bits per subset (`packed`), its largest bound
    (`max_bound`) and whether it is monotone (`monotone`); and for an
    `HRep` made by `hrep`, which keeps only its packed table (see
    `_from_packed`), the `table` itself.  They are not compared fields, so
    equality, hashing and repr see only n, the total and the table, read
    when first needed; a pickle copies the instance dict as it stands."""

    _fields = ("n", "total", "table")

    def __init__(self, n: int, total: int, table: Sequence[int]):
        check_size(n, "dimension")
        if not is_int(total):
            raise ValueError(f"total must be an integer, got {total!r}")
        table = tuple(table)
        ends = table[:1] + table[-1:]
        if len(table) != 2 ** n or ends != (0, total) or not all(map(is_int, ends)):
            raise ValueError(f"table must have 2^{n} entries running from 0 to the total {total}")
        if not ({*map(type, table)} <= INTS and min(table) >= 0):  # else find the first bad bound
            for mask in range(1, len(table) - 1):
                b = table[mask]
                if not is_int(b) or b < 0:
                    raise ValueError(
                        f"bound for {_mask_subset(mask, n)} must be a non-negative integer, got {b!r}"
                    )
        self.__dict__.update(n=n, total=total, table=table)

    @classmethod
    def _from_packed(cls, n: int, total: int, packed: int) -> HRep:
        """The HRep of a monotone table of non-negative bounds, as `hrep`
        builds it, packed _SLOT bits per subset and kept as `packed`.  It is
        monotone, so its largest bound is the total.  `table` is read from
        `packed` when it is first read."""
        h = cls.__new__(cls)
        h.__dict__.update(n=n, total=total, packed=packed, max_bound=total, monotone=True)
        return h

    @functools.cached_property
    def table(self) -> tuple[int, ...]:
        """The bounds of an `HRep` made by `hrep`, read off `packed`: below
        256 from the low byte of each slot, else by `_unpack`.  Any other
        `HRep` holds its table from the start."""
        if self.max_bound < 256:
            return tuple(self.packed.to_bytes(2 << self.n, "little")[::2])
        return _unpack(self.packed, self.n)

    @functools.cached_property
    def packed(self) -> int:
        """The table packed _SLOT bits per subset, mask 0 lowest (every bound
        must be below 2^_SLOT)."""
        return _pack(self.table, _SLOT)

    @functools.cached_property
    def max_bound(self) -> int:
        """The largest bound of the table."""
        return max(self.table)

    @functools.cached_property
    def monotone(self) -> bool:
        """Whether no bound falls as its subset grows: table[S] <= table[S + k]
        for every mask S and element k outside it (`_vertex_set` then
        enumerates the table with no lift)."""
        t = self.table
        return all(t[m] <= t[m | 1 << k] for k in range(self.n) for m in range(len(t)) if not m >> k & 1)


@functools.lru_cache(maxsize=1)
def hrep(d: Diagram) -> HRep:
    """The full halfspace description of the diagram's polytope, memoized for
    the last diagram only: `vertices(d)` followed by
    `certify_vertices(hrep(d), ...)` builds the table once."""
    n = d.n
    if n > HREP_CAP:
        raise ValueError(f"halfspace description needs 2^{n}-2 rows; cap is n <= {HREP_CAP}")
    w = 8 if d.size < 256 else _SLOT     # every bound is at most the box count
    cols = Counter(d.column_masks)
    ones, biased = _ladder(n, w)
    packed = (n - cols.pop(0, 0)) * biased
    for col, k in cols.items():
        q = _deficits(col, ones, w)
        packed -= q if k == 1 else k * q
    if w < _SLOT:
        wide = bytearray(2 << n)
        wide[::2] = packed.to_bytes(1 << n, "little")
        packed = int.from_bytes(wide, "little")
    return HRep._from_packed(n, d.size, packed)


def _check_point(h: HRep, point: Sequence) -> None:
    """Refuse a point of the wrong dimension or with a coordinate that is
    neither `int` nor `Fraction` (`exact_types`)."""
    if len(point) != h.n:
        raise ValueError(f"point has dimension {len(point)}, expected {h.n}")
    if not {*map(type, point)} <= exact_types():
        k, x = next((k, x) for k, x in enumerate(point, 1) if type(x) not in exact_types())
        raise ValueError(f"point coordinate {k} is {x!r}, expected an integer or a Fraction")


def _scaled(h: HRep, point: Sequence) -> tuple[list[int], int]:
    """The point's coordinates times the lcm L of their denominators, and L,
    each coordinate read once (`as_integer_ratio`).  Coordinates must be
    `int` or `Fraction`."""
    _check_point(h, point)
    ratios = [x.as_integer_ratio() for x in point]
    scale = math.lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


def _slack(h: HRep, xs: Sequence[int], scale: int) -> tuple[int, int, int]:
    """Every subset's slack at a point of the hyperplane, in one packed
    integer: (slack, ones, w), where slot mask of slack, w bits wide, holds
    2^(w-1) + scale * table[mask] - sum_{i in mask} xs_i, and ones has a one
    in each slot.

    w is the smallest 16 * 2^j with scale * max(table) + sum |xs_i| below
    2^(w-2), so every slot lies strictly between 2^(w-2) and 3 * 2^(w-2):
    a slot's top bit is clear exactly when its bound is violated, and no
    step below borrows from or carries into the next slot.  The biased
    subset sums double mask by mask as `_deficits` doubles a column's
    deficiencies row by row: the masks holding element k+1 are the upper
    half, each its lower twin minus xs_k."""
    w = _SLOT
    span = scale * h.max_bound + sum(map(abs, xs))
    while span >> (w - 2):
        w <<= 1
    sums, ones = 1 << (w - 1), 1
    for k, x in enumerate(xs):
        shift = w << k
        sums |= (sums - x * ones) << shift
        ones |= ones << shift
    return sums + scale * (h.packed if w == _SLOT else _pack(h.table, w)), ones, w


def _unscaled(x: int, scale: int):
    """x / scale as a Fraction, as the witnesses print a sum; `fractions`
    loads on the first witness, not with the module."""
    from fractions import Fraction

    return Fraction(x, scale)


def _walk(h: HRep, point: Sequence) -> tuple[str | None, list[int]]:
    """The first violated constraint in increasing mask order (None when the
    point is inside) and the masks of the bound rows met with equality
    before it, read off the packed slack (`_slack`) with a few big-integer
    operations: a slot is violated where its top bit is clear and tight
    where it holds the bias exactly.

    The point is scaled once by the lcm L of its denominators (`_scaled`),
    so the sums are integers compared with L * table; witnesses print the
    unscaled sums."""
    xs, scale = _scaled(h, point)
    total = sum(xs)
    if total != scale * h.total:
        return f"coordinate sum {_unscaled(total, scale)} != {h.total}", []
    slack, ones, w = _slack(h, xs, scale)
    tops = ones << (w - 1)
    bad = tops & ~slack
    tight = (slack ^ (slack - ones)) & tops  # only a slot holding the bias crosses it
    witness = None
    if bad:
        low = bad & -bad
        mask = low.bit_length() // w - 1
        tight &= low - 1
        got = sum(x for k, x in enumerate(xs) if mask >> k & 1)
        witness = f"sum over {_mask_subset(mask, h.n)} is {_unscaled(got, scale)} > {h.table[mask]}"
    step = w // 8  # bytes per slot; a tight slot's top byte is nonzero
    flags = tight.to_bytes(step << h.n, "little")[2 * step - 1::step]  # masks 1, 2, ...
    return witness, list(itertools.compress(range(1, 2 ** h.n - 1), flags))


def member(h: HRep, point: Sequence) -> bool:
    """Exact membership test; accepts integer or rational coordinates.  It
    reads only the top bits of the packed slack (`_slack`).

    A point off the hyperplane, or with a coordinate outside
    [total - max_bound, max_bound], is refused before any slot is built:
    for n >= 2 a member has x_i <= table[{i}] <= max_bound and
    x_i = total - x(N - i) >= total - max_bound, and for n = 1 the sum
    forces x_1 = total, which lies in that range.  So a coordinate with a
    huge numerator does not widen the 2^n slots; a huge denominator still
    does, since the slots hold the point scaled by it."""
    xs, scale = _scaled(h, point)
    if sum(xs) != scale * h.total:
        return False
    top = scale * h.max_bound
    if xs and (max(xs) > top or min(xs) < scale * h.total - top):
        return False
    slack, ones, w = _slack(h, xs, scale)
    tops = ones << (w - 1)
    return slack & tops == tops


def edmonds_vertex(table: Sequence[int], w: Sequence[int]) -> tuple:
    """Greedy vertex of the base polytope of a set function, along the order w.
    The function is a table indexed by subset bitmask, as `HRep.table` is.

    Coordinate w_k receives table[{w_1..w_k}] - table[{w_1..w_{k-1}}].  The
    caller guarantees table[0] = 0 and submodularity when vertex semantics
    are claimed."""
    w = check_permutation(w)
    if len(table) != 2 ** len(w):
        raise ValueError(f"table has {len(table)} entries, expected 2^{len(w)}")
    x: list = [0] * len(w)
    mask = 0
    prev = table[0]
    for k in w:
        mask |= 1 << (k - 1)
        cur = table[mask]
        x[k - 1] = cur - prev
        prev = cur
    return tuple(x)


@functools.cache
def _moves(n: int) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
    """The masks of [n] by layer: entry j lists the masks of j elements,
    increasing, each with the pairs (mask | 1 << k, k) of its free
    elements k + 1, k increasing; k is also the slot of coordinate k + 1 in
    a packed vector.  At n = 10 this is 1,024 masks and 5,120 pairs."""
    return tuple(tuple((mask, tuple((mask | 1 << k, k) for k in range(n) if not mask >> k & 1))
                       for mask in range(2 ** n) if mask.bit_count() == j) for j in range(n + 1))


def _decoded(vectors: Iterable[int], n: int, k: int, lift: int) -> Iterator[tuple[int, ...]]:
    """The coordinates of packed vectors as tuples of n, each vector n
    little-endian slots of k bytes, slot i holding coordinate i plus lift
    as an unsigned integer.

    The vectors are joined into one bytes object.  Single-byte slots are
    its bytes, as iterating bytes yields their values; wider slots are read
    one at a time, and a nonzero lift is taken from every coordinate, both
    by generators, so no list holds every coordinate."""
    data = b"".join([v.to_bytes(k * n, "little") for v in vectors])
    flat = data if k == 1 else (int.from_bytes(data[i:i + k], "little") for i in range(0, len(data), k))
    if lift:
        flat = (c - lift for c in flat)
    return zip(*[iter(flat)] * n)


def _reach(table: Sequence[int], n: int, depth: int, bits: int) -> list:
    """For each mask of `depth` elements, the set of partial vectors its
    prefix orders reach on a monotone table, as packed ints of `bits`-bit
    slots, each slot written holding its increment; other entries are None.

    The masks are expanded layer by layer (`_moves`); every mask minus one
    bit lies in the layer before, so a mask's set is complete before it is
    expanded, and it is dropped then.  Expanding mask to mask | 1 << k adds
    the same shifted constant to every vector of the set.  That add is the
    inner loop, one per pair of a vector and a free move, and it is a plain
    `c + add` into the target set: most sets hold one or two vectors, so
    any per-move setup, such as a bound `add.__add__` mapped over the set,
    costs more than the additions, and a plain add of two ints runs as the
    interpreter's specialized int addition, with no call per vector."""
    reach: list = [None] * 2 ** n
    reach[0] = {0}
    for layer in _moves(n)[:depth]:
        for mask, free in layer:
            cur, reach[mask] = reach[mask], None
            base = table[mask]
            for nxt, slot in free:
                add = (table[nxt] - base) << bits * slot
                got = reach[nxt]
                if got is None:
                    got = reach[nxt] = set()
                for c in cur:
                    got.add(c + add)
    return reach


def _greedy_vectors(table: Sequence[int], n: int, monotone: bool = False) -> frozenset[tuple[int, ...]]:
    """Every greedy vector of the integer table over the full symmetric
    group, without running the n! orders; `monotone` says that no
    increment table[S + k] - table[S] is negative, so the table needs no
    lift.

    A greedy vector depends only on the chain of prefix masks, so the
    vectors are enumerated by prefix mask (`_reach`).  Below n = 6 one pass
    runs from the empty set to the full set N.  From n = 6 on it stops at
    the middle layer h = n // 2 and meets a pass run from the other end.
    Every order passes through exactly one prefix S with |S| = h.  Its
    first h coordinates are the greedy vector of the restriction f|S along
    its first h elements, and the others that of the contraction f/S,
    T -> f(S + T) - f(S), along the rest; and each order of S followed by
    one of N - S is an order of N.  So the greedy vectors are the sums
    a + b, over the sets S with |S| = h, of a greedy vector a of f|S and a
    greedy vector b of f/S.  Every coordinate on either side is a
    difference of f on two nested prefixes of one order, and no step
    compares two values of f, so this holds for any table, submodular or
    not.  The contraction's greedy vector along an order of N - S is the
    greedy vector of the dual table g(C) = f(N) - f(N - C) along the
    reverse order, since g(C + k) - g(C) = f(N - C) - f(N - C - k); so the
    pass on g up to layer n - h reaches at N - S exactly the vectors b.  A
    vector reached through several middle sets is kept once.  Below n = 6
    the dual, its pass and the join cost more than the shorter passes save
    (measured on theta tables at n = 4 and 5).

    Every increment of f lies in [-span, span], where
    span = max(table) - min(table).  A table not known to be monotone is
    lifted to f(S) + span * |S|, whose greedy vectors are those of f with
    span added to every coordinate: every increment of the lifted table,
    and so of its dual, lies in [0, 2 * span].  A partial vector is one int
    with a slot of k whole bytes per coordinate, the fewest with
    span < 2^(8k - 1), so a slot holds any such increment unsigned.  Each
    coordinate is written once, by one pass or the other, into a slot that
    reads 0, so no slot carries into the next, the join is plain addition,
    and the final vectors decode in one pass over their joined bytes, the
    lift taken off again (`_decoded`), straight into the frozenset.  With
    one order or none there is one greedy vector, read off directly.  The
    cost follows the number of distinct partial vectors up to the middle
    layer, from both ends, plus one addition per pair joined there."""
    if n <= 1:
        return frozenset({(table[1] - table[0],) if n else ()})
    span = max(table) - min(table)
    k = span.bit_length() // 8 + 1   # the fewest bytes with span < 2^(8k - 1)
    bits = 8 * k
    lift = 0 if monotone else span
    if lift:
        table = [x + lift * mask.bit_count() for mask, x in enumerate(table)]
    if n < 6:
        vectors = _reach(table, n, n, bits)[-1]
    else:
        h = n // 2
        up = _reach(table, n, h, bits)
        down = _reach([table[-1] - x for x in reversed(table)], n, n - h, bits)
        full = 2 ** n - 1
        vectors = {a + b for mask, _ in _moves(n)[h] for a in up[mask] for b in down[full ^ mask]}
    return frozenset(_decoded(vectors, n, k, lift))


@functools.lru_cache(maxsize=1)
def _vertex_set(h: HRep) -> frozenset[tuple[int, ...]]:
    """`_greedy_vectors` of the table, memoized for the last table only:
    `vertices(d)` followed by `certify_vertices(hrep(d), ...)` enumerates
    it once, and no more than one vertex set is kept alive."""
    return _greedy_vectors(h.table, h.n, h.monotone)


def _first_order(table: Sequence[int], v: Sequence[int], n: int) -> tuple[int, ...] | None:
    """The lexicographically first order whose greedy vector is v, or None,
    for a submodular table: certification names a missing vertex by it.

    Along an order the greedy coordinates telescope, so the order reaches v
    exactly when each element k it adds to a prefix mask S is a tight step:
    v_k == table[S + k] - table[S].  One forward pass takes the smallest
    tight step at each prefix and gives up at the first prefix with none.
    That is exact because the table is submodular: the sets tight at a
    vertex are closed under union and intersection, so every tight prefix
    of a vertex extends by one element, and no order reaches a point that
    is not a vertex.  On other tables the pass may miss an order, so
    `certify_vertices` refuses them."""
    order: list[int] = []
    mask = 0
    for _ in range(n):
        base = table[mask]
        for k in range(n):
            bit = 1 << k
            if not mask & bit and v[k] == table[mask | bit] - base:
                break
        else:
            return None
        order.append(k + 1)
        mask |= bit
    return tuple(order)


def vertices(d: Diagram) -> set[tuple[int, ...]]:
    """All distinct greedy vectors of the diagram's bound table over the full
    symmetric group, enumerated by prefix mask from both ends and joined at
    the middle layer (`_greedy_vectors`), through the one-entry memo
    `_vertex_set`; each call returns a fresh set.

    >>> sorted(vertices(Diagram(3, {(1, 1), (3, 1), (3, 2), (3, 3)})))
    [(1, 0, 3), (1, 3, 0), (3, 0, 1), (3, 1, 0)]
    """
    if d.n > SWEEP_CAP:
        raise ValueError(f"vertex enumeration at n = {d.n} exceeds the enumeration budget (n <= {SWEEP_CAP})")
    return set(_vertex_set(hrep(d)))


class Certification(Value):
    """Outcome of the exact vertex certification.

    ``failures`` holds one human-readable witness per defect: one per
    claimed point that is no vertex, in sorted order, then one per vertex
    missing from the claim; empty means the claimed points are exactly the
    vertex set, and ``ok`` says so.  ``points`` counts the distinct claimed
    points.  The class constant ``method`` names how the polytope's own
    vertices are enumerated; it is kept so recorded outcomes stay comparable.
    """

    _fields = ("points", "failures")
    method = "greedy"

    def __init__(self, points: int, failures: tuple[str, ...]):
        self.__dict__.update(points=points, failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _is_submodular(table: Sequence[int], n: int) -> bool:
    """The local exchange condition f(S+i) + f(S+j) >= f(S+i+j) + f(S) for
    every pair i < j and every mask S holding neither, which a set function
    meets exactly when it is submodular; stops at the first violation."""
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            rest = (2 ** n - 1) ^ bi ^ bj
            m = rest
            while True:  # every submask of rest, rest first
                if table[m | bi] + table[m | bj] < table[m | bi | bj] + table[m]:
                    return False
                if not m:
                    break
                m = (m - 1) & rest
    return True


def certify_vertices(h: HRep, points: Iterable[Sequence]) -> Certification:
    """Certify that ``points`` is exactly the vertex set of the polytope of a
    submodular table.

    The claimed points are checked first, so a malformed coordinate cannot
    break the sort below: all at once, by one set of their lengths and one
    of their coordinates' types, and only when that fails one by one in
    claim order (`_check_point`), which names the first bad point.  Then a
    table that is not submodular raises `ValueError`, since every step
    rests on Edmonds' theorem: the vertices of that polytope are exactly
    the greedy vectors of the table (`_vertex_set`), so each claimed point
    is decided on its own, by lookup.  A claimed point among them passes with no walk.  Every
    other point fails once, in sorted order: walked over its subset sums
    (`_walk`), it either violates a bound, named as the first in mask
    order, or lies in the polytope without being a vertex.  Then each
    vertex missing from the claim fails, named with the first order
    reaching it (`_first_order`), in the order a lexicographic S_n sweep
    meets it.  theta is submodular by theorem (the polytope of a diagram
    is a Minkowski sum of Schubert matroid polytopes; the
    `theta-submodular` check tests it), so a theta bug that broke this
    fails every certification loudly rather than certifying a wrong
    answer.
    """
    if h.n > SWEEP_CAP:
        raise ValueError(f"certification capped at n <= {SWEEP_CAP}")
    pts = [tuple(p) for p in points]
    if not ({*map(len, pts)} <= {h.n} and {*map(type, itertools.chain.from_iterable(pts))} <= exact_types()):
        for p in pts:  # some point fails: name the first
            _check_point(h, p)
    claimed = set(pts)
    if not _is_submodular(h.table, h.n):
        raise ValueError("bounds are not submodular; certification covers submodular tables only")
    greedy = _vertex_set(h)
    failures = []
    for p in sorted(claimed - greedy):
        violation = _walk(h, p)[0]
        failures.append(f"claimed vertex {p} violates the description: {violation}" if violation is not None else
                        f"claimed vertex {p} is not a vertex: it lies in the polytope, but its tight rows have rank below {h.n}")
    missing = sorted((_first_order(h.table, v, h.n), v) for v in greedy - claimed)
    failures += [f"vertex {v} (greedy order {w}) is missing from the claimed set" for w, v in missing]
    return Certification(points=len(claimed), failures=tuple(failures))


def hrep_to_json_dict(h: HRep) -> dict:
    """JSON form: {"n": 3, "total": 4, "bounds": [{"S": [1], "b": 3}, ...]},
    subsets as sorted 1-indexed lists in increasing-bitmask order."""
    return {
        "n": h.n,
        "total": h.total,
        "bounds": [
            {"S": _mask_subset(mask, h.n), "b": h.table[mask]} for mask in range(1, 2 ** h.n - 1)
        ],
    }


def hrep_from_json_dict(data) -> HRep:
    """Inverse of :func:`hrep_to_json_dict`, with field-naming diagnostics
    (`diagrams.read_document`)."""
    raw = read_document(data, "h-representation", ("n", "total", "bounds"), "objects")
    n, total = data["n"], data["total"]
    check_size(n, "dimension")
    bounds: dict[int, object] = {}
    for entry in raw:
        if not isinstance(entry, dict) or "S" not in entry or "b" not in entry:
            raise ValueError(f"field 'bounds': bad entry {entry!r}, expected {{'S': [...], 'b': int}}")
        s = entry["S"]
        if not isinstance(s, list) or not all(map(is_int, s)):
            raise ValueError(f"field 'bounds': subset {s!r} must be a list of integers")
        mask = _subset_mask(check_subset(s, n))
        if mask in bounds:
            raise ValueError(f"field 'bounds': duplicate subset {_mask_subset(mask, n)}")
        if not 0 < mask < 2 ** n - 1:
            raise ValueError(f"field 'bounds': subset {s!r} is not a proper nonempty subset of [{n}]")
        bounds[mask] = entry["b"]
    expected = max(2 ** n - 2, 0)
    if len(bounds) != expected:
        raise ValueError(f"bounds must cover all {expected} proper nonempty subsets of [{n}], got {len(bounds)}")
    table = [bounds.get(mask) for mask in range(2 ** n)]
    table[0], table[-1] = 0, total
    return HRep(n, total, tuple(table))


def hrep_to_hform(h: HRep) -> str:
    """Plain-text form: first line "n total", then one "bitmask bound" line
    per subset in increasing-bitmask order."""
    lines = [f"{mask} {h.table[mask]}" for mask in range(1, 2 ** h.n - 1)]
    return "\n".join([f"{h.n} {h.total}", *lines])


def vertex_set_to_json_dict(points: Iterable[Sequence[int]]) -> dict:
    """JSON form: {"vertices": [[3, 1, 0], ...]} sorted lexicographically."""
    return {"vertices": [list(p) for p in sorted(tuple(p) for p in points)]}


def vertex_set_from_json_dict(data) -> set[tuple[int, ...]]:
    """Inverse of :func:`vertex_set_to_json_dict`, with field-naming
    diagnostics (`diagrams.read_document`)."""
    raw = read_document(data, "vertex-set", ("vertices",), "integer vectors")
    out = set()
    for p in raw:
        if not isinstance(p, list) or not all(map(is_int, p)):
            raise ValueError(f"field 'vertices': bad entry {p!r}")
        if len(p) != len(raw[0]):
            raise ValueError(f"field 'vertices': entry {p!r} has dimension {len(p)}, expected {len(raw[0])}")
        if tuple(p) in out:
            raise ValueError(f"field 'vertices': duplicate vertex {p}")
        out.add(tuple(p))
    return out
