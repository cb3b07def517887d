"""Box diagrams in an n x n grid, with Rothe and skyline constructors.

Rows and columns are numbered 1..n, rows from top to bottom.  The grid
size n is explicit and may exceed the largest occupied row or column:
the polytope built from a diagram lives in R^n, so n matters even for
empty rows.

A Schubitope is a sum of per-column pieces, so the library reads a
diagram column by column, each column as its row bitmask: bit i-1 is set
iff row i holds a box.  The bound table reads these masks (`column_masks`).
The greedy fillings and theta ask the same question of every column, so
they read all the masks at once, laid side by side in one integer
(`packed_columns`): column j takes the slot of n + 1 bits starting at bit
(j-1)(n+1), its row mask in the low n bits and a guard bit n that is always
set; `column_slots(n)` gives the slot width and the integer with a one at
bit 0 of each slot, and `split_columns` reads the slots back.  Each `Diagram` computes both encodings once, on first
use, and keeps them.  The boxes are checked once, when the diagram is
built, so the code reading the masks needs no further checks.  The cached
encodings are not fields, so equality and hashing see only n and the boxes.

`Value` is the immutable-value base of `Diagram` and of the library's other
value classes (`HRep`, `Certification`, `Polynomial`, `CheckResult`): each
names its fields in `_fields`, checks and stores them in its own
`__init__`, and gets field-wise equality, hashing and repr from the base.

Sizes and box coordinates follow the library's integer rule, which
`perms` owns (`perms.is_int`, `perms.check_size`); so does `check_subset`,
the one check of a subset of rows (`perms.check_range`).

This module also owns the JSON document rule.  Every reader of a document
(a diagram, an h-representation, a vertex set, a polynomial) takes its
listed field from `read_document`, which refuses a non-object, an absent
field and a listed field that is no list with one message each, and
`compact` is the one writer of a document with no spaces.
"""
from __future__ import annotations

import functools
import operator
from collections.abc import Hashable, Iterable, Mapping, Sequence

from . import perms
from .perms import INTS, check_range, check_size, is_int

Box = tuple[int, int]


def check_subset(subset: Iterable[int], n: int) -> frozenset[int]:
    """The subset of [n] as a frozenset; a repeated element counts once,
    and 0, n + 1, True and an unhashable element are refused, the first
    bad element in input order named.  The one rule for subsets of rows,
    shared by theta and the matroid rank, so both refuse the same subsets
    with the same message (`perms.check_range`)."""
    if type(subset) is not frozenset:  # type-test every element before hashing any
        subset = [*subset]
    for i in subset:
        if type(i) not in INTS or not 1 <= i <= n:
            check_range(i, 1, n, "subset element")
    return frozenset(subset)


@functools.lru_cache(maxsize=16)  # a process works at a few grid sizes at a time
def column_slots(n: int) -> tuple[int, int]:
    """The layout of `Diagram.packed_columns` in an n x n grid: the slot
    width n + 1, and the integer with a one at bit 0 of each of the n slots."""
    width = n + 1
    return width, ((1 << width * n) - 1) // ((1 << width) - 1)


def split_columns(packed: int, n: int) -> list[int]:
    """The n slots of an integer laid out as `Diagram.packed_columns`, column 1 first."""
    width = n + 1
    return [packed >> k & (1 << width) - 1 for k in range(0, width * n, width)]


class Value:
    """An immutable value named by its `_fields`: equal to another instance of
    the same class with equal compared fields, hashed on them, and shown as
    ``Name(field=value, ...)``; a subclass passes ``compare=`` to compare on
    fewer fields.  Each subclass checks its fields in its own `__init__` and
    stores them into ``self.__dict__``, since assignment raises.  Values
    computed on first use (`functools.cached_property`) are kept there too,
    beside the fields, and a pickle copies that dict."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*(compare or cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Diagram(Value):
    """An immutable set of boxes (row, col) inside an n x n grid.

    The boxes are checked in the order given, and the first that is not a
    pair of ints inside the grid is named; a pair of ints that cannot be
    hashed, such as the list [1, 1], is named once every box has passed."""

    _fields = ("n", "boxes")

    def __init__(self, n: int, boxes: Iterable[Box]):
        check_size(n, "grid size")
        if not isinstance(boxes, (set, frozenset)):  # read an iterator once; a set's boxes are hashable
            try:
                boxes = list(boxes)
            except TypeError:
                raise ValueError(f"boxes must be an iterable of (row, col) pairs, got {boxes!r}") from None
        for box in boxes:
            try:
                r, c = box
            except (TypeError, ValueError):
                raise ValueError(f"box {box!r} is not a (row, col) pair") from None
            if not (is_int(r) and is_int(c)):
                raise ValueError(f"box ({r!r}, {c!r}) has a non-integer coordinate")
            if not (1 <= r <= n and 1 <= c <= n):
                raise ValueError(f"box ({r},{c}) lies outside the {n}x{n} grid")
        try:
            boxes = frozenset(boxes)
        except TypeError:  # a pair of ints that no set holds, such as the list [1, 1]
            bad = next(b for b in boxes if not isinstance(b, Hashable))
            raise ValueError(f"box {bad!r} is not a (row, col) pair") from None
        self.__dict__.update(n=n, boxes=boxes)

    @property
    def size(self) -> int:
        """Number of boxes."""
        return len(self.boxes)

    def sorted_boxes(self) -> list[Box]:
        """Boxes in row-major order (canonical serialization order)."""
        return sorted(self.boxes)

    @functools.cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per-column row bitmasks: bit i-1 of column_masks[j-1] is set iff (i, j) is a box."""
        masks = [0] * self.n
        for r, c in self.boxes:
            masks[c - 1] |= 1 << (r - 1)
        return tuple(masks)

    @functools.cached_property
    def packed_columns(self) -> int:
        """Every column's row bitmask in its slot of `column_slots(n)`, guard bits set:
        bit (j-1)(n+1) + i-1 is set iff (i, j) is a box, and bit (j-1)(n+1) + n always."""
        width, low = column_slots(self.n)
        return (low << self.n) + sum(1 << (c - 1) * width + r - 1 for r, c in self.boxes)


def rothe(w: Sequence[int]) -> Diagram:
    """Rothe diagram of a permutation: boxes (i, j) with j < w_i and w^-1(j) > i.

    The box count equals the Coxeter length of w.

    >>> sorted(rothe((1, 4, 3, 2)).boxes)
    [(2, 2), (2, 3), (3, 2)]
    """
    w = perms.check_permutation(w)
    n = len(w)
    winv = perms.inverse(w)
    boxes = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, w[i - 1])
        if winv[j - 1] > i
    }
    return Diagram(n, frozenset(boxes))


def skyline(alpha: Sequence[int]) -> Diagram:
    """Skyline diagram of a composition: the first alpha_i boxes of row i.

    >>> sorted(skyline((1, 0, 3)).boxes)
    [(1, 1), (3, 1), (3, 2), (3, 3)]
    """
    alpha = perms.check_composition(alpha)
    n = len(alpha)
    for i, a in enumerate(alpha, 1):
        if a > n:
            raise ValueError(f"part {a} in row {i} exceeds the grid size {n}")
    boxes = {(i, j) for i, a in enumerate(alpha, 1) for j in range(1, a + 1)}
    return Diagram(n, frozenset(boxes))


def to_json_dict(d: Diagram) -> dict:
    """JSON form: {"n": 5, "boxes": [[1, 1], [2, 4], ...]}, boxes row-major."""
    return {"n": d.n, "boxes": [list(b) for b in d.sorted_boxes()]}


def read_document(data, kind: str, fields: tuple[str, ...], entries: str) -> list:
    """The list in the last of ``fields`` of a ``kind`` JSON document: the one
    document rule behind every reader.  A non-object, an absent field (the
    first in order) and a last field that is no list are each refused by name;
    the reader checks the entries itself."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    for field in fields:
        if field not in data:
            raise ValueError(f"{kind} document is missing field '{field}'")
    listed = data[fields[-1]]
    if not isinstance(listed, list):
        raise ValueError(f"field '{fields[-1]}' must be a list of {entries}")
    return listed


def compact(doc) -> str:
    """A JSON document written with no spaces, as the command line prints it
    and counterexamples show it."""
    import json  # a cold `import schubitope` loads no json

    return json.dumps(doc, separators=(",", ":"))


def from_json_dict(data) -> Diagram:
    """Inverse of :func:`to_json_dict`, with field-naming diagnostics
    (`read_document`)."""
    raw = read_document(data, "diagram", ("n", "boxes"), "[row, col] pairs")
    n = data["n"]
    check_size(n, "field 'n'")
    boxes = set()
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2 or not all(map(is_int, entry)):
            raise ValueError(f"field 'boxes': bad entry {entry!r}, expected [row, col]")
        box = (entry[0], entry[1])
        if box in boxes:
            raise ValueError(f"field 'boxes': duplicate box {entry}")
        boxes.add(box)
    return Diagram(n, frozenset(boxes))


def to_text(d: Diagram) -> str:
    """One line per row, a white square for a box and '.' for an empty cell."""
    lines = []
    for i in range(1, d.n + 1):
        lines.append("".join("□" if (i, j) in d.boxes else "." for j in range(1, d.n + 1)))
    return "\n".join(lines)


def filling_text(d: Diagram, filling: Mapping[Box, int]) -> str:
    """The diagram grid with each box showing its value, or a middle dot when empty."""
    lines = []
    for i in range(1, d.n + 1):
        row = []
        for j in range(1, d.n + 1):
            if (i, j) in d.boxes:
                row.append(str(filling[(i, j)]) if (i, j) in filling else "·")
            else:
                row.append(".")
        lines.append(row)
    sep = "" if d.n <= 9 else " "
    return "\n".join(sep.join(row) for row in lines)
