import ast
import collections
import enum
import itertools
import json
import pathlib
import pickle
import random
import re

import pytest

from conftest import D9, TRAPEZOID, TRAPEZOID_VERTICES, assert_check, assert_frozen
from schubitope import Diagram, certify_vertices, diagrams, hrep, key_polynomial, member
from schubitope.checks import CheckResult, random_diagram
from schubitope.polyoracle import poly_from_json_dict
from schubitope.polytope import hrep_from_json_dict, vertex_set_from_json_dict
from schubitope.diagrams import (
    column_slots,
    filling_text,
    from_json_dict,
    rothe,
    skyline,
    to_json_dict,
    to_text,
)


class TestDiagram:
    def test_rejects_out_of_grid_boxes(self):
        with pytest.raises(ValueError, match="outside"):
            Diagram(2, frozenset({(3, 1)}))
        with pytest.raises(ValueError, match="outside"):
            Diagram(2, frozenset({(0, 1)}))

    def test_size_and_sorted_boxes(self):
        d = Diagram(3, frozenset({(3, 1), (1, 1), (1, 3)}))
        assert d.size == 3
        assert d.sorted_boxes() == [(1, 1), (1, 3), (3, 1)]

    def test_rejects_non_integer_coordinates(self):
        # int() would truncate these to boxes (1, 1) and (3, 2)
        with pytest.raises(ValueError, match=r"box \(1\.9, 1\) has a non-integer coordinate"):
            Diagram(3, {(1.9, 1)})
        with pytest.raises(ValueError, match=r"box \('3', 2\) has a non-integer coordinate"):
            Diagram(3, {("3", 2)})
        # exactly int, as subsets and points are checked: no subclass of it
        with pytest.raises(ValueError, match=r"^box \(<One\.A: 1>, 1\) has a non-integer coordinate$"):
            Diagram(3, {(enum.IntEnum("One", "A").A, 1)})
        # an unhashable coordinate is named the same, hashable box or not
        for boxes, shown in (({(1, (2,))}, "(1, (2,))"), ([(2, [2])], "(2, [2])"),
                             ([(2, 2), [(1,), 2]], "((1,), 2)")):
            with pytest.raises(ValueError) as refused:
                Diagram(3, boxes)
            assert str(refused.value) == f"box {shown} has a non-integer coordinate"

    @pytest.mark.parametrize("box", [(1, 1, 1), (1,), None, [1, 1], [1, 1, 1]],
                             ids=["triple", "single", "none", "list", "list-triple"])
    def test_names_a_box_that_is_not_a_pair(self, box):
        # a list of two ints unpacks as a pair, and is named when the boxes
        # fail to hash
        with pytest.raises(ValueError, match=rf"^box {re.escape(repr(box))} is not a \(row, col\) pair$"):
            Diagram(3, [(2, 2), box])

    def test_names_the_first_bad_box_in_input_order(self):
        bad = {(1, 1, 1): "box (1, 1, 1) is not a (row, col) pair",
               (1.5, 1): "box (1.5, 1) has a non-integer coordinate",
               (4, 1): "box (4,1) lies outside the 3x3 grid"}
        for first, second in itertools.permutations(bad, 2):
            with pytest.raises(ValueError) as refused:
                Diagram(3, [(2, 2), first, second])
            assert str(refused.value) == bad[first]

    def test_a_namedtuple_box_is_hashable(self):
        # the unhashable box is found by a hash test, so a valid namedtuple
        # box before it is not named in its place
        Box = collections.namedtuple("Box", "row col")
        with pytest.raises(ValueError) as refused:
            Diagram(3, [Box(1, 1), [2, 2]])
        assert str(refused.value) == "box [2, 2] is not a (row, col) pair"
        assert Diagram(3, [Box(1, 1), (2, 2)]) == Diagram(3, {(1, 1), (2, 2)})

    def test_boxes_must_be_an_iterable(self):
        with pytest.raises(ValueError) as refused:
            Diagram(3, 5)
        assert str(refused.value) == "boxes must be an iterable of (row, col) pairs, got 5"

    def test_an_iterator_of_boxes_is_read_once(self):
        # the unhashable box is named from the boxes read, not from the spent iterator
        with pytest.raises(ValueError) as refused:
            Diagram(3, iter([(2, 2), [1, 1]]))
        assert str(refused.value) == "box [1, 1] is not a (row, col) pair"
        assert Diagram(3, iter([(2, 2), (1, 1)])) == Diagram(3, {(1, 1), (2, 2)})

    def test_rejects_bools(self):
        # True == 1 passes isinstance(x, int), but is not a coordinate or a size
        with pytest.raises(ValueError, match=r"box \(True, 1\) has a non-integer coordinate"):
            Diagram(2, {(True, 1), (2, 2)})
        with pytest.raises(ValueError, match="grid size must be a non-negative integer, got True"):
            Diagram(True, frozenset())

    def test_grid_may_exceed_occupied_cells(self):
        d = Diagram(6, frozenset({(1, 1)}))
        assert d.n == 6 and d.size == 1

    def test_is_frozen(self):
        d = Diagram(3, frozenset({(1, 1), (3, 2)}))
        d.column_masks, d.packed_columns  # cached beside the fields, never shown
        assert_frozen(d, "Diagram(n=3, boxes=frozenset({(1, 1), (3, 2)}))", n=4, boxes=frozenset())

    def test_equality_with_another_class_is_left_to_it(self):
        d = Diagram(1, frozenset())
        assert d.__eq__((1, frozenset())) is NotImplemented
        assert d != (1, frozenset()) and d != hrep(d)


def test_values_survive_pickle():
    # verify --jobs > 1 sends values to worker processes and back by pickling
    h = hrep(TRAPEZOID)
    member(h, (3, 1, 0))  # fills the cached packed table and largest bound
    values = [TRAPEZOID, h, certify_vertices(h, TRAPEZOID_VERTICES), key_polynomial((1, 0, 2)),
              CheckResult("rothe-box-count", 6, None, 2, 0.5), CheckResult("skyline-box-count", 3, "boom")]
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)


def _sample_diagrams():
    """Random diagrams at n = 1..6, plus ones with empty columns and n = 0."""
    rng = random.Random(11)
    yield Diagram(0, frozenset())
    yield Diagram(4, frozenset())
    yield Diagram(5, frozenset({(2, 3), (5, 3), (1, 5)}))
    yield D9
    for n in range(1, 7):
        for _ in range(8):
            yield random_diagram(rng, n)


class TestColumnData:
    def test_column_masks_are_subset_masks(self):
        from schubitope.polytope import _subset_mask

        for d in _sample_diagrams():
            rows = [{r for r, c in d.boxes if c == j} for j in range(1, d.n + 1)]
            assert d.column_masks == tuple(map(_subset_mask, rows))

    def test_packed_columns_lay_the_masks_side_by_side(self):
        # column j's mask in the slot at bit (j-1)(n+1), its guard bit n set
        for d in _sample_diagrams():
            width, low = column_slots(d.n)
            assert width == d.n + 1
            assert low == sum(1 << j * width for j in range(d.n))
            guard = 1 << d.n
            assert d.packed_columns == sum((guard | col) << j * width for j, col in enumerate(d.column_masks))

    def test_cache_leaves_equality_hash_and_pickle_unchanged(self):
        # verify --jobs > 1 sends diagrams to worker processes by pickling
        for d in _sample_diagrams():
            fresh = Diagram(d.n, d.boxes)
            d.column_masks, d.packed_columns  # fill the caches of d only
            assert d == fresh and hash(d) == hash(fresh)
            for copy in (pickle.loads(pickle.dumps(d)), pickle.loads(pickle.dumps(fresh))):
                assert copy == d and hash(copy) == hash(d)
                assert copy.column_masks == d.column_masks
                assert copy.packed_columns == d.packed_columns


class TestRothe:
    def test_figure_example(self):
        assert rothe((1, 4, 3, 2)).boxes == {(2, 2), (2, 3), (3, 2)}

    def test_identity_is_empty(self):
        assert rothe((1, 2, 3, 4, 5)).size == 0

    def test_longest_element(self):
        # frozen from applying the deletion rule by hand
        assert rothe((3, 2, 1)).boxes == {(1, 1), (1, 2), (2, 1)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_box_count_is_length(self, n):
        assert_check("rothe-box-count", n, {1: 1, 2: 3, 3: 9, 4: 33, 5: 153}[n])


class TestSkyline:
    def test_figure_example(self):
        assert skyline((1, 2, 0, 1)).boxes == {(1, 1), (2, 1), (2, 2), (4, 1)}

    def test_intro_example(self):
        assert skyline((1, 0, 3)).boxes == {(1, 1), (3, 1), (3, 2), (3, 3)}

    def test_empty(self):
        assert skyline((0, 0, 0)).size == 0

    def test_box_count_is_part_sum(self):
        for alpha in itertools.product(range(4), repeat=4):
            assert skyline(alpha).size == sum(alpha)

    def test_part_exceeding_grid(self):
        with pytest.raises(ValueError, match="exceeds"):
            skyline((4, 0, 0))


class TestSerialization:
    def test_json_shape(self):
        doc = to_json_dict(Diagram(2, frozenset({(2, 1), (1, 1)})))
        assert doc == {"n": 2, "boxes": [[1, 1], [2, 1]]}

    def test_json_round_trip_bit_identical(self):
        doc = json.dumps(to_json_dict(D9))
        again = json.dumps(to_json_dict(from_json_dict(json.loads(doc))))
        assert doc == again

    @pytest.mark.parametrize("bad,message", [
        ({"boxes": []}, "missing field 'n'"),
        ({"n": 2}, "missing field 'boxes'"),
        ({"n": -1, "boxes": []}, "'n'"),
        ({"n": 2, "boxes": [[1]]}, "boxes"),
        ({"n": 2, "boxes": [[1, "a"]]}, "boxes"),
        ([1, 2], "object"),
        ({"n": 2, "boxes": {}}, r"^field 'boxes' must be a list of \[row, col\] pairs$"),
        ({"n": 2, "boxes": [[1, 1], [2, 1], [1, 1]]}, r"^field 'boxes': duplicate box \[1, 1\]$"),
    ])
    def test_json_errors_name_the_field(self, bad, message):
        with pytest.raises(ValueError, match=message):
            from_json_dict(bad)

    def test_json_rejects_bools(self):
        with pytest.raises(ValueError, match=r"field 'boxes': bad entry \[True, 1\]"):
            from_json_dict(json.loads('{"n": 2, "boxes": [[true, 1], [2, 2]]}'))
        with pytest.raises(ValueError, match="field 'n' must be a non-negative integer, got True"):
            from_json_dict({"n": True, "boxes": []})

    def test_list_is_checked_before_the_size(self):
        with pytest.raises(ValueError, match=r"^field 'boxes' must be a list of \[row, col\] pairs$"):
            from_json_dict({"n": -1, "boxes": {}})

    def test_text_grid(self):
        assert to_text(skyline((1, 0, 3))) == "□..\n...\n□□□"

    def test_filling_text(self):
        d = skyline((1, 0, 3))
        grid = filling_text(d, {(1, 1): 1, (3, 1): 2, (3, 2): 1})
        assert grid == "1..\n...\n21·"


# each reader, its kind, its smallest document (fields in order, the listed
# field last) and the entries its listed field holds
READERS = [
    (from_json_dict, "diagram", {"n": 2, "boxes": []}, "[row, col] pairs"),
    (hrep_from_json_dict, "h-representation", {"n": 1, "total": 0, "bounds": []}, "objects"),
    (vertex_set_from_json_dict, "vertex-set", {"vertices": []}, "integer vectors"),
    (poly_from_json_dict, "polynomial", {"n": 1, "terms": []}, "objects"),
]


@pytest.mark.parametrize("read, kind, doc, entries", READERS, ids=[r[1] for r in READERS])
def test_every_reader_keeps_the_document_rule(read, kind, doc, entries):
    def refusal(bad) -> str:
        with pytest.raises(ValueError) as refused:
            read(bad)
        return str(refused.value)

    read(doc)
    assert refusal([doc]) == f"{kind} document must be a JSON object"
    assert refusal({}) == f"{kind} document is missing field '{next(iter(doc))}'"
    for field in doc:
        rest = {k: v for k, v in doc.items() if k != field}
        assert refusal(rest) == f"{kind} document is missing field '{field}'"
    *_, listed = doc
    assert refusal({**doc, listed: {}}) == f"field '{listed}' must be a list of {entries}"


def test_document_rule_lives_in_diagrams():
    # every other module reads a document through diagrams.read_document
    # and writes one through diagrams.compact
    found = set()
    for path in sorted(pathlib.Path(diagrams.__file__).parent.glob("*.py")):
        if path.name == "diagrams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "document must be a JSON object" in node.value or "is missing field" in node.value:
                    found.add(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dumps":
                if any(k.arg == "separators" for k in node.keywords):
                    found.add(f"{path.name}:{node.lineno}")
    assert not found, sorted(found)
