import itertools
import random
import time
import tracemalloc

import pytest

from conftest import D9, FIG18, FIG18_FILLING, FIG18_W, TRAPEZOID, TRAPEZOID_FILLINGS, assert_check, column_diagrams
from schubitope import Diagram
from schubitope.checks import random_diagram
from schubitope.diagrams import rothe, skyline
from schubitope.fillings import (
    fill_column,
    fill_diagram,
    rank_columns,
    rank_diagram,
    rank_filling,
    sort_filling,
    standardize,
    vertex_vector,
    vertex_vectors,
)
from schubitope.oracles import _fill, rank_brute, rank_max_filling
from schubitope.polytope import column_word, theta, theta_columns, vertices


def subsets(n):
    for mask in range(2 ** n):
        yield frozenset(i for i in range(1, n + 1) if (mask >> (i - 1)) & 1)


class TestFillColumn:
    def test_figure_column(self):
        assert fill_column({2, 3, 4, 6}, (3, 1, 5, 6, 2, 4)) == {2: 1, 3: 3, 4: 2, 6: 5}

    def test_small_column(self):
        assert fill_column({1, 3}, (2, 1, 3)) == {1: 1, 3: 2}

    def test_empty_column(self):
        assert fill_column(set(), (3, 1, 2)) == {}

    def test_skips_unplaceable_values(self):
        # 3 cannot land anywhere once row 3 is taken and rows 1, 2 are too high
        assert fill_column({1, 3}, (3, 2, 1)) == {3: 3, 1: 1}

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            fill_column({1, 2}, (1, 1))

    @pytest.mark.parametrize("values, bad", [((2, 0), 0), ((-1,), -1)])
    def test_rejects_values_below_one(self, values, bad):
        with pytest.raises(ValueError) as refused:
            fill_column({1, 2}, values)
        assert str(refused.value) == f"filling values must be positive integers, got {bad}"

    def test_rejects_bools_and_non_integers(self):
        # True == 1, so only a type test tells a bool from a row or value
        with pytest.raises(ValueError, match="filling values must be positive integers, got True"):
            fill_column({1, 2}, (True, 2))
        with pytest.raises(ValueError, match="filling values must be positive integers, got 'a'"):
            fill_column({1, 2}, (1, "a"))
        with pytest.raises(ValueError, match="column rows must be positive integers, got True"):
            rank_filling({True, 2}, {1})
        with pytest.raises(ValueError, match="column rows must be positive integers, got 0"):
            fill_column({0, 2}, (1,))
        with pytest.raises(ValueError, match="filling values must be positive integers, got 'a'"):
            rank_filling({1, 2}, {1, "a"})
        with pytest.raises(ValueError, match=r"^subset element True out of range 1\.\.5$"):
            rank_diagram(D9, {True, 3})

    def test_output_flagged_and_strict(self):
        for rows in subsets(5):
            for s in subsets(5):
                filled = fill_column(rows, tuple(sorted(s)))
                assert all(v <= r for r, v in filled.items())
                vals = list(filled.values())
                assert len(set(vals)) == len(vals)


class TestFillDiagram:
    def test_figure_18_boxes(self):
        assert fill_diagram(FIG18, FIG18_W) == FIG18_FILLING

    def test_trapezoid_six_fillings(self):
        for w, expected in TRAPEZOID_FILLINGS.items():
            assert fill_diagram(TRAPEZOID, w) == expected, w

    def test_weakly_decreasing_skyline_filled_by_row_index(self):
        for alpha in [(3, 2, 1), (2, 2, 0), (4, 2, 2, 1)]:
            d = skyline(alpha)
            for w in itertools.permutations(range(1, len(alpha) + 1)):
                assert all(v == r for (r, _), v in fill_diagram(d, w).items())

    def test_empty_diagram(self):
        assert fill_diagram(Diagram(3, frozenset()), (2, 1, 3)) == {}

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            fill_diagram(TRAPEZOID, (1, 2))


class TestVertexVector:
    def test_figure_vector(self):
        assert vertex_vector(FIG18, FIG18_W) == (6, 2, 6, 0, 3, 1)

    def test_intro_vectors(self):
        assert vertex_vector(TRAPEZOID, (2, 1, 3)) == (1, 3, 0)
        assert vertex_vector(TRAPEZOID, (2, 3, 1)) == (1, 3, 0)
        assert vertex_vector(TRAPEZOID, (1, 3, 2)) == (3, 0, 1)

    def test_empty_diagram(self):
        assert vertex_vector(Diagram(3, frozenset()), (3, 1, 2)) == (0, 0, 0)

    def test_coordinates_sum_to_box_count(self):
        rng = random.Random(7)
        for _ in range(10):
            d = random_diagram(rng, 4)
            for w in itertools.permutations(range(1, 5)):
                assert sum(vertex_vector(d, w)) == d.size

    def test_counts_the_values_of_fill_diagram(self):
        rng = random.Random(8)
        corpus = [Diagram(0, frozenset()), Diagram(3, frozenset()), FIG18, D9]
        corpus += [random_diagram(rng, n) for n in range(1, 6) for _ in range(6)]
        for d in corpus:
            for w in itertools.islice(itertools.permutations(range(1, d.n + 1)), 30):
                counts = [0] * d.n
                for v in fill_diagram(d, w).values():
                    counts[v - 1] += 1
                assert vertex_vector(d, w) == tuple(counts)

    @pytest.mark.parametrize("w", [(1, 2), (1, 1, 2), (True, 2, 3), (1, "2", 3), (0, 1, 2), (1.0, 2, 3)])
    def test_bad_order_messages_match_fill_diagram(self, w):
        with pytest.raises(ValueError) as expected:
            fill_diagram(TRAPEZOID, w)
        with pytest.raises(ValueError) as got:
            vertex_vector(TRAPEZOID, w)
        assert str(got.value) == str(expected.value)


class TestVertexVectors:
    """The walk over all orders against `vertex_vector`, one order at a time;
    the two write the fill step apart (inline, and `_placements`)."""

    @staticmethod
    def assert_walk_matches(d):
        orders = itertools.permutations(range(1, d.n + 1))
        assert list(vertex_vectors(d)) == [(w, vertex_vector(d, w)) for w in orders], d

    def test_rothe_diagrams_up_to_n5(self):
        for n in range(6):
            for w in itertools.permutations(range(1, n + 1)):
                self.assert_walk_matches(rothe(w))

    def test_skylines_up_to_n4(self):
        for n in range(1, 5):
            for alpha in itertools.product(range(n + 1), repeat=n):
                self.assert_walk_matches(skyline(alpha))

    def test_random_diagrams_up_to_n6(self):
        rng = random.Random(20)
        for n in range(7):
            for _ in range(30):
                self.assert_walk_matches(random_diagram(rng, n))

    def test_smallest_grids(self):
        assert list(vertex_vectors(Diagram(0, frozenset()))) == [((), ())]
        assert list(vertex_vectors(Diagram(1, frozenset()))) == [((1,), (0,))]
        assert list(vertex_vectors(Diagram(1, frozenset({(1, 1)})))) == [((1,), (1,))]

    def test_vectors_are_the_vertices(self):
        rng = random.Random(21)
        for d in [FIG18, D9, *(random_diagram(rng, n) for n in range(1, 6) for _ in range(4))]:
            assert {x for _, x in vertex_vectors(d)} == vertices(d), d

    def test_lazy(self):
        # the first of 10! orders arrives without building anything n!-sized
        d = random_diagram(random.Random(22), 10)
        tracemalloc.start()
        try:
            w, x = next(vertex_vectors(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (w, x) == (tuple(range(1, 11)), vertex_vector(d, w))
        assert peak < 2 ** 20


class TestRanks:
    def test_examples(self):
        # frozen from enumerating the bases dominated by each column
        assert rank_filling({1, 4, 5}, {1, 3}) == 2
        assert rank_brute({1, 4, 5}, {1, 3}) == 2
        assert rank_max_filling({1, 4, 5}, {1, 3}) == 2
        assert rank_filling({3}, {1, 3}) == 1
        assert rank_max_filling({1}, {2}) == 0
        assert rank_max_filling({2}, {1, 2}) == 1

    def test_empty_cases(self):
        assert rank_filling({1, 2}, set()) == 0
        assert rank_brute(set(), {1, 2}) == 0

    def test_full_set_gives_column_size(self):
        for rows in subsets(5):
            assert rank_brute(rows, set(range(1, 6))) == len(rows)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="cap"):
            rank_brute(set(range(1, 14)), {1})

    def test_oracles_reject_bools(self):
        # the messages of rank_filling; True == 1 would otherwise count as row or value 1
        for rank in (rank_brute, rank_max_filling):
            with pytest.raises(ValueError, match="column rows must be positive integers, got True"):
                rank({True, 2}, {1})
            with pytest.raises(ValueError, match="filling values must be positive integers, got True"):
                rank({1, 2}, {True})

    def test_triple_agreement_exhaustive(self):
        assert_check("rank-three-ways", 5, 1024)

    def test_order_independence(self):
        assert_check("fill-order-independence", 5, 7360)

    def test_monotone_step(self):
        assert_check("rank-monotone-step", 5, 2560)

    def test_diagram_rank(self):
        assert rank_diagram(D9, {1, 3}) == 7
        assert rank_diagram(D9, set(range(1, 6))) == D9.size
        assert rank_diagram(D9, set()) == 0

    def test_diagram_rank_refuses_rows_past_the_grid(self):
        # the two sides of theta = rank refuse the same subsets alike
        d = Diagram(2, frozenset({(1, 1), (2, 2)}))
        with pytest.raises(ValueError, match=r"^subset element 5 out of range 1\.\.2$"):
            rank_diagram(d, {5})
        for subset in ({5}, {3, 1}, {2, 4, 3}):
            with pytest.raises(ValueError) as by_rank:
                rank_diagram(d, subset)
            with pytest.raises(ValueError) as by_theta:
                theta(d, subset)
            assert str(by_rank.value) == str(by_theta.value)

    def test_diagram_rank_and_theta_take_the_same_subsets(self):
        # one rule, `diagrams.check_subset`: repeats count once; 0, n + 1 and
        # bools are refused by both sides with one message
        d = skyline((1, 0, 3))
        for subset in ((1, 1), [3, 2, 3], ()):
            assert rank_diagram(d, subset) == theta(d, subset) == theta(d, set(subset))
        assert rank_columns(d, (1, 1)) == theta_columns(d, (1, 1)) == [1, 1, 1]
        # elements are type-tested before any is hashed, so a bool beside its
        # int and an unhashable element are named too
        for subset, bad in (({0}, "0"), ({4}, "4"), ({True}, "True"), ((2, False), "False"),
                            ([1, True], "True"), ([1, 1.0], "1.0"), ([[1]], "[1]"), ([{1}], "{1}")):
            for side in (rank_diagram, theta, rank_columns, theta_columns, lambda d, s: column_word(d, 1, s)):
                with pytest.raises(ValueError) as got:
                    side(d, subset)
                assert str(got.value) == f"subset element {bad} out of range 1..3", side

    def test_diagram_rank_submodular_sampled(self):
        assert_check("rank-submodular", 4, 3072)


def assert_fill_matches_reference(d, w):
    """fill_diagram and vertex_vector against one column and one value at a
    time (`oracles._fill`); fill_diagram gives its boxes value by value along w."""
    expected = {(r, j): v for j, col in enumerate(d.column_masks, 1) for r, v in _fill(col, w).items()}
    got = fill_diagram(d, w)
    assert got == expected, (d, w)
    steps = [w.index(v) for v in got.values()]
    assert steps == sorted(steps), (d, w)
    counts = [0] * d.n
    for v in expected.values():
        counts[v - 1] += 1
    assert vertex_vector(d, w) == tuple(counts), (d, w)


def assert_ranks_match_reference(d, subset):
    expected = [len(_fill(col, sorted(subset))) for col in d.column_masks]
    assert rank_columns(d, subset) == expected, (d, subset)
    assert rank_diagram(d, subset) == sum(expected), (d, subset)


def naive_fill_column(rows, values):
    """The greedy rule on a list of rows: each value takes the first free row at or after it."""
    free, out = sorted(set(rows)), {}
    for v in values:
        r = next((r for r in free if r >= v), None)
        if r is not None:
            free.remove(r)
            out[r] = v
    return out


class TestPackedFillStep:
    """The packed fill step against the per-column reference `oracles._fill`."""

    def test_every_column_and_order_up_to_n5(self):
        for n in range(6):
            for d in column_diagrams(n):
                for w in itertools.permutations(range(1, n + 1)):
                    assert_fill_matches_reference(d, w)
                for s in subsets(n):
                    assert_ranks_match_reference(d, s)

    def test_random_diagrams_n6_to_30(self):
        rng = random.Random(61)
        for n in range(6, 31):
            for density in (0.2, 0.5, 0.8):
                d = Diagram(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                                         if rng.random() < density))
                for _ in range(4):
                    w = rng.sample(range(1, n + 1), n)
                    assert_fill_matches_reference(d, w)
                    assert_ranks_match_reference(d, {i for i in range(1, n + 1) if rng.random() < 0.5})

    def test_edge_cases(self):
        corpus = [
            Diagram(0, frozenset()),
            Diagram(1, frozenset()),
            Diagram(1, frozenset({(1, 1)})),
            Diagram(2, frozenset({(2, 1)})),
            Diagram(2, frozenset({(1, 2), (2, 2)})),     # an empty first column
            Diagram(7, frozenset({(7, 4)})),              # its only box in row n
            Diagram(7, frozenset((r, c) for r in range(1, 8) for c in (1, 7))),
        ]
        for d in corpus:
            for w in itertools.islice(itertools.permutations(range(1, d.n + 1)), 60):
                assert_fill_matches_reference(d, w)
            for s in itertools.islice(subsets(d.n), 60):
                assert_ranks_match_reference(d, s)

    @pytest.mark.parametrize("n", [18, 64])
    def test_full_grid(self, n):
        # every column full: value v takes row v in every column
        d = Diagram(n, frozenset(itertools.product(range(1, n + 1), repeat=2)))
        rng = random.Random(n)
        for w in (tuple(range(1, n + 1)), tuple(range(n, 0, -1)), tuple(rng.sample(range(1, n + 1), n))):
            assert fill_diagram(d, w) == {(v, j): v for v in range(1, n + 1) for j in range(1, n + 1)}
            assert vertex_vector(d, w) == (n,) * n
            assert_fill_matches_reference(d, w)
        s = {i for i in range(1, n + 1) if rng.random() < 0.5}
        assert rank_columns(d, s) == [len(s)] * n and rank_diagram(d, s) == n * len(s)

    def test_fill_column_matches_reference(self):
        # every row set of [4] against every ordered choice of values in 1..5
        for rows in subsets(4):
            col = sum(1 << (r - 1) for r in rows)
            for k in range(6):
                for values in itertools.permutations(range(1, 6), k):
                    got = fill_column(rows, values)
                    expected = _fill(col, values)
                    assert got == expected and list(got) == list(expected), (rows, values)

    def test_huge_rows_answer_at_once(self):
        # the column is one slot over the ranks of its rows, so a row of
        # 10**12 costs what a row of 3 does
        rows, values = {3, 10 ** 12, 10 ** 12 + 5}, (2, 10 ** 12, 7, 1, 10 ** 12 + 6, 10 ** 12 + 5)
        start = time.perf_counter()
        got = fill_column(rows, values)
        assert time.perf_counter() - start < 0.5
        assert got == naive_fill_column(rows, values) == {3: 2, 10 ** 12: 10 ** 12, 10 ** 12 + 5: 7}
        assert list(got) == list(naive_fill_column(rows, values))
        assert fill_column({10 ** 12}, (1,)) == {10 ** 12: 1}
        assert rank_filling({10 ** 12, 5}, {10 ** 12 + 1, 6, 1}) == 2


FIG_SORT_COLUMN = (1, 3, 4, 5, 7, 8)

# fillings of the column (1, 2) with one entry that is not exactly an int:
# a float, a bool and a str, as a value and as a row
NON_INT_ENTRIES = {
    "float-value": {2: 1.5}, "bool-value": {2: True}, "str-value": {2: "1"},
    "float-row": {2.0: 1}, "bool-row": {True: 1}, "str-row": {"2": 1}, "list-value": {2: [1]},
}
NON_INT_MESSAGE = "^filling rows and values must be integers, got "


class TestSortFilling:
    def test_figure_example(self):
        assert sort_filling({3: 3, 4: 1, 7: 6, 8: 2}) == {3: 1, 4: 2, 7: 3, 8: 6}

    def test_fixed_points(self):
        assert sort_filling({3: 1, 4: 2}) == {3: 1, 4: 2}
        assert sort_filling({5: 4}) == {5: 4}

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError, match="column-strict"):
            sort_filling({3: 1, 4: 1})
        with pytest.raises(ValueError, match="flag"):
            sort_filling({2: 3})

    @pytest.mark.parametrize("filling", NON_INT_ENTRIES.values(), ids=NON_INT_ENTRIES)
    def test_rejects_non_int_entries(self, filling):
        with pytest.raises(ValueError, match=NON_INT_MESSAGE):
            sort_filling(filling)
        with pytest.raises(ValueError, match=NON_INT_MESSAGE):
            sort_filling({**filling, 3: 2})
        # the types are tested before the values are compared
        with pytest.raises(ValueError, match=NON_INT_MESSAGE):
            sort_filling({**filling, 3: 2, 4: 2})

    def test_preserves_boxes_and_entries(self):
        for filling in [{3: 3, 4: 1, 7: 6, 8: 2}, {2: 2, 5: 1}, {1: 1, 2: 2, 3: 3}]:
            done = sort_filling(filling)
            assert set(done) == set(filling)
            assert sorted(done.values()) == sorted(filling.values())
            assert all(v <= r for r, v in done.items())


class TestStandardize:
    def test_figure_example(self):
        assert standardize(FIG_SORT_COLUMN, {3: 1, 4: 2, 7: 3, 8: 6}) == {1: 1, 3: 2, 4: 3, 7: 6}

    def test_full_column_unchanged(self):
        filling = {1: 1, 2: 2, 3: 3}
        assert standardize((1, 2, 3), filling) == filling

    def test_flag_blocks_moving_up(self):
        assert standardize((1, 2), {2: 2}) == {2: 2}

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increase"):
            standardize(FIG_SORT_COLUMN, {3: 2, 4: 1})

    def test_rejects_foreign_boxes(self):
        with pytest.raises(ValueError, match="not a box"):
            standardize((1, 3), {2: 1})

    @pytest.mark.parametrize("filling", NON_INT_ENTRIES.values(), ids=NON_INT_ENTRIES)
    def test_rejects_non_int_entries(self, filling):
        # "2" is no box of the column, which is checked first
        message = "not a box" if "2" in filling else NON_INT_MESSAGE
        with pytest.raises(ValueError, match=message):
            standardize((1, 2), filling)

    @pytest.mark.parametrize("rows", [(1, 2.0), (True, 2), (1, "2")], ids=["float", "bool", "str"])
    def test_rejects_non_int_column_rows(self, rows):
        # True is no row 1, so the entry cannot move up into it
        with pytest.raises(ValueError, match="^column rows must be positive integers, got "):
            standardize(rows, {2: 1})

    def test_idempotent_and_entry_preserving(self):
        rows = (1, 3, 4, 5)
        for k in range(len(rows) + 1):
            for chosen in itertools.combinations(rows, k):
                for vals in itertools.combinations(range(1, 6), k):
                    filling = dict(zip(chosen, vals))
                    if any(v > r for r, v in filling.items()):
                        continue
                    std = standardize(rows, filling)
                    assert sorted(std.values()) == sorted(filling.values())
                    assert len(std) == len(filling)
                    assert standardize(rows, std) == std
