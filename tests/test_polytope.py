import enum
import functools
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from conftest import (
    D9,
    TRAPEZOID,
    TRAPEZOID_VERTICES,
    assert_check,
    assert_frozen,
    column_diagrams,
    coverage_table,
    uniform_ranks_table,
)
from schubitope import Diagram, lp, oracles, polytope
from schubitope.checks import random_diagram
from schubitope.diagrams import rothe, skyline
from schubitope.fillings import rank_diagram, vertex_vector, vertex_vectors
from schubitope.lp import convex_combination
from schubitope.oracles import (
    _column_theta,
    greedy_vectors_by_sweep,
    is_submodular_by_pairs,
    schubert_matroid_bases,
    tight_rank,
    vertices_by_filling,
    walk_by_fractions,
)
from schubitope.polytope import (
    HREP_CAP,
    SWEEP_CAP,
    Certification,
    HRep,
    _deficits,
    _first_order,
    _greedy_vectors,
    _is_submodular,
    _ladder,
    _mask_subset,
    _pack,
    _scaled,
    _slack,
    _subset_mask,
    _unpack,
    _walk,
    certify_vertices,
    column_word,
    edmonds_vertex,
    hrep,
    hrep_from_json_dict,
    hrep_to_hform,
    hrep_to_json_dict,
    member,
    theta,
    theta_columns,
    vertex_set_from_json_dict,
    vertex_set_to_json_dict,
    vertices,
)


def subsets(n):
    for mask in range(2 ** n):
        yield frozenset(i for i in range(1, n + 1) if (mask >> (i - 1)) & 1)


def theta_from_words(d, s):
    """theta read from the column_word strings: stack-matched '()' pairs plus stars."""
    total = 0
    for j in range(1, d.n + 1):
        depth = 0
        for ch in column_word(d, j, s):
            if ch == "★":
                total += 1
            elif ch == "(":
                depth += 1
            elif depth:
                depth -= 1
                total += 1
    return total


def random_diagram_with_density(rng, n, density):
    return Diagram(n, frozenset(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density))


class TestColumnWord:
    def test_intro_figure_words(self):
        s = {1, 3}
        assert [column_word(D9, j, s) for j in range(1, 6)] == ["★())", "(★", "(()", "()★)", "()("]

    def test_empty_subset_has_only_closers(self):
        for j in range(1, 6):
            assert set(column_word(D9, j, set())) <= {")"}

    def test_column_out_of_range(self):
        for j in (6, 0, True, 1.0):
            with pytest.raises(ValueError) as refused:
                column_word(D9, j, {1})
            assert str(refused.value) == f"column {j} out of range 1..5"

    def test_subset_out_of_range(self):
        with pytest.raises(ValueError, match="subset"):
            column_word(D9, 1, {0})


class TestTheta:
    def test_intro_figure_values(self):
        assert theta_columns(D9, {1, 3}) == [2, 1, 1, 2, 1]
        assert theta(D9, {1, 3}) == 7

    def test_empty_diagram(self):
        assert theta(Diagram(3, frozenset()), {1, 2}) == 0

    def test_rejects_bool_subset_elements(self):
        with pytest.raises(ValueError, match=r"subset element True out of range 1..3"):
            theta(skyline((1, 0, 3)), {True, 3})

    def test_skyline_example(self):
        # frozen from the per-column word computation; equals the matroid rank
        assert theta(skyline((1, 0, 3)), {2, 3}) == 3
        assert theta(skyline((1, 0, 3)), {2, 3}) == rank_diagram(skyline((1, 0, 3)), {2, 3})

    def test_full_subset_counts_boxes(self):
        rng = random.Random(3)
        for _ in range(5):
            d = random_diagram(rng, 4)
            assert theta(d, {1, 2, 3, 4}) == d.size


def assert_theta_matches_reference(d, mask):
    """theta and theta_columns against one column and one row at a time
    (`oracles._column_theta`)."""
    expected = [_column_theta(col, mask) for col in d.column_masks]
    s = _mask_subset(mask, d.n)
    assert theta_columns(d, s) == expected, (d, mask)
    assert theta(d, s) == sum(expected), (d, mask)


class TestPackedThetaScan:
    """The θ scan on every column at once against `oracles._column_theta`."""

    def test_every_column_and_subset_up_to_n6(self):
        for n in range(7):
            for d in column_diagrams(n):
                for mask in range(2 ** n):
                    assert_theta_matches_reference(d, mask)

    def test_random_diagrams_n6_to_30(self):
        rng = random.Random(67)
        for n in range(6, 31):
            for density in (0.2, 0.5, 0.8):
                d = random_diagram_with_density(rng, n, density)
                for mask in [0, 2 ** n - 1] + [rng.getrandbits(n) for _ in range(6)]:
                    assert_theta_matches_reference(d, mask)

    def test_edge_cases(self):
        corpus = [
            Diagram(0, frozenset()),
            Diagram(1, frozenset()),
            Diagram(1, frozenset({(1, 1)})),
            Diagram(2, frozenset({(2, 1)})),
            Diagram(2, frozenset({(1, 2), (2, 2)})),     # an empty first column
            Diagram(7, frozenset({(7, 4)})),              # its only box in row n
        ]
        for d in corpus:
            for mask in range(2 ** d.n):
                assert_theta_matches_reference(d, mask)
        # the deepest open '(' (depth n - 1) closed by a box in row n
        for n in (18, 64):
            d = Diagram(n, frozenset({(n, 1)}))
            assert theta_columns(d, range(1, n)) == [1] + [0] * (n - 1)
            assert theta(d, range(1, n)) == 1

    @pytest.mark.parametrize("n", [18, 64])
    def test_full_grid(self, n):
        # the largest depths, counts and sum: n per element of S in each of the n columns
        d = Diagram(n, frozenset(itertools.product(range(1, n + 1), repeat=2)))
        rng = random.Random(n)
        for mask in [0, 1, 2 ** n - 1, 2 ** (n - 1), 2 ** (n - 1) - 1] + [rng.getrandbits(n) for _ in range(8)]:
            k = bin(mask).count("1")
            assert theta_columns(d, _mask_subset(mask, n)) == [k] * n
            assert theta(d, _mask_subset(mask, n)) == n * k
            assert_theta_matches_reference(d, mask)


class TestHRep:
    def test_trapezoid_bounds(self):
        h = hrep(skyline((1, 0, 3)))
        assert h.total == 4
        assert {tuple(sorted(s)): h.table[m] for m, s in enumerate(subsets(3)) if 0 < m < 7} == {
            (1,): 3, (2,): 3, (3,): 3, (1, 2): 4, (1, 3): 4, (2, 3): 3,
        }

    def test_empty_diagram(self):
        h = hrep(Diagram(2, frozenset()))
        assert h.total == 0 and all(b == 0 for b in h.table)

    def test_single_box(self):
        h = hrep(Diagram(2, frozenset({(1, 1)})))
        assert h.total == 1
        assert h.table[0b01] == 1
        assert h.table[0b10] == 0

    def test_requires_all_proper_subsets(self):
        with pytest.raises(ValueError, match="proper nonempty"):
            hrep_from_json_dict({"n": 2, "total": 1, "bounds": [{"S": [1], "b": 1}]})

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="non-negative"):
            HRep(2, 1, (0, -1, 0, 1))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            hrep(Diagram(19, frozenset()))

    def test_is_frozen(self):
        h = hrep(TRAPEZOID)
        member(h, (3, 1, 0))  # fills the cached packed table and largest bound
        assert {"packed", "max_bound"} <= set(vars(h))
        assert_frozen(h, "HRep(n=3, total=4, table=(0, 3, 3, 4, 3, 4, 3, 4))",
                      n=4, total=0, table=(0,) * 8)

    def test_rejects_bools(self):
        with pytest.raises(ValueError, match=r"bound for \[1\] must be a non-negative integer, got True"):
            HRep(2, 1, (0, True, 0, 1))
        with pytest.raises(ValueError, match="total must be an integer, got True"):
            HRep(1, True, (0, 1))
        with pytest.raises(ValueError, match="dimension must be a non-negative integer, got True"):
            HRep(True, 1, (0, 1))
        with pytest.raises(ValueError, match="running from 0 to the total"):
            HRep(2, 1, (False, 0, 0, 1))
        with pytest.raises(ValueError, match=r"subset \[True\] must be a list of integers"):
            hrep_from_json_dict({"n": 2, "total": 1, "bounds": [{"S": [True], "b": 1}, {"S": [2], "b": 0}]})
        # nor any other subclass of int
        one = enum.IntEnum("One", "A").A
        with pytest.raises(ValueError, match=r"^bound for \[1\] must be a non-negative integer, got <One\.A: 1>$"):
            HRep(2, 1, (0, one, 0, 1))
        with pytest.raises(ValueError, match=r"^total must be an integer, got <One\.A: 1>$"):
            HRep(1, one, (0, 1))

    def test_column_table_matches_per_subset_scan(self):
        # every row set against every subset, n <= 6, at both slot widths:
        # |S| minus the Hall deficiency is the column word's theta
        for w in (8, 16):
            for n in range(7):
                ones, biased = _ladder(n, w)
                for col in range(2 ** n):
                    packed = biased - _deficits(col, ones, w)
                    table = [packed >> w * mask & (1 << w) - 1 for mask in range(2 ** n)]
                    assert table == [_column_theta(col, mask) for mask in range(2 ** n)], (w, n, col)

    def test_doubled_table_matches_per_subset_scan(self):
        def per_subset(d):
            cols = d.column_masks
            return tuple(sum(_column_theta(col, mask) for col in cols) for mask in range(2 ** d.n))

        rng = random.Random(41)
        corpus = [random_diagram_with_density(rng, n, density)
                  for n in range(7, 13) for density in ((0.3, 0.6) if n <= 10 else (0.5,))]
        corpus += [
            Diagram(0, frozenset()),
            Diagram(1, frozenset()),
            Diagram(1, frozenset({(1, 1)})),
            Diagram(8, frozenset((r, c) for r in (2, 5, 6) for c in range(1, 9))),  # one row set, 8 times
            Diagram(9, frozenset((r, c) for r in (1, 4) for c in (2, 7))),   # repeated and empty columns
            Diagram(9, frozenset({(9, 3)})),                                  # its only box in row n
            Diagram(10, frozenset({(10, 1), (10, 4), (1, 4), (3, 7), (10, 7)})),
        ]
        for d in corpus:
            assert hrep(d).table == per_subset(d), d

    def test_packed_table_matches_per_subset_scan_on_sampled_masks(self):
        # past the full comparison above, up to the cap: about 2,000 masks per diagram
        rng = random.Random(43)
        for n in range(13, HREP_CAP + 1):
            d = random_diagram_with_density(rng, n, 0.5)
            table = hrep(d).table
            cols = d.column_masks
            for mask in [0, 2 ** n - 1] + rng.sample(range(2 ** n), 2000):
                assert table[mask] == sum(_column_theta(col, mask) for col in cols), (d, mask)

    def test_both_slot_widths_agree_with_theta(self):
        # 255 boxes is the widest table in 8-bit slots, 256 the narrowest in
        # 16-bit ones; the n = 18 diagram is a random one at the cap
        rng = random.Random(53)
        cells = list(itertools.product(range(1, 17), repeat=2))
        corpus = [Diagram(16, frozenset(rng.sample(cells, size))) for size in (255, 256)]
        corpus.append(random_diagram_with_density(rng, HREP_CAP, 0.5))
        for d in corpus:
            h = hrep(d)
            assert h.packed == _pack(h.table, 16) and h.max_bound == max(h.table)
            for mask in [0, 2 ** d.n - 1] + rng.sample(range(2 ** d.n), 2000):
                assert h.table[mask] == theta(d, _mask_subset(mask, d.n)), (d.size, mask)

    def test_slots_have_headroom_at_the_cap(self):
        n = HREP_CAP
        # the full grid has the largest bounds: n per element of S, n^2 in all
        table = hrep(Diagram(n, frozenset(itertools.product(range(1, n + 1), repeat=2)))).table
        assert table == tuple(n * bin(mask).count("1") for mask in range(2 ** n))
        # a column's only box in row n closes the deepest open '(' (depth n - 1)
        col = 1 << (n - 1)
        table = hrep(Diagram(n, frozenset({(n, 1)}))).table
        rng = random.Random(47)
        for mask in [2 ** (n - 1) - 1, 2 ** n - 1, col] + rng.sample(range(2 ** n), 2000):
            assert table[mask] == _column_theta(col, mask), mask

    def test_pack_inverts_unpack(self):
        rng = random.Random(71)
        for n in range(6):
            table = (0, *[rng.randrange(2 ** 16) for _ in range(2 ** n - 1)]) if n else (0,)
            assert _unpack(_pack(table, 16), n) == tuple(table)
            for w in (32, 64, 128):
                packed = _pack(table, w)
                assert [packed >> w * m & (1 << w) - 1 for m in range(2 ** n)] == list(table), (n, w)
        # a negative total sits in the highest slot, below which nothing borrows
        for w in (16, 32):
            assert _pack((0, 7, 2, -3), w) == (7 << w) + (2 << 2 * w) - (3 << 3 * w)

    def test_hrep_keeps_the_table_it_packed(self):
        rng = random.Random(73)
        for d in [TRAPEZOID, D9] + [random_diagram_with_density(rng, n, 0.5) for n in (1, 6, 11)]:
            h = hrep(d)
            assert h.packed == _pack(h.table, 16) and h.max_bound == max(h.table)
            assert h == HRep(d.n, d.size, h.table)

    def test_memo_keeps_the_last_diagram_only(self):
        # vertices(d) then hrep(d), as the newton-certify path runs them,
        # builds the table once
        d = random_diagram_with_density(random.Random(79), 7, 0.5)
        h = hrep(d)
        assert vertices(d) and hrep(Diagram(d.n, d.boxes)) is h
        hrep(TRAPEZOID)
        assert hrep(d) is not h and hrep(d) == h

    def test_cache_leaves_equality_hash_and_pickle_unchanged(self):
        tables = [hrep(TRAPEZOID), hrep(D9), HRep(3, 4, (0, 3, 3, 4, 3, 4, 3, 4)),
                  HRep(2, 5, (0, 2 ** 17, 1, 5)), HRep(1, -2, (0, -2))]
        for h in tables:
            fresh = HRep(h.n, h.total, h.table)
            member(h, (h.total,) + (0,) * (h.n - 1))  # fill the cache of h only
            assert "max_bound" in vars(h) and "max_bound" not in vars(fresh)
            assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
            assert repr(h) == f"HRep(n={h.n!r}, total={h.total!r}, table={h.table!r})"
            for copy in (pickle.loads(pickle.dumps(h)), pickle.loads(pickle.dumps(fresh))):
                assert copy == h and hash(copy) == hash(h)
                assert copy.max_bound == h.max_bound
                if h.max_bound < 2 ** 16:
                    assert copy.packed == h.packed

    def test_table_is_built_on_first_read(self):
        # random diagrams below 256 boxes (8-bit slots) and the full 16 x 16
        # grid (256 boxes, 16-bit slots): hrep keeps the packed table only,
        # and equality, hash, repr, pickling and member each work from it
        rng = random.Random(97)
        corpus = [random_diagram_with_density(rng, n, density) for n in range(6, 13) for density in (0.3, 0.6)]
        corpus.append(Diagram(16, frozenset(itertools.product(range(1, 17), repeat=2))))

        def fresh(d):
            hrep.cache_clear()
            h = hrep(d)
            assert "table" not in vars(h)
            return h

        for d in corpus:
            n = d.n
            if d.size < 256:
                table = tuple(theta(d, _mask_subset(mask, n)) for mask in range(2 ** n))
            else:
                table = tuple(n * mask.bit_count() for mask in range(2 ** n))
            made = HRep(n, d.size, table)
            assert fresh(d) == made
            assert hash(fresh(d)) == hash(made)
            assert repr(fresh(d)) == repr(made)
            copy = pickle.loads(pickle.dumps(fresh(d)))
            assert "table" not in vars(copy)
            assert copy.packed == made.packed and copy == made and hash(copy) == hash(made)
            h = fresh(d)
            for point in (edmonds_vertex(table, range(1, n + 1)), (d.size + 1, -1) + (0,) * (n - 2)):
                member(h, point)
            assert "table" not in vars(h) and h.packed == made.packed
            assert (h.max_bound, h.monotone) == (made.max_bound, made.monotone) == (d.size, True)
            assert h.table == table

    def test_table_matches_column_words(self):
        rng = random.Random(29)
        for d in [D9] + [random_diagram(rng, n) for n in range(1, 7) for _ in range(4)]:
            h = hrep(d)
            for mask, s in enumerate(subsets(d.n)):
                assert h.table[mask] == theta_from_words(d, s), (d, sorted(s))


class TestMember:
    def test_inside_point(self):
        assert member(hrep(skyline((1, 0, 3))), (2, 1, 1))

    def test_violates_singleton_bound(self):
        assert not member(hrep(skyline((1, 0, 3))), (4, 0, 0))

    def test_all_sweep_vectors_are_members(self):
        rng = random.Random(5)
        for _ in range(5):
            d = random_diagram(rng, 4)
            h = hrep(d)
            for w in itertools.permutations(range(1, 5)):
                assert member(h, vertex_vector(d, w))

    def test_rational_point(self):
        h = hrep(Diagram(2, frozenset({(2, 1)})))
        assert member(h, (Fraction(1, 2), Fraction(1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            member(hrep(TRAPEZOID), (1, 1))

    def test_rejects_non_rational_coordinates(self):
        h = hrep(TRAPEZOID)
        with pytest.raises(ValueError, match="point coordinate 2 is 1.5, expected an integer or a Fraction"):
            member(h, (2, 1.5, 0.5))
        for point in ((2, "1", 1), (2, True, 1)):
            with pytest.raises(ValueError, match="point coordinate 2 is"):
                member(h, point)

    def test_a_coordinate_out_of_range_builds_no_slot(self, monkeypatch):
        # a coordinate above max_bound or below total - max_bound is refused
        # before `_slack`, however large it is
        def no_slack(h, xs, scale):
            raise AssertionError(f"slack built for {xs}")

        rng = random.Random(103)
        tables = [hrep(random_diagram_with_density(rng, n, 0.5)) for n in (2, 3, 6, 12)]
        tables += [HRep(2, -1, (0, 0, 3, -1)), HRep(3, 4, (0, 3, 9, 4, 3, 4, 3, 4))]
        huge = 10 ** 3000
        monkeypatch.setattr(polytope, "_slack", no_slack)
        for h in tables:
            n, top, total = h.n, h.max_bound, h.total
            for first in (top + 1, top + Fraction(1, 3), huge, total - top - 1, total - top - Fraction(1, 3), -huge):
                rest = total - first
                points = [(first, rest) + (0,) * (n - 2), (rest, first) + (0,) * (n - 2)]
                if n >= 3:
                    points.append((first,) + (Fraction(rest, n - 1),) * (n - 1))
                for p in points:
                    assert not member(h, p), (h, p)
        with pytest.raises(AssertionError, match="slack built"):
            member(tables[0], (tables[0].total,) + (0,) * (tables[0].n - 1))

    def test_range_edges_match_fraction_oracle(self):
        # every coordinate at each edge of [total - max_bound, max_bound] and
        # one past it, in whole and in thirds, the rest spread over the others
        rng = random.Random(107)
        tables = [hrep(random_diagram_with_density(rng, n, density)) for n in range(7) for density in (0.3, 0.7)]
        tables += [hrep(Diagram(n, frozenset((1, j) for j in range(1, n + 1)))) for n in (1, 3, 5)]
        tables += [HRep(1, -2, (0, -2)), HRep(2, -1, (0, 0, 3, -1)), HRep(3, 4, (0, 3, 9, 4, 3, 4, 3, 4))]
        inside = set()
        for h in tables:
            n, top, total = h.n, h.max_bound, h.total
            if not n:
                assert member(h, ()) and walk_by_fractions(h, ())[0] is None
                continue
            edges = {"high": top, "low": total - top}
            for side, edge in edges.items():
                step = 1 if side == "high" else -1
                for x in (edge, edge + step, edge + Fraction(step, 3)):
                    for i in range(n):
                        rest = total - x
                        others = [Fraction(rest, n - 1)] * (n - 1) if n > 1 else []
                        uneven = [rest] + [0] * (n - 2) if n > 1 else []
                        for fill in (others, uneven):
                            p = tuple(fill[:i]) + (x,) + tuple(fill[i:])
                            got = member(h, p)
                            assert got == (walk_by_fractions(h, p)[0] is None), (h, p)
                            if got:
                                inside.add((side, x == edge))
        # members sit on both edges, so the exit must keep its edges
        assert inside == {("high", True), ("low", True)}

    def test_witness_prints_unscaled_sums(self):
        h = hrep(TRAPEZOID)
        assert _walk(h, (Fraction(7, 2), Fraction(1, 2), 0))[0] == "sum over [1] is 7/2 > 3"
        assert _walk(h, (Fraction(3), 1, Fraction(1, 3)))[0] == "coordinate sum 13/3 != 4"
        assert _walk(h, (Fraction(4), Fraction(0), Fraction(0)))[0] == "sum over [1] is 4 > 3"


def walk_fuzz_points(h, rng):
    """Points around the polytope: greedy vertices, points between two of
    them with denominators 2, 3, 6 and 7, a vertex with some coordinates
    as `Fraction`s, and each of those shifted outside (one unit moved
    between two coordinates) or off the hyperplane (1/3 added)."""
    n = h.n
    verts = [edmonds_vertex(h.table, rng.sample(range(1, n + 1), n)) for _ in range(3)]
    points = list(verts)
    for u, v in itertools.combinations(verts, 2):
        for q in (2, 3, 6, 7):
            t = rng.randrange(1, q)
            points.append(tuple(Fraction(t * a + (q - t) * b, q) for a, b in zip(u, v)))
    points.append(tuple(Fraction(c) if rng.random() < 0.5 else c for c in verts[0]))
    for p in list(points):
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        shifted = list(p)
        shifted[i] += 1
        shifted[j] -= 1
        off = list(p)
        off[j] += Fraction(1, 3)
        points += [tuple(shifted), tuple(off)]
    return points


def assert_walks_agree(h, p):
    """The packed walk against the naive `Fraction` one, and `member`
    against the walk's verdict; returns the walk."""
    got = _walk(h, p)
    assert got == walk_by_fractions(h, p), (h, p)
    assert member(h, p) == (got[0] is None), (h, p)
    return got


def slot_width(h, p):
    """The slot width `_slack` picks for a point of the hyperplane."""
    return _slack(h, *_scaled(h, p))[2]


class TestWalk:
    """The packed walk against the naive `Fraction` one: the same verdict,
    witness string and tight masks."""

    def test_matches_fraction_oracle(self):
        rng = random.Random(53)
        outcomes = set()
        for n in range(1, 8):
            for density in (0.3, 0.5, 0.7):
                h = hrep(random_diagram_with_density(rng, n, density))
                for p in walk_fuzz_points(h, rng):
                    got = _walk(h, p)
                    assert got == walk_by_fractions(h, p), (h, p)
                    outcomes.add(got[0].split()[0] if got[0] else "inside")
        assert outcomes == {"inside", "sum", "coordinate"}

    @pytest.mark.parametrize("walk", [_walk, walk_by_fractions])
    def test_refuses_a_point_of_the_wrong_dimension(self, walk):
        with pytest.raises(ValueError) as refused:
            walk(hrep(TRAPEZOID), (1, 3))
        assert str(refused.value) == "point has dimension 2, expected 3"

    def test_matches_fraction_oracle_on_rothe_diagrams(self):
        rng = random.Random(59)
        for w in itertools.permutations(range(1, 5)):
            h = hrep(rothe(w))
            for p in walk_fuzz_points(h, rng):
                assert _walk(h, p) == walk_by_fractions(h, p), (w, p)


    @pytest.mark.parametrize("w", [16, 32, 64, 128])
    def test_slot_width_at_the_span_boundary(self, w):
        # the slot width is the smallest 16 * 2^j above scale * max(table) +
        # sum |x_k| + 2 bits: a span just below 2^(w-2) keeps w, a span of
        # 2^(w-2) doubles it; the trapezoid's table times f, its bound on
        # {2, 3} raised above the total to set the span
        f = 2 ** (w - 2) // 16
        base = hrep(TRAPEZOID).table
        points = [(3, 1, 0), (2, 1, 1), (4, 0, 0), (5, -1, 0), (3, 2, -1), (1, 3, 0)]
        for v in points:
            p = tuple(f * c for c in v)
            for span, width in ((2 ** (w - 2) - 1, w), (2 ** (w - 2), 2 * w)):
                table = [f * b for b in base]
                table[0b110] = span - sum(map(abs, p))
                h = HRep(3, 4 * f, tuple(table))
                assert h.max_bound == table[0b110] > h.total
                assert slot_width(h, p) == width, (v, span)
                assert_walks_agree(h, p)

    def test_large_coordinates_and_denominators(self):
        big, eps = 10 ** 30, Fraction(1, 10 ** 12)
        trapezoid = hrep(TRAPEZOID)
        wide = HRep(3, 4 * big, tuple(big * b for b in trapezoid.table))
        cases = [
            (trapezoid, (big, 4 - big, 0)), (trapezoid, (4 - big, big, 0)), (trapezoid, (-big, 3, 1 + big)),
            (trapezoid, (big, big, 0)),                                       # off the hyperplane
            (wide, (3 * big, big, 0)), (wide, (2 * big, big, big)), (wide, (3 * big + 1, big - 1, 0)),
            (trapezoid, (3 - eps, 1 + eps, 0)), (trapezoid, (3 + eps, 1 - eps, 0)),
            (trapezoid, (Fraction(5, 3) + eps, Fraction(4, 3), 1 - eps)), (trapezoid, (1, 3 + eps, -eps)),
            (wide, (3 * big - eps, big + eps, 0)), (wide, (3 * big + eps, big - eps, 0)),
            (trapezoid, (-1, 2, 3)), (trapezoid, (5, -1, 0)), (trapezoid, (2, -1, 3)), (trapezoid, (1, 3, 0)),
        ]
        widths = set()
        for h, p in cases:
            assert_walks_agree(h, p)
            widths.add(slot_width(h, p))
        assert widths == {16, 64, 128, 256}

    def test_hand_built_tables_with_large_bounds(self):
        # bounds of 2^16 and more, and bounds above the total, take wider slots
        rng = random.Random(89)
        outcomes = set()
        for n in (2, 3, 4, 5):
            for _ in range(8):
                total = rng.randrange(2 ** 17)
                bounds = [rng.choice((rng.randrange(2 ** 16, 2 ** 20), rng.randrange(2 * total + 1)))
                          for _ in range(2 ** n - 2)]
                h = HRep(n, total, (0, *bounds, total))
                for p in walk_fuzz_points(h, rng):
                    got = assert_walks_agree(h, p)
                    outcomes.add(got[0].split()[0] if got[0] else "inside")
        assert outcomes == {"inside", "sum", "coordinate"}

    def test_smallest_dimensions(self):
        cases = [
            (HRep(0, 0, (0,)), [()]),
            (HRep(1, 5, (0, 5)), [(5,), (Fraction(5),), (4,), (Fraction(11, 2),)]),
            (HRep(1, -2, (0, -2)), [(-2,), (2,)]),
            (HRep(2, 3, (0, 1, 3, 3)), [(1, 2), (0, 3), (2, 1), (-1, 4), (Fraction(1, 2), Fraction(5, 2)),
                                        (3, 3)]),
            (HRep(2, -1, (0, 0, 3, -1)), [(-1, 0), (0, -1), (-4, 3), (-5, 4), (Fraction(-1, 2), Fraction(-1, 2))]),
            (hrep(Diagram(2, frozenset({(1, 1), (2, 2)}))), [(1, 1), (2, 0), (0, 2), (3, -1), (1, 0)]),
        ]
        for h, points in cases:
            for p in points:
                assert_walks_agree(h, p)

    def test_full_grid_at_the_cap(self):
        # theta(S) = n |S|: x = (n, ..., n) is a member with every mask tight;
        # moving a unit from j to i < j leaves the masks below {i} tight and
        # violates {i} first
        n = HREP_CAP
        h = hrep(Diagram(n, frozenset(itertools.product(range(1, n + 1), repeat=2))))
        x = (n,) * n
        assert member(h, x)
        assert _walk(h, x) == (None, list(range(1, 2 ** n - 1)))
        for i, j in ((1, 2), (1, n), (5, 9), (n - 1, n)):
            p = list(x)
            p[i - 1] += 1
            p[j - 1] -= 1
            assert not member(h, p)
            assert _walk(h, p) == (f"sum over [{i}] is {n + 1} > {n}", list(range(1, 2 ** (i - 1)))), (i, j)


class TestSchubertMatroidBases:
    def test_exported_by_the_package(self):
        import schubitope
        from schubitope import oracles

        assert schubitope.schubert_matroid_bases is oracles.schubert_matroid_bases
        assert "schubert_matroid_bases" in schubitope.__all__

    def test_two_element_example(self):
        assert schubert_matroid_bases({1, 3}, 3) == {frozenset({1, 2}), frozenset({1, 3})}

    def test_top_singleton(self):
        assert schubert_matroid_bases({4}, 4) == {frozenset({i}) for i in range(1, 5)}

    def test_empty_set(self):
        assert schubert_matroid_bases(set(), 3) == {frozenset()}

    @pytest.mark.parametrize("n", [3.0, True, -1])
    def test_ground_set_size_is_a_size(self, n):
        with pytest.raises(ValueError) as refused:
            schubert_matroid_bases({1}, n)
        assert str(refused.value) == f"ground set size must be a non-negative integer, got {n!r}"

    def test_cap(self):
        n = oracles.ENUMERATION_CAP
        assert len(schubert_matroid_bases({n}, n)) == n
        with pytest.raises(ValueError) as refused:
            schubert_matroid_bases({1}, n + 1)
        assert str(refused.value) == f"basis enumeration capped at n <= {n}"

    def test_counts_against_gale_definition(self):
        for s in subsets(5):
            bases = schubert_matroid_bases(s, 5)
            expect = {
                frozenset(t)
                for t in itertools.combinations(range(1, 6), len(s))
                if all(a <= b for a, b in zip(t, sorted(s)))
            }
            assert bases == expect


class TestEdmondsVertex:
    def test_matches_intro_vector(self):
        d = skyline((1, 0, 3))
        assert edmonds_vertex([rank_diagram(d, s) for s in subsets(3)], (2, 1, 3)) == (1, 3, 0)

    def test_zero_function(self):
        assert edmonds_vertex([0] * 8, (3, 1, 2)) == (0, 0, 0)

    def test_modular_function(self):
        c = (5, 2, 7)
        table = [sum(c[i - 1] for i in s) for s in subsets(3)]
        for w in itertools.permutations(range(1, 4)):
            assert edmonds_vertex(table, w) == c

    def test_prefix_sums_telescope(self):
        # any table, of any sign and with table[0] != 0: the coordinates
        # along each prefix of w sum to table[prefix] - table[0]
        rng = random.Random(5)
        for n in range(0, 6):
            for _ in range(6):
                table = [rng.randint(-4, 9) for _ in range(2 ** n)]
                for w in itertools.permutations(range(1, n + 1)):
                    x = edmonds_vertex(table, w)
                    for k in range(n + 1):
                        prefix = w[:k]
                        assert sum(x[i - 1] for i in prefix) == table[_subset_mask(prefix)] - table[0], (table, w, k)

    def test_refuses_a_table_of_the_wrong_length(self):
        for table in ([0] * 7, [0] * 16, []):
            with pytest.raises(ValueError) as refused:
                edmonds_vertex(table, (3, 1, 2))
            assert str(refused.value) == f"table has {len(table)} entries, expected 2^3"

    def test_agrees_with_filling_on_random_diagrams(self):
        assert_check("greedy-equals-filling", 4, 15936)

    def test_prefix_tightness(self):
        assert_check("greedy-prefix-tight", 4, 960)


class TestVertices:
    def test_trapezoid(self):
        assert vertices(TRAPEZOID) == TRAPEZOID_VERTICES

    def test_point_polytope(self):
        assert vertices(Diagram(3, frozenset({(1, 1)}))) == {(1, 0, 0)}

    def test_skylines_match_lower_intervals(self):
        assert_check("skyline-vertices-lower-interval", 3, 75)

    def test_rothe_1432_matches_exponent_hull(self):
        from schubitope.lp import hull_vertices
        from schubitope.polyoracle import newton_exponents, schubert_polynomial

        swept = vertices(rothe((1, 4, 3, 2)))
        support = newton_exponents(schubert_polynomial((1, 4, 3, 2)))
        assert hull_vertices(support) == swept

    def test_sweep_cap(self):
        with pytest.raises(ValueError, match="budget"):
            vertices(Diagram(SWEEP_CAP + 1, frozenset()))

    def test_vertices_and_certification_share_the_cap(self):
        # certification runs the enumeration behind `vertices`, so one cap
        # bounds both: the empty diagram's table is all zeros, fast at any n
        n = SWEEP_CAP
        assert vertices(Diagram(n, frozenset())) == {(0,) * n}
        assert certify_vertices(HRep(n, 0, (0,) * 2 ** n), {(0,) * n}).ok
        n += 1
        with pytest.raises(ValueError, match=rf"^vertex enumeration at n = {n} exceeds the enumeration budget"):
            vertices(Diagram(n, frozenset()))
        with pytest.raises(ValueError, match=rf"^certification capped at n <= {SWEEP_CAP}$"):
            certify_vertices(HRep(n, 0, (0,) * 2 ** n), {(0,) * n})

    def test_returns_a_fresh_set_each_call(self):
        # the enumeration is memoized for the last table; a caller's edits
        # must not reach the memo
        got = vertices(TRAPEZOID)
        got.add((0, 0, 4))
        got.discard((3, 1, 0))
        assert vertices(TRAPEZOID) == TRAPEZOID_VERTICES
        assert certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES).ok

    def test_oracle_sweeps_keep_their_own_cap(self):
        with pytest.raises(ValueError, match="budget"):
            vertices_by_filling(Diagram(oracles.SWEEP_CAP + 1, frozenset()))
        with pytest.raises(ValueError, match="budget"):
            greedy_vectors_by_sweep((0,) * 2 ** (oracles.SWEEP_CAP + 1), oracles.SWEEP_CAP + 1)

    def test_nested_simplices_past_the_oracle_cap(self):
        # D(2,1,4,3,...,10,9) is the boxes (1, 1), (3, 3), ..., (9, 9), so its
        # polytope is the sum of the simplices on 1..1, 1..3, ..., 1..9; a
        # vertex takes each simplex's top value along a generic direction,
        # which is the previous simplex's or one of its two new values: 3^4
        d = rothe((2, 1, 4, 3, 6, 5, 8, 7, 10, 9))
        assert len(vertices(d)) == 81

    def test_matches_the_filling_walk_past_the_oracle_cap(self):
        # the one oracle run above the n! sweeps' cap: the paper's greedy
        # fillings along all 9! orders, against the enumeration joined at the
        # middle layer
        d = random_diagram(random.Random(9), 9)
        verts = vertices(d)
        assert len(verts) == 12488
        assert verts == {x for _, x in vertex_vectors(d)}

    def test_vertices_past_the_oracle_cap_are_tight_members(self):
        d = random_diagram_with_density(random.Random(95), 9, 0.2)
        h, verts = hrep(d), vertices(d)
        assert len(verts) == 327
        assert all(member(h, v) and tight_rank(h, v) == 9 for v in verts)

    def test_matches_filling_sweep_on_random_diagrams(self):
        rng = random.Random(31)
        for n in range(1, 8):
            for density in (0.3, 0.5, 0.7):
                d = random_diagram_with_density(rng, n, density)
                assert vertices(d) == vertices_by_filling(d), d

    def test_matches_filling_sweep_on_rothe_diagrams(self):
        for n in range(1, 6):
            for w in itertools.permutations(range(1, n + 1)):
                assert vertices(rothe(w)) == vertices_by_filling(rothe(w)), w

    def test_matches_filling_sweep_on_skylines(self):
        for n in range(1, 5):
            for alpha in itertools.product(range(min(n, 3) + 1), repeat=n):
                assert vertices(skyline(alpha)) == vertices_by_filling(skyline(alpha)), alpha


class TestCertify:
    def test_trapezoid_passes(self):
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES)
        assert cert.ok and cert.method == "greedy" and cert.failures == ()

    def test_is_frozen(self):
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES)
        assert_frozen(cert, "Certification(points=4, failures=())",
                      ok=False, method="walk", points=0, failures=("forged",))
        # ok is decided by the failures alone, and method is the class's
        assert not Certification(4, ("x",)).ok and Certification.method == cert.method == "greedy"

    def test_segment_passes(self):
        h = hrep(Diagram(2, frozenset({(2, 1)})))
        assert certify_vertices(h, {(1, 0), (0, 1)}).ok

    def test_missing_vertex_fails_with_witness(self):
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES - {(3, 1, 0)})
        assert not cert.ok
        assert any("(3, 1, 0)" in f and "missing" in f for f in cert.failures)

    def test_interior_point_fails_as_non_vertex(self):
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES | {(2, 1, 1)})
        assert not cert.ok
        assert any("(2, 1, 1)" in f and "not a vertex" in f for f in cert.failures)

    def test_outside_point_fails_membership(self):
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES | {(4, 0, 0)})
        assert not cert.ok
        assert any("violates" in f for f in cert.failures)

    def test_single_column_polytopes_have_basis_vertices(self):
        for n in range(1, 6):  # one instance per row set of the column
            assert_check("column-polytope-bases", n, 2 ** n)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            certify_vertices(HRep(SWEEP_CAP + 1, 0, (0,) * 2 ** (SWEEP_CAP + 1)), set())

    def test_claim_order_does_not_change_the_outcome(self):
        # only the claimed points that are no vertex are sorted; the outcome
        # is that of the sorted claim
        rng = random.Random(29)
        verts = sorted(TRAPEZOID_VERTICES)
        h = hrep(TRAPEZOID)
        for extra in ([], [(2, 1, 1)], [(4, 0, 0), (2, 1, 1)], [(0, 0, 4)]):
            claim = verts[1:] + extra
            expected = certify_vertices(h, sorted(claim))
            for _ in range(6):
                rng.shuffle(claim)
                assert certify_vertices(h, claim) == expected, claim

    def test_repeated_points_count_once(self):
        # a point claimed twice, or once more with equal Fraction coordinates,
        # is one point
        verts = sorted(TRAPEZOID_VERTICES)
        claim = verts + [verts[0], tuple(map(Fraction, verts[1])), (2, 1, 1), (2, 1, 1)]
        cert = certify_vertices(hrep(TRAPEZOID), claim)
        assert (cert.points, len(cert.failures)) == (5, 1)

    @pytest.mark.parametrize("claim, message", [
        ([(1, 0, 3), ("1", 0, 3)], "point coordinate 1 is '1', expected an integer or a Fraction"),
        ([(1, 0, 3), (1, [0], 3)], "point coordinate 2 is [0], expected an integer or a Fraction"),
    ])
    def test_malformed_claims_get_the_one_line_error(self, claim, message):
        # each point is checked before the claim is sorted and de-duplicated,
        # which would raise TypeError on a string or a list coordinate
        with pytest.raises(ValueError) as refused:
            certify_vertices(hrep(TRAPEZOID), claim)
        assert str(refused.value) == message

    @staticmethod
    def long_claim():
        """The hrep and the sorted vertices of an n = 6 diagram with 164 of them."""
        d = random_diagram_with_density(random.Random(101), 6, 0.5)
        verts = sorted(vertices(d))
        assert len(verts) == 164
        return hrep(d), verts

    @pytest.mark.parametrize("make_bad, message", [
        (lambda v: v[:5], "point has dimension 5, expected 6"),
        (lambda v: v + (0,), "point has dimension 7, expected 6"),
        (lambda v: (*v[:3], float(v[3]), *v[4:]), "point coordinate 4 is {x}.0, expected an integer or a Fraction"),
        (lambda v: (*v[:3], True, *v[4:]), "point coordinate 4 is True, expected an integer or a Fraction"),
    ])
    def test_one_bad_point_late_in_a_long_claim(self, make_bad, message):
        # the claim is checked in bulk, and the point-by-point scan that runs
        # only when the bulk check fails gives the one-line error of the
        # first bad point, here the 141st of 164
        h, verts = self.long_claim()
        claim = list(verts)
        claim[140] = make_bad(verts[140])
        with pytest.raises(ValueError) as refused:
            certify_vertices(h, claim)
        assert str(refused.value) == message.format(x=verts[140][3])

    def test_the_earlier_of_two_bad_points_is_named(self):
        h, verts = self.long_claim()
        wrong_length, floating = verts[20][:4], (*verts[130][:5], 0.5)
        for early, late, message in (
            (wrong_length, floating, "point has dimension 4, expected 6"),
            (floating, wrong_length, "point coordinate 6 is 0.5, expected an integer or a Fraction"),
        ):
            claim = list(verts)
            claim[20], claim[130] = early, late
            with pytest.raises(ValueError) as refused:
                certify_vertices(h, claim)
            assert str(refused.value) == message

    def test_a_claim_mixing_ints_and_fractions_passes_the_bulk_check(self):
        # `fractions` is loaded here, so a Fraction is an exact coordinate:
        # whole Fractions, alone or beside ints in one point, are the vertex
        h, verts = self.long_claim()
        claim = [tuple(map(Fraction, v)) if k % 3 == 0 else (Fraction(v[0]), *v[1:]) if k % 3 == 1 else v
                 for k, v in enumerate(verts)]
        cert = certify_vertices(h, claim)
        assert cert.ok and cert.points == len(verts)
        half = (Fraction(verts[0][0], 2), *verts[0][1:])
        assert certify_vertices(h, claim + [half]).failures == (
            f"claimed vertex {half} violates the description: {_walk(h, half)[0]}",)

    def test_non_submodular_bounds_are_refused_after_the_point_check(self, monkeypatch):
        # certification refuses the table before any walk or LP: a claim
        # holding a point off the hyperplane raises instead of failing (a)
        def forbidden(*args):
            raise AssertionError("walk or LP before the refusal")

        for module, name in ((polytope, "_walk"), (lp, "convex_combination")):
            monkeypatch.setattr(module, name, forbidden)
        h = raised_theta_table(random.Random(7), 6)
        refusal = "bounds are not submodular; certification covers submodular tables only"
        for claim in (set(), {(h.total, 0, 0, 0, 0, 0)}, {(h.total + 1, 0, 0, 0, 0, 0)}):
            with pytest.raises(ValueError) as refused:
                certify_vertices(h, claim)
            assert str(refused.value) == refusal, claim
        with pytest.raises(ValueError, match="dimension 2, expected 6"):  # malformed points first
            certify_vertices(h, {(0, 0)})

    def test_one_failure_per_non_vertex_point(self):
        # an interior point fails as a member that is no vertex, a point
        # outside on its first violated bound, and no vertex fails with them
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES | {(2, 1, 1)})
        assert (cert.points, cert.failures) == (5, (
            "claimed vertex (2, 1, 1) is not a vertex: "
            "it lies in the polytope, but its tight rows have rank below 3",
        ))
        cert = certify_vertices(hrep(TRAPEZOID), TRAPEZOID_VERTICES | {(4, 0, 0)})
        assert (cert.points, cert.failures) == (5, (
            "claimed vertex (4, 0, 0) violates the description: sum over [1] is 4 > 3",
        ))

    def test_point_beyond_a_vertex_fails_alone(self):
        # a short vertex set plus q = 2v - u, outside the polytope beyond the
        # vertex v: q fails on its first violated bound, v does not fail
        rng = random.Random(61)
        for n, claimed in ((5, 18), (6, 74)):
            d = random_diagram_with_density(rng, n, 0.3)
            h, verts = hrep(d), sorted(vertices(d))
            u, v = verts[1], verts[-1]
            q = tuple(2 * b - a for a, b in zip(u, v))
            cert = certify_vertices(h, set(verts[1:]) | {q})
            assert cert.failures == (
                f"claimed vertex {q} violates the description: {_walk(h, q)[0]}",
                *certify_vertices(h, verts[1:]).failures,
            )
            assert cert.points == claimed

    def test_points_off_the_hyperplane_fail_alone(self):
        # a + b lies above sum(x) = total and a - b below it; a is their
        # midpoint, but only the two outside points fail, on the coordinate sum
        rng = random.Random(67)
        corpus = [random_diagram_with_density(rng, n, 0.5) for n in (3, 4, 5) * 4]
        for d in [d for d in corpus if len(vertices(d)) > 1]:
            h, verts = hrep(d), sorted(vertices(d))
            a, b = rng.sample(verts, 2)
            above, below = tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b))
            for extra in ({above}, {above, below}):
                cert = certify_vertices(h, set(verts) | extra)
                assert cert.failures == tuple(
                    f"claimed vertex {q} violates the description: coordinate sum {sum(q)} != {h.total}"
                    for q in sorted(extra)), d

    def test_random_diagrams_up_to_the_cap(self):
        rng = random.Random(78)
        for n, density in ((7, 0.5), (8, 0.3), (9, 0.5)):  # n = 10 is too slow here
            d = random_diagram_with_density(rng, n, density)
            h, verts = hrep(d), vertices(d)
            cert = certify_vertices(h, verts)
            assert cert.ok and cert.method == "greedy", d
            short = certify_vertices(h, verts - {min(verts)})
            assert len(short.failures) == 1
            assert short.failures[0].startswith(f"vertex {min(verts)} (greedy order ")

    def test_trapezoid_missing_witnesses_in_sweep_order(self):
        cert = certify_vertices(hrep(TRAPEZOID), {(1, 0, 3)})
        assert cert.failures == (
            "vertex (3, 1, 0) (greedy order (1, 2, 3)) is missing from the claimed set",
            "vertex (3, 0, 1) (greedy order (1, 3, 2)) is missing from the claimed set",
            "vertex (1, 3, 0) (greedy order (2, 1, 3)) is missing from the claimed set",
        )

    def test_missing_witnesses_match_the_permutation_sweep(self):
        # the missing-vertex witnesses are those of the lexicographic S_n
        # sweep: each missing vertex once, with the first order reaching it,
        # in the order the sweep first meets them, after every failure of a
        # claimed point
        rng = random.Random(83)
        for n in (1, 2, 3, 4, 5, 6) * 50:
            d = random_diagram(rng, n)
            h, verts = hrep(d), sorted(vertices(d))
            claimed = {v for v in verts if rng.random() < 0.5}
            if n > 1 and rng.random() < 0.2:  # past the bound on {1}, on the hyperplane
                claimed.add((h.total + 1,) + (0,) * (n - 2) + (-1,))
            swept = {}
            for w in itertools.permutations(range(1, n + 1)):
                swept.setdefault(edmonds_vertex(h.table, w), w)
            missing = [f"vertex {v} (greedy order {w}) is missing from the claimed set"
                       for v, w in swept.items() if v not in claimed]
            failures = certify_vertices(h, claimed).failures
            assert failures[len(failures) - len(missing):] == tuple(missing), d
            assert not any(f.startswith("vertex ") for f in failures[:len(failures) - len(missing)])


class TestGreedyVectors:
    """The prefix-mask enumerator behind `vertices` and certification's
    missing vertices, against one `edmonds_vertex` run per permutation, on
    any integer table: the enumeration assumes nothing of the table, and
    negative, wide and non-submodular steps test its lift and slot width
    more than theta tables do.  `_first_order` is exact on submodular tables
    only, so it is checked on those."""

    @staticmethod
    def random_tables(rng, n):
        for lo, hi in ((0, 3), (-5, 5), (-300, 1000), (250, 600), (-10 ** 12, 10 ** 12)):
            yield [rng.randint(lo, hi) for _ in range(2 ** n)]  # non-monotone, non-submodular
        yield list(hrep(random_diagram(rng, n)).table)
        yield [-b for b in hrep(random_diagram(rng, n)).table]   # supermodular

    def test_matches_permutation_sweep(self):
        rng = random.Random(41)
        for n in range(7):
            for _ in range(4):
                for table in self.random_tables(rng, n):
                    assert _greedy_vectors(table, n) == greedy_vectors_by_sweep(table, n), (n, table)

    @staticmethod
    def spanning_tables(rng, n, lo, span):
        """Random tables over [lo, lo + span] that hold lo and lo + span, the
        second also as a step of +span (mask 0 to {1}) and a step of -span
        (mask {2} to {1, 2}), the widest increments a table of that span has:
        three below n = 7, where the sweep is cheap, and one at n = 7, whose
        vectors are joined from both ends."""
        for _ in range(3 if n < 7 else 1):
            table = [rng.randint(lo, lo + span) for _ in range(2 ** n)]
            table[0] = lo
            table[-1] = lo + span
            if n >= 2:
                table[1], table[2], table[3] = lo + span, lo + span, lo
            yield table

    def test_every_slot_width(self):
        # a slot of k whole bytes holds spans below 2^(8k - 1), and these
        # tables, not monotone, are lifted so that their increments run from
        # 0 to 2 * span: a span just below 2^(8k - 1) runs k bytes and one at
        # it k + 1, for k = 1, 2, 3, 4, 5, 8 and 10, the single bytes read as
        # bytes and every wider slot one at a time; the +span step, lifted
        # to 2 * span, sets the top bit of its slot and overflows a slot one
        # byte too narrow
        rng = random.Random(44)
        for n in range(8):
            for bits in (7, 15, 23, 31, 39, 63, 79):
                for span in (2 ** bits - 1, 2 ** bits):
                    for lo in (0, -span):
                        for table in self.spanning_tables(rng, n, lo, span):
                            assert _greedy_vectors(table, n) == greedy_vectors_by_sweep(table, n), (n, table)

    def test_bounds_of_two_to_the_seventy(self):
        rng = random.Random(45)
        for n in range(8):
            for table in self.spanning_tables(rng, n, -2 ** 70, 2 ** 71):
                vectors = _greedy_vectors(table, n)
                assert vectors == greedy_vectors_by_sweep(table, n), (n, table)
                assert n < 2 or {-2 ** 71, 2 ** 71} <= {c for v in vectors for c in v}

    def test_joins_that_repeat_vectors(self):
        # from n = 6 on, every vector is a sum of a vector reached at a middle
        # set S and one reached from the other end at its complement: a
        # modular table's one vector is reached through every S, and a direct
        # sum's vectors, each a pair of its blocks' vectors, through many
        rng = random.Random(47)
        for n in (6, 7):
            c = [rng.randint(-9, 9) for _ in range(n)]
            modular = [sum(x for i, x in enumerate(c) if mask >> i & 1) for mask in range(2 ** n)]
            assert _greedy_vectors(modular, n) == {tuple(c)} == greedy_vectors_by_sweep(modular, n)
            block = sum(1 << i for i in range(0, n, 2))     # elements 1, 3, 5, ...; the rest is the other block
            f, g = ([rng.randint(-50, 50) for _ in range(2 ** n)] for _ in range(2))
            table = [f[mask & block] + g[mask & ~block] for mask in range(2 ** n)]
            vectors = _greedy_vectors(table, n)
            assert vectors == greedy_vectors_by_sweep(table, n), (n, table)
            assert len(vectors) < math.factorial(n) // 10, (n, len(vectors))

    def test_every_order_of_a_random_n7_table(self):
        # a random table at n = 7 has a greedy vector per order, 5,040 in all
        rng = random.Random(46)
        table = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(2 ** 7)]
        vectors = _greedy_vectors(table, 7)
        assert len(vectors) == 5040
        assert vectors == greedy_vectors_by_sweep(table, 7)

    @staticmethod
    def monotone_tables(rng, n, span):
        """Random monotone tables over [0, span], most not submodular: each
        entry the largest of random values drawn for its submasks, with a
        step of +span (mask 0 to {1}); then |S| * m plus a random value
        below m, with m = span // (n + 1), whose steps are all positive and
        whose greedy vectors are mostly distinct."""
        for _ in range(3 if n < 7 else 1):
            table = [rng.randint(0, span) for _ in range(2 ** n)]
            table[0] = 0
            if n:
                table[1] = span
            for k in range(n):
                for mask in range(2 ** n):
                    if mask >> k & 1:
                        table[mask] = max(table[mask], table[mask ^ 1 << k])
            yield table
        if n:
            m = span // (n + 1)
            yield [0, *(mask.bit_count() * m + rng.randrange(m) for mask in range(1, 2 ** n))]

    def test_monotone_tables_in_unsigned_slots(self):
        # on a monotone table every slot holds its coordinate with no lift:
        # spans just below and at 2^7, 2^15, 2^23, 2^31, 2^39 and 2^63 run
        # slots of 1 to 6, 8 and 9 bytes, single bytes read as bytes and
        # wider slots one at a time, and n = 7 joins 5,040 orders' vectors,
        # so some table decodes more than 1,024 vectors in one pass
        rng = random.Random(48)
        many = False
        for n in range(8):
            for bits in (7, 15, 23, 31, 39, 63):
                for span in (2 ** bits - 1, 2 ** bits):
                    for table in self.monotone_tables(rng, n, span):
                        vectors = _greedy_vectors(table, n, monotone=True)
                        assert vectors == greedy_vectors_by_sweep(table, n), (n, table)
                        assert vectors == _greedy_vectors(table, n), (n, table)
                        many |= len(vectors) > 1024
        assert many

    def test_the_vertex_set_of_a_table_that_is_not_monotone(self):
        # a graph's cut function is submodular with non-negative bounds but
        # falls to 0 at the full set, so its HRep is not monotone and its
        # vertices, with negative coordinates, come from the lifted table
        rng = random.Random(49)
        for n in (3, 5, 6, 7):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            table = tuple(sum((mask >> a & 1) != (mask >> b & 1) for a, b in edges) for mask in range(2 ** n))
            h = HRep(n, 0, table)
            assert not h.monotone and _is_submodular(table, n)
            verts = greedy_vectors_by_sweep(table, n)
            assert min(min(v) for v in verts) < 0
            assert polytope._vertex_set(h) == verts, (n, edges)
            assert certify_vertices(h, verts).ok

    def test_monotone_is_the_definition(self):
        # no bound falls from a set to a superset; hrep's theta tables are
        # monotone, as a rank is
        rng = random.Random(50)
        for n in range(5):
            for table in itertools.chain(self.random_tables(rng, n), self.monotone_tables(rng, n, 9)):
                table = [0, *(abs(b) for b in table[1:])]
                h = HRep(n, table[-1], table)
                assert h.monotone == all(table[s] <= table[t] for s in range(2 ** n) for t in range(2 ** n)
                                         if s & t == s), table
            d = random_diagram(rng, n)
            assert hrep(d).monotone and HRep(n, hrep(d).total, hrep(d).table).monotone

    @staticmethod
    def submodular_tables(rng, n):
        """Two theta tables, and two sums of concave functions of |S & A|
        over random masks A plus a signed modular term."""
        for density in (0.3, 0.6):
            yield list(hrep(random_diagram_with_density(rng, n, density)).table)
        for _ in range(2):
            parts = [(rng.getrandbits(n), [0, *itertools.accumulate(
                sorted((rng.randint(-3, 5) for _ in range(n)), reverse=True))]) for _ in range(3)]
            modular = [rng.randint(-4, 4) for _ in range(n)]
            yield [sum(g[bin(mask & a).count("1")] for a, g in parts)
                   + sum(c for i, c in enumerate(modular) if mask >> i & 1) for mask in range(2 ** n)]

    def test_moves_by_layer(self):
        # entry j of _moves(n) lists the C(n, j) masks of j elements,
        # increasing, each with its n - j free moves, and every mask once;
        # the move adding element k + 1 writes slot k on every machine
        for n in range(7):
            layers = polytope._moves(n)
            assert sorted(mask for layer in layers for mask, _ in layer) == list(range(2 ** n))
            for j, layer in enumerate(layers):
                masks = [mask for mask, _ in layer]
                assert len(masks) == math.comb(n, j) and masks == sorted(masks), (n, j)
                for mask, free in layer:
                    assert mask.bit_count() == j
                    assert list(free) == [(mask | 1 << k, k) for k in range(n) if not mask >> k & 1]

    def test_decodes_hand_packed_little_endian_slots(self):
        # coordinate i of a vector sits at bit 8 * k * i, read little-endian
        # whatever the machine's byte order: slots of 1, 2, 3 and 9 bytes,
        # 0, 1 and the slot's top among random values, a lift taken off
        # each, 1,031 vectors in one pass, and no vectors at all
        rng = random.Random(51)
        n = 4
        for k in (1, 2, 3, 9):
            top = (1 << 8 * k) - 1
            coords = [(0, top, 1, top - 1), (top, 0, 0, 0)]
            coords += [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(1029)]
            packed = [sum(c << 8 * k * i for i, c in enumerate(v)) for v in coords]
            for lift in (0, 1, top // 2):
                assert list(polytope._decoded(packed, n, k, lift)) == [tuple(c - lift for c in v) for v in coords]
                assert list(polytope._decoded([], n, k, lift)) == []
        # hrep's 16-bit table, mask 0 in the lowest two bytes, low byte first
        table = (0, 1, 255, 256, 258, 0x1234, 0xFF00, 0xFFFF)
        assert _unpack(int.from_bytes(b"".join(b.to_bytes(2, "little") for b in table), "little"), 3) == table
        assert _unpack(sum(b << 16 * m for m, b in enumerate(table)), 3) == table

    def test_first_order_is_the_lexicographically_first(self):
        # the first order of the S_n sweep reaching each point, or None, on
        # vertices, members between two vertices, points off the hyperplane
        # and points beyond a vertex
        rng = random.Random(43)
        reached = set()
        for n in range(7):
            for table in self.submodular_tables(rng, n):
                assert _is_submodular(table, n), (n, table)
                first = first_orders(tuple(table), n)
                verts = sorted(first)
                points = list(verts)
                pairs = list(itertools.combinations(verts, 2))
                for a, b in rng.sample(pairs, min(10, len(pairs))):
                    points += [tuple(Fraction(x + y, 2) for x, y in zip(a, b)),
                               tuple(x + (i == 0) for i, x in enumerate(a)),
                               tuple(2 * x - y for x, y in zip(a, b))]
                for p in points:
                    order = _first_order(table, p, n)
                    assert order == first.get(p), (n, table, p)
                    reached.add(order is None)
        assert reached == {True, False}

    def test_first_order_stops_at_the_first_prefix_without_a_tight_step(self):
        # p sums to 11, so it is no greedy vector of this modular table, whose
        # every step is 1: the pass takes 1..9, each step tight, and returns
        # None at the prefix 1..9, where the one step left, 10, is 1 and not 2
        table = (0, *(bin(mask).count("1") for mask in range(1, 2 ** 10)))
        assert _first_order(table, (1,) * 9 + (2,), 10) is None


def probe_points(verts, rng):
    """The vertices, then points between them: the lattice points among up to
    ten midpoints of vertex pairs (on an edge or inside a face), and the
    barycenter (inside the polytope, rational)."""
    verts = sorted(verts)
    pairs = list(itertools.combinations(verts, 2))
    mids = [tuple(a + b for a, b in zip(u, v)) for u, v in rng.sample(pairs, min(10, len(pairs)))]
    points = [*verts, *(tuple(c // 2 for c in m) for m in mids if all(c % 2 == 0 for c in m))]
    points.append(tuple(Fraction(sum(c), len(verts)) for c in zip(*verts)))
    return points


class TestTightRank:
    """The tight-row vertex test against the LP verdict it replaces in
    certification: a member p is a vertex iff it is no convex combination
    of the other vertices."""

    def assert_matches_lp(self, d, rng):
        h, verts = hrep(d), vertices(d)
        verdicts = set()
        for p in probe_points(verts, rng):
            assert member(h, p)
            by_lp = convex_combination(p, sorted(verts - {p})) is None
            assert (tight_rank(h, p) == d.n) == by_lp, (d, p)
            verdicts.add(by_lp)
        return verdicts

    def test_rothe_diagrams(self):
        rng = random.Random(3)
        verdicts = set()
        for n in range(1, 6):
            for w in itertools.permutations(range(1, n + 1)):
                verdicts |= self.assert_matches_lp(rothe(w), rng)
        assert verdicts == {True, False}

    def test_random_diagrams(self):
        rng = random.Random(4)
        verdicts = set()
        sizes = [(n, density) for n in range(1, 6) for density in (0.3, 0.5, 0.7)]
        for n, density in sizes + [(6, 0.3), (6, 0.7)]:
            verdicts |= self.assert_matches_lp(random_diagram_with_density(rng, n, density), rng)
        assert verdicts == {True, False}

    def test_edges_and_interior_of_the_trapezoid(self):
        h = hrep(TRAPEZOID)
        assert [tight_rank(h, p) for p in sorted(TRAPEZOID_VERTICES)] == [3] * 4
        assert tight_rank(h, (2, 2, 0)) == 2   # edge (1,3,0)-(3,1,0)
        assert tight_rank(h, (2, 1, 1)) == 1   # interior

    def test_rejects_points_outside_the_polytope(self):
        with pytest.raises(ValueError, match=r"outside the polytope: sum over \[1\] is 4 > 3"):
            tight_rank(hrep(TRAPEZOID), (4, 0, 0))


def raised_theta_table(rng, n):
    """The theta table of a random diagram with one bound raised by 1 or 2,
    redrawn until it is not submodular: a table the submodularity test must
    reject and certification must refuse.  Raising a bound keeps every table
    at n <= 2 submodular, so there the redraws would never end."""
    if n < 3:
        raise ValueError(f"no raised theta table at n = {n} is non-submodular")
    while True:
        table = list(hrep(random_diagram(rng, n)).table)
        table[rng.randrange(1, 2 ** n - 1)] += rng.randint(1, 2)
        if not _is_submodular(table, n):
            return HRep(n, table[-1], tuple(table))


def claim_families(verts, rng):
    """The vertex set, then one point short, then plus a + b (off the
    hyperplane), plus 2a - b (on it, beyond a) and plus the midpoint of a
    and b (inside, rational), for two vertices a, b."""
    a, b = rng.sample(sorted(verts), 2) if len(verts) > 1 else (min(verts),) * 2
    return [verts, verts - {a},
            verts | {tuple(x + y for x, y in zip(a, b))},
            verts | {tuple(2 * x - y for x, y in zip(a, b))},
            verts | {tuple(Fraction(x + y, 2) for x, y in zip(a, b))}]


def certification_by_references(h, claim):
    """The outcome certification must give on a submodular table, from the
    references it was assembled from, none of which reads the greedy-vector
    enumeration: each distinct claimed point, sorted, that violates a bound
    fails on the first one (`_walk`), and each other point whose tight rows
    have rank below n (`oracles.tight_rank`) fails as no vertex; then each
    vector of the S_n sweep of `edmonds_vertex` that is not claimed fails,
    named by the first order reaching it, in the order the sweep meets it."""
    n = h.n
    claimed = {tuple(p) for p in claim}
    failures = []
    for p in sorted(claimed):
        violation = _walk(h, p)[0]
        if violation is not None:
            failures.append(f"claimed vertex {p} violates the description: {violation}")
        elif tight_rank(h, p) < n:
            failures.append(f"claimed vertex {p} is not a vertex: it lies in the polytope, "
                            f"but its tight rows have rank below {n}")
    failures += [f"vertex {v} (greedy order {w}) is missing from the claimed set"
                 for v, w in first_orders(h.table, n).items() if v not in claimed]
    return Certification(points=len(claimed), failures=tuple(failures))


@functools.lru_cache(maxsize=1)
def first_orders(table, n):
    """Each vector of the S_n sweep of `edmonds_vertex` with the first order
    reaching it, in the order the sweep meets them; kept for the last table,
    which every claim family of a sweep shares."""
    swept = {}
    for w in itertools.permutations(range(1, n + 1)):
        swept.setdefault(edmonds_vertex(table, w), w)
    return swept


class TestChainCertificates:
    """Certification by lookup among the greedy vectors against the walk,
    the tight-row rank test of every claimed point and the permutation sweep
    (`certification_by_references`), and the submodularity test their
    soundness rests on against its definition."""

    def test_matches_walk_oracle_on_random_claims(self):
        rng = random.Random(97)
        sizes = [1] * 10 + [2] * 60 + [3] * 130 + [4] * 150 + [5] * 40 + [6] * 10
        for n in sizes:
            d = random_diagram(rng, n)
            h, verts = hrep(d), vertices(d)
            for claim in claim_families(verts, rng):
                assert certify_vertices(h, claim) == certification_by_references(h, claim), (d, claim)

    def test_certification_runs_no_simplex(self, monkeypatch):
        # every claim family, with every entry to the simplex raising
        def forbidden(*args):
            raise AssertionError("certification ran the simplex")

        for name in ("solve_nonnegative", "convex_combination"):
            monkeypatch.setattr(lp, name, forbidden)
        rng = random.Random(101)
        failed = 0
        for n in (1, 2, 3, 4, 5, 6) * 8:
            d = random_diagram(rng, n)
            h, verts = hrep(d), vertices(d)
            for claim in claim_families(verts, rng):
                failed += not certify_vertices(h, claim).ok
        assert failed > 0

    def test_submodularity_matches_pairs_oracle(self):
        rng = random.Random(99)
        verdicts = set()
        for n in range(7):
            for _ in range(6):
                tables = [list(hrep(random_diagram(rng, n)).table),
                          [-b for b in hrep(random_diagram(rng, n)).table],
                          [rng.randint(-5, 5) for _ in range(2 ** n)]]
                if n >= 3:
                    tables.append(list(raised_theta_table(rng, n).table))
                for table in tables:
                    verdict = is_submodular_by_pairs(table, n)
                    assert _is_submodular(table, n) == verdict, (n, table)
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestPolymatroidTables:
    """The table kernels against their oracles on polymatroids theta never
    gives: coverage functions, with bounds up to a few thousand, and sums of
    weighted uniform-matroid ranks, with many ties.  Totals of 128 and more
    run the greedy enumeration in 2-byte slots, and a point whose scaled
    bounds and coordinates reach 2^14 is walked in 32-bit slots."""

    def test_kernels_match_their_oracles(self):
        rng = random.Random(71)
        totals, widths, verdicts = set(), set(), set()
        for k in range(150):
            n = (1, 2, 3, 3, 4, 4, 4, 5, 5, 6)[k % 10]
            table = (coverage_table, uniform_ranks_table)[k % 2](rng, n)
            h = HRep(n, table[-1], table)
            totals.add(h.total >= 128)
            verts = _greedy_vectors(table, n)
            assert verts == greedy_vectors_by_sweep(table, n), (n, table)
            for p in rng.sample(walk_fuzz_points(h, rng), 12):
                assert_walks_agree(h, p)
                widths.add(slot_width(h, p))
            for claim in claim_families(verts, rng):
                assert certify_vertices(h, claim) == certification_by_references(h, claim), (h, claim)
            raised = list(table)
            if n > 1:
                raised[rng.randrange(1, 2 ** n - 1)] += 1
            for t in (table, raised):
                verdict = is_submodular_by_pairs(t, n)
                assert _is_submodular(t, n) == verdict, (n, t)
                verdicts.add(verdict)
        assert totals == verdicts == {True, False} and widths == {16, 32}


class TestThetaRankIdentity:
    def test_exhaustive_small(self):
        for n in range(1, 4):
            grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for bits in range(2 ** len(grid)):
                d = Diagram(n, frozenset(b for k, b in enumerate(grid) if (bits >> k) & 1))
                for s in subsets(n):
                    assert theta(d, s) == rank_diagram(d, s), (d, s)

    def test_sampled_n4(self):
        assert_check("theta-equals-rank", 4, 11024)


class TestMinkowskiDecomposition:
    def test_vertices_decompose_into_column_vertices(self):
        assert_check("minkowski-sum-membership", 3, 44)


class TestSerialization:
    def test_hrep_json_golden(self):
        doc = hrep_to_json_dict(hrep(Diagram(2, frozenset({(1, 1)}))))
        assert doc == {"n": 2, "total": 1, "bounds": [{"S": [1], "b": 1}, {"S": [2], "b": 0}]}

    def test_hrep_json_round_trip_bit_identical(self):
        doc = json.dumps(hrep_to_json_dict(hrep(TRAPEZOID)))
        again = json.dumps(hrep_to_json_dict(hrep_from_json_dict(json.loads(doc))))
        assert doc == again

    def test_hrep_json_errors(self):
        with pytest.raises(ValueError, match="missing field 'total'"):
            hrep_from_json_dict({"n": 2, "bounds": []})
        with pytest.raises(ValueError, match="duplicate"):
            hrep_from_json_dict({"n": 2, "total": 1, "bounds": [
                {"S": [1], "b": 1}, {"S": [1], "b": 2}]})
        with pytest.raises(ValueError, match="not a proper nonempty subset"):
            hrep_from_json_dict({"n": 2, "total": 1, "bounds": [
                {"S": [], "b": 5}, {"S": [1, 2], "b": 0}]})

    @pytest.mark.parametrize("bad, message", [
        ([], "h-representation document must be a JSON object"),
        ({"n": 1, "total": 0, "bounds": {}}, "field 'bounds' must be a list of objects"),
        ({"n": -1, "total": 0, "bounds": []}, "dimension must be a non-negative integer, got -1"),
        ({"n": 2, "total": 1, "bounds": [{"S": [1]}]},
         "field 'bounds': bad entry {'S': [1]}, expected {'S': [...], 'b': int}"),
        ({"n": 2, "total": 1, "bounds": [{"S": [1], "b": 1}, {"S": [1], "b": 2}]},
         "field 'bounds': duplicate subset [1]"),
    ])
    def test_hrep_json_errors_name_the_field(self, bad, message):
        with pytest.raises(ValueError) as refused:
            hrep_from_json_dict(bad)
        assert str(refused.value) == message

    def test_hform_golden(self):
        text = hrep_to_hform(hrep(skyline((1, 0, 3))))
        assert text == "3 4\n1 3\n2 3\n3 4\n4 3\n5 4\n6 3"

    def test_vertex_set_json_sorted(self):
        doc = vertex_set_to_json_dict(TRAPEZOID_VERTICES)
        assert doc == {"vertices": [[1, 0, 3], [1, 3, 0], [3, 0, 1], [3, 1, 0]]}
        assert vertex_set_from_json_dict(doc) == TRAPEZOID_VERTICES

    def test_vertex_set_json_refuses_unequal_dimensions(self):
        with pytest.raises(ValueError, match=r"^field 'vertices': entry \[1, 2\] has dimension 2, expected 1$"):
            vertex_set_from_json_dict({"vertices": [[1], [1, 2], [3]]})
        assert vertex_set_from_json_dict({"vertices": [[1, 2], [2, 1]]}) == {(1, 2), (2, 1)}

    @pytest.mark.parametrize("bad, message", [
        ([[1, 2]], "vertex-set document must be a JSON object"),
        ({"points": [[1, 2]]}, "vertex-set document is missing field 'vertices'"),
        ({"vertices": {}}, "field 'vertices' must be a list of integer vectors"),
        ({"vertices": [[1, 2], (2, 1)]}, "field 'vertices': bad entry (2, 1)"),
        ({"vertices": [[1, "2"]]}, "field 'vertices': bad entry [1, '2']"),
        ({"vertices": [[1, 2], [2, 1], [1, 2]]}, "field 'vertices': duplicate vertex [1, 2]"),
    ])
    def test_vertex_set_json_errors_name_the_field(self, bad, message):
        with pytest.raises(ValueError) as refused:
            vertex_set_from_json_dict(bad)
        assert str(refused.value) == message
