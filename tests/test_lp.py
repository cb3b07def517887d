import itertools
import random
from fractions import Fraction

import pytest

from schubitope import lp
from schubitope.diagrams import rothe, skyline
from schubitope.lp import convex_combination, hull_vertices, solve_nonnegative
from schubitope.oracles import hull_vertices_by_lp, solve_nonnegative_by_fractions
from schubitope.polyoracle import key_polynomial, newton_exponents, schubert_polynomial
from schubitope.polytope import vertices


def random_entry(rng):
    """Zero, a small integer or a small fraction, either sign."""
    kind = rng.random()
    if kind < 0.3:
        return 0
    if kind < 0.6:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def random_system(rng):
    """A random rational system A x = b with 1-5 rows and 1-7 columns.  Half
    the right-hand sides come from a non-negative x with zero entries, so the
    system is feasible and degenerate; the other half are random, often
    negative and often infeasible.  Some systems repeat a row."""
    m, k = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[random_entry(rng) for _ in range(k)] for _ in range(m)]
    if m > 1 and rng.random() < 0.2:
        rows[-1] = list(rows[0])
    if rng.random() < 0.5:
        x = [rng.choice((0, 0, 1, Fraction(1, 2), 3)) for _ in range(k)]
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    else:
        rhs = [random_entry(rng) for _ in range(m)]
    return rows, rhs


class TestSolveNonnegative:
    def test_simple_feasible(self):
        x = solve_nonnegative([[1, 1]], [1])
        assert x is not None
        assert x[0] + x[1] == 1 and min(x) >= 0

    def test_infeasible_sign(self):
        assert solve_nonnegative([[1]], [-1]) is None

    def test_infeasible_system(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot hold together
        assert solve_nonnegative([[1, 1], [1, 1]], [1, 2]) is None

    def test_exact_fractions(self):
        x = solve_nonnegative([[2, 0], [0, 3]], [1, 1])
        assert x == [Fraction(1, 2), Fraction(1, 3)]

    def test_matches_fraction_simplex_on_random_systems(self):
        rng = random.Random(41)
        seen = {"feasible": 0, "infeasible": 0, "negative rhs": 0, "degenerate": 0}
        for _ in range(1000):
            rows, rhs = random_system(rng)
            x = solve_nonnegative(rows, rhs)
            assert x == solve_nonnegative_by_fractions(rows, rhs), (rows, rhs)
            seen["infeasible" if x is None else "feasible"] += 1
            seen["negative rhs"] += any(b < 0 for b in rhs)
            if x is not None:
                assert all(v >= 0 for v in x)
                assert [sum(a * v for a, v in zip(r, x)) for r in rows] == rhs
                seen["degenerate"] += sum(v > 0 for v in x) < len(rows)
        assert min(seen.values()) >= 50, seen

    def test_matches_fraction_simplex_on_vertex_systems(self):
        # the systems certification and hull extraction solve: one point
        # against the others, as a convex combination
        for w in itertools.permutations(range(1, 5)):
            support = sorted(newton_exponents(schubert_polynomial(w)))
            for p in support:
                others = [q for q in support if q != p]
                rows = [[q[i] for q in others] for i in range(4)] + [[1] * len(others)]
                if others:
                    assert solve_nonnegative(rows, [*p, 1]) == solve_nonnegative_by_fractions(rows, [*p, 1])

    def test_refuses_rational_strings(self):
        # the library's exact numbers are int and Fraction; no caller passes text
        for rows, rhs, bad in (([["1/2", 1]], ["3/4"], "'1/2'"), ([[1, 1]], ["3/4"], "'3/4'")):
            with pytest.raises(ValueError) as got:
                solve_nonnegative(rows, rhs)
            assert str(got.value) == f"LP entry {bad} is not an integer or a Fraction"

    @pytest.mark.parametrize("rows, rhs, bad", [
        ([[1]], [0.1], "0.1"),          # would be solved with the binary value of 0.1
        ([[True, 1]], [1], "True"),     # would be taken as 1
        ([[1, 2.5]], [1], "2.5"),
        ([[1]], [False], "False"),
    ])
    def test_rejects_floats_and_bools(self, rows, rhs, bad):
        with pytest.raises(ValueError) as got:
            solve_nonnegative(rows, rhs)
        assert str(got.value) == f"LP entry {bad} is not an integer or a Fraction"


class TestConvexCombination:
    def test_midpoint(self):
        lam = convex_combination((1, 1), [(0, 0), (2, 2)])
        assert lam is not None
        assert sum(lam) == 1
        assert sum(c * q[0] for c, q in zip(lam, [(0, 0), (2, 2)])) == 1

    def test_outside_segment(self):
        assert convex_combination((3, 3), [(0, 0), (2, 2)]) is None

    def test_no_points(self):
        assert convex_combination((1,), []) is None

    def test_equal_point(self):
        assert convex_combination((2, 2), [(2, 2)]) is not None

    def test_takes_any_iterable_of_points(self):
        points = [(0, 0), (2, 0), (0, 2)]
        want = convex_combination((1, 1), points)
        assert want is not None
        assert convex_combination((1, 1), (p for p in points)) == want
        assert convex_combination((1, 1), map(list, points)) == want

    def test_rejects_points_of_another_dimension(self):
        # an extra coordinate was once ignored: (1,) came out as 1 * (1, 5)
        with pytest.raises(ValueError, match=r"^point \(1, 5\) has dimension 2, expected 1$"):
            convex_combination((1,), [(1, 5)])
        with pytest.raises(ValueError, match=r"^point \(1,\) has dimension 1, expected 2$"):
            convex_combination((1, 1), [(0, 0), (1,)])

    def test_rejects_non_rational_coordinates(self):
        for bad in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=f"has coordinate {bad!r}, expected an integer or a Fraction"):
                convex_combination((1, 1), [(0, 0), (bad, 2)])
            with pytest.raises(ValueError, match=f"^point \\({bad!r},\\) has coordinate"):
                convex_combination((bad,), [(0,), (2,)])


class TestHullVertices:
    def test_square_with_interior_point(self):
        pts = [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1), (0, 1)]
        assert hull_vertices(pts) == {(0, 0), (0, 2), (2, 0), (2, 2)}

    def test_candidates_do_not_change_answer(self):
        pts = [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]
        expect = {(0, 0), (0, 2), (2, 0), (2, 2)}
        assert hull_vertices(pts, candidates=expect) == expect
        # a wrong hint still yields the right answer, just more slowly
        assert hull_vertices(pts, candidates={(0, 0)}) == expect

    def test_collinear(self):
        assert hull_vertices([(0,), (1,), (2,)]) == {(0,), (2,)}

    def test_candidates_match_full_hull_on_schubert_supports(self):
        # true vertex set, one vertex short, and padded with support points
        rng = random.Random(7)
        for w in itertools.permutations(range(1, 5)):
            support = newton_exponents(schubert_polynomial(w))
            full = hull_vertices(support)
            assert full == vertices(rothe(w)), w
            extra = set(rng.sample(sorted(support), min(3, len(support))))
            for cand in (full, full - {min(full)}, full | extra, extra, set()):
                assert hull_vertices(support, candidates=cand) == full, (w, cand)

    def test_candidates_match_full_hull_on_random_points(self):
        rng = random.Random(11)
        for _ in range(60):
            dim = rng.randint(1, 3)
            pts = {tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(rng.randint(1, 12))}
            full = hull_vertices(pts)
            short = set(rng.sample(sorted(full), rng.randint(0, len(full))))
            padded = full | set(rng.sample(sorted(pts), rng.randint(0, len(pts))))
            stray = short | {(9,) * dim}
            for cand in (full, short, padded, stray):
                assert hull_vertices(pts, candidates=cand) == full, (pts, cand)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError, match=r"^point \(1,\) has dimension 1, expected 2$"):
            hull_vertices([(0, 0), (1,)])
        with pytest.raises(ValueError, match=r"^point \(0, 0, 0\) has dimension 3, expected 2$"):
            hull_vertices([(0, 0)], candidates=[(0, 0, 0)])
        for bad in (True, 0.5, "1/2"):
            with pytest.raises(ValueError, match=f"has coordinate {bad!r}, expected an integer or a Fraction"):
                hull_vertices([(0, 0), (Fraction(1, 2), 1), (bad, 1)])
            with pytest.raises(ValueError, match="expected an integer or a Fraction"):
                hull_vertices([(0, 0)], candidates=[(bad, 0)])


# small grids of points, by coordinate type: every set of at most two
# distinct points of one grid is its own vertex set
SMALL_GRIDS = {
    "int": [(a, b) for a in range(-1, 2) for b in range(0, 3)],
    "Fraction": [(Fraction(a, 2), Fraction(b, 3)) for a in range(-1, 2) for b in range(0, 3)],
    "mixed": [(a, Fraction(b, 2)) for a in range(0, 2) for b in range(-1, 3)],
}


class TestSmallSets:
    """`hull_vertices` returns a set of at most two distinct points whole,
    after its checks; `oracles.hull_vertices_by_lp` runs the simplex on
    every point."""

    @pytest.mark.parametrize("kind", sorted(SMALL_GRIDS))
    def test_matches_lp_oracle(self, kind):
        grid = SMALL_GRIDS[kind]
        sets = [[], *([p] for p in grid), *map(list, itertools.combinations(grid, 2))]
        for pts in sets:
            want = hull_vertices_by_lp(pts)
            assert want == set(pts), pts
            # the empty set takes its dimension from the candidates
            others = [q for q in grid if q not in pts][:2]
            for cand in (None, pts, pts + others, others, []):
                assert hull_vertices(pts, cand) == want, (pts, cand)
                assert hull_vertices(pts + pts[::-1], cand) == want, (pts, cand)

    def test_no_points_take_the_candidates_dimension(self):
        assert hull_vertices([], candidates=[(0, 0)]) == set()
        assert hull_vertices([], candidates=[(0, 0), (Fraction(1, 2), 3)]) == set()
        assert hull_vertices([], candidates=[()]) == hull_vertices([], candidates=[]) == set()

    def test_one_dimension(self):
        for pts in ([], [(Fraction(1, 2),)], [(0,), (3,)], [(3,), (0,), (3,)]):
            assert hull_vertices(pts) == hull_vertices_by_lp(pts) == set(pts)

    @pytest.mark.parametrize("points, candidates, message", [
        ([(1,)], [(0, 0)], "point (0, 0) has dimension 2, expected 1"),
        ([(0, 0), (1,)], None, "point (1,) has dimension 1, expected 2"),
        ([(1, 2), (0, 0, 0)], [(1, 2)], "point (0, 0, 0) has dimension 3, expected 2"),
        ([(True, 0)], None, "point (True, 0) has coordinate True, expected an integer or a Fraction"),
        ([(0, 1.5), (True, 0)], None, "point (0, 1.5) has coordinate 1.5, expected an integer or a Fraction"),
        ([(0, 0), (Fraction(1, 2), "1")], None, "point (Fraction(1, 2), '1') has coordinate '1', expected an integer or a Fraction"),
        ([(0, 0)], [(0, 0), (0.5, 0)], "point (0.5, 0) has coordinate 0.5, expected an integer or a Fraction"),
        ([(0, 0), (1, 1)], [(1, 1), (0, False)], "point (0, False) has coordinate False, expected an integer or a Fraction"),
        ([(0, 0), (1, 1)], [(1, 1), (2,)], "point (2,) has dimension 1, expected 2"),
        ([], [(0, 0), (0,)], "point (0,) has dimension 1, expected 2"),
        ([], [(0,), (0, 0), (1,)], "point (0, 0) has dimension 2, expected 1"),
        ([(0, 0), (1,)], [5], "point (1,) has dimension 1, expected 2"),
    ])
    def test_rejects_bad_points(self, points, candidates, message):
        # the first bad point is named, a point before a candidate
        with pytest.raises(ValueError) as refused:
            hull_vertices(points, candidates)
        assert str(refused.value) == message


def count_lp_calls(monkeypatch) -> list[int]:
    """Count the simplex runs `hull_vertices` makes, through `convex_combination`."""
    calls = [0]
    solve = lp.convex_combination

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(lp, "convex_combination", counted)
    return calls


def random_point_set(rng, kind):
    """1-14 points of dimension 1-4 with integer or `Fraction` coordinates:
    a random box of points, one point, points on a line, points on an
    affine plane in dimension 2-4, or a box with repeats."""
    dim = rng.randint(2, 4) if kind == "plane" else rng.randint(1, 4)
    frac = rng.random() < 0.5

    def vector():
        if frac:
            return [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)]
        return [rng.randint(-3, 3) for _ in range(dim)]

    if kind == "single":
        return [tuple(vector())] * rng.randint(1, 3)
    if kind in ("line", "plane"):
        base, steps = vector(), [vector() for _ in range(1 if kind == "line" else 2)]
        return [
            tuple(b + sum(t * s[i] for t, s in zip(ts, steps)) for i, b in enumerate(base))
            for ts in (tuple(rng.randint(-2, 2) for _ in steps) for _ in range(rng.randint(1, 10)))
        ]
    pts = [tuple(vector()) for _ in range(rng.randint(1, 14))]
    if kind == "repeats":
        pts += rng.choices(pts, k=rng.randint(1, 5))
    return pts


class TestHullCertificates:
    """`hull_vertices` decides points by exact certificates before the
    simplex; `oracles.hull_vertices_by_lp` runs the simplex on every point
    and takes no hint.  Each sweep runs that reference once per point set
    and compares every `hull_vertices` call with it, hinted or not."""

    def test_matches_lp_oracle_on_schubert_supports(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        for n in range(1, 6):
            for w in itertools.permutations(range(1, n + 1)):
                support = newton_exponents(schubert_polynomial(w))
                want = hull_vertices_by_lp(support)
                assert want == vertices(rothe(w)), w
                for cand in (None, want):
                    assert hull_vertices(support, cand) == want, (w, cand)
        # every support point is a lexicographic extreme or a midpoint
        assert calls[0] == 0

    def test_matches_lp_oracle_on_key_supports(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        for n in range(1, 5):
            for alpha in itertools.product(range(min(n, 3) + 1), repeat=n):
                support = newton_exponents(key_polynomial(alpha))
                want = hull_vertices_by_lp(support)
                assert want == vertices(skyline(alpha)), alpha
                for cand in (None, want):
                    assert hull_vertices(support, cand) == want, (alpha, cand)
        assert calls[0] == 0

    def test_matches_lp_oracle_on_random_sets(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        rng = random.Random(13)
        kinds = ("box", "single", "line", "plane", "repeats")
        sent = dict.fromkeys(kinds, 0)  # sets with a point left to the simplex
        for k in range(600):
            kind = kinds[k % len(kinds)]
            pts = random_point_set(rng, kind)
            want = hull_vertices_by_lp(pts)
            before = calls[0]
            assert hull_vertices(pts) == want, pts
            sent[kind] += calls[0] > before
            for cand in (want, set(rng.sample(pts, rng.randint(0, len(pts)))), want | {pts[0]}):
                assert hull_vertices(pts, cand) == want, (pts, cand)
        # the simplex ran on every kind of set but one point, a lexicographic extreme
        assert sent.pop("single") == 0 and min(sent.values()) >= 20, sent

    def test_fraction_coordinates_are_scaled_to_ints(self):
        # keys built from the thirds themselves, in base 6 * 4/3 + 1 = 9,
        # would read (2/3, 1) as the midpoint of (4/3, -1/3) and (1/3, -2/3):
        # 2 * (2/3 * 9 + 1) - (4/3 * 9 - 1/3) = 1/3 * 9 - 2/3, yet it is a vertex
        pts = [(Fraction(-1, 3), Fraction(4, 3)), (Fraction(1, 3), Fraction(-1)), (Fraction(1, 3), Fraction(-2, 3)),
               (Fraction(2, 3), Fraction(1)), (Fraction(4, 3), Fraction(-1, 3))]
        want = hull_vertices_by_lp(pts)
        assert (Fraction(2, 3), Fraction(1)) in want and len(want) == 4
        assert hull_vertices(pts) == want
        rng = random.Random(17)
        for _ in range(300):
            dim = rng.randint(2, 3)
            pts = {tuple(Fraction(rng.randint(-4, 4), 3) for _ in range(dim)) for _ in range(rng.randint(3, 7))}
            assert hull_vertices(pts) == hull_vertices_by_lp(pts), pts

    def test_vertex_neither_certificate_decides(self, monkeypatch):
        # (3, 3) is extreme in no coordinate and no midpoint of two others,
        # yet it lies outside the triangle of the other three
        calls = count_lp_calls(monkeypatch)
        pts = {(0, 0), (4, 0), (0, 4), (3, 3)}
        assert hull_vertices(pts) == hull_vertices_by_lp(pts) == pts
        assert calls[0] == 1
        # (2, 0) is the midpoint of (0, 0) and (4, 0); the interior point
        # (1, 1) is no midpoint, so it goes to the simplex with (3, 3)
        calls[0] = 0
        more = pts | {(2, 0), (1, 1)}
        assert hull_vertices(more) == hull_vertices_by_lp(more) == pts
        assert calls[0] == 2
