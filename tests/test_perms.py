import ast
import itertools
import pathlib
import random
import tracemalloc

import pytest

from conftest import assert_check
from schubitope import oracles, perms
from schubitope.checks import all_perms, compositions
from schubitope.diagrams import skyline
from schubitope.perms import (
    act,
    bruhat_leq,
    composition_leq,
    lambda_of,
    length,
    vertex_compositions,
    w_of,
)


class TestAct:
    def test_identity(self):
        assert act((5, 7, 9), (1, 2, 3)) == (5, 7, 9)

    def test_worked_example(self):
        assert act((3, 2, 2, 1, 1, 0, 0), (2, 6, 4, 1, 3, 7, 5)) == (2, 0, 1, 3, 2, 0, 1)

    def test_single_swap(self):
        assert act((1, 0), (2, 1)) == (0, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            act((1, 2, 3), (2, 1))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            act((1, 2), (2, 2))


class TestValidation:
    # True == 1, so a bool passes isinstance(x, int) and equality tests

    def test_permutation_rejects_bools(self):
        with pytest.raises(ValueError, match=r"not a permutation of 1..2: \(True, 2\)"):
            perms.check_permutation((True, 2))

    def test_permutation_rejects_mixed_types_before_sorting(self):
        with pytest.raises(ValueError, match=r"not a permutation of 1..2: \(1, 'a'\)"):
            perms.check_permutation((1, "a"))

    @pytest.mark.parametrize("w", [("1", 2), (True, 2), (1.0, 2), (-1, 2), (2, 1.5), (1, 1)])
    def test_permutation_message(self, w):
        with pytest.raises(ValueError) as got:
            perms.check_permutation(w)
        assert str(got.value) == f"not a permutation of 1..2: {w!r}"

    @pytest.mark.parametrize("alpha", [("1", 2), (True, 0), (1.0, 2), (-1, 2), (0, 2, -3), (1, 0.5)])
    def test_composition_message(self, alpha):
        with pytest.raises(ValueError) as got:
            perms.check_composition(alpha)
        assert str(got.value) == f"composition parts must be non-negative integers: {alpha!r}"

    @pytest.mark.parametrize("w", [(2, 2, 1), (1.5, 0.2), (True,), (0, 1)])
    def test_length_checks_its_argument(self, w):
        with pytest.raises(ValueError) as got:
            length(w)
        assert str(got.value) == f"not a permutation of 1..{len(w)}: {w!r}"

    def test_composition_rejects_bools(self):
        with pytest.raises(ValueError, match=r"must be non-negative integers: \(True, 0, 2\)"):
            perms.check_composition((True, 0, 2))
        with pytest.raises(ValueError, match=r"must be non-negative integers: \(True, 0\)"):
            skyline((True, 0))


class TestBruhat:
    def test_identity_is_minimum(self):
        for w in all_perms(4):
            assert bruhat_leq((1, 2, 3, 4), w)

    def test_reflexive(self):
        for w in all_perms(4):
            assert bruhat_leq(w, w)

    def test_three_cycle_pair(self):
        # frozen from the subword-property enumeration over reduced words of 321
        assert bruhat_leq((3, 1, 2), (3, 2, 1))
        assert not bruhat_leq((3, 2, 1), (3, 1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_subword_oracle(self, n):
        assert_check("bruhat-subword-oracle", n, {1: 1, 2: 5, 3: 41, 4: 617}[n])

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degrees"):
            bruhat_leq((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("u, w, bad", [
        ((5,), (1,), r"\(5,\)"),
        ((1, 1), (2, 1), r"\(1, 1\)"),
        ((True, 2), (2, 1), r"\(True, 2\)"),
        ((2, 1), (1, 1), r"\(1, 1\)"),
    ])
    def test_rejects_non_permutations(self, u, w, bad):
        with pytest.raises(ValueError, match=r"^not a permutation of 1..\d: " + bad + "$"):
            bruhat_leq(u, w)

    def test_kernel_matches_lower_interval_on_s5(self):
        # the registered bruhat-subword-oracle check sweeps only n <= 4
        for w in all_perms(5):
            interval = oracles.bruhat_lower_interval(w)
            for u in all_perms(5):
                assert perms._bruhat_leq(u, w) == (u in interval)


class TestReducedWords:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduced_word_is_reduced(self, n):
        for w in all_perms(n):
            word = perms.reduced_word(w)
            assert perms.perm_from_word(word, n) == w
            assert len(word) == length(w)

    @pytest.mark.parametrize("letter", [0, 3, True, 1.0])
    def test_word_letters_lie_in_range(self, letter):
        with pytest.raises(ValueError) as refused:
            perms.perm_from_word([1, letter], 3)
        assert str(refused.value) == f"word letter {letter} out of range 1..2"

    @pytest.mark.parametrize("n", [3.0, True, -1])
    def test_degree_is_a_size(self, n):
        with pytest.raises(ValueError) as refused:
            perms.perm_from_word([], n)
        assert str(refused.value) == f"permutation degree must be a non-negative integer, got {n!r}"

    @pytest.mark.parametrize("i", [0, 3, True, 1.0])
    def test_adjacent_swap_index_in_range(self, i):
        with pytest.raises(ValueError) as refused:
            perms.swap_adjacent((1, 2, 3), i)
        assert str(refused.value) == f"adjacent-swap index {i} out of range 1..2"


def test_integer_rule_lives_in_perms():
    # every other module tests a type through perms.is_int, perms.INTS or
    # perms.exact_types: no type(...) compared with int, no set of int
    found = set()
    for path in sorted(pathlib.Path(perms.__file__).parent.glob("*.py")):
        if path.name == "perms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                typed = [x for x in sides if isinstance(x, ast.Call) and getattr(x.func, "id", None) == "type"]
                if typed and any(_holds_int(x) for x in sides if x not in typed):
                    found.add(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Set) or (isinstance(node, ast.Call)
                                               and getattr(node.func, "id", None) in ("set", "frozenset")):
                if _holds_int(node):
                    found.add(f"{path.name}:{node.lineno}")
    assert not found, sorted(found)


def _holds_int(node) -> bool:
    """Whether node is the name int, or a set, list or tuple display, or a
    set or frozenset call on one, with int among its elements."""
    if isinstance(node, ast.Call):
        return any(map(_holds_int, node.args))
    elts = node.elts if isinstance(node, (ast.Set, ast.List, ast.Tuple)) else [node]
    return any(isinstance(x, ast.Name) and x.id == "int" for x in elts)


class TestLambda:
    def test_worked_example(self):
        assert lambda_of((2, 0, 1, 3, 2, 0, 1)) == (3, 2, 2, 1, 1, 0, 0)

    def test_zero(self):
        assert lambda_of((0, 0, 0)) == (0, 0, 0)

    def test_three_parts(self):
        assert lambda_of((1, 0, 3)) == (3, 1, 0)


class TestWOf:
    def test_worked_example(self):
        assert w_of((2, 0, 1, 3, 2, 0, 1)) == (2, 6, 4, 1, 3, 7, 5)

    def test_weakly_decreasing_gives_identity(self):
        for alpha in [(3, 2, 1), (2, 2, 0), (0, 0), (4, 4, 4, 4)]:
            assert w_of(alpha) == tuple(range(1, len(alpha) + 1))

    def test_two_parts(self):
        # frozen from the S_2 search for the shortest sorting permutation
        assert w_of((0, 1)) == (2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unique_shortest_sorter(self, n):
        assert_check("w-of-shortest-sort", n, {1: 4, 2: 20, 3: 84, 4: 340}[n])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recursive_construction_gives_reduced_word(self, n):
        for alpha in compositions(n, 3):
            w, word = oracles.w_of_recursive(alpha)
            assert w == w_of(alpha)
            assert len(word) == length(w)
            assert perms.perm_from_word(word, n) == w


class TestCompositionOrder:
    def test_reflexive(self):
        for alpha in compositions(3, 2):
            assert composition_leq(alpha, alpha)

    def test_intro_example(self):
        assert composition_leq((3, 1, 0), (1, 0, 3))

    def test_different_multisets(self):
        assert not composition_leq((2, 0, 1), (1, 0, 3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError) as got:
            composition_leq((1, 0), (1, 0, 0))
        assert str(got.value) == "composition lengths differ: 2 vs 3"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_swap_oracle(self, n):
        assert_check("composition-order-swap-oracle", n, {1: 16, 2: 272, 3: 4368, 4: 69904}[n])

    @pytest.mark.parametrize("n, samples", [(5, 12), (6, 6)])
    def test_matches_swap_oracle_and_definition_past_verify_scope(self, n, samples):
        # the registered check sweeps n <= 4; each sampled alpha is compared
        # with every rearrangement and with random compositions of its length
        rng = random.Random(f"composition-order:{n}")
        for _ in range(samples):
            alpha = tuple(rng.randrange(4) for _ in range(n))
            reachable = oracles.swap_reachable_set(alpha)
            others = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(20)]
            for beta in [*set(itertools.permutations(alpha)), *others]:
                by_definition = sorted(beta) == sorted(alpha) and bruhat_leq(w_of(beta), w_of(alpha))
                assert composition_leq(beta, alpha) == (beta in reachable) == by_definition, (beta, alpha)


# (1, "a") must raise ValueError, not the TypeError that sorting it raises
BAD_PARTS = [("1", 2), (True, 0), (1.0, 2), (-1, 2), (0, 2, -3), (1, "a")]


class TestCompositionOrderValidation:
    """`composition_leq` validates both arguments in one pass; a bad part
    still raises `check_composition`'s message, beta's before alpha's."""

    @staticmethod
    def message(alpha):
        return f"composition parts must be non-negative integers: {alpha!r}"

    @pytest.mark.parametrize("bad", BAD_PARTS)
    def test_bad_beta(self, bad):
        with pytest.raises(ValueError) as got:
            composition_leq(bad, (0,) * len(bad))
        assert str(got.value) == self.message(bad)

    @pytest.mark.parametrize("bad", BAD_PARTS)
    def test_bad_alpha(self, bad):
        with pytest.raises(ValueError) as got:
            composition_leq((0,) * len(bad), bad)
        assert str(got.value) == self.message(bad)

    @pytest.mark.parametrize("bad", BAD_PARTS)
    def test_bad_both_reports_beta(self, bad):
        other = (-7,) * len(bad)
        with pytest.raises(ValueError) as got:
            composition_leq(bad, other)
        assert str(got.value) == self.message(bad)
        with pytest.raises(ValueError) as got:
            composition_leq(other, bad)
        assert str(got.value) == self.message(other)

    def test_bad_part_wins_over_length_mismatch(self):
        with pytest.raises(ValueError) as got:
            composition_leq((-1, 2), (1, 0, 0))
        assert str(got.value) == self.message((-1, 2))
        with pytest.raises(ValueError) as got:
            composition_leq((1, 0), (1, 0, True))
        assert str(got.value) == self.message((1, 0, True))

    def test_a_bad_part_past_check_composition_raises(self, monkeypatch):
        # the fallback never returns None: if check_composition let a bad
        # part through, composition_leq would have no answer to give
        monkeypatch.setattr(perms, "check_composition", lambda alpha: alpha)
        with pytest.raises(AssertionError, match=r"^a bad part in \(-1, 2\) or \(1, 1\) passed check_composition$"):
            composition_leq((-1, 2), (1, 1))


class TestVertexCompositions:
    def test_weakly_decreasing_is_singleton(self):
        for alpha in [(3, 2, 1), (2, 2, 0), (5, 0, 0, 0)]:
            assert vertex_compositions(alpha) == [alpha]

    def test_intro_example(self):
        assert set(vertex_compositions((1, 0, 3))) == {(3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 0, 3)}

    def test_two_parts(self):
        assert set(vertex_compositions((0, 1))) == {(1, 0), (0, 1)}

    def test_sorted_lexicographically(self):
        out = vertex_compositions((1, 0, 3))
        assert out == sorted(out)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_swap_recursion(self, n):
        assert_check("lower-interval-recursion", n, {2: 6, 3: 54, 4: 342}[n])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recursion_chain_independent(self, n):
        assert_check("lower-interval-chain-independence", n, {1: 4, 2: 20, 3: 84, 4: 340}[n])

    def test_matches_swap_recursion_at_n5(self):
        # the registered checks sweep n <= 4
        for alpha in compositions(5, 3):
            assert vertex_compositions(alpha) == sorted(oracles.vertex_compositions_recursive(alpha)), alpha

    def test_lazy_in_the_rearrangements(self):
        # 10 rearrangements among 10! orders: no list of all n! orders is built
        alpha = (0,) * 9 + (1,)
        tracemalloc.start()
        try:
            out = vertex_compositions(alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == [tuple(int(i == k) for i in range(10)) for k in reversed(range(10))]
        assert peak < 2 ** 20


class TestSerialization:
    def test_digit_string(self):
        assert perms.parse_perm("2641375") == (2, 6, 4, 1, 3, 7, 5)

    def test_empty_permutation(self):
        # n = 0, as for compositions
        assert perms.parse_perm("") == perms.parse_perm(" ") == ()

    def test_comma_separated_for_large_n(self):
        assert perms.parse_perm("10,9,8,7,6,5,4,3,2,1") == tuple(range(10, 0, -1))

    def test_bad_perm_strings(self):
        for text in ["221", "13", "abc", "1,2,x"]:
            with pytest.raises(ValueError):
                perms.parse_perm(text)

    def test_composition_round_trip(self):
        assert perms.parse_composition("1,0,3") == (1, 0, 3)
        assert perms.parse_composition(" ") == ()
        with pytest.raises(ValueError):
            perms.parse_composition("1,-2")
        with pytest.raises(ValueError) as refused:
            perms.parse_composition("1,a")
        assert str(refused.value) == "bad composition '1,a': parts must be integers"
