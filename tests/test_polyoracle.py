import itertools
import json
import operator
import random

import pytest

from conftest import assert_check, assert_frozen
from schubitope.diagrams import skyline
from schubitope.lp import hull_vertices
from schubitope.perms import bruhat_leq, lambda_of, vertex_compositions
from schubitope.polyoracle import (
    Polynomial,
    demazure,
    divided_difference,
    key_polynomial,
    monomial,
    newton_exponents,
    poly_from_json_dict,
    poly_to_json_dict,
    poly_to_text,
    schubert_polynomial,
    swap_variables,
)
from schubitope.polytope import certify_vertices, hrep, member

KEY_103_TERMS = {
    (3, 1, 0): 1, (3, 0, 1): 1,
    (2, 2, 0): 1, (2, 1, 1): 1, (2, 0, 2): 1,
    (1, 3, 0): 1, (1, 2, 1): 1, (1, 1, 2): 1, (1, 0, 3): 1,
}


def random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = tuple(rng.randint(0, 4) for _ in range(n))
        terms[e] = rng.randint(-9, 9) or 1
    return Polynomial(n, terms)


class TestPolynomial:
    def test_strips_zero_coefficients(self):
        f = Polynomial(2, {(1, 0): 0, (0, 1): 2})
        assert f.terms == {(0, 1): 2}

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError, match="exponent"):
            Polynomial(2, {(-1, 0): 1})

    def test_arithmetic(self):
        x1 = monomial(2, (1, 0))
        x2 = monomial(2, (0, 1))
        assert (x1 + x2) - x2 == x1
        assert (x1 - x2) * (x1 + x2) == x1 * x1 - x2 * x2


    @pytest.mark.parametrize("op", [operator.add, operator.mul])
    def test_arithmetic_refuses_different_variable_counts(self, op):
        with pytest.raises(ValueError) as refused:
            op(monomial(2, (1, 0)), monomial(3, (0, 0, 1)))
        assert str(refused.value) == "variable counts differ: 2 vs 3"

    def test_is_frozen(self):
        f = Polynomial(2, {(1, 0): 1})
        assert_frozen(f, "Polynomial(n=2, terms=mappingproxy({(1, 0): 1}))", n=3, terms={})
        with pytest.raises(TypeError):
            f.terms[(0, 1)] = 1
        assert f.terms == {(1, 0): 1}

    def test_memoized_results_are_shared(self):
        assert schubert_polynomial((1, 3, 2)) is schubert_polynomial([1, 3, 2])
        assert key_polynomial((1, 0, 3)) is key_polynomial([1, 0, 3])


def assert_as_constructed(f):
    """f, an operator's result built without the constructor's checks, is the
    polynomial the constructor builds from its terms, in the same order, and
    holds no zero coefficient."""
    rebuilt = Polynomial(f.n, dict(f.terms))
    assert f == rebuilt and hash(f) == hash(rebuilt) and repr(f) == repr(rebuilt)
    assert 0 not in f.terms.values(), f


class TestUncheckedResults:
    """The operators build their results through `Polynomial._from_terms`,
    which checks nothing and only drops zero coefficients; the public
    constructor is the oracle."""

    def test_schubert_polynomials(self):
        for n in range(1, 6):
            for w in itertools.permutations(range(1, n + 1)):
                assert_as_constructed(schubert_polynomial(w))

    def test_key_polynomials(self):
        for n in range(1, 5):
            for alpha in itertools.product(range(4), repeat=n):
                assert_as_constructed(key_polynomial(alpha))

    def test_operators_on_random_polynomials(self):
        rng = random.Random(5)
        for _ in range(40):
            f, g = random_poly(rng, 3), random_poly(rng, 3)
            for h in (f + g, f - g, -f, f * g):
                assert_as_constructed(h)
            for i in (1, 2):
                for h in (swap_variables(f, i), divided_difference(f, i), demazure(f, i)):
                    assert_as_constructed(h)

    def test_cancellations_leave_no_terms(self):
        rng = random.Random(6)
        for _ in range(20):
            f = random_poly(rng, 3)
            assert (f + (-f)).terms == {} and (f - f).terms == {}
            for i in (1, 2):
                symmetric = f + swap_variables(f, i)
                assert divided_difference(symmetric, i).terms == {}
                assert divided_difference(f * symmetric, i) == divided_difference(f, i) * symmetric


class TestDividedDifference:
    def test_kills_symmetric_input(self):
        assert divided_difference(monomial(2, (1, 1)), 1) == Polynomial(2, {})

    def test_linear_case(self):
        assert divided_difference(monomial(2, (1, 0)), 1) == monomial(2, (0, 0))

    def test_square_case(self):
        assert divided_difference(monomial(2, (2, 0)), 1) == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_defining_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            f = random_poly(rng, 3)
            for i in (1, 2):
                xi = monomial(3, tuple(int(t == i - 1) for t in range(3)))
                xj = monomial(3, tuple(int(t == i) for t in range(3)))
                assert (xi - xj) * divided_difference(f, i) == f - swap_variables(f, i)

    def test_squares_to_zero(self):
        rng = random.Random(2)
        for _ in range(20):
            f = random_poly(rng, 3)
            for i in (1, 2):
                assert divided_difference(divided_difference(f, i), i) == Polynomial(3, {})

    def test_braid_relation(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_poly(rng, 4)
            for i in (1, 2):
                lhs = divided_difference(divided_difference(divided_difference(f, i), i + 1), i)
                rhs = divided_difference(divided_difference(divided_difference(f, i + 1), i), i + 1)
                assert lhs == rhs

    def test_index_range(self):
        with pytest.raises(ValueError, match="index"):
            divided_difference(monomial(2, (1, 0)), 2)


class TestDemazure:
    def test_constant(self):
        assert demazure(monomial(2, (0, 0)), 1) == monomial(2, (0, 0))

    def test_first_variable(self):
        assert demazure(monomial(2, (1, 0)), 1) == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    @pytest.mark.parametrize("op, message", [
        (swap_variables, "variable index 2 out of range 1..1"),
        (demazure, "operator index 2 out of range 1..1"),
        (divided_difference, "operator index 2 out of range 1..1"),
    ])
    def test_index_range(self, op, message):
        # 2 lies past the range; True and 1.0 are refused as no exact int
        for i in (2, True, 1.0):
            with pytest.raises(ValueError) as refused:
                op(monomial(2, (1, 0)), i)
            assert str(refused.value) == message.replace(" 2 ", f" {i} ")

    def test_second_variable_killed(self):
        # expand (x1 x2 - x2 x1) / (x1 - x2)
        assert demazure(monomial(2, (0, 1)), 1) == Polynomial(2, {})

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(20):
            f = random_poly(rng, 3)
            for i in (1, 2):
                g = demazure(f, i)
                assert demazure(g, i) == g


class TestSchubert:
    def test_longest_element(self):
        assert schubert_polynomial((3, 2, 1)) == monomial(3, (2, 1, 0))

    def test_identity(self):
        assert schubert_polynomial((1, 2, 3)) == monomial(3, (0, 0, 0))

    def test_132(self):
        assert schubert_polynomial((1, 3, 2)) == Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1})

    def test_chain_independence_s4(self):
        assert_check("recursion-chain-independence", 4, 364)

    def test_positive_coefficients(self):
        assert_check("coefficient-positivity", 4, 364)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            schubert_polynomial(tuple(range(1, 9)))


class TestKey:
    def test_partition_is_monomial(self):
        assert key_polynomial((3, 2, 0)) == monomial(3, (3, 2, 0))

    def test_nine_term_expansion(self):
        assert key_polynomial((1, 0, 3)).terms == KEY_103_TERMS

    def test_two_parts(self):
        assert key_polynomial((0, 1)) == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_chain_independence(self):
        assert_check("recursion-chain-independence", 4, 364)

    def test_positive_coefficients(self):
        assert_check("coefficient-positivity", 4, 364)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            key_polynomial((5, 0, 0))


class TestNewton:
    def test_key_support(self):
        pts = newton_exponents(key_polynomial((1, 0, 3)))
        assert pts == set(KEY_103_TERMS)
        assert (3, 1, 0) in pts and (1, 1, 2) in pts

    def test_constant(self):
        assert newton_exponents(Polynomial(3, {(0, 0, 0): 5})) == {(0, 0, 0)}

    def test_monomial(self):
        assert newton_exponents(monomial(3, (2, 0, 1))) == {(2, 0, 1)}


class TestNewtonPolytopes:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_schubert_newton_equals_rothe_polytope(self, n):
        assert_check("schubert-newton-polytope", n, {1: 1, 2: 2, 3: 6}[n])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_key_newton_vertices_are_lower_interval(self, n):
        for alpha in itertools.product(range(min(n, 3) + 1), repeat=n):
            h = hrep(skyline(alpha))
            support = newton_exponents(key_polynomial(alpha))
            predicted = set(vertex_compositions(alpha))
            assert all(member(h, e) for e in support)
            got = hull_vertices(support, candidates=predicted)
            assert got == predicted, alpha
            assert certify_vertices(h, got).ok

    def test_bruhat_interval_polytope_s3(self):
        for w in itertools.permutations(range(1, 4)):
            support = newton_exponents(key_polynomial(w))
            got = hull_vertices(support)
            upper = {v for v in itertools.permutations(range(1, 4)) if bruhat_leq(w, v)}
            assert got == upper, w

    def test_schur_case_is_permutohedron(self):
        for alpha in [(0, 1, 2), (1, 1, 2), (0, 0, 3), (1, 2, 2)]:
            support = newton_exponents(key_polynomial(alpha))
            got = hull_vertices(support)
            assert got == set(itertools.permutations(lambda_of(alpha))), alpha


class TestSerialization:
    def test_json_golden(self):
        doc = poly_to_json_dict(Polynomial(2, {(1, 0): 1, (0, 1): 2}))
        assert doc == {"n": 2, "terms": [{"e": [0, 1], "c": 2}, {"e": [1, 0], "c": 1}]}

    def test_json_round_trip_bit_identical(self):
        doc = json.dumps(poly_to_json_dict(key_polynomial((1, 0, 3))))
        again = json.dumps(poly_to_json_dict(poly_from_json_dict(json.loads(doc))))
        assert doc == again

    def test_json_errors(self):
        with pytest.raises(ValueError, match="missing field 'terms'"):
            poly_from_json_dict({"n": 2})
        with pytest.raises(ValueError, match="duplicate"):
            poly_from_json_dict({"n": 1, "terms": [{"e": [1], "c": 1}, {"e": [1], "c": 2}]})

    @pytest.mark.parametrize("bad, message", [
        ([], "polynomial document must be a JSON object"),
        ({"n": 1, "terms": {}}, "field 'terms' must be a list of objects"),
        ({"n": 1, "terms": [{"e": [1]}]}, "field 'terms': bad entry {'e': [1]}, expected {'e': [...], 'c': int}"),
        ({"n": 1, "terms": [{"e": [1], "c": 1}, {"e": [1], "c": 2}]}, "field 'terms': duplicate exponent [1]"),
    ])
    def test_json_errors_name_the_field(self, bad, message):
        with pytest.raises(ValueError) as refused:
            poly_from_json_dict(bad)
        assert str(refused.value) == message

    def test_json_rejects_bools(self):
        with pytest.raises(ValueError, match=r"exponent \[True, 0\] must be a list of integers"):
            poly_from_json_dict(json.loads('{"n": 2, "terms": [{"e": [true, 0], "c": true}]}'))
        with pytest.raises(ValueError, match=r"coefficient of \(1, 0\) must be an integer, got True"):
            poly_from_json_dict({"n": 2, "terms": [{"e": [1, 0], "c": True}]})
        with pytest.raises(ValueError, match="variable count must be a non-negative integer, got True"):
            poly_from_json_dict({"n": True, "terms": []})

    def test_text_form(self):
        assert poly_to_text(key_polynomial((1, 0, 3))) == (
            "x1^3*x2 + x1^3*x3 + x1^2*x2^2 + x1^2*x2*x3 + x1^2*x3^2"
            " + x1*x2^3 + x1*x2^2*x3 + x1*x2*x3^2 + x1*x3^3"
        )
        assert poly_to_text(Polynomial(2, {})) == "0"
        assert poly_to_text(Polynomial(2, {(0, 0): -3, (1, 1): 2})) == "2*x1*x2 - 3"
        assert poly_to_text(Polynomial(2, {(1, 0): -1, (0, 1): 1})) == "-x1 + x2"
        assert poly_to_text(Polynomial(2, {(1, 0): 1, (0, 1): -1})) == "x1 - x2"
