"""Cross-validation suite behind the CLI `verify` verb.

Every check pits a fast implementation against an independent oracle or a
stated invariant, at desk scale.  A check is a generator registered once
with ``@check(name, scope=k)``: ``scope`` is the largest size it sweeps.
`run_check` calls it with ``m = min(n, scope)`` and its own seeded
``random.Random(f"{seed}:{name}")``.  The check yields once per instance,
just before comparing it, and on the first mismatch returns a
reproducible counterexample string; `run_check` counts the yields, times
the run and builds the `CheckResult`, also when the check raises.  A check
that sweeps size ``least`` even when m is smaller, as a fixed 3 x 3
example does, registers it with ``least=``, and its result reports the
scope it ran, ``max(m, least)``.  `verify --n`
accepts 1..`largest_scope()`, the largest registered scope, since a
larger n would sweep nothing more.
Checks only read shared immutable values, so they can run in a process
pool; results are always assembled in registry order.  The pool's module,
slow to import, loads only when more than one worker runs.
"""
from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import random
import time
from collections.abc import Callable, Generator, Iterable, Iterator

from . import diagrams, fillings, lp, oracles, perms, polyoracle, polytope
from .diagrams import Diagram, Value, compact

# one None per instance compared; the return value is the counterexample
Steps = Generator[None, None, "str | None"]


class CheckResult(Value, compare=("name", "instances", "counterexample")):
    """One check's answer, compared on its name, instance count and
    counterexample; the effective scope and the wall seconds it ran are
    reported beside them but take no part in equality."""

    _fields = ("name", "instances", "counterexample", "scope", "seconds")

    def __init__(self, name: str, instances: int, counterexample: str | None = None,
                 scope: int = 0, seconds: float = 0.0):
        self.__dict__.update(name=name, instances=instances, counterexample=counterexample,
                             scope=scope, seconds=seconds)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


_REGISTRY: dict[str, tuple[int, Callable[[int, random.Random], Steps]]] = {}
_LEAST: dict[str, int] = {}


def check(name: str, scope: int, least: int = 1):
    """Register a check body under ``name``; it sweeps sizes up to ``scope``,
    and size ``least`` at every n."""
    def register(body: Callable[[int, random.Random], Steps]):
        _REGISTRY[name] = (scope, body)
        _LEAST[name] = least
        return body
    return register


def compositions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(max_part + 1), repeat=n)


def all_perms(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1))


def random_diagram(rng: random.Random, n: int) -> Diagram:
    boxes = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < 0.5
    }
    return Diagram(n, frozenset(boxes))


def _diagram_str(d: Diagram) -> str:
    return compact(diagrams.to_json_dict(d))


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[frozenset[int], ...]:
    """Every subset of [n], in increasing bitmask order, built once per n
    for the checks that sweep them."""
    return tuple(frozenset(polytope._mask_subset(mask, n)) for mask in range(2 ** n))


@functools.lru_cache(maxsize=None)
def _family_corpus(n: int) -> tuple[Diagram, ...]:
    """Every Rothe and skyline diagram at size n, built once per process for
    the checks that share them."""
    return (*map(diagrams.rothe, all_perms(n)), *(diagrams.skyline(a) for a in compositions(n, n)))


def theta_rank_corpus(n: int, rng: random.Random, samples: int) -> list[Diagram]:
    """Random diagrams plus every Rothe and skyline diagram at size n."""
    return [*(random_diagram(rng, n) for _ in range(samples)), *_family_corpus(n)]


# ---------------------------------------------------------------- perms

@check("w-of-shortest-sort", scope=4)
def check_w_of_shortest_sort(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for alpha in compositions(nn, 3):
            yield
            winners = oracles.shortest_sorting_perms(alpha)
            w = perms.w_of(alpha)
            if len(winners) != 1 or winners[0] != w:
                return f"alpha={alpha} w_of={w} search={winners}"
            if perms.act(perms.lambda_of(alpha), w) != alpha:
                return f"alpha={alpha}: action mismatch"


@check("bruhat-subword-oracle", scope=4)
def check_bruhat_subword(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for w in all_perms(nn):
            interval = oracles.bruhat_lower_interval(w)
            for u in all_perms(nn):
                yield
                if perms.bruhat_leq(u, w) != (u in interval):
                    return f"u={u} w={w}"


@check("composition-order-swap-oracle", scope=4)
def check_composition_order(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        universe = list(compositions(nn, 3))
        for alpha in universe:
            reachable = oracles.swap_reachable_set(alpha)
            for beta in universe:
                yield
                if perms.composition_leq(beta, alpha) != (beta in reachable):
                    return f"beta={beta} alpha={alpha}"


@check("lower-interval-recursion", scope=4)
def check_lower_interval_recursion(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for alpha in compositions(nn, 3):
            direct = set(perms.vertex_compositions(alpha))
            for r in oracles.descent_violations(alpha):
                yield
                below = set(perms.vertex_compositions(perms.swap_adjacent(alpha, r)))
                both = below | {perms.swap_adjacent(v, r) for v in below}
                if direct != both:
                    return f"alpha={alpha} r={r}"


@check("lower-interval-chain-independence", scope=4)
def check_lower_interval_chains(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for alpha in compositions(nn, 3):
            yield
            direct = set(perms.vertex_compositions(alpha))
            first = oracles.vertex_compositions_recursive(alpha, min)
            last = oracles.vertex_compositions_recursive(alpha, max)
            if not (direct == first == last):
                return f"alpha={alpha}"
            w_rec, word = oracles.w_of_recursive(alpha)
            if w_rec != perms.w_of(alpha) or len(word) != perms.length(w_rec):
                return f"alpha={alpha}: recursive sort mismatch"


# ------------------------------------------------------------- diagrams

@check("rothe-box-count", scope=5)
def check_rothe_box_count(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for w in all_perms(nn):
            yield
            if diagrams.rothe(w).size != perms.length(w):
                return f"w={w}"


# ------------------------------------------------------------- fillings

@check("fill-order-independence", scope=5)
def check_fill_order_independence(m: int, rng: random.Random) -> Steps:
    for rows in _subsets(m):
        for s in _subsets(m):
            base = len(fillings.fill_column(rows, tuple(sorted(s))))
            if len(s) <= 4:
                orders = itertools.permutations(sorted(s))
            else:
                pool = list(itertools.permutations(sorted(s)))
                orders = rng.sample(pool, 24)
            for order in orders:
                yield
                if len(fillings.fill_column(rows, order)) != base:
                    return f"C={sorted(rows)} order={order}"


@check("rank-three-ways", scope=5)
def check_rank_three_ways(m: int, rng: random.Random) -> Steps:
    for rows in _subsets(m):
        for s in _subsets(m):
            yield
            a = fillings.rank_filling(rows, s)
            b = oracles.rank_brute(rows, s)
            c = oracles.rank_max_filling(rows, s)
            if not (a == b == c):
                return f"C={sorted(rows)} S={sorted(s)}: {a},{b},{c}"


@check("fill-flag-strict", scope=4)
def check_fill_flag_strict(m: int, rng: random.Random) -> Steps:
    for d in [random_diagram(rng, m) for _ in range(20)]:
        for w in all_perms(m):
            yield
            filling = fillings.fill_diagram(d, w)
            for (r, c), v in filling.items():
                if v > r:
                    return f"D={_diagram_str(d)} w={w}: value {v} in row {r}"
            for j in range(1, m + 1):
                col_vals = [v for (r, c), v in filling.items() if c == j]
                if len(set(col_vals)) != len(col_vals):
                    return f"D={_diagram_str(d)} w={w}: column {j} repeats a value"


def _increasing_fillings(rows: tuple[int, ...], values: Iterable[int]):
    """All flagged increasing fillings of the column using distinct values."""
    values = sorted(values)
    for k in range(min(len(rows), len(values)) + 1):
        for chosen_rows in itertools.combinations(rows, k):
            for chosen_vals in itertools.combinations(values, k):
                filling = dict(zip(chosen_rows, chosen_vals))
                if all(v <= r for r, v in filling.items()):
                    yield filling


@check("sort-standardize", scope=4)
def check_sort_standardize(m: int, rng: random.Random) -> Steps:
    for rows_set in _subsets(m):
        rows = tuple(sorted(rows_set))
        for s in _subsets(m):
            for inc in _increasing_fillings(rows, s):
                # enumerate all column-strict flagged fillings by permuting
                # the occupied boxes of an increasing one
                boxes = sorted(inc)
                vals = sorted(inc.values())
                for shuffled in itertools.permutations(vals):
                    filling = dict(zip(boxes, shuffled))
                    if any(v > r for r, v in filling.items()):
                        continue
                    yield
                    done = fillings.sort_filling(filling)
                    if done != inc:
                        return f"sort({filling}) gave {done}, expected {inc}"
                yield
                std = fillings.standardize(rows, inc)
                if sorted(std.values()) != vals or len(std) != len(inc):
                    return f"standardize({inc}) lost entries: {std}"
                if fillings.standardize(rows, std) != std:
                    return f"standardize not idempotent on {inc}"


def _submodular_pairs(d: Diagram, f: Callable[[Diagram, frozenset[int]], int]) -> Steps:
    """f(d, S) + f(d, T) >= f(d, S | T) + f(d, S & T) for every pair of
    subsets S, T of [d.n], f read once per subset into a mask-indexed list;
    one yield per pair."""
    table = [f(d, s) for s in _subsets(d.n)]
    for s, fs in enumerate(table):
        for t, ft in enumerate(table):
            yield
            if fs + ft < table[s | t] + table[s & t]:
                return f"D={_diagram_str(d)} S={polytope._mask_subset(s, d.n)} T={polytope._mask_subset(t, d.n)}"


@check("rank-submodular", scope=4)
def check_rank_submodular(m: int, rng: random.Random) -> Steps:
    for d in [random_diagram(rng, m) for _ in range(12)]:
        if bad := (yield from _submodular_pairs(d, fillings.rank_diagram)):
            return bad


@check("rank-monotone-step", scope=5)
def check_rank_monotone_step(m: int, rng: random.Random) -> Steps:
    for rows in _subsets(m):
        for s in _subsets(m):
            r_full = fillings.rank_filling(rows, s)
            for x in s:
                yield
                step = r_full - fillings.rank_filling(rows, s - {x})
                if step not in (0, 1):
                    return f"C={sorted(rows)} S={sorted(s)} drop {x}: step {step}"


# ------------------------------------------------------------- polytope

@check("theta-equals-rank", scope=4)
def check_theta_equals_rank(m: int, rng: random.Random) -> Steps:
    for d in theta_rank_corpus(m, rng, samples=40):
        for s in _subsets(m):
            yield
            th = polytope.theta(d, s)
            rk = fillings.rank_diagram(d, s)
            if th != rk:
                return f"D={_diagram_str(d)} S={sorted(s)}: theta={th} rank={rk}"


@check("greedy-equals-filling", scope=4)
def check_greedy_equals_filling(m: int, rng: random.Random) -> Steps:
    for d in theta_rank_corpus(m, rng, samples=15):
        rank = [fillings.rank_diagram(d, s) for s in _subsets(m)]
        for w, x in fillings.vertex_vectors(d):
            yield
            if x != polytope.edmonds_vertex(rank, w):
                return f"D={_diagram_str(d)} w={w}"


@check("greedy-prefix-tight", scope=4)
def check_greedy_prefix_tight(m: int, rng: random.Random) -> Steps:
    for d in [random_diagram(rng, m) for _ in range(10)]:
        for w in all_perms(m):
            x = fillings.vertex_vector(d, w)
            prefix: set[int] = set()
            for k in w:
                prefix.add(k)
                yield
                total = sum(x[i - 1] for i in prefix)
                if total != fillings.rank_diagram(d, prefix) or total != polytope.theta(d, prefix):
                    return f"D={_diagram_str(d)} w={w} prefix={sorted(prefix)}"


def _basis_vectors(rows: Iterable[int], n: int) -> list[tuple[int, ...]]:
    """The vertices of the polytope of a column with boxes in ``rows`` of an
    n x n grid: the 0/1 vectors of its Schubert matroid's bases, by the oracle."""
    return [tuple(int(i in b) for i in range(1, n + 1)) for b in oracles.schubert_matroid_bases(rows, n)]


@check("minkowski-sum-membership", scope=4)
def check_minkowski_membership(m: int, rng: random.Random) -> Steps:
    for d in [random_diagram(rng, m) for _ in range(6)]:
        h = polytope.hrep(d)
        per_column = [_basis_vectors(polytope._mask_subset(col, m), m) for col in d.column_masks]
        sums = set()
        for combo in itertools.product(*per_column):
            point = tuple(map(sum, zip(*combo))) if combo else (0,) * m
            sums.add(point)
            yield
            if not polytope.member(h, point):
                return f"D={_diagram_str(d)} point={point}"
        for v in polytope.vertices(d):
            yield
            if v not in sums:
                return f"D={_diagram_str(d)} vertex={v} not a sum of column vertices"


@check("column-polytope-bases", scope=5)
def check_column_polytope_bases(m: int, rng: random.Random) -> Steps:
    for rows in _subsets(m):
        yield
        d = Diagram(m, frozenset((r, 1) for r in rows))
        expect = set(_basis_vectors(rows, m))
        got = polytope.vertices(d)
        if got != expect:
            return f"C={sorted(rows)}: {sorted(got)} != {sorted(expect)}"
        cert = polytope.certify_vertices(polytope.hrep(d), got)
        if not cert.ok:
            return f"C={sorted(rows)}: {cert.failures[0]}"


@check("skyline-vertices-lower-interval", scope=4)
def check_skyline_lower_interval(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for alpha in compositions(nn, min(nn, 3)):
            yield
            swept = polytope.vertices(diagrams.skyline(alpha))
            predicted = set(perms.vertex_compositions(alpha))
            if swept != predicted:
                return f"alpha={alpha}: {sorted(swept)} != {sorted(predicted)}"


def _swap_cases(m: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The cases (alpha, r, w) of the vertex-swap checks, alpha outermost: parts
    at most min(m, 3), alpha_r < alpha_{r+1}, and r before r + 1 in the order w."""
    for alpha in compositions(m, min(m, 3)):
        for r in oracles.descent_violations(alpha):
            for w in all_perms(m):
                if w.index(r) < w.index(r + 1):
                    yield alpha, r, w


@check("vertex-swap-symmetry", scope=4)
def check_vertex_swap_symmetry(m: int, rng: random.Random) -> Steps:
    for alpha, cases in itertools.groupby(_swap_cases(m), operator.itemgetter(0)):
        vecs = dict(fillings.vertex_vectors(diagrams.skyline(alpha)))
        for _, r, w in cases:
            yield
            if vecs[w] != perms.swap_adjacent(vecs[perms.swap_values(w, r)], r):
                return f"alpha={alpha} r={r} w={w}"


@check("vertex-swap-stability", scope=4)
def check_vertex_swap_stability(m: int, rng: random.Random) -> Steps:
    for alpha, by_alpha in itertools.groupby(_swap_cases(m), operator.itemgetter(0)):
        vecs = dict(fillings.vertex_vectors(diagrams.skyline(alpha)))
        for r, cases in itertools.groupby(by_alpha, operator.itemgetter(1)):
            sorted_vecs = dict(fillings.vertex_vectors(diagrams.skyline(perms.swap_adjacent(alpha, r))))
            for _, _, w in cases:
                yield
                if vecs[w] != sorted_vecs[w]:
                    return f"alpha={alpha} r={r} w={w}"


@check("theta-submodular", scope=4)
def check_theta_submodular(m: int, rng: random.Random) -> Steps:
    for d in theta_rank_corpus(m, rng, samples=10):
        if bad := (yield from _submodular_pairs(d, polytope.theta)):
            return bad


# ----------------------------------------------------------- polyoracle

def _random_polynomial(rng: random.Random, nvars: int) -> polyoracle.Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = tuple(rng.randint(0, 4) for _ in range(nvars))
        terms[e] = rng.randint(-9, 9) or 1
    return polyoracle.Polynomial(nvars, terms)


@check("operator-relations", scope=4, least=3)
def check_operator_relations(m: int, rng: random.Random) -> Steps:
    m = max(m, 3)  # three variables at least, so the braid relation has an instance
    zero = polyoracle.Polynomial(m, {})
    di = polyoracle.divided_difference
    for _ in range(25):
        f = _random_polynomial(rng, m)
        for i in range(1, m):
            yield
            if di(di(f, i), i) != zero:
                return f"dd^2 != 0 on {dict(f.terms)}"
            pi_f = polyoracle.demazure(f, i)
            if polyoracle.demazure(pi_f, i) != pi_f:
                return f"demazure not idempotent on {dict(f.terms)}"
            # the defining identity: (x_i - x_{i+1}) * dd_i(f) == f - s_i f
            xi = polyoracle.monomial(m, tuple(int(t == i - 1) for t in range(m)))
            xj = polyoracle.monomial(m, tuple(int(t == i) for t in range(m)))
            if (xi - xj) * di(f, i) != f - polyoracle.swap_variables(f, i):
                return f"division identity fails on {dict(f.terms)}"
        for i in range(1, m - 1):
            yield
            if di(di(di(f, i), i + 1), i) != di(di(di(f, i + 1), i), i + 1):
                return f"braid fails on {dict(f.terms)}"


@check("recursion-chain-independence", scope=4)
def check_recursion_chains(m: int, rng: random.Random) -> Steps:
    for w in all_perms(m):
        yield
        if polyoracle.schubert_polynomial(w) != oracles.schubert_by_last_ascent(w):
            return f"w={w}"
    for nn in range(1, m + 1):
        for alpha in compositions(nn, 3):
            yield
            if polyoracle.key_polynomial(alpha) != oracles.key_by_last_ascent(alpha):
                return f"alpha={alpha}"


def _newton_failure(label: str, d: Diagram, support: set, claimed: set, claim: str) -> str | None:
    """None when the exponents ``support`` lie in the polytope of ``d`` (`member`) and
    hold ``claimed``, which `certify_vertices` takes as its vertex set: then conv(support)
    is that polytope.  Else the first failure, after ``label``; ``claim`` names a point."""
    h = polytope.hrep(d)
    for e in support:
        if not polytope.member(h, e):
            return f"{label}: exponent {e} outside the polytope"
    if not claimed <= support:
        return f"{label}: {claim} missing from the support"
    cert = polytope.certify_vertices(h, claimed)
    return None if cert.ok else f"{label}: {cert.failures[0]}"


def _key_newton_failure(alpha: tuple[int, ...], predicted: set) -> str | None:
    """`_newton_failure` of the key polynomial of alpha on its skyline, claiming ``predicted``."""
    support = polyoracle.newton_exponents(polyoracle.key_polynomial(alpha))
    return _newton_failure(f"alpha={alpha}", diagrams.skyline(alpha), support, predicted, "predicted vertex")


@check("schubert-newton-polytope", scope=4)
def check_schubert_newton(m: int, rng: random.Random) -> Steps:
    for w in all_perms(m):
        yield
        d = diagrams.rothe(w)
        support = polyoracle.newton_exponents(polyoracle.schubert_polynomial(w))
        verts = polytope.vertices(d)
        if bad := _newton_failure(f"w={w}", d, support, verts, "vertex"):
            return bad
        if lp.hull_vertices(support, candidates=verts) != verts:
            return f"w={w}: support hull differs from the sweep"


@check("key-newton-lower-interval", scope=4)
def check_key_newton_interval(m: int, rng: random.Random) -> Steps:
    for nn in range(1, m + 1):
        for alpha in compositions(nn, min(nn, 3)):
            yield
            if bad := _key_newton_failure(alpha, set(perms.vertex_compositions(alpha))):
                return bad


@check("bruhat-interval-polytope", scope=4)
def check_bruhat_interval_polytope(m: int, rng: random.Random) -> Steps:
    for w in all_perms(m):
        yield
        got = set(perms.vertex_compositions(w))
        if bad := _key_newton_failure(w, got):
            return bad
        upper = {v for v in all_perms(m) if perms.bruhat_leq(w, v)}
        if got != upper:
            return f"w={w}: {sorted(got)} != {sorted(upper)}"


@check("schur-permutohedron", scope=4)
def check_schur_permutohedron(m: int, rng: random.Random) -> Steps:
    for alpha in compositions(m, min(m, 3)):
        if list(alpha) != sorted(alpha):
            continue
        yield
        got = set(perms.vertex_compositions(alpha))
        if bad := _key_newton_failure(alpha, got):
            return bad
        if got != set(itertools.permutations(perms.lambda_of(alpha))):
            return f"alpha={alpha}"


@check("coefficient-positivity", scope=4)
def check_coefficient_positivity(m: int, rng: random.Random) -> Steps:
    for w in all_perms(m):
        yield
        if any(c <= 0 for c in polyoracle.schubert_polynomial(w).terms.values()):
            return f"w={w}"
    for nn in range(1, m + 1):
        for alpha in compositions(nn, 3):
            yield
            if any(c <= 0 for c in polyoracle.key_polynomial(alpha).terms.values()):
                return f"alpha={alpha}"


# -------------------------------------------------------- serialization

def _round_trip_failure(kind: str, value, write: Callable, read: Callable) -> str | None:
    """``kind`` and the compact document of ``value`` when writing, reading
    and writing again changes the document, else None."""
    doc = compact(write(value))
    return None if compact(write(read(json.loads(doc)))) == doc else f"{kind} {doc}"


@check("json-round-trip", scope=4, least=3)  # the 3 x 3 skyline of (1, 0, 3) at every n
def check_json_round_trip(m: int, rng: random.Random) -> Steps:
    for d in [random_diagram(rng, m) for _ in range(10)] + [diagrams.skyline((1, 0, 3))]:
        yield
        if bad := _round_trip_failure("diagram", d, diagrams.to_json_dict, diagrams.from_json_dict):
            return bad
        yield
        if bad := _round_trip_failure("hrep", polytope.hrep(d), polytope.hrep_to_json_dict,
                                      polytope.hrep_from_json_dict):
            return bad
        yield
        if bad := _round_trip_failure("vertex set", polytope.vertices(d), polytope.vertex_set_to_json_dict,
                                      polytope.vertex_set_from_json_dict):
            return bad
    for w in all_perms(min(m, 3)):
        yield
        if bad := _round_trip_failure("polynomial", polyoracle.schubert_polynomial(w),
                                      polyoracle.poly_to_json_dict, polyoracle.poly_from_json_dict):
            return bad


# --------------------------------------------------------------- runner

def check_names(only: Iterable[str] | None = None) -> list[str]:
    """The registered check names in registry order, or those of them in
    ``only``; a name in ``only`` that no check has raises ValueError."""
    if only is None:
        return list(_REGISTRY)
    only = set(only)
    if unknown := only - _REGISTRY.keys():
        raise ValueError(f"no check named {min(unknown)!r}")
    return [name for name in _REGISTRY if name in only]


def largest_scope() -> int:
    """The largest size any check sweeps; a larger n runs the same instances."""
    return max(scope for scope, _ in _REGISTRY.values())


def run_check(name: str, n: int, seed: int) -> CheckResult:
    """Run one check at scope ``min(n, its scope)``, counting its instances;
    the result reports the scope it swept, at least the check's ``least``.
    An exception raised by the check fails that check alone, with the
    exception as its counterexample."""
    scope, body = _REGISTRY[name]
    m = min(n, scope)
    start = time.perf_counter()
    steps = body(m, random.Random(f"{seed}:{name}"))
    instances = 0
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            counterexample = stop.value
            break
        except Exception as exc:  # a crash fails this check only
            counterexample = f"raised {type(exc).__name__}: {exc}"
            break
        instances += 1
    return CheckResult(name, instances, counterexample, max(m, _LEAST.get(name, 1)), time.perf_counter() - start)


def run_all(n: int, seed: int = 0, jobs: int = 1, only: Iterable[str] | None = None) -> list[CheckResult]:
    """Run every check, or the checks named in ``only`` (`check_names`),
    scoped to n.  Deterministic for a fixed seed; with jobs > 1 the work
    fans out to a process pool of at most one worker per check and per
    CPU, and results are still assembled in registry order."""
    names = check_names(only)
    workers = min(jobs, len(names), os.cpu_count() or 1)
    if workers <= 1:
        return [run_check(name, n, seed) for name in names]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_check, names, itertools.repeat(n), itertools.repeat(seed)))


def format_report(results: Iterable[CheckResult], n: int, seed: int) -> str:
    """One line per check with its instance count, effective scope and
    seconds, then a summary line whose seconds are the checks' sum.  A
    failing check's line ends with the command that reruns it alone with
    the run's n and seed, which reproduces it (`run_check`)."""
    results = list(results)
    lines = []
    for r in results:
        ran = f"{r.instances} instances, scope {r.scope}, {r.seconds:.2f} s"
        lines.append(f"PASS {r.name} ({ran})" if r.ok else f"FAIL {r.name} ({ran}): {r.counterexample}; "
                     f"reproduce: schubitope verify --only {r.name} --n {n} --seed {seed}")
    failed = sum(not r.ok for r in results)
    total = sum(r.instances for r in results)
    seconds = sum(r.seconds for r in results)
    verdict = "FAIL" if failed else "PASS"
    lines.append(f"{verdict}: {len(results) - failed}/{len(results)} checks passed, "
                 f"{total} instances, {seconds:.2f} s")
    return "\n".join(lines)
