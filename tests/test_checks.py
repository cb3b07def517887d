"""The `verify` runner: registration, instance counting, the worker clamp,
and checks that catch a deliberately broken library function."""
import importlib.util
import pathlib
import random
import re

import pytest

import schubitope
from conftest import assert_frozen
from schubitope import Diagram, checks, diagrams, fillings, lp, oracles, perms, polyoracle, polytope
from schubitope.checks import CheckResult, run_check
from schubitope.cli import main


def test_registry_names_are_unique_and_scoped():
    names = checks.check_names()
    assert len(names) == len(set(names)) == 29
    assert checks.largest_scope() == 5


def test_runner_counts_yields_and_returns_counterexample(monkeypatch):
    seen = []

    def toy(m, rng):
        seen.append((m, rng.random()))
        for i in range(m):
            yield
            if i == 1:
                return f"i={i}"

    monkeypatch.setitem(checks._REGISTRY, "toy", (2, toy))
    assert run_check("toy", 1, seed=3) == CheckResult("toy", 1, None)
    assert run_check("toy", 7, seed=3) == CheckResult("toy", 2, "i=1")
    expected = random.Random("3:toy").random()
    assert seen == [(1, expected), (2, expected)]


def test_result_carries_effective_scope_and_seconds(monkeypatch):
    def toy(m, rng):
        yield

    monkeypatch.setitem(checks._REGISTRY, "toy", (3, toy))
    small, large = run_check("toy", 2, seed=0), run_check("toy", 9, seed=0)
    assert (small.scope, large.scope) == (2, 3)
    assert small.seconds >= 0 and large.seconds >= 0
    # timings are no part of the answer
    assert CheckResult("toy", 1, None, 2, 0.5) == CheckResult("toy", 1, None, 2, 7.0)
    report = checks.format_report([CheckResult("a", 3, None, 2, 0.25), CheckResult("b", 1, "x", 4, 1.5)],
                                  n=9, seed=5)
    assert report.splitlines() == [
        "PASS a (3 instances, scope 2, 0.25 s)",
        "FAIL b (1 instances, scope 4, 1.50 s): x; reproduce: schubitope verify --only b --n 9 --seed 5",
        "FAIL: 1/2 checks passed, 4 instances, 1.75 s",
    ]


@pytest.mark.parametrize("name, n, scope, instances", [
    ("operator-relations", 1, 3, 75),
    ("operator-relations", 2, 3, 75),
    ("operator-relations", 4, 4, 125),
    ("json-round-trip", 1, 3, 34),
    ("json-round-trip", 2, 3, 35),
    ("json-round-trip", 4, 4, 39),
    ("rothe-box-count", 1, 1, 1),
])
def test_reported_scope_is_the_scope_swept(name, n, scope, instances):
    # operator-relations takes three variables and json-round-trip a 3 x 3
    # skyline at every n, so each reports scope 3 at n = 1 and 2; what they
    # sweep is unchanged
    result = run_check(name, n, seed=0)
    assert (result.ok, result.scope, result.instances) == (True, scope, instances)
    assert f"({instances} instances, scope {scope}, " in checks.format_report([result], n, 0)


def test_raising_check_fails_alone(monkeypatch):
    def toy(m, rng):
        yield
        yield
        raise KeyError("boom")

    monkeypatch.setitem(checks._REGISTRY, "toy", (2, toy))
    assert run_check("toy", 2, seed=0) == CheckResult("toy", 2, "raised KeyError: 'boom'")
    assert [r.ok for r in checks.run_all(2, jobs=1)].count(False) == 1


def test_every_mutant_applies_once():
    # tools/mutants.py runs the slow half: each mutant's target fails
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.stale() == []
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    root = pathlib.Path(tool.ROOT)
    assert all((root / target).is_file() for m in tool.MUTANTS for target in m.target.split())


def test_traced_names_exist():
    # perfbench/tracing.py wraps these by name; a missing one breaks traced benchmark runs
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{fname}" for mod, fnames in tracing.LAYERS.items()
               for fname in fnames if not hasattr(getattr(schubitope, mod), fname)]
    assert missing == []
    assert callable(checks.run_check)


def test_result_is_frozen():
    result = run_check("rothe-box-count", 2, seed=0)
    shown = (f"CheckResult(name='rothe-box-count', instances={result.instances}, counterexample=None, "
             f"scope=2, seconds={result.seconds!r})")
    assert_frozen(result, shown, name="other", instances=0, counterexample="forged", scope=5, seconds=1.0)


def test_run_all_calls_run_check_once_per_check(monkeypatch):
    calls = []

    def fake(name, n, seed):
        calls.append(name)
        return CheckResult(name, n)

    monkeypatch.setattr(checks, "run_check", fake)
    results = checks.run_all(3, seed=1, jobs=1)
    assert calls == checks.check_names()
    assert [r.instances for r in results] == [3] * len(calls)


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1000, 64, 29),  # one worker per check at most
    (3, 64, 3),
    (8, 2, 2),  # one worker per core at most
    (8, None, None),  # unknown core count: serial
    (1, 64, None),
])
def test_jobs_clamp(monkeypatch, fake_pool, jobs, cpus, workers):
    monkeypatch.setattr(checks.os, "cpu_count", lambda: cpus)
    results = checks.run_all(2, jobs=jobs)
    assert fake_pool == ([] if workers is None else [workers])
    assert [r.name for r in results] == checks.check_names()


# Each fault breaks one library function; the pinned instance counts and
# counterexamples are those of `verify --n 4 --seed 0`.

def test_rank_brute_fault_caught_first(monkeypatch):
    brute = oracles.rank_brute
    monkeypatch.setattr(oracles, "rank_brute", lambda rows, s: brute(rows, s) + 1)
    assert run_check("rank-three-ways", 4, seed=0) == CheckResult(
        "rank-three-ways", 1, "C=[] S=[]: 0,1,0")


def test_theta_fault_caught_first(monkeypatch):
    theta = polytope.theta
    monkeypatch.setattr(polytope, "theta", lambda d, s: theta(d, s) + 1)
    result = run_check("theta-equals-rank", 4, seed=0)
    assert result.instances == 1
    assert result.counterexample.endswith("S=[]: theta=1 rank=0")


def test_extra_vertex_caught(monkeypatch):
    vertices = polytope.vertices
    monkeypatch.setattr(polytope, "vertices", lambda d: vertices(d) | {(99,) * 4})
    result = run_check("minkowski-sum-membership", 4, seed=0)
    assert result.instances == 55
    assert result.counterexample.endswith("vertex=(99, 99, 99, 99) not a sum of column vertices")


def test_vertex_json_fault_caught(monkeypatch):
    parse = polytope.vertex_set_from_json_dict
    monkeypatch.setattr(polytope, "vertex_set_from_json_dict", lambda doc: parse(doc) | {(7,)})
    result = run_check("json-round-trip", 4, seed=0)
    assert result.instances == 3
    assert result.counterexample.startswith("vertex set ")


def test_sort_filling_fault_caught(monkeypatch):
    sort = fillings.sort_filling
    monkeypatch.setattr(fillings, "sort_filling", lambda f: {} if f == {1: 1} else sort(f))
    assert run_check("sort-standardize", 4, seed=0) == CheckResult(
        "sort-standardize", 37, "sort({1: 1}) gave {}, expected {1: 1}")


def test_theta_submodular_fault_caught(monkeypatch):
    # the full set's bound raised by 2 breaks submodularity at S + T = [4]
    theta = polytope.theta
    monkeypatch.setattr(polytope, "theta", lambda d, s: theta(d, s) + 2 * (len(s) == 4))
    result = run_check("theta-submodular", 4, seed=0)
    assert result.instances == 31
    assert result.counterexample.endswith("S=[1] T=[2, 3, 4]")


def test_rank_submodular_fault_caught(monkeypatch):
    rank = fillings.rank_diagram
    monkeypatch.setattr(fillings, "rank_diagram", lambda d, s: rank(d, s) + 2 * (len(s) == 4))
    assert run_check("rank-submodular", 4, seed=0) == CheckResult(
        "rank-submodular", 127,
        'D={"n":4,"boxes":[[1,1],[1,2],[2,2],[2,3],[2,4],[3,1],[3,3],[4,1],[4,3],[4,4]]} '
        "S=[1, 2, 3] T=[2, 3, 4]")


@pytest.mark.parametrize("name, counterexample", [
    ("greedy-equals-filling", 'D={"n":4,"boxes":[[1,2],[2,1],[2,2],[2,4],[3,2],[3,3],[4,4]]} w=(2, 1, 3, 4)'),
    ("vertex-swap-symmetry", "alpha=(0, 0, 0, 1) r=3 w=(2, 1, 3, 4)"),
    ("vertex-swap-stability", "alpha=(0, 0, 0, 1) r=3 w=(2, 1, 3, 4)"),
])
def test_vertex_vectors_fault_caught(monkeypatch, name, counterexample):
    # one wrong vector in the whole run: order (2, 1, 3, 4) of the first diagram walked
    walk, walked = fillings.vertex_vectors, []

    def faulty(d):
        walked.append(d)
        first = len(walked) == 1
        for w, x in walk(d):
            yield w, ((x[0] + 1, *x[1:]) if first and w == (2, 1, 3, 4) else x)

    monkeypatch.setattr(fillings, "vertex_vectors", faulty)
    instances = 7 if name == "greedy-equals-filling" else 4
    assert run_check(name, 4, seed=0) == CheckResult(name, instances, counterexample)


def test_stability_compares_with_the_sorted_skyline(monkeypatch):
    # one wrong vector on the skyline of (0, 0, 1, 0) alone: the check meets
    # it only by sorting position 3 of (0, 0, 0, 1), and walks it again as an
    # alpha of its own, where both sides of the comparison are wrong alike
    walk, target = fillings.vertex_vectors, diagrams.skyline((0, 0, 1, 0))

    def faulty(d):
        for w, x in walk(d):
            yield w, ((x[0] + 1, *x[1:]) if d == target and w == (1, 2, 3, 4) else x)

    monkeypatch.setattr(fillings, "vertex_vectors", faulty)
    assert run_check("vertex-swap-stability", 4, seed=0) == CheckResult(
        "vertex-swap-stability", 1, "alpha=(0, 0, 0, 1) r=3 w=(1, 2, 3, 4)")


# Each fault reaches a counterexample of a polytope or Newton check that no
# passing run returns, pinned at `verify --n 2 --seed 0`, where they are
# short.  A fault is a function of the library function it replaces.
def no_member(member):
    return lambda h, p: False


def extra_vertex(vertices):
    return lambda d: vertices(d) | {(9,) * d.n}


def one_vertex_short(certify):
    return lambda h, pts: certify(h, set(pts) - {min(pts)})


NEWTON_FAULTS = [
    ("minkowski-sum-membership", polytope, "member", no_member,
     1, 'D={"n":2,"boxes":[[1,1],[2,2]]} point=(1, 1)'),
    ("column-polytope-bases", polytope, "vertices", extra_vertex, 1, "C=[]: [(0, 0), (9, 9)] != [(0, 0)]"),
    ("column-polytope-bases", polytope, "certify_vertices", one_vertex_short,
     1, "C=[]: vertex (0, 0) (greedy order (1, 2)) is missing from the claimed set"),
    ("skyline-vertices-lower-interval", polytope, "vertices", extra_vertex, 1, "alpha=(0,): [(0,), (9,)] != [(0,)]"),
    ("schubert-newton-polytope", polytope, "member", no_member, 1, "w=(1, 2): exponent (0, 0) outside the polytope"),
    ("schubert-newton-polytope", polytope, "vertices", extra_vertex, 1, "w=(1, 2): vertex missing from the support"),
    ("schubert-newton-polytope", polytope, "certify_vertices", one_vertex_short,
     1, "w=(1, 2): vertex (0, 0) (greedy order (1, 2)) is missing from the claimed set"),
    ("schubert-newton-polytope", lp, "hull_vertices",
     lambda hull: lambda pts, candidates=None: hull(pts, candidates) - {min(pts)},
     1, "w=(1, 2): support hull differs from the sweep"),
    ("key-newton-lower-interval", polytope, "member", no_member, 1, "alpha=(0,): exponent (0,) outside the polytope"),
    ("bruhat-interval-polytope", perms, "vertex_compositions", lambda below: lambda a: below(a) + [(9,) * len(a)],
     1, "alpha=(1, 2): predicted vertex missing from the support"),
    ("bruhat-interval-polytope", perms, "bruhat_leq", lambda leq: lambda u, v: u == v,
     1, "w=(1, 2): [(1, 2), (2, 1)] != [(1, 2)]"),
    ("schur-permutohedron", polytope, "certify_vertices", one_vertex_short,
     1, "alpha=(0, 0): vertex (0, 0) (greedy order (1, 2)) is missing from the claimed set"),
    ("schur-permutohedron", perms, "lambda_of", lambda lam: lambda a: (*lam(a)[:-1], lam(a)[-1] + 1),
     1, "alpha=(0, 0)"),
    ("json-round-trip", diagrams, "from_json_dict", lambda parse: lambda doc: Diagram(doc["n"], ()),
     1, 'diagram {"n":2,"boxes":[[2,1],[2,2]]}'),
    ("json-round-trip", polytope, "hrep_from_json_dict",
     lambda parse: lambda doc: polytope.hrep(Diagram(doc["n"], ())),
     2, 'hrep {"n":2,"total":2,"bounds":[{"S":[1],"b":2},{"S":[2],"b":2}]}'),
    ("json-round-trip", polyoracle, "poly_from_json_dict", lambda parse: lambda doc: parse(doc) + parse(doc),
     34, 'polynomial {"n":2,"terms":[{"e":[0,0],"c":1}]}'),
]


@pytest.mark.parametrize("name, module, attr, fault, instances, counterexample", NEWTON_FAULTS,
                         ids=[f"{case[0]}-{case[2]}" for case in NEWTON_FAULTS])
def test_polytope_and_newton_faults_caught(monkeypatch, name, module, attr, fault, instances, counterexample):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert run_check(name, 2, seed=0) == CheckResult(name, instances, counterexample)


def negated(f):
    return lambda *args: -f(*args)


class Standardized(dict):
    """A filling as the faulty `standardize` below returns it."""


def empties_own_output(standardize):
    # right on every filling but one it has already standardized, which it empties
    return lambda rows, f: {} if isinstance(f, Standardized) else Standardized(standardize(rows, f))


def mixes_indices(dd):
    # right on every polynomial but one that an operator of another index
    # made, where it adds the constant i; the braid relation alone mixes indices
    made = []

    def faulty(g, i):
        out = dd(g, i)
        if any(g is old and j != i for old, j in made):
            out = out + polyoracle.Polynomial(g.n, {(0,) * g.n: i})
        made.append((out, i))
        return out
    return faulty


# Each fault reaches one counterexample line of the rank, order, filling,
# operator and coefficient checks, pinned at `verify --n 2 --seed 0`.
CHECK_FAULTS = [
    ("search", "w-of-shortest-sort", oracles, "shortest_sorting_perms", lambda search: lambda a: [],
     1, "alpha=(0,) w_of=(1,) search=[]"),
    ("action", "w-of-shortest-sort", perms, "lambda_of", lambda lam: lambda a: lam(a)[::-1],
     6, "alpha=(0, 1): action mismatch"),
    ("leq", "bruhat-subword-oracle", perms, "bruhat_leq", lambda leq: lambda u, w: not leq(u, w),
     1, "u=(1,) w=(1,)"),
    ("leq", "composition-order-swap-oracle", perms, "composition_leq", lambda leq: lambda b, a: not leq(b, a),
     1, "beta=(0,) alpha=(0,)"),
    ("swap", "lower-interval-recursion", perms, "vertex_compositions", lambda below: lambda a: [tuple(a)],
     1, "alpha=(0, 1) r=1"),
    ("interval", "lower-interval-chain-independence", oracles, "vertex_compositions_recursive",
     lambda rec: lambda a, pick=min: rec(a, pick) | {(9,) * len(a)}, 1, "alpha=(0,)"),
    ("sort", "lower-interval-chain-independence", oracles, "w_of_recursive",
     lambda rec: lambda a: (rec(a)[0], rec(a)[1] + (1,)), 1, "alpha=(0,): recursive sort mismatch"),
    ("length", "rothe-box-count", perms, "length", lambda length: lambda w: length(w) + 1, 1, "w=(1,)"),
    ("order", "fill-order-independence", fillings, "fill_column",
     lambda fill: lambda rows, values: fill(rows, values) if list(values) == sorted(values) else {},
     10, "C=[1] order=(2, 1)"),
    ("flag", "fill-flag-strict", fillings, "fill_diagram", lambda fill: lambda d, w: {**fill(d, w), (1, 1): 2},
     1, 'D={"n":2,"boxes":[[1,1],[1,2]]} w=(1, 2): value 2 in row 1'),
    ("strict", "fill-flag-strict", fillings, "fill_diagram", lambda fill: lambda d, w: {(1, 1): 1, (2, 1): 1},
     1, 'D={"n":2,"boxes":[[1,1],[1,2]]} w=(1, 2): column 1 repeats a value'),
    ("lost", "sort-standardize", fillings, "standardize", lambda std: lambda rows, f: {},
     14, "standardize({1: 1}) lost entries: {}"),
    ("idempotent", "sort-standardize", fillings, "standardize", empties_own_output,
     14, "standardize not idempotent on {1: 1}"),
    ("step", "rank-monotone-step", fillings, "rank_filling", lambda rank: lambda rows, s: 2 * rank(rows, s),
     5, "C=[1] S=[1] drop 1: step 2"),
    ("prefix", "greedy-prefix-tight", fillings, "vertex_vector",
     lambda vv: lambda d, w: (vv(d, w)[0] + 1, *vv(d, w)[1:]),
     1, 'D={"n":2,"boxes":[[2,1],[2,2]]} w=(1, 2) prefix=[1]'),
    ("square", "operator-relations", polyoracle, "divided_difference", lambda dd: lambda f, i: f,
     1, "dd^2 != 0 on {(2, 0, 3): 1}"),
    ("demazure", "operator-relations", polyoracle, "demazure", lambda pi: lambda f, i: pi(f, i) + pi(f, i),
     1, "demazure not idempotent on {(2, 0, 3): 1}"),
    ("division", "operator-relations", polyoracle, "swap_variables", lambda swap: lambda f, i: f,
     1, "division identity fails on {(2, 0, 3): 1}"),
    ("braid", "operator-relations", polyoracle, "divided_difference", mixes_indices,
     3, "braid fails on {(2, 0, 3): 1}"),
    # the recursion reaches S_(1,2) from S_(2,1) through the negated
    # oracle, so the sign cancels there and S_(2,1) fails first
    ("schubert", "recursion-chain-independence", oracles, "schubert_by_last_ascent", negated, 2, "w=(2, 1)"),
    ("key", "recursion-chain-independence", oracles, "key_by_last_ascent", negated, 3, "alpha=(0,)"),
    ("schubert", "coefficient-positivity", polyoracle, "schubert_polynomial", negated, 1, "w=(1, 2)"),
    ("key", "coefficient-positivity", polyoracle, "key_polynomial", negated, 3, "alpha=(0,)"),
]


@pytest.mark.parametrize("name, module, attr, fault, instances, counterexample",
                         [case[1:] for case in CHECK_FAULTS], ids=[f"{case[1]}-{case[0]}" for case in CHECK_FAULTS])
def test_check_faults_caught(monkeypatch, name, module, attr, fault, instances, counterexample):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert run_check(name, 2, seed=0) == CheckResult(name, instances, counterexample)


@pytest.mark.parametrize("name", ["vertex-swap-symmetry", "vertex-swap-stability"])
def test_vertex_swap_checks_at_n5(monkeypatch, name):
    # both swap identities hold on every skyline with n = 5 and parts <= 3
    monkeypatch.setitem(checks._REGISTRY, name, (5, checks._REGISTRY[name][1]))
    assert run_check(name, 5, seed=0) == CheckResult(name, 92160)


# every check's instance count at `verify --n 4 --seed 0`; a refactor of a
# check's sweep must leave it sweeping the same instances
VERIFY_N4_SEED0 = [
    ("w-of-shortest-sort", 340),
    ("bruhat-subword-oracle", 617),
    ("composition-order-swap-oracle", 69904),
    ("lower-interval-recursion", 342),
    ("lower-interval-chain-independence", 340),
    ("rothe-box-count", 33),
    ("fill-order-independence", 1040),
    ("rank-three-ways", 256),
    ("fill-flag-strict", 480),
    ("sort-standardize", 2614),
    ("rank-submodular", 3072),
    ("rank-monotone-step", 512),
    ("theta-equals-rank", 11024),
    ("greedy-equals-filling", 15936),
    ("greedy-prefix-tight", 960),
    ("minkowski-sum-membership", 846),
    ("column-polytope-bases", 16),
    ("skyline-vertices-lower-interval", 331),
    ("vertex-swap-symmetry", 3456),
    ("vertex-swap-stability", 3456),
    ("theta-submodular", 168704),
    ("operator-relations", 125),
    ("recursion-chain-independence", 364),
    ("schubert-newton-polytope", 24),
    ("key-newton-lower-interval", 331),
    ("bruhat-interval-polytope", 24),
    ("schur-permutohedron", 35),
    ("coefficient-positivity", 364),
    ("json-round-trip", 39),
]


def test_verify_n4_seed0_passes_with_pinned_instance_counts():
    results = checks.run_all(4, seed=0, jobs=1)
    assert [(r.name, r.ok, r.instances) for r in results] == [
        (name, True, instances) for name, instances in VERIFY_N4_SEED0]
    assert sum(instances for _, instances in VERIFY_N4_SEED0) == 285585


def test_verify_reports_failure_and_exits_1(monkeypatch, capsys):
    brute = oracles.rank_brute
    monkeypatch.setattr(oracles, "rank_brute", lambda rows, s: brute(rows, s) + 1)
    code = main(["verify", "--n", "2", "--jobs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    rerun = "schubitope verify --only rank-three-ways --n 2 --seed 0"
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert len(failed) == 1
    assert re.fullmatch(r"FAIL rank-three-ways \(1 instances, scope 2, \d+\.\d\d s\): C=\[\] S=\[\]: 0,1,0; "
                        r"reproduce: " + rerun, failed[0])
    assert re.fullmatch(r"FAIL: 28/29 checks passed, 1501 instances, \d+\.\d\d s", lines[-1])
    # the command on the FAIL line reproduces it
    assert main(rerun.split()[1:]) == 1
    again = capsys.readouterr().out.splitlines()
    untimed = [re.sub(r", \d+\.\d\d s\b", "", line) for line in (failed[0], again[0])]
    assert len(again) == 2 and untimed[0] == untimed[1]


def test_verify_reports_raising_checks_and_exits_1(monkeypatch, capsys):
    # an extra descent at index 0 makes four checks raise at n = 2; the
    # other 25 still run and report
    descents = oracles.descent_violations
    monkeypatch.setattr(oracles, "descent_violations", lambda alpha: descents(alpha) + [0])
    code = main(["verify", "--n", "2", "--jobs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert [line.split(" (")[0] for line in failed] == [
        "FAIL lower-interval-recursion",
        "FAIL lower-interval-chain-independence",
        "FAIL vertex-swap-symmetry",
        "FAIL vertex-swap-stability",
    ]
    assert re.fullmatch(r"FAIL lower-interval-recursion \(1 instances, scope 2, \d+\.\d\d s\): "
                        r"raised ValueError: adjacent-swap index 0 out of range 1\.\.0; "
                        r"reproduce: schubitope verify --only lower-interval-recursion --n 2 --seed 0", failed[0])
    assert all(re.search(r"instances, scope 2, \d+\.\d\d s\): raised ValueError: ", line) for line in failed)
    assert re.fullmatch(r"FAIL: 25/29 checks passed, 1486 instances, \d+\.\d\d s", lines[-1])
