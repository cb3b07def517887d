"""Acceptance suite: golden-example reproduction plus exhaustive oracle
equivalence at desk scale.  Each criterion prints one pass/fail line.
Criteria 6, 7 and 8 run the named `verify` checks through `run_check`."""
import itertools
import json
import random
import time

from conftest import (
    D9,
    FIG18,
    FIG18_FILLING,
    FIG18_W,
    TRAPEZOID,
    TRAPEZOID_FILLINGS,
    TRAPEZOID_VERTICES,
)
from schubitope import diagrams, perms
from schubitope.checks import random_diagram, run_check
from schubitope.fillings import fill_diagram, rank_diagram, vertex_vector
from schubitope.lp import hull_vertices
from schubitope.polyoracle import key_polynomial, newton_exponents
from schubitope.polytope import (
    certify_vertices,
    column_word,
    edmonds_vertex,
    hrep,
    theta,
    theta_columns,
    vertices,
)


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {description}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, f"criterion {num} ({description}): {detail}"


def best_runtime(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def subsets(n, proper_nonempty=False):
    lo = 1 if proper_nonempty else 0
    hi = 2 ** n - 1 if proper_nonempty else 2 ** n
    for mask in range(lo, hi):
        yield frozenset(i for i in range(1, n + 1) if (mask >> (i - 1)) & 1)


def test_criterion_1_figure_filling():
    filling = fill_diagram(FIG18, FIG18_W)
    x = vertex_vector(FIG18, FIG18_W)
    ok = filling == FIG18_FILLING and x == (6, 2, 6, 0, 3, 1) and FIG18.size == 18
    elapsed = best_runtime(lambda: (fill_diagram(FIG18, FIG18_W), vertex_vector(FIG18, FIG18_W)))
    ok = ok and elapsed < 1e-3
    criterion(1, "18-box filling and x(315624) = (6,2,6,0,3,1) in < 1 ms", ok,
              f"x={x} elapsed={elapsed:.2e}s")


def test_criterion_2_trapezoid():
    def run():
        fills = {w: fill_diagram(TRAPEZOID, w) for w in TRAPEZOID_FILLINGS}
        verts = vertices(TRAPEZOID)
        cert = certify_vertices(hrep(TRAPEZOID), verts)
        return fills, verts, cert

    fills, verts, cert = run()
    ok = fills == TRAPEZOID_FILLINGS and verts == TRAPEZOID_VERTICES and cert.ok
    elapsed = best_runtime(run)
    ok = ok and elapsed < 1e-2
    criterion(2, "six fillings, four vertices, certification pass in < 10 ms", ok,
              f"elapsed={elapsed:.2e}s failures={cert.failures}")


def test_criterion_3_intro_theta():
    words = [column_word(D9, j, {1, 3}) for j in range(1, 6)]
    cols = theta_columns(D9, {1, 3})
    ok = (words == ["★())", "(★", "(()", "()★)", "()("]
          and cols == [2, 1, 1, 2, 1]
          and theta(D9, {1, 3}) == 7)
    criterion(3, "intro column words and bound values 2,1,1,2,1 (total 7)", ok,
              f"words={words} cols={cols}")


def test_criterion_4_key_oracle():
    expected_terms = {
        (3, 1, 0): 1, (3, 0, 1): 1,
        (2, 2, 0): 1, (2, 1, 1): 1, (2, 0, 2): 1,
        (1, 3, 0): 1, (1, 2, 1): 1, (1, 1, 2): 1, (1, 0, 3): 1,
    }
    f = key_polynomial((1, 0, 3))
    predicted = set(perms.vertex_compositions((1, 0, 3)))
    got = hull_vertices(newton_exponents(f))
    cert = certify_vertices(hrep(diagrams.skyline((1, 0, 3))), got)
    ok = f.terms == expected_terms and got == predicted and cert.ok
    criterion(4, "nine-term key polynomial with certified vertex set = lower interval", ok,
              f"terms={sorted(f.terms)} hull={sorted(got)}")


def test_criterion_5_sorting_permutation():
    got = perms.w_of((2, 0, 1, 3, 2, 0, 1))
    criterion(5, "w(2,0,1,3,2,0,1) = 2641375", got == (2, 6, 4, 1, 3, 7, 5), f"got={got}")


def failure(results):
    """The first failing check as "name: counterexample", or ""."""
    return next((f"{r.name}: {r.counterexample}" for r in results if not r.ok), "")


def test_criterion_6_rank_equivalence():
    start = time.perf_counter()
    ranks = run_check("rank-three-ways", 5, seed=0)
    orders = run_check("fill-order-independence", 5, seed=0)
    elapsed = time.perf_counter() - start
    bad = failure([ranks, orders])
    ok = not bad and ranks.instances == 1024 and elapsed < 30
    criterion(6, "1024-instance triple rank equivalence + order independence in < 30 s", ok,
              bad or f"instances={ranks.instances} elapsed={elapsed:.1f}s")


def test_criterion_7_skyline_sweep():
    start = time.perf_counter()
    sweep = run_check("skyline-vertices-lower-interval", 4, seed=0)
    results = [sweep, run_check("lower-interval-recursion", 4, seed=0)]
    # the swap checks sweep the compositions of exactly n parts
    results += [run_check(name, n, seed=0) for n in range(1, 5)
                for name in ("vertex-swap-symmetry", "vertex-swap-stability")]
    elapsed = time.perf_counter() - start
    bad = failure(results)
    ok = not bad and sweep.instances >= 256 and elapsed < 60
    criterion(7, "lower-interval sweep with swap invariants (n <= 4, parts <= 3) in < 60 s",
              ok, bad or f"instances={sweep.instances} elapsed={elapsed:.1f}s")


def test_criterion_8_schubert_newton_sweep():
    start = time.perf_counter()
    sweep = run_check("schubert-newton-polytope", 4, seed=0)
    elapsed = time.perf_counter() - start
    bad = failure([sweep])
    ok = not bad and sweep.instances == 24 and elapsed < 60
    criterion(8, "Schubert supports inside Rothe polytopes with certified vertices (S_4) in < 60 s",
              ok, bad or f"instances={sweep.instances} elapsed={elapsed:.1f}s")


def test_criterion_9_bruhat_interval_sweep():
    bad = ""
    for w in itertools.permutations(range(1, 5)):
        support = newton_exponents(key_polynomial(w))
        predicted = set(perms.vertex_compositions(w))
        got = hull_vertices(support, candidates=predicted)
        cert = certify_vertices(hrep(diagrams.skyline(w)), got)
        upper = {v for v in itertools.permutations(range(1, 5)) if perms.bruhat_leq(w, v)}
        if got != upper or not cert.ok:
            bad = f"w={w}: certified {sorted(got)} vs interval {sorted(upper)}"
            break
    criterion(9, "key-polynomial Newton vertices = upper Bruhat interval (S_4)", not bad, bad)


def test_criterion_10_theta_rank_corpus():
    rng = random.Random(20260810)
    corpus = [random_diagram(rng, 4) for _ in range(200)]
    corpus.extend(diagrams.rothe(w) for w in itertools.permutations(range(1, 5)))
    corpus.extend(diagrams.skyline(a) for a in itertools.product(range(5), repeat=4))
    bad = ""
    for d in corpus:
        for s in subsets(4, proper_nonempty=True):
            th = theta(d, s)
            rk = rank_diagram(d, s)
            if th != rk:
                doc = json.dumps(diagrams.to_json_dict(d), separators=(",", ":"))
                bad = f"theta!=rank: D={doc} S={sorted(s)} theta={th} rank={rk}"
                break
        if bad:
            break
        rank = [rank_diagram(d, s) for s in subsets(4)]
        for w in itertools.permutations(range(1, 5)):
            if vertex_vector(d, w) != edmonds_vertex(rank, w):
                doc = json.dumps(diagrams.to_json_dict(d), separators=(",", ":"))
                bad = f"greedy!=filling: D={doc} w={w}"
                break
        if bad:
            break
    criterion(10, "bound = rank identity and greedy = filling on the 849-diagram corpus",
              not bad, bad)
