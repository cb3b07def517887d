"""Seeded inputs and their expected answers, one generator per workload.

Inputs are plain JSON: random diagrams as box lists, Rothe diagrams as
permutations, skylines as compositions.  Expected answers come from
`oracle`, never from the library, and are compared as digests of the
canonical forms in `answers`.

Sizes are fixed per workload and only the random choices depend on the
seed, so every seed asks for about the same amount of work.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import answers
import oracle

DENSITIES = (0.3, 0.4, 0.5, 0.6, 0.7)

# Each library workload has 100 operations, enough for ten beyond the 90th percentile.

# vertex-sweep: (n, densities), one random diagram per entry, and one Rothe
# diagram at n=7 per length; the box count fixes most of a sweep's cost.
# Best-of-k needs many passes, so a pass is kept near 2.5 s: one n=8 sweep
# alone takes ~0.7 s.
SWEEP_RANDOM = ((6, DENSITIES * 17), (7, DENSITIES + (0.5,)), (8, (0.3,)))
SWEEP_ROTHE_LENGTHS = (6, 8, 9, 10, 11, 12, 13, 15)

# hrep-member: (n, count) random diagrams, densities cycling through DENSITIES.
# An op's cost is set by n (about x2.3 per step; density moves it far less),
# so the ops sort into one block per n.  The counts put the 50th op in the
# middle of the n=9 block (ops 29-76) and the 90th in the upper middle of
# the n=10 block (ops 77-96), not at a block's edge, where one op more or
# less on either side moves the percentile.
HREP_SIZES = ((8, 28), (9, 48), (10, 20), (11, 2), (12, 2))

# newton-certify: whole families in seeded order, plus seeded draws.  Round
# costs are heavy-tailed and follow the vertex count, so a seeded sample
# of a family would make run cost depend on the seed.  The n=5 Rothe and
# n=4 skyline families (parts <= 3, at most 9 vertices) are swept whole;
# the seed draws the n=6 Rothe and n=5 skyline (parts <= 2) inputs, two per
# listed vertex count.
NEWTON_FAMILY_MAX_VERTICES = 9
NEWTON_VERTEX_COUNTS = (1, 2, 3, 4, 6)
NEWTON_PER_COUNT = 2

VERIFY_ARGS = ("verify", "--n", "4", "--jobs", "1", "--format", "json")
# verify-desk: `verify` runs for this many consecutive seeds, each in a fresh
# interpreter, so that a run has 5 x 29 = 145 checks, 14 beyond the 90th
# percentile.  The p90 then falls among the copies of the third- and
# fourth-slowest checks, whose times vary by 20-30% between cold
# invocations of the same seed, so it is the least steady verify-desk metric.
VERIFY_SEEDS = 5
ONE_INTERPRETER_PER_INPUT = {"verify-desk"}
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _random_boxes(rng, n, density):
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return sorted(rng.sample(cells, round(density * n * n)))


def _inversions(w):
    return sum(1 for a, b in itertools.combinations(w, 2) if a > b)


def _perm_of_length(rng, n, length):
    while True:
        w = tuple(rng.sample(range(1, n + 1), n))
        if _inversions(w) == length:
            return w


def vertex_sweep(seed):
    rng = random.Random(f"vertex-sweep:{seed}")
    inputs, expected = [], []
    for n, densities in SWEEP_RANDOM:
        for density in densities:
            boxes = _random_boxes(rng, n, density)
            inputs.append({"n": n, "boxes": boxes})
            expected.append(answers.vertex_sweep(oracle.vertex_set(n, boxes)))
    for length in SWEEP_ROTHE_LENGTHS:
        w = _perm_of_length(rng, 7, length)
        inputs.append({"rothe": list(w)})
        expected.append(answers.vertex_sweep(oracle.vertex_set(7, oracle.rothe_boxes(w))))
    return inputs, expected


def hrep_member(seed):
    rng = random.Random(f"hrep-member:{seed}")
    inputs, expected = [], []
    for n, count in HREP_SIZES:
        for k in range(count):
            boxes = _random_boxes(rng, n, DENSITIES[k % len(DENSITIES)])
            w = tuple(rng.sample(range(1, n + 1), n))
            points = oracle.membership_points(n, boxes, w)
            inputs.append({
                "n": n,
                "boxes": boxes,
                "points": [[str(Fraction(x)) for x in p] for p in points],
            })
            expected.append(answers.hrep_member(oracle.hrep_document(n, boxes), [True, True, False]))
    return inputs, expected


def newton_certify(seed):
    rng = random.Random(f"newton-certify:{seed}")
    specs = [("rothe", w) for w in itertools.permutations(range(1, 6))]
    specs += [
        ("skyline", a) for a in itertools.product(range(4), repeat=4)
        if len(_newton_vertices("skyline", a)) <= NEWTON_FAMILY_MAX_VERTICES
    ]
    for kind, draw in (
        ("rothe", lambda: tuple(rng.sample(range(1, 7), 6))),
        ("skyline", lambda: tuple(rng.randrange(3) for _ in range(5))),
    ):
        want = {v: NEWTON_PER_COUNT for v in NEWTON_VERTEX_COUNTS}
        seen = set()
        while any(want.values()):
            x = draw()
            if x in seen:
                continue
            seen.add(x)
            v = len(_newton_vertices(kind, x))
            if want.get(v):
                want[v] -= 1
                specs.append((kind, x))
    rng.shuffle(specs)
    inputs, expected = [], []
    for kind, x in specs:
        verts = _newton_vertices(kind, x)
        inputs.append({kind: list(x)})
        expected.append(answers.newton_certify(True, verts, verts))
    return inputs, expected


def _newton_vertices(kind, x):
    boxes = oracle.rothe_boxes(x) if kind == "rothe" else oracle.skyline_boxes(x)
    return oracle.vertex_set(len(x), boxes)


def check_names():
    """The `verify` checks, as BENCHMARK.json lists them (checks.<name>.s), sorted."""
    doc = json.loads(BENCHMARK.read_text())
    return sorted(
        m["name"][len("checks."):-len(".s")] for m in doc["per_layer"]
        if m["name"].startswith("checks.") and m["name"].endswith(".s")
    )


def verify_desk(seed):
    """Cold `verify` invocations, one per seed; their checks are the operations.

    Every listed check must report no counterexample, in every invocation;
    the worker lists an invocation's checks sorted by name."""
    names = check_names()
    inputs, expected = [], []
    for s in range(seed * VERIFY_SEEDS, (seed + 1) * VERIFY_SEEDS):
        inputs.append({"argv": [*VERIFY_ARGS, "--seed", str(s)]})
        expected += [answers.verify_check(name, None) for name in names]
    return inputs, expected


GENERATORS = {
    "vertex-sweep": vertex_sweep,
    "hrep-member": hrep_member,
    "newton-certify": newton_certify,
    "verify-desk": verify_desk,
}
