"""Shared reference data for the test suite; `assert_check`, which runs a
registered `verify` check in place of a hand-copied sweep;
`column_diagrams`, whose columns run through every row mask;
`coverage_table` and `uniform_ranks_table`, polymatroids theta never
gives; `assert_frozen`, which pins a value's immutability by its behaviour; and
the `fake_pool` fixture, which runs `checks.run_all`'s pool in process.

D9 is the 9-box example diagram whose column words for S = {1, 3} read
★()), (★, ((), ()★), ()(.  FIG18 is the 18-box diagram filled by the
permutation 315624; FIG18_FILLING is the expected filling, transcribed
box by box.
"""
import concurrent.futures

import pytest

from schubitope import Diagram, checks
from schubitope.checks import CheckResult, run_check


def assert_check(name, n, instances):
    """Run check ``name`` at scope n with seed 0: it must pass, and sweep
    exactly ``instances`` instances, so a check that stops sweeping fails."""
    result = run_check(name, n, seed=0)
    assert result.ok, result.counterexample
    assert result.instances == instances, f"{name} swept {result.instances} instances"


def assert_frozen(value, shown, **changes):
    """``value`` shows as exactly ``shown``, which names its fields only, and
    assigning each field of ``changes`` its new value, or deleting it, raises
    an AttributeError naming the field and leaves the value as it was."""
    assert repr(value) == shown
    before = dict(vars(value))
    for field, new in changes.items():
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, new)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert vars(value) == before and repr(value) == shown


def column_diagrams(n):
    """Diagrams whose columns run through every row mask of [n], n masks
    to a diagram, the last one padded with empty columns."""
    for start in range(0, 2 ** n, max(n, 1)):
        chunk = range(2 ** n)[start:start + n]
        yield Diagram(n, frozenset((r, j) for j, col in enumerate(chunk, 1)
                                   for r in range(1, n + 1) if col >> (r - 1) & 1))


def coverage_table(rng, n):
    """The bound table of a random coverage function on [n]: each i covers
    a random part of 1-8 elements weighing 1-300 each, and a set's bound is
    the weight of the elements its members cover.  Bounds reach far above
    theta's n^2."""
    weights = [rng.randint(1, 300) for _ in range(rng.randint(1, 8))]
    covers = [rng.getrandbits(len(weights)) for _ in range(n)]
    union = [0] * 2 ** n
    for mask in range(1, 2 ** n):
        low = mask & -mask
        union[mask] = union[mask ^ low] | covers[low.bit_length() - 1]
    return [sum(w for e, w in enumerate(weights) if u >> e & 1) for u in union]


def uniform_ranks_table(rng, n):
    """The bound table of a sum of 1-4 weighted uniform-matroid ranks on
    [n]: the term (A, r, c) gives a set S the bound c * min(|S & A|, r), with
    c up to 60.  Equal steps within a term make many ties."""
    terms = [(rng.getrandbits(n), rng.randint(1, n), rng.randint(1, 60)) for _ in range(rng.randint(1, 4))]
    return [sum(c * min(bin(mask & a).count("1"), r) for a, r, c in terms) for mask in range(2 ** n)]


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool of `checks.run_all`, which it imports from
    `concurrent.futures` when it opens one, by a serial one and every check
    by a stub returning n instances, so no process starts; returns the list
    of the `max_workers` each pool was opened with."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(checks, "run_check", lambda name, n, seed: CheckResult(name, n))
    return pools


D9 = Diagram(5, frozenset({
    (1, 1), (2, 4), (2, 5), (3, 2), (3, 4), (4, 1), (5, 1), (5, 3), (5, 4),
}))

FIG18 = Diagram(6, frozenset({
    (1, 5),
    (2, 1), (2, 2), (2, 3), (2, 5),
    (3, 1), (3, 6),
    (4, 1), (4, 2), (4, 3), (4, 4), (4, 6),
    (5, 2), (5, 6),
    (6, 1), (6, 2), (6, 4), (6, 5),
}))

FIG18_W = (3, 1, 5, 6, 2, 4)

FIG18_FILLING = {
    (1, 5): 1,
    (2, 1): 1, (2, 2): 1, (2, 3): 1, (2, 5): 2,
    (3, 1): 3, (3, 6): 3,
    (4, 1): 2, (4, 2): 3, (4, 3): 3, (4, 4): 3, (4, 6): 1,
    (5, 2): 5, (5, 6): 5,
    (6, 1): 5, (6, 2): 6, (6, 4): 1, (6, 5): 3,
}

# the four-box diagram whose polytope is a trapezoid with vertices
# (3,1,0), (3,0,1), (1,3,0), (1,0,3)
TRAPEZOID = Diagram(3, frozenset({(1, 1), (3, 1), (3, 2), (3, 3)}))

TRAPEZOID_FILLINGS = {
    (1, 2, 3): {(1, 1): 1, (3, 1): 2, (3, 2): 1, (3, 3): 1},
    (1, 3, 2): {(1, 1): 1, (3, 1): 3, (3, 2): 1, (3, 3): 1},
    (2, 1, 3): {(1, 1): 1, (3, 1): 2, (3, 2): 2, (3, 3): 2},
    (2, 3, 1): {(1, 1): 1, (3, 1): 2, (3, 2): 2, (3, 3): 2},
    (3, 1, 2): {(1, 1): 1, (3, 1): 3, (3, 2): 3, (3, 3): 3},
    (3, 2, 1): {(1, 1): 1, (3, 1): 3, (3, 2): 3, (3, 3): 3},
}

TRAPEZOID_VERTICES = {(3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 0, 3)}
