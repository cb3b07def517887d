"""Mutation runs: each fast path's tests must catch a deliberate bug in it.

    python3 tools/mutants.py

Each entry of MUTANTS names a module of `src/schubitope`, a text that must
occur in it exactly once, the text that replaces it, and the pytest target
that should then fail.  The script copies the repository (without `.git`
and caches) to a temporary directory, then applies one mutant at a time
there, runs `python -m pytest -x -q TARGET` with that copy's `src` on the
import path, restores the file, and prints

    KILLED    seconds  name
    SURVIVED  seconds  name

A target that runs past TIMEOUT seconds counts as killed, since it did not
pass.  The exit status is 1 when a mutant survives or when an old text does
not occur exactly once in its module, which is checked for every mutant
before any runs, so that the list cannot go stale unseen; else 0.  The
tier-1 test `test_every_mutant_applies_once` runs that check alone.  It
uses the standard library only, takes no arguments and changes nothing in
the repository.  A mutant that survives is a gap in a test: close it with
a stronger test.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    module: str  # file name in src/schubitope
    old: str
    new: str
    target: str  # pytest arguments, space-separated


MUTANTS = [
    # the fast paths that have an oracle
    Mutant("_placements keeps the boxes it fills free", "fillings.py",
           "        cols ^= p\n        placed.append(p)\n", "        placed.append(p)\n",
           "tests/test_fillings.py"),
    Mutant("vertex_vectors keeps no fill state", "fillings.py",
           "            states[k + 1] = cols\n", "",
           "tests/test_fillings.py"),
    Mutant("_theta_counts adds every subset row", "polytope.py",
           "q += low ^ box", "q += low",
           "tests/test_polytope.py"),
    Mutant("_deficits adds no subset row", "polytope.py",
           "q |= (q + one) << (w << i)", "q |= q << (w << i)",
           "tests/test_polytope.py"),
    Mutant("_slack adds the coordinates", "polytope.py",
           "sums |= (sums - x * ones) << shift", "sums |= (sums + x * ones) << shift",
           "tests/test_polytope.py"),
    Mutant("_slack's slots one bit narrower", "polytope.py",
           "while span >> (w - 2):", "while span >> (w - 1):",
           "tests/test_polytope.py"),
    Mutant("_greedy_vectors' 8-bit slots hold a span of 128", "polytope.py",
           "k = span.bit_length() // 8 + 1", "k = (span - 1).bit_length() // 8 + 1",
           "tests/test_polytope.py"),
    Mutant("_greedy_vectors' dual table not reversed", "polytope.py",
           "[table[-1] - x for x in reversed(table)]", "[table[-1] - x for x in table]",
           "tests/test_polytope.py"),
    Mutant("_greedy_vectors joins each middle set with itself", "polytope.py",
           "for b in down[full ^ mask]", "for b in down[mask]",
           "tests/test_polytope.py"),
    Mutant("_reach merges without the increment", "polytope.py",
           "got.add(c + add)", "got.add(c)",
           "tests/test_polytope.py"),
    Mutant("_greedy_vectors lifts no table", "polytope.py",
           "lift = 0 if monotone else span", "lift = 0",
           "tests/test_polytope.py"),
    Mutant("_greedy_vectors lifts by half the span", "polytope.py",
           "lift = 0 if monotone else span", "lift = 0 if monotone else span // 2",
           "tests/test_polytope.py"),
    Mutant("_decoded takes no lift off", "polytope.py",
           "flat = (c - lift for c in flat)", "flat = (c for c in flat)",
           "tests/test_polytope.py"),
    Mutant("_decoded reads multi-byte slots signed", "polytope.py",
           'int.from_bytes(data[i:i + k], "little")', 'int.from_bytes(data[i:i + k], "little", signed=True)',
           "tests/test_polytope.py"),
    Mutant("_decoded reads multi-byte slots big-endian", "polytope.py",
           'int.from_bytes(data[i:i + k], "little")', 'int.from_bytes(data[i:i + k], "big")',
           "tests/test_polytope.py"),
    Mutant("_decoded joins the vectors big-endian", "polytope.py",
           'v.to_bytes(k * n, "little")', 'v.to_bytes(k * n, "big")',
           "tests/test_polytope.py"),
    Mutant("_decoded cuts n - 1 slots per vector", "polytope.py",
           "[iter(flat)] * n", "[iter(flat)] * (n - 1)",
           "tests/test_polytope.py"),
    Mutant("_moves mirrors the slots", "polytope.py",
           "(mask | 1 << k, k) for k in range(n)", "(mask | 1 << k, n - 1 - k) for k in range(n)",
           "tests/test_polytope.py"),
    Mutant("_unpack reads big-endian", "polytope.py",
           'struct.unpack(f"<{2 ** n}H"', 'struct.unpack(f">{2 ** n}H"',
           "tests/test_polytope.py"),
    Mutant("_greedy_vectors joins at layer h - 1", "polytope.py",
           "for mask, _ in _moves(n)[h]", "for mask, _ in _moves(n)[h - 1]",
           "tests/test_polytope.py"),
    Mutant("_vertex_set lifts no table", "polytope.py",
           "_greedy_vectors(h.table, h.n, h.monotone)", "_greedy_vectors(h.table, h.n, True)",
           "tests/test_polytope.py"),
    Mutant("HRep.monotone on the first element only", "polytope.py",
           "for k in range(self.n) for m in range(len(t))", "for k in range(1) for m in range(len(t))",
           "tests/test_polytope.py"),
    Mutant("HRep.table reads the high byte lane", "polytope.py",
           'to_bytes(2 << self.n, "little")[::2]', 'to_bytes(2 << self.n, "little")[1::2]',
           "tests/test_polytope.py"),
    Mutant("hrep ignores a repeated column's count", "polytope.py",
           "packed -= q if k == 1 else k * q", "packed -= q",
           "tests/test_polytope.py"),
    Mutant("_scaled keeps the numerators unscaled", "polytope.py",
           "return [p * (scale // q) for p, q in ratios], scale", "return [p for p, q in ratios], scale",
           "tests/test_polytope.py"),
    Mutant("member's range exit refuses a coordinate at max_bound", "polytope.py",
           "max(xs) > top", "max(xs) >= top",
           "tests/test_polytope.py"),
    Mutant("_first_order takes the largest tight step", "polytope.py",
           "        for k in range(n):\n            bit = 1 << k\n",
           "        for k in reversed(range(n)):\n            bit = 1 << k\n",
           "tests/test_polytope.py"),
    Mutant("composition_leq with its arguments swapped", "perms.py",
           "return sb == sa and _bruhat_leq(a, b)", "return sb == sa and _bruhat_leq(b, a)",
           "tests/test_perms.py"),
    Mutant("_bruhat_leq compares only after a step with a < b", "perms.py",
           "if a > b and any(map(operator.gt, pu, pw)):", "if a < b and any(map(operator.gt, pu, pw)):",
           "tests/test_perms.py"),
    Mutant("_from_terms keeps zero coefficients", "polyoracle.py",
           "MappingProxyType({e: c for e, c in terms.items() if c})", "MappingProxyType(dict(terms))",
           "tests/test_polyoracle.py"),
    Mutant("divided_difference drops the sign fold", "polyoracle.py",
           "p, q, c = q, p, -c", "p, q = q, p",
           "tests/test_polyoracle.py"),
    Mutant("hull_vertices returns three points early", "lp.py",
           "if len(distinct) <= 2:", "if len(distinct) <= 3:",
           "tests/test_lp.py"),
    Mutant("hull_vertices gives no points dimension 0 whatever the candidates", "lp.py",
           "len((pts or wanted or [()])[0])", "len((pts or [()])[0])",
           "tests/test_lp.py"),
    Mutant("_keys takes its int path for Fraction coordinates", "lp.py",
           "chain.from_iterable(pts))} <= INTS:", "chain.from_iterable(pts))} <= exact_types():",
           "tests/test_lp.py"),
    Mutant("solve_nonnegative never infeasible", "lp.py",
           "if cost[-1] != 0:", "if cost[-1] > 0:",
           "tests/test_lp.py"),
    Mutant("Diagram skips its range check", "diagrams.py",
           "if not (1 <= r <= n and 1 <= c <= n):", "if False:",
           "tests/test_diagrams.py"),
    Mutant("Diagram names the first box that is no tuple", "diagrams.py",
           "if not isinstance(b, Hashable)", "if type(b) is not tuple",
           "tests/test_diagrams.py"),
    Mutant("_check_column_filling takes entries that are not ints", "fillings.py",
           "if not (is_int(r) and is_int(v)):", "if False:",
           "tests/test_fillings.py"),
    Mutant("_check_column_filling hashes values before its type test", "fillings.py",
           "    for r, v in filling.items():\n        if not (is_int(r) and is_int(v)):",
           "    set(filling.values())\n    for r, v in filling.items():\n        if not (is_int(r) and is_int(v)):",
           "tests/test_fillings.py"),
    Mutant("check_subset builds its frozenset before testing", "diagrams.py",
           "        subset = [*subset]\n", "        subset = frozenset(subset)\n",
           "tests/test_fillings.py tests/test_polytope.py"),
    # the integer rule, which perms owns
    Mutant("is_int takes a subclass of int", "perms.py",
           "return type(x) is int", "return isinstance(x, int)",
           "tests/test_diagrams.py tests/test_polytope.py"),
    Mutant("check_range takes a subclass of int", "perms.py",
           "if type(x) is not int or not lo <= x <= hi:", "if not isinstance(x, int) or not lo <= x <= hi:",
           "tests/test_perms.py tests/test_polyoracle.py tests/test_polytope.py"),
    Mutant("check_size takes a negative n", "perms.py",
           "if type(n) is not int or n < 0:", "if type(n) is not int:",
           "tests/test_perms.py tests/test_diagrams.py tests/test_polytope.py"),
    # the exact-number type test: Fraction is admitted once `fractions` is
    # loaded, and the test never loads it
    Mutant("exact_types never admits Fraction", "perms.py",
           "_exact = frozenset({int, fractions.Fraction})", "_exact = frozenset({int})",
           "tests/test_polytope.py tests/test_lp.py"),
    Mutant("exact_types loads fractions itself", "perms.py",
           'sys.modules.get("fractions")', '__import__("fractions")',
           "tests/test_cli.py"),
    # the bulk point check of hull_vertices and convex_combination
    Mutant("_check_points' bulk test takes every length", "lp.py",
           "if {*map(len, points)} <= {dim} and {*map(type,", "if {*map(type,",
           "tests/test_lp.py"),
    # certification's bulk check of a claim, and its fallback scan
    Mutant("certify_vertices' bulk type test takes every type", "polytope.py",
           "{*map(type, itertools.chain.from_iterable(pts))} <= exact_types()", "True",
           "tests/test_polytope.py"),
    Mutant("certify_vertices' bulk length test takes every length", "polytope.py",
           "{*map(len, pts)} <= {h.n}", "True",
           "tests/test_polytope.py"),
    Mutant("certify_vertices' fallback names the last bad point", "polytope.py",
           "for p in pts:  # some point fails", "for p in reversed(pts):  # some point fails",
           "tests/test_polytope.py"),
    Mutant("Certification always ok", "polytope.py",
           "        return not self.failures\n", "        return True\n",
           "tests/test_polytope.py"),
    # the shared routines of the verify checks
    Mutant("_newton_failure without the subset test", "checks.py",
           "    if not claimed <= support:\n        return f\"{label}: {claim} missing from the support\"\n", "",
           "tests/test_checks.py"),
    Mutant("_newton_failure without the member test", "checks.py",
           "        if not polytope.member(h, e):\n", "        if False:\n",
           "tests/test_checks.py"),
    Mutant("_newton_failure ignores the certificate", "checks.py",
           "return None if cert.ok else", "return None if True else",
           "tests/test_checks.py"),
    Mutant("_key_newton_failure names no predicted vertex", "checks.py",
           'predicted, "predicted vertex")', 'predicted, "vertex")',
           "tests/test_checks.py"),
    Mutant("_swap_cases without its r-before-r+1 filter", "checks.py",
           "                if w.index(r) < w.index(r + 1):\n                    yield alpha, r, w\n",
           "                yield alpha, r, w\n",
           "tests/test_checks.py"),
    Mutant("vertex-swap-stability walks alpha itself", "checks.py",
           "diagrams.skyline(perms.swap_adjacent(alpha, r))", "diagrams.skyline(alpha)",
           "tests/test_checks.py"),
    Mutant("_round_trip_failure skips the read", "checks.py",
           "compact(write(read(json.loads(doc))))", "compact(write(value))",
           "tests/test_checks.py"),
    Mutant("_basis_vectors drops the last coordinate", "checks.py",
           "for i in range(1, n + 1)) for b in", "for i in range(1, n)) for b in",
           "tests/test_checks.py"),
    Mutant("run_check reports the scope it was asked for", "checks.py",
           "max(m, _LEAST.get(name, 1))", "m",
           "tests/test_checks.py"),
    Mutant("compact writes spaces", "diagrams.py",
           'json.dumps(doc, separators=(",", ":"))', "json.dumps(doc)",
           "tests/test_checks.py"),
    Mutant("read_document takes a non-object", "diagrams.py",
           "if not isinstance(data, dict):", "if False:",
           "tests/test_diagrams.py tests/test_polytope.py tests/test_polyoracle.py"),
    Mutant("read_document checks the first field only", "diagrams.py",
           "for field in fields:", "for field in fields[:1]:",
           "tests/test_diagrams.py tests/test_polytope.py tests/test_polyoracle.py"),
    Mutant("read_document takes a non-list", "diagrams.py",
           "if not isinstance(listed, list):", "if False:",
           "tests/test_diagrams.py tests/test_polytope.py tests/test_polyoracle.py"),
]


def source(module: str, root: str = ROOT) -> str:
    with open(os.path.join(root, "src", "schubitope", module), encoding="utf-8") as fh:
        return fh.read()


def stale() -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its module."""
    bad = []
    for m in MUTANTS:
        count = source(m.module).count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text occurs {count} times in {m.module}")
    return bad


def run(m: Mutant, tree: str) -> tuple[bool, float]:
    """Whether the target failed under the mutant, and the seconds it took."""
    path = os.path.join(tree, "src", "schubitope", m.module)
    original = source(m.module, tree)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original.replace(m.old, m.new))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *m.target.split()], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        killed = done.returncode != 0
    except subprocess.TimeoutExpired:
        killed = True
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    return killed, time.perf_counter() - start


def main() -> int:
    if bad := stale():
        print("\n".join(bad))
        return 1
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for m in MUTANTS:
            killed, seconds = run(m, tree)
            survived += not killed
            print(f"{'KILLED' if killed else 'SURVIVED':9} {seconds:6.1f} s  {m.name}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return int(survived > 0)


if __name__ == "__main__":
    sys.exit(main())
