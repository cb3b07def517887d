"""Digests of the `verify --format json` report, to compare two checkouts.

    python3 tools/verify_digests.py > digests.txt

It runs `schubitope.cli.main` in this process, from the `src` of the
checkout it sits in, as `verify --n N --seed S --jobs 1 --format json`
for N = 1..5 and S = 0..4.  For each of those 25 cases it prints one line,
`N S exit sha256`: the exit status and the SHA-256 of everything the
verb printed.  Run it in two checkouts and `diff` the two outputs; no
difference means byte-identical reports and equal exit statuses.  It takes
no flags and uses the standard library only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = [(n, seed) for n in range(1, 6) for seed in range(5)]


def digest(n: int, seed: int) -> str:
    """The line `n seed exit sha256` of one case."""
    from schubitope import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--n", str(n), "--seed", str(seed), "--jobs", "1", "--format", "json"])
    return f"{n} {seed} {code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for n, seed in CASES:
        print(digest(n, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
