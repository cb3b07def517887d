"""Line coverage of the package by the tier-1 suite, with the standard library only.

    python3 tools/linecov.py              # the whole tier-1 suite
    python3 tools/linecov.py tests/test_cli.py -k member   # any pytest arguments

It runs pytest in this process, from the repository root and with `src`
on the import path (its subprocesses get it through PYTHONPATH), under
`sys.settrace`, tracing only the files of `src/schubitope`.  Then it
prints every executable line that never ran, one `path:line: text` line
each, then a count per file and in all.  A line is executable when the
compiled code of its file has an instruction on it (`co_lines()` of every
code object); a function's first line, its `def` or first decorator,
counts as run when the function is called.  The exit status is pytest's.

It follows neither threads nor subprocesses: the worker processes of
`verify --jobs` and the tests that start a cold interpreter run untraced,
so a line that only they reach is listed.  Tracing makes the suite
several times slower, so this is a tool to run on demand, not part of
tier-1.
"""
from __future__ import annotations

import os
import sys
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "schubitope")


def executable_lines(path: str) -> set[int]:
    """The lines of a source file that hold at least one instruction."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack: list[CodeType] = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # a module starts on line 0
        stack.extend(c for c in co.co_consts if isinstance(c, CodeType))
    return lines


def main(argv: list[str]) -> int:
    files = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in ran:
            return None
        ran[path].add(frame.f_code.co_firstlineno)
        return local

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    import pytest

    args = argv or ["-q", "--continue-on-collection-errors"]
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)

    total = 0
    counts = []
    for path in files:
        lines = executable_lines(path)
        missed = sorted(lines - ran[path])
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        counts.append(f"{rel}: {len(missed)} of {len(lines)} lines never ran")
        total += len(missed)
    print("\n".join(counts))
    print(f"total: {total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
