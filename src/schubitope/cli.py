"""Command line: diagram constructors, polytope queries, polynomial oracles, verify.

Every verb but `verify` is one row of `VERBS`, whose handler returns the
verb's output.  The library owns every input rule: a handler passes each
flag's values to the library through `_parse`, which prefixes the
library's message with the flag.  Exit codes: 0 on success, 1 when
`verify` finds a failing check, 2 on usage or input errors (each with a
one-line diagnostic naming the bad field or flag).  `--diagram FILE` is
read as UTF-8, the encoding of JSON, and an object in it that repeats a
key is refused, as the library refuses a repeated box; so is a document
nested too deeply for the JSON reader.  Only `verify` imports
the check suite and its oracles, and it opens a process pool only for more
than one worker, so the other verbs start without them.  A verb loads
`fractions` or `fillings` only if it reads them: `member` parses its point
with `Fraction`, and `fill` and `rank` call the greedy fillings.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from collections.abc import Callable

from . import diagrams, perms, polyoracle, polytope


def _parse(flag: str, fn, *args):
    """fn(*args), its ValueError prefixed with the flag whose text it read."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _subset(text: str) -> frozenset[int]:
    text = text.strip()
    try:
        return frozenset(int(p) for p in text.split(",")) if text else frozenset()
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _point(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:  # the point of n = 0
        return ()
    from fractions import Fraction

    out = []
    for piece in text.split(","):
        try:
            out.append(Fraction(piece))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coordinate {piece!r} (use integers or p/q)") from None
    return tuple(out)


def _object(pairs: list) -> dict:
    """A JSON object from its key-value pairs, a repeated key refused."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _load_diagram(args) -> diagrams.Diagram:
    if args.diagram is not None:
        try:
            with open(args.diagram, encoding="utf-8") as fh:
                data = json.load(fh, object_pairs_hook=_object)
        except OSError as exc:
            raise ValueError(f"--diagram: cannot read {args.diagram}: {exc}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, a repeated key, too deep
            raise ValueError(f"--diagram: {args.diagram} is not valid JSON: {exc}") from None
        return _parse("--diagram", diagrams.from_json_dict, data)
    if args.rothe is not None:
        return diagrams.rothe(_parse("--rothe", perms.parse_perm, args.rothe))
    return _parse("--skyline", diagrams.skyline, _parse("--skyline", perms.parse_composition, args.skyline))


def _diagram_doc(d: diagrams.Diagram, fmt: str) -> str:
    return diagrams.to_text(d) if fmt == "text" else diagrams.compact(diagrams.to_json_dict(d))


def _rothe(args) -> str:
    return _diagram_doc(diagrams.rothe(_parse("--perm", perms.parse_perm, args.perm)), args.format)


def _skyline(args) -> str:
    alpha = _parse("--alpha", perms.parse_composition, args.alpha)
    return _diagram_doc(_parse("--alpha", diagrams.skyline, alpha), args.format)


def _fill(args) -> str:
    from . import fillings

    d = _load_diagram(args)
    w = _parse("--perm", perms.parse_perm, args.perm)
    return diagrams.filling_text(d, _parse("--perm", fillings.fill_diagram, d, w))


def _vertices(args) -> str:
    verts = polytope.vertices(_load_diagram(args))
    if args.format == "text":
        return "\n".join(",".join(map(str, v)) for v in sorted(verts))
    return diagrams.compact(polytope.vertex_set_to_json_dict(verts))


def _hrep(args) -> str:
    h = polytope.hrep(_load_diagram(args))
    return polytope.hrep_to_hform(h) if args.format == "hform" else diagrams.compact(polytope.hrep_to_json_dict(h))


def _columns_doc(args, name: str, columns: Callable[..., list[int]]) -> str:
    """theta and rank: the total over the columns, then each column's part."""
    d = _load_diagram(args)
    s = _parse("--set", _subset, args.set)
    cols = _parse("--set", columns, d, s)
    total = sum(cols)
    if args.format == "json":
        return diagrams.compact({"set": sorted(s), name: total, "columns": cols})
    return f"{total}\ncolumns: {','.join(map(str, cols))}"


def _theta(args) -> str:
    return _columns_doc(args, "theta", polytope.theta_columns)


def _rank(args) -> str:
    from . import fillings

    return _columns_doc(args, "rank", fillings.rank_columns)


def _verdict_doc(name: str, verdict: bool, fmt: str) -> str:
    """member and bruhat: true or false, alone or as {name: verdict}."""
    return diagrams.compact({name: verdict} if fmt == "json" else verdict)


def _member(args) -> str:
    h = polytope.hrep(_load_diagram(args))
    point = _parse("--point", _point, args.point)
    return _verdict_doc("member", _parse("--point", polytope.member, h, point), args.format)


def _bruhat(args) -> str:
    u = _parse("--u", perms.parse_perm, args.u)
    w = _parse("--w", perms.parse_perm, args.w)
    return _verdict_doc("leq", _parse("--u/--w", perms.bruhat_leq, u, w), args.format)


def _polynomial_doc(f: polyoracle.Polynomial, fmt: str) -> str:
    return polyoracle.poly_to_text(f) if fmt == "text" else diagrams.compact(polyoracle.poly_to_json_dict(f))


def _key(args) -> str:
    alpha = _parse("--alpha", perms.parse_composition, args.alpha)
    return _polynomial_doc(polyoracle.key_polynomial(alpha), args.format)


def _schubert(args) -> str:
    w = _parse("--perm", perms.parse_perm, args.perm)
    return _polynomial_doc(polyoracle.schubert_polynomial(w), args.format)


Verb = namedtuple("Verb", [
    "help",
    "diagram",                    # takes exactly one of --diagram, --rothe, --skyline
    "flags",                      # required flags, each "FLAG METAVAR[ help text]"
    "formats",                    # --format choices, the default first
    "handler",                    # the verb's output from the parsed arguments
])


VERBS = {
    "rothe": Verb("Rothe diagram of a permutation", False, ("--perm PERM",), ("json", "text"), _rothe),
    "skyline": Verb("skyline diagram of a composition", False, ("--alpha COMP",), ("json", "text"), _skyline),
    "fill": Verb("greedy filling of a diagram by a permutation", True, ("--perm PERM",), ("text",), _fill),
    "vertices": Verb("all vertices of the diagram's polytope", True, (), ("json", "text"), _vertices),
    "hrep": Verb("halfspace description of the diagram's polytope", True, (), ("json", "hform"), _hrep),
    "theta": Verb("subset bound with per-column breakdown", True, ("--set CSV",), ("text", "json"), _theta),
    "rank": Verb("matroid rank of a subset with per-column breakdown", True, ("--set CSV",),
                 ("text", "json"), _rank),
    "member": Verb("exact membership test against the halfspace description", True,
                   ("--point CSV coordinates, integers or p/q",), ("text", "json"), _member),
    "key": Verb("key polynomial of a composition", False, ("--alpha COMP",), ("json", "text"), _key),
    "schubert": Verb("Schubert polynomial of a permutation", False, ("--perm PERM",),
                     ("json", "text"), _schubert),
    "bruhat": Verb("strong Bruhat order comparison", False, ("--u PERM", "--w PERM"),
                   ("text", "json"), _bruhat),
}


def _verify(args) -> tuple[int, str]:
    """The exit code and report of `verify`.  ``--jobs 0`` means all
    cores.  The JSON report holds the answer fields alone (name, instances,
    counterexample), not the scope or seconds, so it repeats byte for byte
    for a fixed seed."""
    from . import checks  # the suite loads for `verify` only

    top = checks.largest_scope()
    if not 1 <= args.n <= top:
        raise ValueError(f"--n: must be in 1..{top} (the largest check scope), got {args.n}")
    if args.jobs < 0:
        raise ValueError(f"--jobs: must be 0 (all cores) or a positive worker count, got {args.jobs}")
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    only = None if args.only is None else _parse("--only", checks.check_names, args.only.split(","))
    results = checks.run_all(args.n, seed=args.seed, jobs=jobs, only=only)
    code = 0 if all(r.ok for r in results) else 1
    if args.format == "text":
        return code, checks.format_report(results, args.n, args.seed)
    found = [{"name": r.name, "instances": r.instances, "counterexample": r.counterexample} for r in results]
    return code, diagrams.compact({"status": "fail" if code else "pass", "checks": found})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schubitope", description="Exact vertices, halfspace descriptions, "
                                     "and cross-validation for Schubitopes.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        sp = sub.add_parser(name, help=verb.help)
        if verb.diagram:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--diagram", metavar="FILE", help="diagram JSON file")
            group.add_argument("--rothe", metavar="PERM", help="Rothe diagram of a permutation")
            group.add_argument("--skyline", metavar="COMP", help="skyline diagram of a composition")
        for spec in verb.flags:
            flag, metavar, *help = spec.split(maxsplit=2)
            sp.add_argument(flag, required=True, metavar=metavar, help=help[0] if help else None)
        sp.add_argument("--format", choices=verb.formats, default=verb.formats[0])

    sp = sub.add_parser("verify", help="run the cross-module validation suite")
    sp.add_argument("--n", type=int, default=4,
                    help="scope of the sweeps, 1 up to the largest check scope (default 4)")
    sp.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")
    sp.add_argument("--jobs", type=int, default=0,
                    help="worker processes, at most one per check and per core; "
                         "0 (the default) means all cores")
    sp.add_argument("--only", metavar="NAME[,NAME]",
                    help="run only the named checks, in registry order (default: every check)")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = _verify(args) if args.verb == "verify" else (0, VERBS[args.verb].handler(args))
    except ValueError as exc:  # input errors, from the library or the flag parsers
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        print(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
