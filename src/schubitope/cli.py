"""Command line: diagram constructors, polytope queries, polynomial oracles, verify.

Exit codes: 0 on success, 1 when `verify` finds a failing check, 2 on
usage or input errors (each with a one-line diagnostic naming the bad
field or flag).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import checks, diagrams, fillings, perms, polyoracle, polytope


class CommandError(ValueError):
    """Input problem that should surface as a one-line diagnostic and exit 2."""


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _parse(flag: str, parser, text: str):
    try:
        return parser(text)
    except ValueError as exc:
        raise CommandError(f"{flag}: {exc}") from None


def _parse_subset(flag: str, text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise CommandError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _parse_point(flag: str, text: str) -> tuple:
    out = []
    for piece in text.strip().split(","):
        try:
            out.append(Fraction(piece))
        except (ValueError, ZeroDivisionError):
            raise CommandError(f"{flag}: bad coordinate {piece!r} (use integers or p/q)") from None
    return tuple(out)


def _add_diagram_source(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--diagram", metavar="FILE", help="diagram JSON file")
    group.add_argument("--rothe", metavar="PERM", help="Rothe diagram of a permutation")
    group.add_argument("--skyline", metavar="COMP", help="skyline diagram of a composition")


def _load_diagram(args) -> diagrams.Diagram:
    if args.diagram is not None:
        try:
            with open(args.diagram) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CommandError(f"--diagram: cannot read {args.diagram}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CommandError(f"--diagram: {args.diagram} is not valid JSON: {exc}") from None
        return _parse("--diagram", diagrams.from_json_dict, data)
    if args.rothe is not None:
        return diagrams.rothe(_parse("--rothe", perms.parse_perm, args.rothe))
    return _parse("--skyline", lambda t: diagrams.skyline(perms.parse_composition(t)), args.skyline)


def _diagram_doc(d: diagrams.Diagram, fmt: str) -> str:
    return diagrams.to_text(d) if fmt == "text" else _compact(diagrams.to_json_dict(d))


def _cmd_rothe(args):
    return 0, _diagram_doc(diagrams.rothe(_parse("--perm", perms.parse_perm, args.perm)), args.format)


def _cmd_skyline(args):
    alpha = _parse("--alpha", perms.parse_composition, args.alpha)
    return 0, _diagram_doc(diagrams.skyline(alpha), args.format)


def _cmd_fill(args):
    d = _load_diagram(args)
    w = _parse("--perm", perms.parse_perm, args.perm)
    return 0, diagrams.filling_text(d, fillings.fill_diagram(d, w))


def _cmd_vertices(args):
    d = _load_diagram(args)
    verts = polytope.vertices(d)
    if args.format == "text":
        return 0, "\n".join(",".join(map(str, v)) for v in sorted(verts))
    return 0, _compact(polytope.vertex_set_to_json_dict(verts))


def _cmd_hrep(args):
    h = polytope.hrep(_load_diagram(args))
    if args.format == "hform":
        return 0, polytope.hrep_to_hform(h)
    return 0, _compact(polytope.hrep_to_json_dict(h))


def _cmd_theta(args):
    d = _load_diagram(args)
    s = _parse_subset("--set", args.set)
    try:
        cols = polytope.theta_columns(d, s)
    except ValueError as exc:
        raise CommandError(f"--set: {exc}") from None
    total = sum(cols)
    if args.format == "json":
        return 0, _compact({"set": sorted(s), "theta": total, "columns": cols})
    return 0, f"{total}\ncolumns: {','.join(map(str, cols))}"


def _cmd_rank(args):
    d = _load_diagram(args)
    s = _parse_subset("--set", args.set)
    if any(not 1 <= i <= d.n for i in s):
        raise CommandError(f"--set: element out of range 1..{d.n}")
    cols = [fillings.rank_filling(c, s) for c in d.columns]
    total = sum(cols)
    if args.format == "json":
        return 0, _compact({"set": sorted(s), "rank": total, "columns": cols})
    return 0, f"{total}\ncolumns: {','.join(map(str, cols))}"


def _cmd_member(args):
    h = polytope.hrep(_load_diagram(args))
    point = _parse_point("--point", args.point)
    if len(point) != h.n:
        raise CommandError(f"--point: dimension {len(point)} does not match n={h.n}")
    verdict = polytope.member(h, point)
    if args.format == "json":
        return 0, _compact({"member": verdict})
    return 0, "true" if verdict else "false"


def _cmd_key(args):
    alpha = _parse("--alpha", perms.parse_composition, args.alpha)
    f = polyoracle.key_polynomial(alpha)
    if args.format == "text":
        return 0, polyoracle.poly_to_text(f)
    return 0, _compact(polyoracle.poly_to_json_dict(f))


def _cmd_schubert(args):
    w = _parse("--perm", perms.parse_perm, args.perm)
    f = polyoracle.schubert_polynomial(w)
    if args.format == "text":
        return 0, polyoracle.poly_to_text(f)
    return 0, _compact(polyoracle.poly_to_json_dict(f))


def _cmd_bruhat(args):
    u = _parse("--u", perms.parse_perm, args.u)
    w = _parse("--w", perms.parse_perm, args.w)
    if len(u) != len(w):
        raise CommandError(f"--u/--w: degrees differ ({len(u)} vs {len(w)})")
    verdict = perms.bruhat_leq(u, w)
    if args.format == "json":
        return 0, _compact({"leq": verdict})
    return 0, "true" if verdict else "false"


def _cmd_verify(args):
    top = checks.largest_scope()
    if not 1 <= args.n <= top:
        raise CommandError(f"--n: must be in 1..{top} (the largest check scope), got {args.n}")
    if args.jobs < 0:
        raise CommandError(f"--jobs: must be 0 (all cores) or a positive worker count, got {args.jobs}")
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    results = checks.run_all(args.n, seed=args.seed, jobs=jobs)
    ok = all(r.ok for r in results)
    if args.format == "json":
        doc = {
            "status": "pass" if ok else "fail",
            "checks": [
                {"name": r.name, "instances": r.instances, "counterexample": r.counterexample}
                for r in results
            ],
        }
        return (0 if ok else 1), _compact(doc)
    return (0 if ok else 1), checks.format_report(results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubitope",
        description="Exact vertices, halfspace descriptions, and cross-validation for Schubitopes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def formats(sp, choices, default):
        sp.add_argument("--format", choices=choices, default=default)

    sp = sub.add_parser("rothe", help="Rothe diagram of a permutation")
    sp.add_argument("--perm", required=True, metavar="PERM")
    formats(sp, ["json", "text"], "json")
    sp.set_defaults(handler=_cmd_rothe)

    sp = sub.add_parser("skyline", help="skyline diagram of a composition")
    sp.add_argument("--alpha", required=True, metavar="COMP")
    formats(sp, ["json", "text"], "json")
    sp.set_defaults(handler=_cmd_skyline)

    sp = sub.add_parser("fill", help="greedy filling of a diagram by a permutation")
    _add_diagram_source(sp)
    sp.add_argument("--perm", required=True, metavar="PERM")
    formats(sp, ["text"], "text")
    sp.set_defaults(handler=_cmd_fill)

    sp = sub.add_parser("vertices", help="all vertices of the diagram's polytope")
    _add_diagram_source(sp)
    formats(sp, ["json", "text"], "json")
    sp.set_defaults(handler=_cmd_vertices)

    sp = sub.add_parser("hrep", help="halfspace description of the diagram's polytope")
    _add_diagram_source(sp)
    formats(sp, ["json", "hform"], "json")
    sp.set_defaults(handler=_cmd_hrep)

    sp = sub.add_parser("theta", help="subset bound with per-column breakdown")
    _add_diagram_source(sp)
    sp.add_argument("--set", required=True, metavar="CSV")
    formats(sp, ["text", "json"], "text")
    sp.set_defaults(handler=_cmd_theta)

    sp = sub.add_parser("rank", help="matroid rank of a subset with per-column breakdown")
    _add_diagram_source(sp)
    sp.add_argument("--set", required=True, metavar="CSV")
    formats(sp, ["text", "json"], "text")
    sp.set_defaults(handler=_cmd_rank)

    sp = sub.add_parser("member", help="exact membership test against the halfspace description")
    _add_diagram_source(sp)
    sp.add_argument("--point", required=True, metavar="CSV", help="coordinates, integers or p/q")
    formats(sp, ["text", "json"], "text")
    sp.set_defaults(handler=_cmd_member)

    sp = sub.add_parser("key", help="key polynomial of a composition")
    sp.add_argument("--alpha", required=True, metavar="COMP")
    formats(sp, ["json", "text"], "json")
    sp.set_defaults(handler=_cmd_key)

    sp = sub.add_parser("schubert", help="Schubert polynomial of a permutation")
    sp.add_argument("--perm", required=True, metavar="PERM")
    formats(sp, ["json", "text"], "json")
    sp.set_defaults(handler=_cmd_schubert)

    sp = sub.add_parser("bruhat", help="strong Bruhat order comparison")
    sp.add_argument("--u", required=True, metavar="PERM")
    sp.add_argument("--w", required=True, metavar="PERM")
    formats(sp, ["text", "json"], "text")
    sp.set_defaults(handler=_cmd_bruhat)

    sp = sub.add_parser("verify", help="run the cross-module validation suite")
    sp.add_argument("--n", type=int, default=4,
                    help="scope of the sweeps, 1 up to the largest check scope (default 4)")
    sp.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")
    sp.add_argument("--jobs", type=int, default=0,
                    help="worker processes, at most one per check and per core; "
                         "0 (the default) means all cores")
    formats(sp, ["text", "json"], "text")
    sp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.handler(args)
    except ValueError as exc:  # CommandError and library-level input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        print(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
