"""One pass of a workload in a fresh interpreter.

Reads a job (workload, inputs, trace flag) as JSON on stdin, builds the
inputs with the library's constructors, times each operation from outside
the library, and prints one JSON object: per-operation latency (at the
reference speed of speed.py, and raw) and answer digests, and the peak
resident set size.  Answers are
checked by the parent, outside the timed region.

Run by run.py as ``python3 perfbench/worker.py`` with ``src`` on
PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from pathlib import Path

import answers
import speed
import tracing


def _diagram(spec):
    import schubitope

    if "rothe" in spec:
        return schubitope.rothe(spec["rothe"])
    if "skyline" in spec:
        return schubitope.skyline(spec["skyline"])
    return schubitope.Diagram(spec["n"], frozenset(map(tuple, spec["boxes"])))


def _vertex_sweep(spec):
    import schubitope

    d = _diagram(spec)

    def op():
        return schubitope.vertices(d)

    def canon(verts):
        a = answers.vertex_sweep(verts)
        return a, a

    return op, canon


def _hrep_member(spec):
    import schubitope
    from schubitope import polytope

    d = _diagram(spec)
    points = [tuple(Fraction(x) for x in p) for p in spec["points"]]

    def op():
        h = schubitope.hrep(d)
        return h, [schubitope.member(h, p) for p in points]

    def canon(result):
        h, verdicts = result
        a = answers.hrep_member(polytope.hrep_to_json_dict(h), verdicts)
        return a, a

    return op, canon


def _newton_certify(spec):
    import schubitope

    d = _diagram(spec)
    if "rothe" in spec:
        make = lambda: schubitope.schubert_polynomial(spec["rothe"])  # noqa: E731
    else:
        make = lambda: schubitope.key_polynomial(spec["skyline"])  # noqa: E731

    def op():
        support = schubitope.newton_exponents(make())
        verts = schubitope.vertices(d)
        cert = schubitope.certify_vertices(schubitope.hrep(d), verts)
        hull = schubitope.hull_vertices(support, candidates=verts)
        return support, verts, cert, hull

    def canon(result):
        support, verts, cert, hull = result
        checked = answers.newton_certify(cert.ok, hull, verts)
        full = dict(checked, support=answers.point_set(support), method=cert.method, failures=list(cert.failures))
        return checked, full

    return op, canon


BUILDERS = {
    "vertex-sweep": _vertex_sweep,
    "hrep-member": _hrep_member,
    "newton-certify": _newton_certify,
}


def run_library(job):
    """Build every input first, then run the operations one after another.

    Each answer is reduced to its digests right after its operation, outside
    the timed region, so answers do not pile up in memory."""
    prepared = [BUILDERS[job["workload"]](spec) for spec in job["inputs"]]
    gauge = speed.Gauge()
    ops = []
    for op, canon in prepared:
        try:
            result, latency_ms, raw_ms = gauge.time(op)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error, latency_ms, raw_ms = None, exc, 0.0, 0.0
        if error is None:
            try:
                checked, full = canon(result)
            except Exception as exc:  # a malformed answer is a failed operation
                error = exc
        del result
        if error is None:
            check = answers.digest(checked)
            ops.append({
                "ms": latency_ms, "raw_ms": raw_ms, "check": check,
                "full": check if full is checked else answers.digest(full),
            })
        else:
            ops.append({"ms": latency_ms, "raw_ms": raw_ms, "error": f"{type(error).__name__}: {error}"})
    return {"ops": ops}


def run_verify(job, tracer):
    """The `verify` command's main function on the job's one argument list;
    each check is one operation, and the operations are sorted by check name."""
    from schubitope import checks, cli

    (spec,) = job["inputs"]
    times = {}  # check name: (reference ms, raw ms)
    if tracer is None:
        inner = checks.run_check
        gauge = speed.Gauge()

        def timed(name, *args):
            result, ms, raw_ms = gauge.time(lambda: inner(name, *args))
            times[name] = (ms, raw_ms)
            return result

        checks.run_check = timed
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    doc = json.loads(out.getvalue())
    if tracer is not None:
        times = {
            name[len("check:"):]: ((e - s) * 1e3,) * 2 for name, s, e, _ in tracer.spans() if name.startswith("check:")
        }
    ops = []
    for entry in sorted(doc["checks"], key=lambda e: e["name"]):
        a = answers.verify_check(entry["name"], entry["counterexample"])
        ms, raw_ms = times.get(entry["name"], (0.0, 0.0))
        ops.append({
            "ms": ms,
            "raw_ms": raw_ms,
            "check": answers.digest(a),
            "full": answers.digest(entry),
        })
    if code != 0 or doc["status"] != "pass" or set(times) != {e["name"] for e in doc["checks"]}:
        ops.append({"ms": 0.0, "raw_ms": 0.0, "error": f"verify exit {code}, status {doc['status']}"})
    return {"ops": ops, "instances": sum(e["instances"] for e in doc["checks"])}


def main() -> int:
    job = json.load(sys.stdin)
    import schubitope

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(schubitope.__file__).resolve().parents:
        print(f"error: imported schubitope from {schubitope.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if job["workload"] == "verify-desk":
        report = run_verify(job, tracer)
    else:
        report = run_library(job)
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, job["check_names"])
        tracer.write(job["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
