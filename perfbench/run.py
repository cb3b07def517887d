"""The schubitope benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload vertex-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The loop is closed: one caller, one operation at a
time, in one process.  A pass runs the workload's fixed input set in a
fresh interpreter (worker.py), so per-session memos start cold as they do
for a user; verify-desk gives each of its `verify` invocations an
interpreter of its own.

On a shared 2-core virtual machine the same work runs up to 1.7 times as
slow for minutes at a time, in CPU time as in wall time, because of other
tenants.  So every timing is reported at a reference speed: it is scaled by
how fast a fixed loop runs in the same interpreter at the same moment
(speed.py).  The detail line carries the raw times too.  Each operation's
latency is its median over the passes, and the timings are taken over
those: wall_s is their sum, ops_per_s the operations over it, op_p50_ms and
op_p90_ms nearest-rank percentiles.  The pass count is fixed by the
workload and ``--seconds`` alone (PASS_SECONDS), never by the speed of the
code under test, so two commits are compared on the same statistic.  Every
workload has 100 or more operations, so ten lie beyond the 90th percentile.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs one plain pass and one traced
pass (for verify-desk, of one `verify` invocation) and carries the
per-layer metrics, in raw seconds, spans going to ``.perfbench/``.
Every answer is checked against expected answers built by oracle.py, and
for seed 0 against stored digests of every answer (expected.json).  The
line before the result describes the environment and the passes.  The
exit code is 0 when every answer is right, 1 when one is wrong and 2 when
the run cannot start.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

SETUP_IMPORTS = 11      # fresh imports per run; one import is ~40 ms and noisy
TAIL_PCT = 90           # highest latency percentile reported
TAIL_SAMPLES = 10       # samples that must lie beyond it
RUN_BUDGET_S = 170      # a run must end within 180 s
DIGEST_CHARS = 16

# Seconds one pass takes, interpreter start-up included, on the 2-core VM the
# benchmark was defined on, in that VM's slow state (see speed.py), so that a
# run stays near --seconds.  A timed run makes round(--seconds /
# PASS_SECONDS) passes, at least one.
PASS_SECONDS = {
    "vertex-sweep": 5.0,
    "hrep-member": 5.0,
    "newton-certify": 4.0,
    "verify-desk": 25.0,
}


def pass_count(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def percentile(samples, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(samples)
    rank = max(-(-pct * len(ordered) // 100), 1)
    return ordered[rank - 1]


def samples_beyond(count, pct):
    """How many of ``count`` samples lie above the nearest-rank pct percentile's rank."""
    return count - -(-pct * count // 100)


def tail_is_reportable(count, pct=TAIL_PCT):
    return samples_beyond(count, pct) >= TAIL_SAMPLES


def score_pass(ops, expected):
    """Failed operations of one pass: errors, wrong answers, missing answers.

    ``expected`` is one check digest per operation."""
    failed = sum(op.get("check") != want for op, want in zip(ops, expected))
    failed += abs(len(ops) - len(expected))
    return failed, max(len(ops), len(expected))


def short(d):
    return d[:DIGEST_CHARS]


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


class PassFailed(RuntimeError):
    pass


def _env():
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}", PERFBENCH_SRC=str(SRC))


# Fresh interpreters skip the site packages (-S): the library needs none, and
# what a machine's site packages import at start-up is not the library's cost.
PYTHON = [sys.executable, "-S"]


def run_pass(job, timeout):
    """One fresh interpreter over the whole input set; returns its report."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [*PYTHON, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {timeout:.0f} s") from exc
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["outside_wall_s"] = wall
    report["ops_s"] = sum(op["ms"] for op in report["ops"]) / 1e3
    report["raw_s"] = sum(op["raw_ms"] for op in report["ops"]) / 1e3
    return report


# The speed factor is taken after the import, so that the loop's own imports
# (fractions) do not shorten the library's.
IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import schubitope; raw_ms = (time.perf_counter() - t0) * 1e3; "
    "import speed; print(raw_ms * speed.factor(), raw_ms)"
)


def measure_setup():
    """Seconds `import schubitope` takes in a fresh interpreter, one per import,
    timed inside the interpreter: (at the reference speed, raw) per import."""
    cmd = [*PYTHON, "-c", IMPORT_TIMER]
    subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=60, capture_output=True)  # writes bytecode caches
    runs = [
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=60, capture_output=True, text=True).stdout
        for _ in range(SETUP_IMPORTS)
    ]
    return [tuple(float(x) / 1e3 for x in out.split()) for out in runs]


def declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"]}, {m["name"]: m["unit"] for m in doc["per_layer"]}


class Run:
    """Passes of one workload and the checks on their answers.

    A pass is one or more sessions, each a fresh interpreter over a slice of
    the inputs: one session for the library workloads, one per `verify`
    invocation for verify-desk."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        inputs, expected = workloads.GENERATORS[workload](seed)
        self.expected = [answers.digest(e) for e in expected]
        size = 1 if workload in workloads.ONE_INTERPRETER_PER_INPUT else len(inputs)
        self.sessions = [inputs[i:i + size] for i in range(0, len(inputs), size)]
        self.ops_per_session = len(self.expected) // len(self.sessions)
        self.passes = []
        self.attempted = self.failed = 0
        self.problems = []
        self.stopped_early = False
        self.full_digests = None

    def one_pass(self, deadline, sessions=None, **job_extra):
        """Run the first ``sessions`` sessions (all by default) and score their answers."""
        sessions = self.sessions[:sessions]
        expected = self.expected[:len(sessions) * self.ops_per_session]
        report = {"ops": [], "ops_s": 0.0, "raw_s": 0.0, "outside_wall_s": 0.0, "peak_rss_mib": 0.0, "instances": 0}
        try:
            for inputs in sessions:
                job = {"workload": self.workload, "inputs": inputs, "trace": 0, **job_extra}
                part = run_pass(job, max(deadline - time.monotonic(), 1))
                report["ops"] += part["ops"]
                for key in ("ops_s", "raw_s", "outside_wall_s", "instances"):
                    report[key] += part.get(key, 0)
                report["peak_rss_mib"] = max(report["peak_rss_mib"], part["peak_rss_mib"])
                report["layers"] = part.get("layers")
        except PassFailed as exc:
            self.problems.append(str(exc))
            self.attempted += len(expected)
            self.failed += len(expected)
            return None
        failed, attempted = score_pass(report["ops"], expected)
        self.attempted += attempted
        self.failed += failed
        for op in report["ops"]:
            if "error" in op:
                self.problems.append(op["error"])
        full = [short(op.get("full", "")) for op in report["ops"]]
        known = self.full_digests or []
        if full[:len(known)] != known[:len(full)]:
            self.problems.append("answers differ between passes")
            self.failed += 1
        if len(full) > len(known):
            self.full_digests = full
        self.passes.append(report)
        return report

    def check_stored_digests(self):
        """For seed 0, every answer must match its stored digest."""
        if self.seed != 0 or self.full_digests is None:
            return
        stored = json.loads(EXPECTED.read_text()).get(self.workload)
        if stored is None:
            self.problems.append(f"no stored digests for {self.workload}")
            self.failed += 1
            return
        stored = stored[:len(self.full_digests)]
        wrong = sum(a != b for a, b in zip(self.full_digests, stored)) + abs(len(stored) - len(self.full_digests))
        if wrong:
            self.problems.append(f"{wrong} answers differ from the stored seed-0 digests")
            self.failed += wrong

    def answers_sha256(self):
        if self.full_digests is None:
            return None
        return hashlib.sha256("".join(self.full_digests).encode()).hexdigest()


def timed_run(run, deadline):
    """pass_count passes, unless the next one would not end before the deadline."""
    last = 0.0
    for _ in range(pass_count(run.workload, run.seconds)):
        if time.monotonic() + last > deadline:
            run.stopped_early = True
            break
        t0 = time.monotonic()
        if run.one_pass(deadline) is None:
            break
        last = time.monotonic() - t0


def median_latencies(passes, key="ms"):
    """Each operation's median latency (ms) over the passes."""
    return [statistics.median(times) for times in zip(*([op[key] for op in p["ops"]] for p in passes))]


def end_to_end(run, setup):
    latencies = median_latencies(run.passes)
    wall = sum(latencies) / 1e3
    return {
        "setup_s": statistics.median(ms for ms, _ in setup),
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, TAIL_PCT),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in run.passes),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }


def traced_run(run, deadline, check_names):
    """One plain pass, then one traced pass, of the first session only (for
    verify-desk, one `verify` invocation); per-layer metrics come from the
    second."""
    plain = run.one_pass(deadline, sessions=1)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{run.workload}.tsv.gz"
    traced = run.one_pass(deadline, sessions=1, trace=1, check_names=check_names, spans_path=str(spans_path))
    if plain is None or traced is None:
        return None
    layers = {name: value for name, (value, _) in traced["layers"].items()}
    layers["trace.overhead_s"] = traced["raw_s"] - plain["raw_s"]
    if run.workload == "verify-desk":
        layers["checks.instances_total"] = traced["instances"]
    else:  # a library workload runs no check
        layers.update({f"checks.{name}.s": 0.0 for name in check_names})
        layers["checks.instances_total"] = 0
    return layers, str(spans_path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "schubitope" / "__init__.py").is_file():
        print(f"error: no schubitope sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    run = Run(args.workload, args.seed, args.seconds)
    detail = {}
    if args.trace:
        traced = traced_run(run, deadline, workloads.check_names())
        run.check_stored_digests()
        values, units = (traced[0] if traced else {}), layer_units
        if traced:
            detail["spans"] = traced[1]
    else:
        try:
            setup = measure_setup()
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"error: cannot import schubitope: {exc}", file=sys.stderr)
            return 2
        timed_run(run, deadline)
        run.check_stored_digests()
        values, units = (end_to_end(run, setup) if run.passes else {}), e2e_units
        detail["setup_s"] = setup
        detail["passes_planned"] = pass_count(args.workload, args.seconds)
        if run.passes:
            detail["raw_wall_s"] = sum(median_latencies(run.passes, "raw_ms")) / 1e3
            detail["p90_samples_beyond"] = samples_beyond(len(run.passes[0]["ops"]), TAIL_PCT)
            detail["p90_reportable"] = tail_is_reportable(len(run.passes[0]["ops"]))
    if values:
        run.problems += [f"metric {name} was not measured" for name in units if name not in values]

    correct = run.failed == 0 and bool(run.passes) and not run.problems
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    detail.update(
        passes=[
            {"ops": len(p["ops"]), "ops_s": p["ops_s"], "raw_s": p["raw_s"], "outside_wall_s": p["outside_wall_s"]}
            for p in run.passes
        ],
        stopped_early=run.stopped_early,
        answers_sha256=run.answers_sha256(),
        problems=run.problems[:20],
    )
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
