"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -v
"""
from __future__ import annotations

import itertools
import json
import random
import sys
import time
import types
import unittest
from unittest import mock
from pathlib import Path

import answers
import oracle
import run
import speed
import tracing
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import schubitope  # noqa: E402
from schubitope import polytope  # noqa: E402


def _random_boxes(rng, n):
    return sorted((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.5)


class TailRule(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile([7], 90), 7)
        self.assertEqual(run.percentile(range(1, 11), 90), 9)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertTrue(run.tail_is_reportable(100))
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertFalse(run.tail_is_reportable(99))
        samples = list(range(1, 101))
        p90 = run.percentile(samples, 90)
        self.assertEqual(sum(s > p90 for s in samples), 10)

    def test_every_workload_has_a_reportable_p90(self):
        for name, generate in workloads.GENERATORS.items():
            _, expected = generate(5)
            self.assertTrue(run.tail_is_reportable(len(expected)), name)

    def test_median_latency_per_operation(self):
        passes = [
            {"ops": [{"ms": 3.0}, {"ms": 5.0}]},
            {"ops": [{"ms": 4.0}, {"ms": 2.0}]},
            {"ops": [{"ms": 9.0}, {"ms": 1.0}]},
        ]
        self.assertEqual(run.median_latencies(passes), [4.0, 2.0])

    def test_pass_count_does_not_depend_on_the_speed_of_the_code(self):
        want = run.pass_count("hrep-member", 3 * run.PASS_SECONDS["hrep-member"])
        self.assertEqual(want, 3)
        for delay in (0.0, 0.05):
            stub = types.SimpleNamespace(
                workload="hrep-member", seconds=3 * run.PASS_SECONDS["hrep-member"], passes=[], stopped_early=False
            )

            def one_pass(deadline, stub=stub, delay=delay):
                time.sleep(delay)
                stub.passes.append({})
                return {}

            stub.one_pass = one_pass
            run.timed_run(stub, time.monotonic() + 60)
            self.assertEqual(len(stub.passes), want)
            self.assertFalse(stub.stopped_early)


class ReferenceSpeed(unittest.TestCase):
    def test_a_timing_is_scaled_by_the_mean_factor_around_it(self):
        factors = iter([2.0, 4.0])
        with mock.patch.object(speed, "factor", lambda: next(factors)), mock.patch.object(speed, "STALE_S", -1.0):
            result, ms, raw_ms = speed.Gauge().time(lambda: time.sleep(0.01) or "done")
        self.assertEqual(result, "done")
        self.assertGreaterEqual(raw_ms, 10.0)
        self.assertAlmostEqual(ms, raw_ms * 3.0)

    def test_a_fresh_factor_is_reused(self):
        calls = []
        with mock.patch.object(speed, "factor", lambda: calls.append(1) or 0.5):
            gauge = speed.Gauge()
            _, ms, raw_ms = gauge.time(lambda: None)
            gauge.time(lambda: None)
        self.assertEqual(len(calls), 1)
        self.assertAlmostEqual(ms, raw_ms * 0.5)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 5.0, 9.0, 0),
            ("b", 6.0, 8.0, 2),
        ]
        times = tracing.self_times(spans)
        self.assertEqual(times["a"], (1, 10.0, 3.0))
        self.assertEqual(times["c"], (1, 4.0, 2.0))
        self.assertEqual(times["b"], (2, 5.0, 5.0))

    def test_wrapped_calls_nest_by_caller(self):
        ticks = itertools.count()
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        leaf = tracer.wrap("leaf", lambda: None)

        def body():
            leaf()
            leaf()

        outer = tracer.wrap("outer", body)
        outer()
        spans = tracer.spans()
        self.assertEqual([s[0] for s in spans], ["outer", "leaf", "leaf"])
        self.assertEqual([s[3] for s in spans], [-1, 0, 0])
        # clock ticks: outer 0..5, leaves 1..2 and 3..4
        self.assertEqual(tracing.self_times(spans)["outer"], (1, 5.0, 3.0))

    def test_install_rebinds_every_namespace(self):
        tracer = tracing.Tracer()
        originals = {
            "vertex_vector": schubitope.fillings.vertex_vector,
            "vertices": schubitope.polytope.vertices,
        }
        replaced = tracing.install(tracer)
        try:
            self.assertIsNot(polytope.vertex_vector, originals["vertex_vector"])
            self.assertIsNot(schubitope.vertices, originals["vertices"])
            d = schubitope.skyline((1, 0, 2))
            schubitope.vertices(d)
            layers = tracing.layer_metrics(tracer, ["theta-equals-rank"])
            self.assertEqual(layers["polytope.vertices.calls"][0], 1)
            self.assertEqual(layers["fillings.vertex_vector.calls"][0], 6)
            self.assertEqual(layers["fillings.fill_column.calls"][0], 18)
            self.assertNotIn("checks.theta-equals-rank.s", layers)  # no span: not measured
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)


class OracleAgreesWithLibrary(unittest.TestCase):
    def test_vertex_sets_and_bounds(self):
        rng = random.Random(7)
        for n in (2, 3, 4, 5):
            for _ in range(4):
                boxes = _random_boxes(rng, n)
                d = schubitope.Diagram(n, frozenset(boxes))
                self.assertEqual(oracle.vertex_set(n, boxes), schubitope.vertices(d))
                self.assertEqual(oracle.hrep_document(n, boxes), polytope.hrep_to_json_dict(schubitope.hrep(d)))
                w = tuple(rng.sample(range(1, n + 1), n))
                self.assertEqual(oracle.greedy_vertex(n, boxes, w), schubitope.vertex_vector(d, w))

    def test_rothe_and_skyline_boxes(self):
        for w in itertools.permutations(range(1, 5)):
            self.assertEqual(oracle.rothe_boxes(w), sorted(schubitope.rothe(w).boxes))
        for a in itertools.product(range(4), repeat=3):
            self.assertEqual(oracle.skyline_boxes(a), sorted(schubitope.skyline(a).boxes))


class OutsidePoint(unittest.TestCase):
    def test_outside_point_breaks_the_tight_singleton_bound(self):
        rng = random.Random(3)
        for n in (2, 3, 4, 5, 6):
            for _ in range(5):
                boxes = _random_boxes(rng, n)
                w = tuple(rng.sample(range(1, n + 1), n))
                vertex, mid, outside = oracle.membership_points(n, boxes, w)
                table = oracle.theta_table(n, boxes)
                self.assertEqual(sum(outside), len(boxes))
                self.assertEqual(vertex[w[0] - 1], table[1 << (w[0] - 1)])
                self.assertGreater(outside[w[0] - 1], table[1 << (w[0] - 1)])
                h = schubitope.hrep(schubitope.Diagram(n, frozenset(boxes)))
                self.assertTrue(schubitope.member(h, vertex))
                self.assertTrue(schubitope.member(h, mid))
                self.assertFalse(schubitope.member(h, outside))


class CorruptedAnswers(unittest.TestCase):
    def test_a_corrupted_answer_counts_as_failed(self):
        inputs, expected = workloads.vertex_sweep(0)
        want = [answers.digest(e) for e in expected[:3]]
        verts = [tuple(v) for v in expected[1]["vertices"]]
        ops = [
            {"check": want[0]},
            {"check": answers.digest(answers.vertex_sweep(verts[1:]))},  # one vertex dropped
            {"check": want[2]},
        ]
        self.assertEqual(run.score_pass(ops, want), (1, 3))

    def test_errors_and_missing_answers_count_as_failed(self):
        want = [answers.digest({"x": i}) for i in range(3)]
        ops = [{"check": want[0]}, {"error": "ValueError: boom"}]
        self.assertEqual(run.score_pass(ops, want), (2, 3))

    def test_every_listed_verify_check_is_expected(self):
        names = workloads.check_names()
        self.assertEqual(len(names), 29)
        inputs, expected = workloads.verify_desk(2)
        self.assertEqual(len(inputs), workloads.VERIFY_SEEDS)
        self.assertEqual(len(expected), len(names) * workloads.VERIFY_SEEDS)
        want = [answers.digest(e) for e in expected[:len(names)]]
        ops = [{"check": answers.digest(answers.verify_check(name, None))} for name in names]
        self.assertEqual(run.score_pass(ops, want), (0, 29))
        ops[5] = {"check": answers.digest(answers.verify_check(names[5], "rank 2 != 3"))}
        self.assertEqual(run.score_pass(ops, want), (1, 29))
        failed, attempted = run.score_pass(ops[:5] + ops[6:], want)  # one check did not run
        self.assertGreaterEqual(failed, 1)
        self.assertEqual(attempted, 29)

    def test_a_changed_seed0_answer_counts_as_failed(self):
        r = run.Run("verify-desk", 0, 0)
        r.full_digests = list(json.loads(run.EXPECTED.read_text())["verify-desk"])
        r.check_stored_digests()
        self.assertEqual(r.failed, 0)
        r.full_digests[3] = "0" * run.DIGEST_CHARS
        r.check_stored_digests()
        self.assertEqual(r.failed, 1)

    def test_worker_answers_pass_the_checks(self):
        inputs, expected = workloads.newton_certify(0)
        job = {"workload": "newton-certify", "inputs": inputs[:5], "trace": 0}
        report = run.run_pass(job, timeout=120)
        self.assertEqual(run.score_pass(report["ops"], [answers.digest(e) for e in expected[:5]]), (0, 5))


if __name__ == "__main__":
    unittest.main()
