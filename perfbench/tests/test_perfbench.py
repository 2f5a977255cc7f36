"""Tests of the benchmark's own logic: output comparators and self-time arithmetic.

    python3 -m unittest discover perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HEADER = "N,l2_distance,paper_bound,H_0.5"
ROWS = [[0.0, 0.06, 0.06, 7.45], [1.0, 3.7e-4, 9.2e-4, 7.92], [2.0, 5.8e-17, 1.2e-16, 7.92]]


def csv(rows, header=HEADER):
    lines = [header] + [",".join([str(int(r[0]))] + [repr(v) for v in r[1:]]) for r in rows]
    return "\n".join(lines) + "\n"


def report(names, passed=True):
    checks = [{"name": n, "passed": passed, "slack": 0.0, "detail": ""} for n in names]
    return json.dumps({"checks": checks, "pass": passed})


class CompareCltTest(unittest.TestCase):
    def test_exact_output_matches(self):
        self.assertIsNone(workloads.compare_clt(csv(ROWS), HEADER, ROWS))

    def test_difference_within_atol_matches(self):
        rows = [list(r) for r in ROWS]
        rows[2][1] += 0.5 * workloads.CLT_ATOL
        rows[1][3] -= 0.5 * workloads.CLT_ATOL
        self.assertIsNone(workloads.compare_clt(csv(rows), HEADER, ROWS))

    def test_difference_beyond_atol_fails(self):
        rows = [list(r) for r in ROWS]
        rows[1][3] += 2 * workloads.CLT_ATOL
        self.assertIn("H_0.5", workloads.compare_clt(csv(rows), HEADER, ROWS))

    def test_nan_fails(self):
        rows = [list(r) for r in ROWS]
        rows[0][1] = float("nan")
        self.assertIsNotNone(workloads.compare_clt(csv(rows), HEADER, ROWS))

    def test_missing_row_fails(self):
        self.assertIn("rows", workloads.compare_clt(csv(ROWS[:-1]), HEADER, ROWS))

    def test_changed_header_fails(self):
        text = csv(ROWS, header="N,l2_distance,paper_bound,H_1.0")
        self.assertIn("header", workloads.compare_clt(text, HEADER, ROWS))

    def test_wrong_step_fails(self):
        rows = [list(r) for r in ROWS]
        rows[2][0] = 3.0
        self.assertIn("step", workloads.compare_clt(csv(rows), HEADER, ROWS))

    def test_garbage_fails(self):
        self.assertIsNotNone(workloads.compare_clt(HEADER + "\n0,x,1,2\n", HEADER, ROWS[:1]))


class CompareVerifyTest(unittest.TestCase):
    NAMES = ["a.seed0", "a.seed1", "b"]

    def test_same_checks_in_any_order_match(self):
        self.assertIsNone(workloads.compare_verify(report(self.NAMES[::-1]), self.NAMES))

    def test_dropped_check_fails(self):
        self.assertIn("missing", workloads.compare_verify(report(self.NAMES[:2]), self.NAMES))

    def test_renamed_check_fails(self):
        names = self.NAMES[:2] + ["c"]
        self.assertIn("unexpected", workloads.compare_verify(report(names), self.NAMES))

    def test_duplicated_check_fails(self):
        names = self.NAMES + ["b"]
        self.assertIsNotNone(workloads.compare_verify(report(names), self.NAMES))

    def test_failing_report_fails(self):
        text = report(self.NAMES, passed=False)
        self.assertIn("does not pass", workloads.compare_verify(text, self.NAMES))

    def test_malformed_report_fails(self):
        self.assertIn("malformed", workloads.compare_verify("{", self.NAMES))

    def test_nonzero_exit_fails(self):
        ref = {"checks": self.NAMES}
        problem = workloads.check_output("fisher-d3n4", ref, None, 1, report(self.NAMES))
        self.assertIn("exit code", problem)


class ReferenceTest(unittest.TestCase):
    def test_references_cover_every_run(self):
        clt = workloads.load_reference("clt-d3n5")
        self.assertEqual(sorted(map(int, clt["runs"])), list(range(workloads.CLT_SEED_POOL)))
        self.assertEqual(len(workloads.load_reference("verify-d5n1")["checks"]), 443)
        self.assertEqual(len(workloads.load_reference("fisher-d3n4")["checks"]), 17)

    def test_seeds_stay_in_the_recorded_pool(self):
        for seed in (0, 7, 31, 32, 10**9):
            for i in range(40):
                self.assertIn(workloads.cli_seed("clt-d3n5", seed, i),
                              range(workloads.CLT_SEED_POOL))
        self.assertIsNone(workloads.cli_seed("verify-d5n1", 5, 0))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["outer", 0.0, 10.0, -1],
            ["mid", 1.0, 5.0, 0],
            ["leaf", 2.0, 3.0, 1],
            ["mid", 6.0, 8.0, 0],
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 3.0, 1.0, 2.0])

    def test_overlapping_children_count_once(self):
        spans = [["p", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 3.0, 6.0, 0]]
        self.assertEqual(tracing.self_times(spans)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [["p", 2.0, 6.0, -1], ["a", 0.0, 3.0, 0], ["b", 5.0, 9.0, 0]]
        self.assertEqual(tracing.self_times(spans)[0], 2.0)

    def test_layer_metrics(self):
        spans = [
            ["verify.suite_fisher", 0.0, 10.0, -1],
            ["fisher.fisher_total", 1.0, 9.0, 0],
            [tracing.EIG_SPAN, 2.0, 4.0, 1],
            ["convolution.convolve", 5.0, 6.0, 1],
            [tracing.EIG_SPAN, 5.5, 5.75, 3],
        ]
        m = tracing.layer_metrics(spans)
        self.assertEqual(set(m), set(tracing.metric_names()))
        self.assertEqual(m["verify.suite_fisher.total_s"], 10.0)
        self.assertEqual(m["fisher.fisher_total.calls"], 1)
        self.assertEqual(m["fisher.fisher_total.self_s"], 5.0)
        self.assertEqual(m["convolution.convolve.self_s"], 0.75)
        self.assertEqual(m[f"{tracing.EIG_SPAN}.calls"], 2)
        self.assertEqual(m[f"{tracing.EIG_SPAN}.s"], 2.25)
        self.assertEqual(m["mean_magic.mean_state.calls"], 0)

    def test_recorder_links_parents(self):
        rec = tracing.Recorder()
        inner = rec.wrap("inner", lambda x: x + 1)
        outer = rec.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual([(s[0], s[3]) for s in rec.spans], [("outer", -1), ("inner", 0)])
        self.assertLessEqual(rec.spans[0][1], rec.spans[1][1])
        self.assertLessEqual(rec.spans[1][2], rec.spans[0][2])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_what_run_reports(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         tracing.metric_names() + ["trace.overhead_s"])
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.unit(m["name"]))
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_frac"})


if __name__ == "__main__":
    unittest.main()
