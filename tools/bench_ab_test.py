#!/usr/bin/env python3
"""Tests of the bench_ab verdict on canned benchmark last lines.

    python3 tools/bench_ab_test.py
"""

import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ab  # noqa: E402

CONFIG = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "search_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "cand_per_s", "better": "higher", "bound": 0.25},
    ],
}
NAMES = [m["name"] for m in CONFIG["end_to_end"]]


def line(search_p50_ms=100.0, cand_per_s=100.0, correct=True, failed=0):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"search_p50_ms": {"value": search_p50_ms, "unit": "ms"},
                    "cand_per_s": {"value": cand_per_s, "unit": "1/s"}}})


def run_ab(parent, change):
    """bench_ab over 5 pairs; `parent` and `change` map the pair index to
    (returncode, stdout). Returns (exit status, printed text)."""
    calls = {"parent": 0, "change": 0}

    def run(side, workload):
        i = calls[side]
        calls[side] += 1
        return (parent if side == "parent" else change)(i)

    out = io.StringIO()
    status = bench_ab.bench_ab(CONFIG, 5, run, out)
    return status, out.getvalue()


def steady(**kw):
    return lambda i: (0, "# report\n" + line(**kw) + "\n")


class VerdictTest(unittest.TestCase):
    def verdict_row(self, text, metric):
        rows = [l.split() for l in text.splitlines() if l.startswith("w ")]
        return next(r for r in rows if r[1] == metric)[-1]

    def test_lower_is_better(self):
        status, text = run_ab(steady(), steady(search_p50_ms=90.0))
        self.assertEqual(status, 0, text)
        status, text = run_ab(steady(), steady(search_p50_ms=200.0))
        self.assertEqual(status, 1, text)
        self.assertEqual(self.verdict_row(text, "search_p50_ms"), "FAIL")
        self.assertEqual(self.verdict_row(text, "cand_per_s"), "ok")

    def test_higher_is_better(self):
        status, text = run_ab(steady(), steady(cand_per_s=300.0))
        self.assertEqual(status, 0, text)
        status, text = run_ab(steady(), steady(cand_per_s=50.0))
        self.assertEqual(status, 1, text)
        self.assertEqual(self.verdict_row(text, "cand_per_s"), "FAIL")
        self.assertEqual(self.verdict_row(text, "search_p50_ms"), "ok")

    def test_ratio_at_the_bound_passes_and_past_it_fails(self):
        self.assertEqual(run_ab(steady(), steady(search_p50_ms=125.0))[0], 0)
        self.assertEqual(run_ab(steady(), steady(cand_per_s=75.0))[0], 0)
        self.assertEqual(run_ab(steady(), steady(search_p50_ms=125.1))[0], 1)
        self.assertEqual(run_ab(steady(), steady(cand_per_s=74.9))[0], 1)

    def test_median_of_paired_ratios_decides(self):
        # Two of five pairs far worse: the median pair is within bound.
        change = lambda i: steady(search_p50_ms=300.0 if i < 2 else 110.0)(i)
        self.assertEqual(run_ab(steady(), change)[0], 0)

    def test_wide_parent_spread_is_unresolved_not_failed(self):
        spread = [60.0, 80.0, 100.0, 120.0, 140.0]  # IQR 40 over median 100
        parent = lambda i: steady(search_p50_ms=spread[i])(i)
        status, text = run_ab(parent, steady(search_p50_ms=200.0))
        self.assertEqual(status, 0, text)
        self.assertEqual(self.verdict_row(text, "search_p50_ms"),
                         "UNRESOLVED")
        self.assertIn("1 unresolved", text)

    def test_incorrect_or_failed_run_on_either_side_fails(self):
        for bad in (steady(correct=False), steady(failed=1)):
            for parent, change in ((bad, steady()), (steady(), bad)):
                status, text = run_ab(parent, change)
                self.assertEqual(status, 1, text)
                self.assertIn("bench_ab: FAIL", text)

    def test_failed_checks_are_quoted(self):
        failing = lambda i: (0, "# FAILED: only 13 warm search rounds\n"
                             + line(correct=False) + "\n")
        status, text = run_ab(steady(), failing)
        self.assertEqual(status, 1)
        self.assertIn("only 13 warm search rounds", text)

    def test_nonzero_exit_fails(self):
        self.assertEqual(run_ab(steady(), lambda i: (3, ""))[0], 1)


class ReadRunTest(unittest.TestCase):
    def test_reads_the_last_line(self):
        got = bench_ab.read_run(0, "# x\n" + line(cand_per_s=7) + "\n", NAMES)
        self.assertEqual(got, {"search_p50_ms": 100.0, "cand_per_s": 7.0})

    def test_unusable_runs_raise(self):
        no_metric = json.loads(line())
        del no_metric["metrics"]["cand_per_s"]
        nan = line().replace('"value": 100.0', '"value": NaN', 1)
        for stdout in ("", "# report only\n", "{not json\n", "[1, 2]\n",
                       json.dumps(no_metric) + "\n", nan + "\n"):
            with self.assertRaises(bench_ab.RunFailed, msg=stdout):
                bench_ab.read_run(0, stdout, NAMES)

    def test_missing_metric_fails_the_ab(self):
        no_metric = json.loads(line())
        del no_metric["metrics"]["search_p50_ms"]
        status, text = run_ab(steady(),
                              lambda i: (0, json.dumps(no_metric) + "\n"))
        self.assertEqual(status, 1)
        self.assertIn("metric search_p50_ms is missing", text)


if __name__ == "__main__":
    unittest.main()
