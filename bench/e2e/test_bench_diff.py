#!/usr/bin/env python3
"""Self-test of bench_diff.py on synthetic result files."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ]
}


def record(latency, ops, attempted=1000, failed=0, workload="w", trace=False,
           rss=100.0):
    return {"workload": workload, "trace": trace, "attempted": attempted,
            "failed": failed,
            "metrics": {"latency_ms": {"value": latency, "unit": "ms"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}},
            "extras": {"rss_mb": {"value": rss, "unit": "MiB"}}}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, runs):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"runs": runs}, f)
        return path

    def rows(self, base_runs, head_runs, bench=BENCH):
        base = [self.write("base%d.json" % i, [r])
                for i, r in enumerate(base_runs)]
        head = [self.write("head%d.json" % i, [r])
                for i, r in enumerate(head_runs)]
        return bench_diff.compare(bench, bench_diff.load_runs(base),
                                  bench_diff.load_runs(head))

    def diff(self, base_runs, head_runs):
        return {row["metric"]: row["verdict"]
                for row in self.rows(base_runs, head_runs)}

    def steady(self, latency, ops, **kw):
        return [record(latency * f, ops * f, **kw)
                for f in (0.99, 1.0, 1.0, 1.01, 1.0)]

    def test_same_commit_is_ok(self):
        verdicts = self.diff(self.steady(10, 100), self.steady(10, 100))
        self.assertEqual(verdicts, {"latency_ms": "ok", "ops_per_s": "ok",
                                    "ops_failed_share": "ok",
                                    "rss_mb": "info"})

    def test_slower_latency_is_a_regression(self):
        verdicts = self.diff(self.steady(10, 100), self.steady(13, 100))
        self.assertEqual(verdicts["latency_ms"], "regression")
        self.assertEqual(verdicts["ops_per_s"], "ok")

    def test_lower_throughput_is_a_regression(self):
        verdicts = self.diff(self.steady(10, 100), self.steady(10, 80))
        self.assertEqual(verdicts["ops_per_s"], "regression")

    def test_faster_is_better(self):
        verdicts = self.diff(self.steady(10, 100), self.steady(7, 130))
        self.assertEqual(verdicts["latency_ms"], "better")
        self.assertEqual(verdicts["ops_per_s"], "better")

    def test_wide_spread_is_unresolved(self):
        noisy = [record(v, 100) for v in (5, 8, 10, 12, 15)]
        verdicts = self.diff(noisy, self.steady(10, 100))
        self.assertEqual(verdicts["latency_ms"], "unresolved")

    def test_wide_spread_but_every_head_run_better(self):
        noisy = [record(v, 100) for v in (20, 25, 30, 35, 40)]
        fast = [record(v, 100) for v in (5, 8, 10, 12, 15)]
        verdicts = self.diff(noisy, fast)
        self.assertEqual(verdicts["latency_ms"], "better")

    def test_single_run_is_unresolved(self):
        verdicts = self.diff([record(10, 100)], [record(13, 100)])
        self.assertEqual(verdicts["latency_ms"], "unresolved")

    def test_failure_share_rise_is_flagged(self):
        verdicts = self.diff(self.steady(10, 100),
                             self.steady(10, 100, failed=3))
        self.assertEqual(verdicts["ops_failed_share"], "failed-rise")

    def test_traced_runs_are_ignored(self):
        base = self.steady(10, 100)
        head = self.steady(10, 100) + [record(99, 1, trace=True)]
        verdicts = self.diff(base, head)
        self.assertEqual(verdicts["latency_ms"], "ok")

    def test_extras_are_shown_but_never_fail(self):
        rows = self.rows(self.steady(10, 100),
                         self.steady(10, 100, rss=300.0))
        info = [row for row in rows if row["metric"] == "rss_mb"]
        self.assertEqual(len(info), 1)
        self.assertEqual(info[0]["verdict"], "info")
        self.assertAlmostEqual(info[0]["worse"], 2.0)

    def test_workload_missing_from_head_is_flagged(self):
        base = self.steady(10, 100) + self.steady(10, 100, workload="v")
        rows = self.rows(base, self.steady(10, 100))
        verdicts = {(row["workload"], row["metric"]): row["verdict"]
                    for row in rows}
        self.assertEqual(verdicts[("v", "runs")], "missing")
        self.assertEqual(verdicts[("w", "latency_ms")], "ok")

    def test_workload_named_but_never_run_is_flagged(self):
        bench = dict(BENCH, workloads=[{"name": "w"}, {"name": "v"}])
        rows = self.rows(self.steady(10, 100), self.steady(10, 100), bench)
        verdicts = {(row["workload"], row["metric"]): row["verdict"]
                    for row in rows}
        self.assertEqual(verdicts[("v", "runs")], "missing")

    def test_main_exit_code(self):
        bench = os.path.join(self.dir.name, "BENCHMARK.json")
        with open(bench, "w") as f:
            json.dump(BENCH, f)
        base = self.write("base.json", self.steady(10, 100) +
                          self.steady(10, 100, workload="v"))
        fatter = self.write("fatter.json", self.steady(10, 100, rss=300.0) +
                            self.steady(10, 100, workload="v"))
        slow = self.write("slow.json", self.steady(13, 100) +
                          self.steady(10, 100, workload="v"))
        crashed = self.write("crashed.json", self.steady(10, 100))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            same = bench_diff.main(["--bench", bench, "--base", base,
                                    "--head", base])
            info_only = bench_diff.main(["--bench", bench, "--base", base,
                                         "--head", fatter])
            worse = bench_diff.main(["--bench", bench, "--base", base,
                                     "--head", slow])
            lost = bench_diff.main(["--bench", bench, "--base", base,
                                    "--head", crashed])
        self.assertEqual((same, info_only, worse, lost), (0, 0, 1, 1))
        self.assertIn("regression", out.getvalue())
        self.assertIn("missing", out.getvalue())


if __name__ == "__main__":
    unittest.main()
