#!/usr/bin/env python3
"""Smoke test of artsparse_bench: every workload for about a second.

    python3 smoke_test.py <artsparse_bench> <BENCHMARK.json> <work dir>

For each workload BENCHMARK.json names, runs it untraced and traced with
--smoke (allowed on any build type) and requires exit 0, no failed op,
every check passing, and a result line carrying exactly the metrics
BENCHMARK.json lists for that mode, with their units. Runs service_mix's
closed-loop --saturate mode the same way. Also requires that a
behaviour-changing ARTSPARSE_* variable makes the benchmark refuse.
"""

import json
import math
import os
import shutil
import subprocess
import sys


def run(binary, work, workload, trace, env=None, extra=()):
    return subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--smoke",
         "--trace", str(trace), "--work-dir", work, *extra],
        capture_output=True, text=True, env=env, timeout=600)


def check_result(proc, specs, label):
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["no JSON result line"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("a check did not pass")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("attempted %s, failed %s" % (
            result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(expected) - set(metrics)),
                                      sorted(set(metrics) - set(expected))))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        if name in expected and metric.get("unit") != expected[name]:
            problems.append("%s has unit %s, BENCHMARK.json says %s" % (
                name, metric.get("unit"), expected[name]))
    return ["%s: %s" % (label, p) for p in problems]


def main(binary, bench_path, work):
    with open(bench_path) as f:
        bench = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(binary, work, name, trace)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            problems += check_result(proc, specs, "%s --trace %d" % (name, trace))
        if not os.path.isfile(os.path.join(work, "trace_%s.json" % name)):
            problems.append("%s: no trace_%s.json written" % (name, name))
        if name == "service_mix":
            proc = run(binary, work, name, 0, extra=["--saturate"])
            problems += check_result(proc, bench["end_to_end"],
                                     "service_mix --saturate")
    refused = run(binary, work, bench["workloads"][0]["name"], 0,
                  env=dict(os.environ, ARTSPARSE_THREADS="2"))
    if refused.returncode != 2:
        problems.append("ARTSPARSE_THREADS set: exit code %d, expected 2" %
                        refused.returncode)
    shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
