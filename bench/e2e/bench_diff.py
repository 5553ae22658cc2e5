#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/bench_diff.py --bench BENCHMARK.json \\
        --base base1.json base2.json ... --head head1.json head2.json ...

Each file is an `artsparse_bench --out` record ({"runs": [...]}); runs of
any number of seeds and workloads may be mixed. For every (workload,
end-to-end metric) of BENCHMARK.json it prints both sides' median and
quartiles and a verdict:

    ok           the head median is within the metric's bound of the base
    better       the head median is better than the base by more than it
    regression   the head median is worse than the base by more than it
    unresolved   either side's quartile spread exceeds the bound (or it
                 has fewer than three runs), and not every head run beats
                 every base run

A rise in the share of failed ops is flagged per workload. A workload or
metric that one side lacks is "missing". The ungated extras both sides
report (latencies, ops/s, memory) follow as "info" rows: medians,
quartiles and the head's change, with no verdict. Exits 1 when anything
regressed, is unresolved, is missing, or failed more often; else 0.
"""

import argparse
import json
import statistics
import sys


def load_runs(paths):
    """{workload: {"metrics": {name: [values]}, "extras": {name: [values]},
    "attempted": n, "failed": n}} over the untraced runs of `paths`."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for run in json.load(f)["runs"]:
                if run.get("trace"):
                    continue
                entry = runs.setdefault(
                    run["workload"], {"metrics": {}, "extras": {},
                                      "attempted": 0, "failed": 0})
                entry["attempted"] += run["attempted"]
                entry["failed"] += run["failed"]
                for kind in ("metrics", "extras"):
                    for name, metric in run.get(kind, {}).items():
                        entry[kind].setdefault(name, []).append(
                            metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values):
    """Quartile distance over the median; unknown (infinite) below three
    runs, so a single run can never look steady."""
    if len(values) < 3:
        return float("inf")
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(base, head, better, bound):
    """(verdict, signed worsening share of the base median)."""
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (head_median - base_median) / base_median
    if better == "lower":
        every_head_better = max(head) < min(base)
    else:
        every_head_better = min(head) > max(base)
    spread = max(relative_spread(base), relative_spread(head))
    if spread > bound and not every_head_better:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "better", worse
    return "ok", worse


def compare(bench, base_runs, head_runs):
    """Rows of (workload, metric, verdict, details) plus failure rows, for
    every workload BENCHMARK.json names or either side ran. A workload
    without runs on one side (its set-up crashed, say) is "missing"."""
    rows = []
    workloads = {w["name"] for w in bench.get("workloads", [])}
    for workload in sorted(workloads | set(base_runs) | set(head_runs)):
        if workload not in base_runs or workload not in head_runs:
            rows.append({"workload": workload, "metric": "runs",
                         "verdict": "missing"})
            continue
        base, head = base_runs[workload], head_runs[workload]
        for spec in bench["end_to_end"]:
            name = spec["name"]
            if name not in base["metrics"] or name not in head["metrics"]:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing"})
                continue
            b, h = base["metrics"][name], head["metrics"][name]
            result, worse = verdict(b, h, spec["better"], spec["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "bound": spec["bound"],
                         "base": quartiles(b), "head": quartiles(h),
                         "worse": worse, "verdict": result})
        base_share = base["failed"] / max(base["attempted"], 1)
        head_share = head["failed"] / max(head["attempted"], 1)
        rows.append({"workload": workload, "metric": "ops_failed_share",
                     "base_share": base_share, "head_share": head_share,
                     "verdict": "failed-rise" if head_share > base_share
                     else "ok"})
        for name in sorted(set(base["extras"]) & set(head["extras"])):
            b, h = base["extras"][name], head["extras"][name]
            base_median = statistics.median(b)
            change = ((statistics.median(h) - base_median) / base_median
                      if base_median else 0.0)
            rows.append({"workload": workload, "metric": name,
                         "base": quartiles(b), "head": quartiles(h),
                         "worse": change, "verdict": "info"})
    return rows


def print_rows(rows, out=None):
    out = out or sys.stdout
    print("%-12s %-24s %-30s %-30s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
        "worse", "bound", "verdict"), file=out)
    for row in rows:
        if "base" in row:
            bound = "%5.0f%%" % (100 * row["bound"]) if "bound" in row else ""
            print("%-12s %-24s %-30s %-30s %7.2f%% %6s  %s" % (
                row["workload"], row["metric"],
                "%.5g [%.5g, %.5g]" % (row["base"][1], row["base"][0],
                                       row["base"][2]),
                "%.5g [%.5g, %.5g]" % (row["head"][1], row["head"][0],
                                       row["head"][2]),
                100 * row["worse"], bound, row["verdict"]),
                file=out)
        elif "base_share" in row:
            print("%-12s %-24s %-30s %-30s %8s %6s  %s" % (
                row["workload"], row["metric"], "%.4g" % row["base_share"],
                "%.4g" % row["head_share"], "", "", row["verdict"]), file=out)
        else:
            print("%-12s %-24s %-30s %-30s %8s %6s  %s" % (
                row["workload"], row["metric"], "", "", "", "",
                row["verdict"]), file=out)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="BENCHMARK.json")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    rows = compare(bench, load_runs(args.base), load_runs(args.head))
    print_rows(rows)
    return 0 if all(row["verdict"] in ("ok", "better", "info")
                    for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
