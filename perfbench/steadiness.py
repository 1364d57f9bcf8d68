#!/usr/bin/env python3
"""Steadiness self-check for the end-to-end metrics.

    python3 perfbench/steadiness.py

For every workload in BENCHMARK.json it makes two sets of RUNS fresh-process
runs of run_seconds each, with tracing off.  Set k uses the workload seeds
SEEDS[k], SEEDS[k] + 1, ..., so the two sets share no seed.  For each
end-to-end metric it prints, per set, the median and the spread (distance
between the first and third quartile of `statistics.quantiles(values, n=4)`,
as a share of the median), and the drift |median2 - median1| / median1.
A metric passes when both spreads and the drift stay within its
BENCHMARK.json bound; it is marked steady when they stay below a third of
the bound.  Exits 1 if any run is incorrect or any metric fails.  The table
is Markdown; the last stdout line holds every measured value as JSON.
"""
from __future__ import annotations

import json
import statistics
import sys

from harness import invoke, load_spec

#: Runs per workload in each set.
RUNS = 10
#: First workload seed of each set.
SEEDS = (1, 101)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: [{m["name"]: [] for m in spec["end_to_end"]} for _ in SEEDS] for w in workloads}
    all_correct = True
    for k, first in enumerate(SEEDS):
        for i in range(RUNS):
            for w in workloads:
                result, detail = invoke(w, first + i, spec["run_seconds"], trace=0)
                all_correct &= result["correct"]
                for name, metric in result["metrics"].items():
                    values[w][k][name].append(metric["value"])
                figures = {**result["metrics"], **detail["accuracy"]}
                print(f"set {k + 1} seed {first + i:4d} {w:20s} correct={result['correct']} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in figures.items()),
                      flush=True)

    ok = all_correct
    print("\n| workload | metric | median 1 | spread 1 | median 2 | spread 2 | drift | bound | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [values[w][k][name] for k in range(len(SEEDS))]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = abs(medians[1] - medians[0]) / medians[0]
            checked = [drift, *spreads]
            passed = all(x <= bound for x in checked)
            steady = all(x < bound / 3 for x in checked)
            ok &= passed
            verdict = "steady" if steady else ("pass" if passed else "FAIL")
            print(f"| `{w}` | `{name}` | {medians[0]:.4g} | {spreads[0]:.1%} | {medians[1]:.4g} "
                  f"| {spreads[1]:.1%} | {drift:.1%} | {bound:.0%} | {verdict} |")
    print(json.dumps({"runs": RUNS, "seeds": SEEDS, "values": values}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
