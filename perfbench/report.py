#!/usr/bin/env python3
"""Print every benchmark metric, by name and unit, for each workload.

    python3 perfbench/report.py

For each workload in BENCHMARK.json, with workload seed SEED and the
file's run_seconds, it makes one timed run (end-to-end metrics, tracing off)
and one traced run (per-layer metrics), each in a fresh process, and prints
them with the accuracy figures, failed_ratio, the tail percentile, the check
that the layer self times add up to the traced task time, and the
environment.  Exits 1 if any run reports an incorrect output.
"""
from __future__ import annotations

import sys

from harness import invoke, load_spec

#: Workload seed of every run.
SEED = 1


def row(name, value, unit, note=""):
    print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")


def main() -> int:
    spec = load_spec()
    computed = set()
    all_correct = True
    environment = None

    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}")
        result, detail = invoke(name, SEED, spec["run_seconds"], trace=0)
        environment = detail["environment"]
        all_correct &= result["correct"]
        print(f"end-to-end (tracing off): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            note = ""
            if metric == "task_s_tail":
                note = (f"p{detail['task_s_tail_percentile']:.1f}, {detail['tasks_beyond_tail']} "
                        f"tasks beyond, {detail['tasks_timed']} tasks")
            row(metric, entry["value"], entry["unit"], note)
        row("failed_ratio", detail["failed_ratio"], "ratio")
        for metric, entry in detail["accuracy"].items():
            row(metric, entry["value"], entry["unit"])
        for failure in detail["failures"]:
            print(f"  FAILED: {failure}")

        result, detail = invoke(name, SEED, spec["run_seconds"], trace=1)
        all_correct &= result["correct"]
        computed.update(detail["computed"])
        print(f"per-layer (traced, {detail['traced_tasks']} tasks): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            row(metric, entry["value"], entry["unit"], "computed" if metric in computed else "")
        print(f"  layer self times + cli.unattributed_s = {detail['layer_sum_s']:.6f} s; "
              f"trace.task_s = {result['metrics']['trace.task_s']['value']:.6f} s")
        for failure in detail["failures"]:
            print(f"  FAILED: {failure}")
        print()

    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
