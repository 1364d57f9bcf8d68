#!/usr/bin/env python3
"""Run one benchmark workload in this (fresh) process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from src/.  Every
task is one in-process call of the public CLI entry point `mfbm.cli.main`
with `--threads 2`, one after another (a closed loop with one client).

--trace 0 times the tasks with tracing off for S seconds of task time and
reports the end-to-end metrics listed in BENCHMARK.json.  --trace 1 runs
whole units of tasks three ways (untraced, traced, untraced at --threads 1)
for about S seconds and reports the per-layer metrics.

The second-to-last stdout line is a JSON record with the details (the
environment, accuracy figures, failures, the tail percentile); the last line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from spans import KINDS, ROOT_KIND, Tracer, instrument
from workloads import PREFIX, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: Worker cap passed to every task: nproc of the 2-core machine the workloads were sized on.
THREADS = 2
#: Fresh-interpreter imports per run; setup_s is their median.
SETUP_REPEATS = 5
#: Tasks that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Per-layer counts derived from array sizes and call arguments, not timed.
COMPUTED = (
    "quadrature.weight_matrix_bytes",
    "kernel_solve.sweep_columns",
    "kernel_solve.useful_flop_ratio",
    "gaussian_paths.rng_streams",
    "gaussian_paths.ensemble_bytes",
    "outputs.bytes_written",
)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def command_output(argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = None
    llc = command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "cpu": platform.processor() or platform.machine(),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
    }


def measure_setup() -> float:
    """Wall time of a fresh interpreter that only does `import mfbm.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import mfbm.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, timeout=60)
    return perf_counter() - start


class Runner:
    """Calls the CLI in process, checks outputs and counts attempts and failures."""

    def __init__(self, main, out_dir: Path):
        self.main = main
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []

    def cli(self, argv, threads=THREADS, tracer=None) -> float:
        """One CLI call; returns its wall time.  Raises CheckFailed on a nonzero exit."""
        full = [*argv, "--threads", str(threads), "--out-dir", str(self.out_dir), "--prefix", PREFIX]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            if tracer is None:
                start = perf_counter()
                code = self.main(full)
                elapsed = perf_counter() - start
            else:
                with instrument(tracer), tracer.span(ROOT_KIND) as root:
                    code = self.main(full)
                elapsed = root.end - root.start
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.getvalue().strip()[-400:]}")
        return elapsed

    def execute(self, task, threads=THREADS, tracer=None):
        """Run and check one task.  Returns (wall time, ok).

        The output directory is emptied first, so a task that writes no file
        is never checked against an earlier task's output."""
        for path in self.out_dir.iterdir():
            path.unlink()
        self.attempted += 1
        start = perf_counter()
        try:
            elapsed = self.cli(task.argv, threads, tracer)
            task.check(self.out_dir)
            return elapsed, True
        except Exception as exc:  # any task error is a counted failure; the run goes on
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{' '.join(task.argv)}: {type(exc).__name__}: {exc}")
            return perf_counter() - start, False


def tail(times):
    """(value, percentile, tasks beyond) of the highest percentile with
    TAIL_BEYOND tasks beyond it, or a quarter of the tasks when there are
    fewer than 4 * TAIL_BEYOND.  A short run thus reports about p75 rather
    than a percentile at or below the median, or its single slowest task."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(runner, workload, seed, seconds):
    # The set-up samples are spread over the run (one before it, the rest each
    # time another 1/(SETUP_REPEATS-1) of the task time has passed), so that
    # setup_s sees the same machine conditions as the task times.
    setup = [measure_setup()]
    stream = (task for unit in workload.units(seed) for task in unit)
    runner.execute(next(stream))  # warm-up, untimed: first-call costs settle
    times, busy, last = [], 0.0, 0.0
    while busy == 0.0 or busy + last <= seconds:  # start no task predicted to overrun
        last, ok = runner.execute(next(stream))
        busy += last
        if ok:
            times.append(last)
        if len(setup) < SETUP_REPEATS and busy >= seconds * len(setup) / (SETUP_REPEATS - 1):
            setup.append(measure_setup())
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    if not times:
        raise SystemExit("no task succeeded; nothing to report")
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "task_s_p50": statistics.median(times),
        "task_s_tail": tail_s,
        "tasks_per_s": len(times) / busy,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "task_s": times,
        "tasks_timed": len(times),
        "task_s_tail_percentile": tail_pct,
        "tasks_beyond_tail": beyond,
        "setup_samples_s": setup,
    }
    return metrics, detail


def per_layer(runner, workload, seed, seconds):
    units = workload.units(seed)
    first = next(units)
    runner.execute(first[0])  # warm-up, untimed
    records, untraced, single = [], [], []
    modes = ("untraced", "traced", "threads1")
    start = perf_counter()
    unit = first
    while True:
        round_start = perf_counter()
        for task in unit:
            # Rotate the order of the three runs so that none always goes first.
            shift = len(records) % len(modes)
            tracer = Tracer()
            runs = {}
            for mode in modes[shift:] + modes[:shift]:
                runs[mode] = runner.execute(task, threads=1 if mode == "threads1" else THREADS,
                                            tracer=tracer if mode == "traced" else None)
                if mode == "traced" and runs[mode][1]:
                    written = sum(Path(p).stat().st_size for p in tracer.written)
            if all(ok for _, ok in runs.values()):
                untraced.append(runs["untraced"][0])
                single.append(runs["threads1"][0])
                records.append({
                    "task_s": runs["traced"][0],
                    "self": tracer.self_times(),
                    "counts": tracer.counts,
                    "workers": tracer.workers,
                    "residual": tracer.max_rel_residual(),
                    "bytes_written": written,
                })
        now = perf_counter()
        if now - start + (now - round_start) > seconds:  # start no round predicted to overrun
            break
        unit = next(units)
    if not records:
        raise SystemExit("no task succeeded in all three runs; nothing to report")
    n = len(records)

    def total(key):
        return sum(r["counts"][key] for r in records)

    self_total = {k: sum(r["self"].get(k, 0.0) for r in records) for k in KINDS}
    metrics = {f"{kind}_s": self_total[kind] / n for kind in KINDS}
    columns = total("kernel_solve.sweep_columns")
    padded = total("padded_flops")
    paths = total("ensemble_paths")
    traced_total = sum(r["task_s"] for r in records)
    metrics.update({
        "quadrature.weight_matrix_bytes": total("quadrature.weight_matrix_bytes") / n,
        "kernel_solve.sweep_columns": columns / n,
        "kernel_solve.sweep_s_per_column": self_total["kernel_solve.sweep"] / columns if columns else 0.0,
        "kernel_solve.useful_flop_ratio": total("useful_flops") / padded if padded else 0.0,
        "kernel_solve.dense_solves": total("kernel_solve.dense_solves") / n,
        "kernel_solve.max_rel_residual": max(r["residual"] for r in records),
        "gaussian_paths.paths_per_s": paths / self_total["gaussian_paths.ensemble"] if paths else 0.0,
        "gaussian_paths.rng_streams": total("gaussian_paths.rng_streams") / n,
        "gaussian_paths.ensemble_bytes": total("gaussian_paths.ensemble_bytes") / n,
        "parallelism.workers": sum(r["workers"] for r in records) / n,
        "parallelism.speedup_1to2": statistics.median(single) / statistics.median(untraced),
        "outputs.bytes_written": sum(r["bytes_written"] for r in records) / n,
        "trace.task_s": traced_total / n,
        "trace.overhead_ratio": traced_total / sum(untraced) - 1.0,
    })
    detail = {
        "traced_tasks": n,
        "computed": list(COMPUTED),
        "untraced_task_s": untraced,
        "threads1_task_s": single,
        "layer_sum_s": sum(metrics[f"{kind}_s"] for kind in KINDS),
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfbm" / "cli.py").is_file():
        print(f"error: no mfbm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    from mfbm.cli import main as cli_main

    workload = WORKLOADS[args.workload]()
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    try:
        runner = Runner(cli_main, out_dir)
        workload.prepare(runner)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise SystemExit(f"metric set {sorted(metrics)} does not match BENCHMARK.json")
    failed = len(runner.failures)
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": THREADS,
        "environment": environment(),
        "failed_ratio": failed / runner.attempted,
        "accuracy": {name: {"value": value, "unit": unit}
                     for name, (value, unit) in workload.accuracy().items()},
        "failures": runner.failures[:5],
    })
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
