"""The benchmark's command lines (perfbench/workloads.py) still parse, run
and pass the benchmark's own accuracy checks.

A parser change that refuses one of them must fail here, in the test suite,
rather than only as a failed task in a benchmark run.  Each workload runs
its set-up and its first unit of tasks at seed 1, with the options the
benchmark adds (`perfbench/run.py`'s `Runner.cli`).
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from mfbm.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load()


class _Runner:
    """The part of the benchmark's runner that workloads call."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def cli(self, argv):
        # every task starts from an empty directory, as in the benchmark
        for path in self.out_dir.iterdir():
            path.unlink()
        full = [*argv, "--threads", "2", "--out-dir", str(self.out_dir), "--prefix", workloads.PREFIX]
        assert main(full) == 0, full


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_unit_runs_and_passes_its_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]()
    runner = _Runner(tmp_path)
    workload.prepare(runner)
    for task in next(workload.units(1)):
        runner.cli(task.argv)
        task.check(tmp_path)
