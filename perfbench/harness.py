"""Helpers shared by report.py and steadiness.py: read BENCHMARK.json and
run one workload in a fresh process through run.py."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, seed: int, seconds: float, trace: int):
    """Run run.py once; returns (result, detail) from its last two stdout lines."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]
