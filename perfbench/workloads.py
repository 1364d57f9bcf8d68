"""The four benchmark workloads: the CLI tasks each one runs and the checks
that read their outputs back.

A workload turns the workload seed into an endless stream of *units*.  A
unit is the smallest group of tasks whose outputs can be checked on their
own (for `variogram_sparse`, a `holder` task and the `variogram --method
gram` task at the same H).  The program only ever sees CLI arguments; H and
the path seed of every task come from the workload seed.

Tolerances are the ones tests/test_acceptance.py pins for each quantity;
the MC cut is adjusted for the number of lags a run checks (see Z_TOL).
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List

#: H values cycled through by every workload with a varying H.
H_CYCLE = (0.8, 0.85, 0.9)

#: Tolerances from tests/test_acceptance.py, by criterion.
RECON_TOL = 0.05                 # criterion 4: residual / max |X|
GAP_TOL = 0.02                   # criterion 2: |gram - reduced| / reduced
SLOPE_TOL = 0.1                  # criterion 3: |slope - (4H - 3)|
R2_MIN = 0.98                    # criterion 3: fit quality
#: Criterion 6 allows 3 standard errors on one MC quantity: a 0.27 % chance
#: of failing correct code.  One 24-s mc_ensemble run checks about 40 lags,
#: whose z-scores are close to independent |N(0, 1)|.  Each lag gets the cut
#: at which the chance that any of 40 exceeds it is that same 0.27 %
#: (Sidak: 1 - (1 - 0.0027)**(1/40) = 6.8e-5 per lag, z = 3.98).
Z_TOL = 4.0
STABILITY_RANGE = (0.8, 1.25)    # criterion 8: bound-constant stability ratio

#: Every task's output files are written under this prefix.
PREFIX = "task"


class CheckFailed(Exception):
    """A task's outputs are missing, unparsable, non-finite or inaccurate."""


@dataclass
class Task:
    """One CLI call (without --threads/--out-dir/--prefix) and its output check.

    `check(out_dir)` reads the files the call wrote, records the accuracy
    figures on its workload and raises CheckFailed when they are wrong.
    """

    argv: List[str]
    check: Callable[[Path], None]


def read_columns(path: Path, header: List[str]) -> dict:
    """Numeric columns of a CLI CSV file; every cell must be a finite float."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} is not {header}")
    columns = {name: [] for name in header}
    for row in rows[1:]:
        if len(row) != len(header):
            raise CheckFailed(f"{path.name}: ragged row {row}")
        for name, cell in zip(header, row):
            if name == "method":
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise CheckFailed(f"{path.name}: {name}={cell!r} is not a number") from exc
            if not math.isfinite(value):
                raise CheckFailed(f"{path.name}: {name}={cell} is not finite")
            columns[name].append(value)
    if len(rows) < 2:
        raise CheckFailed(f"{path.name}: no data rows")
    return columns


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot parse {path.name}: {exc}") from exc


def finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what}={value!r} is not a finite number")
    return float(value)


VARIOGRAM_HEADER = ["lag", "value", "log_lag", "log_value", "method", "stderr"]


class Workload:
    """Base class: a name, its task stream and its accuracy figures.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name = ""

    def prepare(self, runner) -> None:
        """Untimed set-up (reference values); `runner.cli(argv)` calls the CLI."""

    def units(self, seed: int) -> Iterator[List[Task]]:
        rng = random.Random(seed)
        offset = rng.randrange(len(H_CYCLE))
        index = 0
        while True:
            h = H_CYCLE[(offset + index) % len(H_CYCLE)]
            yield self.unit(h, rng.randrange(2 ** 31))
            index += 1

    def unit(self, h: float, path_seed: int) -> List[Task]:
        raise NotImplementedError

    def accuracy(self) -> dict:
        """End-to-end accuracy metrics: name -> (value, unit)."""
        raise NotImplementedError


class DecomposeAllPrefix(Workload):
    name = "decompose_allprefix"

    def __init__(self):
        self.residuals = []

    def unit(self, h, path_seed):
        argv = ["decompose", "--n", "2048", "--decimation", "1",
                "--H", repr(h), "--seed", str(path_seed)]

        def check(out_dir):
            cols = read_columns(out_dir / f"{PREFIX}.csv",
                                ["t", "X", "phi", "M", "bbar", "residual"])
            if len(cols["t"]) != 2049:
                raise CheckFailed(f"decompose wrote {len(cols['t'])} rows, expected 2049")
            scale = max(abs(x) for x in cols["X"])
            ratio = max(abs(r) for r in cols["residual"]) / scale
            self.residuals.append(ratio)
            if ratio > RECON_TOL:
                raise CheckFailed(f"reconstruction residual {ratio:.3%} of max |X| > {RECON_TOL:.0%}")

        return [Task(argv, check)]

    def accuracy(self):
        return {"recon_residual": (max(self.residuals, default=math.nan), "ratio")}


class VariogramSparse(Workload):
    name = "variogram_sparse"

    common = ["--n", "4096", "--t0", "0.5", "--lags", "6"]

    def __init__(self):
        self.gaps = []
        self.slope_errors = []

    def unit(self, h, path_seed):
        reduced = {}

        def check_holder(out_dir):
            cols = read_columns(out_dir / f"{PREFIX}.csv", VARIOGRAM_HEADER)
            fit = read_json(out_dir / f"{PREFIX}_fit.json")
            slope = finite(fit.get("slope"), "slope")
            r_squared = finite(fit.get("r_squared"), "r_squared")
            target = 4.0 * h - 3.0
            if abs(finite(fit.get("target"), "target") - target) > 1e-12:
                raise CheckFailed(f"fit target {fit['target']} is not 4H-3 = {target}")
            error = abs(slope - target)
            self.slope_errors.append(error)
            reduced["values"] = cols["value"]
            if error > SLOPE_TOL or r_squared < R2_MIN:
                raise CheckFailed(f"slope {slope:.4f} vs {target:.2f} (tol {SLOPE_TOL}), "
                                  f"R2 {r_squared:.4f} (min {R2_MIN})")

        def check_gram(out_dir):
            gram = read_columns(out_dir / f"{PREFIX}.csv", VARIOGRAM_HEADER)["value"]
            if "values" not in reduced:
                raise CheckFailed("no reduced variogram to compare against")
            if len(gram) != len(reduced["values"]):
                raise CheckFailed("gram and reduced variograms have different lags")
            gap = max(abs(g - r) / abs(r) for g, r in zip(gram, reduced["values"]))
            self.gaps.append(gap)
            if gap > GAP_TOL:
                raise CheckFailed(f"gram vs reduced gap {gap:.3%} > {GAP_TOL:.0%}")

        return [
            Task(["holder", "--method", "reduced", *self.common, "--H", repr(h)], check_holder),
            Task(["variogram", "--method", "gram", *self.common, "--H", repr(h)], check_gram),
        ]

    def accuracy(self):
        return {
            "gram_reduced_gap": (max(self.gaps, default=math.nan), "ratio"),
            "slope_error": (max(self.slope_errors, default=math.nan), "abs"),
        }


class McEnsemble(Workload):
    name = "mc_ensemble"

    h = 0.85
    paths = 5000
    common = ["--n", "1024", "--lags", "4"]

    def __init__(self):
        self.reference = None
        self.z_scores = []

    def prepare(self, runner):
        runner.cli(["variogram", "--method", "reduced", *self.common, "--H", repr(self.h)])
        self.reference = read_columns(runner.out_dir / f"{PREFIX}.csv", VARIOGRAM_HEADER)["value"]

    def units(self, seed):
        rng = random.Random(seed)
        while True:
            yield self.unit(self.h, rng.randrange(2 ** 31))

    def unit(self, h, path_seed):
        argv = ["variogram", "--method", "monte-carlo", *self.common,
                "--paths", str(self.paths), "--mc-refine", "2",
                "--H", repr(h), "--seed", str(path_seed)]

        def check(out_dir):
            values = read_columns(out_dir / f"{PREFIX}.csv", VARIOGRAM_HEADER)["value"]
            if len(values) != len(self.reference):
                raise CheckFailed("MC and reference variograms have different lags")
            se_factor = math.sqrt(2.0 / (self.paths - 1))
            z = [abs(v - r) / (r * se_factor) for v, r in zip(values, self.reference)]
            self.z_scores.extend(z)
            if max(z) > Z_TOL:
                raise CheckFailed(f"MC vs reduced z {max(z):.2f} > {Z_TOL} at some lag")

        return [Task(argv, check)]

    def accuracy(self):
        z = self.z_scores
        return {
            "mc_z_rms": (math.sqrt(sum(x * x for x in z) / len(z)) if z else math.nan, "z"),
            "mc_z_max": (max(z, default=math.nan), "z"),
        }


class AuditRefine(Workload):
    name = "audit_refine"

    def __init__(self):
        self.ratios = []

    def unit(self, h, path_seed):
        argv = ["audit-bounds", "--n-sweep", "256,512,1024,2048",
                "--s", "0.5", "--t", "0.625", "--H", repr(h)]

        def check(out_dir):
            report = read_json(out_dir / f"{PREFIX}_bounds.json")
            parts = ("i", "ii", "iii", "composite")
            if sorted(report) != sorted(parts):
                raise CheckFailed(f"bound report parts {sorted(report)}")
            ratios = [finite(report[p].get("stability_ratio"), f"{p} ratio") for p in parts]
            self.ratios.append(max(ratios))
            lo, hi = STABILITY_RANGE
            if not all(lo <= r <= hi for r in ratios):
                raise CheckFailed(f"stability ratios {ratios} outside [{lo}, {hi}]")

        return [Task(argv, check)]

    def accuracy(self):
        return {"audit_stability": (max(self.ratios, default=math.nan), "ratio")}


WORKLOADS = {w.name: w for w in (DecomposeAllPrefix, VariogramSparse, McEnsemble, AuditRefine)}
