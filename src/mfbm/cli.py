"""Command-line front end.

Subcommands cover the kernel solves, path simulation, the pathwise
decomposition, variogram construction, scaling-exponent fits and the
bound audits.  Every run writes its outputs plus a JSON manifest whose
parameters are the parsed options (output directory and holder's fit
window resolved).  `mfbm --manifest <file>` replays a recorded run: it
spells the recorded parameters as a command line, then parses and
validates that line as it would a fresh one, so a missing, unknown or
mistyped parameter exits 1.  So do a manifest file that is not a JSON
object and a subcommand given after `--manifest`.

Each input rule lives in one layer: the parser checks every option on its
own, the library checks ranges (H, time points against the horizon, the
audit's sweep), and a runner checks only the Monte Carlo grid cap, which
spans two options.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import NumericalError
from .quadrature import Alpha, Grid
from .kernel_solve import SweepSolver
from .gaussian_paths import node_moments, simulate
from .gaussian_paths import simulate_ensemble  # unused here; perfbench/spans.py patches this name
from .decomposition import decompose
from .regularity import build_variogram, fit_holder, audit_lemma_bounds
from .regularity import default_fit_window  # unused here; perfbench/spans.py patches this name
from . import outputs as out

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract wants 1.

    No parser (subparsers are made of this class too) accepts an option
    prefix: a mistyped option must fail, not run as a longer one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _fail(message: str) -> "SystemExit":
    return SystemExit(f"error: {message}")


def _integer(rule: str, holds):
    """A `type=` converter: an integer for which `holds` is true, else an
    ArgumentTypeError that states `rule`."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return convert


_grid_size = _integer("a power of two in [64, 4096]", lambda n: 64 <= n <= 4096 and n & (n - 1) == 0)
_nonnegative = _integer(">= 0", lambda value: value >= 0)
_positive = _integer(">= 1", lambda value: value >= 1)
_ensemble_size = _integer(">= 2", lambda value: value >= 2)


def _grid_sizes(text: str) -> list:
    """`--n-sweep`: a comma list of `--n` sizes."""
    return [_grid_size(part) for part in text.split(",")]


#: Largest Monte Carlo sampling grid, n * mc_refine: that of --n 4096 at the
#: default --mc-refine 2.  Each block of paths holds 3 * 64 * n * mc_refine
#: normals.
_MAX_MC_CELLS = 8192


def _out_path(params, name: str) -> Path:
    return Path(params["out_dir"]) / f"{params['prefix']}{name}"


def _finish(command: str, params: dict, files) -> int:
    manifest = out.write_manifest(
        _out_path(params, "_manifest.json"), command, params, files, __version__
    )
    for path in [*files, manifest]:
        print(f"wrote {path}")
    return 0


def _add_common(parser, prefix_default: str, with_seed=True, with_n=True):
    parser.add_argument("--T", type=float, default=1.0, help="time horizon (default 1.0)")
    if with_n:
        parser.add_argument("--n", type=_grid_size, default=1024, help="grid cells, power of two in [64, 4096]")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default ${out.OUT_DIR_ENV} or '.')")
    parser.add_argument("--prefix", default=prefix_default, help="output file name prefix")
    parser.add_argument("--threads", type=_positive, default=None,
                        help="worker cap for parallel axes (results are unaffected)")
    if with_seed:
        parser.add_argument("--seed", type=_nonnegative, default=0, help="base random seed")


# ---------------------------------------------------------------- solve-kernel

def run_solve_kernel(params: dict) -> int:
    grid = Grid(params["T"], params["n"])
    alpha = Alpha.from_h(params["H"])
    k = grid.nearest_node_index(params["upper"], "upper")
    solver = SweepSolver(grid, alpha)
    field = solver.L_field(k) if params["kind"] == "L" else solver.g_field(k)
    csv = out.write_csv(
        _out_path(params, ".csv"), ["r", "value"],
        zip(field.midpoints, field.values),
    )
    return _finish("solve-kernel", params, [csv])


# ------------------------------------------------------------------- simulate

def run_simulate(params: dict) -> int:
    grid = Grid(params["T"], params["n"])
    if params["paths"] == 1:
        path = simulate(grid, params["H"], params["seed"])
        csv = out.write_csv(
            _out_path(params, ".csv"), ["t", "fbm", "bm", "mixed"],
            zip(grid.nodes, path.fbm, path.bm, path.mixed),
        )
    else:
        mean, var = node_moments(
            grid, params["H"], params["seed"], params["paths"], threads=params["threads"]
        )
        csv = out.write_csv(
            _out_path(params, ".csv"),
            ["t", "mean_fbm", "var_fbm", "mean_bm", "var_bm", "mean_mixed", "var_mixed"],
            zip(grid.nodes, mean[0], var[0], mean[1], var[1], mean[2], var[2]),
        )
    return _finish("simulate", params, [csv])


# ------------------------------------------------------------------ decompose

def run_decompose(params: dict) -> int:
    grid = Grid(params["T"], params["n"])
    path = simulate(grid, params["H"], params["seed"])
    drift, innovation = decompose(path, decimation=params["decimation"])
    subset = drift.s_subset
    csv = out.write_csv(
        _out_path(params, ".csv"),
        ["t", "X", "phi", "M", "bbar", "residual"],
        zip(
            grid.nodes[subset], path.mixed[subset], drift.phi,
            innovation.m_values, innovation.bbar, innovation.residual,
        ),
    )
    max_res = float(np.max(np.abs(innovation.residual)))
    print(f"max residual {out.format_float(max_res)} "
          f"({out.format_float(max_res / max(1e-300, float(np.max(np.abs(path.mixed)))))} of max |X|)")
    return _finish("decompose", params, [csv])


# ------------------------------------------------------- variogram and holder

def _variogram_from(params: dict):
    if params["method"] == "monte_carlo" and params["n"] * params["mc_refine"] > _MAX_MC_CELLS:
        raise _fail(f"--n * --mc-refine must be <= {_MAX_MC_CELLS}, "
                    f"got {params['n']} * {params['mc_refine']}")
    return build_variogram(
        params["H"], params["t0"], params["lags"], params["n"],
        method=params["method"], horizon=params["T"], seed=params["seed"],
        n_paths=params["paths"], mc_refine=params["mc_refine"],
        threads=params["threads"],
    )


def _write_variogram_csv(params: dict, variogram) -> Path:
    stderr = variogram.stderr if variogram.stderr is not None else np.zeros_like(variogram.values)
    return out.write_csv(
        _out_path(params, ".csv"),
        ["lag", "value", "log_lag", "log_value", "method", "stderr"],
        [
            (lag, val, np.log(lag), np.log(val), variogram.method, err)
            for lag, val, err in zip(variogram.lags, variogram.values, stderr)
        ],
    )


def run_variogram(params: dict) -> int:
    variogram = _variogram_from(params)
    csv = _write_variogram_csv(params, variogram)
    return _finish("variogram", params, [csv])


def run_holder(params: dict) -> int:
    variogram = _variogram_from(params)
    # fit before writing, so that a window the fit refuses leaves no file
    fit = fit_holder(variogram, window=(params["window_min"], params["window_max"]))
    params = {**params, "window_min": fit.window[0], "window_max": fit.window[1]}
    csv = _write_variogram_csv(params, variogram)
    fit_json = out.write_json(_out_path(params, "_fit.json"),
                              {**dataclasses.asdict(fit), "method": variogram.method})
    files = [csv, fit_json]
    if params["svg"]:
        files.append(out.loglog_svg(
            _out_path(params, ".svg"), variogram.lags, variogram.values,
            fit.slope, fit.intercept, fit.target,
        ))
    print(f"slope {fit.slope:.6f} target {fit.target:.6f} r_squared {fit.r_squared:.6f}")
    return _finish("holder", params, files)


# --------------------------------------------------------------- audit-bounds

def run_audit_bounds(params: dict) -> int:
    reports = audit_lemma_bounds(
        Alpha.from_h(params["H"]), params["s"], params["t"], params["n_sweep"],
        horizon=params["T"],
    )
    payload = {
        part: {key: value for key, value in dataclasses.asdict(rep).items() if value is not None}
        for part, rep in reports.items()
    }
    report = out.write_json(_out_path(params, "_bounds.json"), payload)
    return _finish("audit-bounds", params, [report])


# -------------------------------------------------------------------- wiring

_RUNNERS = {
    "solve-kernel": run_solve_kernel,
    "simulate": run_simulate,
    "decompose": run_decompose,
    "variogram": run_variogram,
    "holder": run_holder,
    "audit-bounds": run_audit_bounds,
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on the first call only (not at import)."""
    parser = _Parser(prog="mfbm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mfbm {__version__}")
    parser.add_argument("--manifest", default=None,
                        help="replay a recorded run from its manifest file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve-kernel", help="solve one kernel equation and dump the midpoint values")
    p.add_argument("--kind", choices=["L", "g"], required=True)
    p.add_argument("--H", type=float, required=True)
    upper = p.add_mutually_exclusive_group(required=True)
    upper.add_argument("--s", dest="upper", type=float, metavar="S", help="upper limit (drift kernel)")
    upper.add_argument("--t", dest="upper", type=float, metavar="T", help="upper limit (martingale kernel)")
    _add_common(p, "solve_kernel", with_seed=False)

    p = sub.add_parser("simulate", help="simulate component paths or an ensemble summary")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--paths", type=_positive, default=1)
    _add_common(p, "simulate")

    p = sub.add_parser("decompose", help="drift / martingale / innovation split of one path")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--decimation", type=int, default=8,
                   help="solve the kernel families every this many nodes (default 8)")
    _add_common(p, "decompose")

    for name, helptext in (
        ("variogram", "second moments of drift increments over geometric lags"),
        ("holder", "variogram plus log-log slope fit against 4H-3"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--H", type=float, required=True)
        p.add_argument("--t0", type=float, default=0.5, help="base point (default 0.5)")
        p.add_argument("--lags", type=int, default=6, help="number of dyadic lags (default 6)")
        # monte_carlo, as manifests record it, parses too
        p.add_argument("--method", type=lambda text: text.replace("-", "_"),
                       choices=["gram", "reduced", "monte_carlo"],
                       metavar="{gram,reduced,monte-carlo}", default="reduced")
        # checked whatever the method, since the manifest records them either way
        p.add_argument("--paths", type=_ensemble_size, default=5000, help="ensemble size for monte-carlo")
        p.add_argument("--mc-refine", type=_positive, default=2,
                       help="grid refinement for monte-carlo sampling (default 2)")
        if name == "holder":
            p.add_argument("--window-min", type=float, default=None,
                           help="smallest lag in the fit (default 16 h)")
            p.add_argument("--window-max", type=float, default=None,
                           help="largest lag in the fit (default t0 / 4)")
            p.add_argument("--svg", action="store_true", help="also write a log-log plot")
        _add_common(p, name)

    p = sub.add_parser("audit-bounds", help="refinement stability of the solution-bound constants")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.625)
    p.add_argument("--n-sweep", type=_grid_sizes, default="128,256,512,1024",
                   help="grid sizes, each a power of two in [64, 4096]")
    _add_common(p, "audit_bounds", with_seed=False, with_n=False)

    return parser


def _params(args) -> dict:
    """The run parameters: the subcommand's parsed options (solve-kernel's
    `--s` / `--t` as `upper`, `--method` as `monte_carlo`, `--n-sweep` as a
    list, all done by the parser), with the output directory resolved."""
    params = {key: value for key, value in vars(args).items() if key not in ("command", "manifest")}
    params["out_dir"] = str(args.out_dir if args.out_dir is not None else out.default_out_dir())
    return params


def _replay_argv(manifest_path: str) -> list:
    """The command line that a manifest's parameters spell, so that a replay
    is parsed and validated as that command line would be: `upper` as
    `--s`, a list of two or more items comma-joined, a true flag bare, null
    and false left out.  The one check made here is the record's shape: a
    JSON object with a known subcommand name and an object of parameters."""
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    record = manifest if isinstance(manifest, dict) else {}
    command, params = record.get("command"), record.get("parameters")
    if not (isinstance(command, str) and command in _RUNNERS and isinstance(params, dict)):
        raise _fail(f"manifest {manifest_path} needs a subcommand name and an object of parameters")
    argv = [command]
    for key, value in params.items():
        if value is None or value is False:
            continue
        option = "--s" if key == "upper" else "--" + key.replace("_", "-")
        if value is True:
            argv.append(option)
            continue
        if isinstance(value, list) and len(value) > 1:
            # comma-joined, as --n-sweep takes it; a one-element list keeps its
            # brackets, so that no option takes it as a scalar (no sweep has one size)
            value = ",".join(map(str, value))
        # the = form, so that a value starting with '-' parses as a value
        argv.append(f"{option}={value}")
    return argv


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.manifest is not None:
            if args.command is not None:
                raise _fail("--manifest replays the recorded run; pass no subcommand with it")
            args = parser.parse_args(_replay_argv(args.manifest))
        if args.command is None:
            parser.print_help()
            return 1
        return _RUNNERS[args.command](_params(args))
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code is None else int(exc.code)
    except (NumericalError, OverflowError) as exc:
        # OverflowError: a backstop for a float power out of range that no check names
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # OSError: an unreadable manifest, an --out-dir that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
