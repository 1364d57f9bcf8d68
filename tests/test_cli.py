import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfbm.cli import main
from mfbm.outputs import OUT_DIR_ENV, format_float, write_csv, write_json


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestSolveKernel:
    def test_degenerate_drift_kernel(self, tmp_path):
        code = main(["solve-kernel", "--kind", "L", "--H", "1.0", "--T", "1", "--s", "1",
                     "--n", "128", "--out-dir", str(tmp_path), "--prefix", "lk"])
        assert code == 0
        rows = read_csv(tmp_path / "lk.csv")
        assert len(rows) == 128
        assert set(rows[0]) == {"r", "value"}
        values = np.array([float(r["value"]) for r in rows])
        assert np.max(np.abs(values + 0.5)) <= 1e-10
        manifest = json.loads((tmp_path / "lk_manifest.json").read_text())
        assert manifest["command"] == "solve-kernel"
        assert manifest["parameters"]["H"] == 1.0
        assert "created_utc" in manifest and "tool_version" in manifest
        assert manifest["outputs"] == [str(tmp_path / "lk.csv")]

    def test_degenerate_martingale_kernel(self, tmp_path):
        code = main(["solve-kernel", "--kind", "g", "--H", "1.0", "--t", "1",
                     "--n", "128", "--out-dir", str(tmp_path), "--prefix", "gk"])
        assert code == 0
        values = np.array([float(r["value"]) for r in read_csv(tmp_path / "gk.csv")])
        assert np.max(np.abs(values - 0.5)) <= 1e-10

    def test_negative_profile_matches_fine_grid(self, tmp_path):
        for n, prefix in ((256, "lp"), (2048, "lp_fine")):
            code = main(["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "1",
                         "--n", str(n), "--out-dir", str(tmp_path), "--prefix", prefix])
            assert code == 0
        coarse = np.array([float(r["value"]) for r in read_csv(tmp_path / "lp.csv")])
        fine = np.array([float(r["value"]) for r in read_csv(tmp_path / "lp_fine.csv")])
        assert np.all(coarse < 0.0)
        # coarse profile tracks the fine-grid oracle away from the edge
        interior = np.abs(coarse[:224] - fine[4::8][:224])
        assert np.max(interior / np.abs(fine[4::8][:224])) <= 0.02

    def test_validation_exit_codes(self, tmp_path):
        base = ["--out-dir", str(tmp_path)]
        assert main(["solve-kernel", "--kind", "L", "--H", "0.6", "--s", "1", "--n", "128", *base]) == 1
        assert main(["solve-kernel", "--kind", "L", "--H", "0.9", "--s", "1", "--n", "100", *base]) == 1
        assert main(["solve-kernel", "--kind", "L", "--H", "0.9", "--s", "2.0", "--n", "128", *base]) == 1
        assert main(["solve-kernel", "--kind", "L", "--H", "0.9", "--n", "128", *base]) == 1
        assert main(["solve-kernel", "--kind", "L", "--H", "0.9", "--s", "0.5", "--t", "0.5",
                     "--n", "128", *base]) == 1
        # below half a cell, the upper limit rounds to node 0
        assert main(["solve-kernel", "--kind", "L", "--H", "0.9", "--s", "0.001", "--n", "128", *base]) == 1

    def test_unknown_command_exits_one(self):
        assert main(["nonsense"]) == 1

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().out.startswith("usage: mfbm")

    def test_huge_horizon_drift_kernel(self, tmp_path):
        # the diagonal of the system is 5.7e208 and the kernel about -1e-299
        code = main(["solve-kernel", "--kind", "L", "--H", "0.85", "--T", "1e300", "--s", "5e299",
                     "--n", "64", "--out-dir", str(tmp_path), "--prefix", "huge"])
        assert code == 0
        values = np.array([float(r["value"]) for r in read_csv(tmp_path / "huge.csv")])
        assert values.size == 32 and np.all(values < 0.0)


# One otherwise valid run per subcommand, with --H left out.
_H_COMMANDS = {
    "solve-kernel-L": ["solve-kernel", "--kind", "L", "--s", "0.5", "--n", "64"],
    "solve-kernel-g": ["solve-kernel", "--kind", "g", "--t", "0.5", "--n", "64"],
    "simulate": ["simulate", "--n", "64"],
    "simulate-paths": ["simulate", "--n", "64", "--paths", "3"],
    "decompose": ["decompose", "--n", "64"],
    "variogram": ["variogram", "--n", "256", "--lags", "4"],
    "holder": ["holder", "--n", "1024", "--lags", "6"],
    "audit-bounds": ["audit-bounds", "--n-sweep", "64,128"],
}


class TestBadInput:
    """Bad input exits 1 with the CLI's own message and no traceback."""

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--H", "0.85"],
        ["decompose", "--H", "0.85"],
        ["variogram", "--H", "0.85"],
    ])
    def test_nonfinite_horizon(self, tmp_path, capsys, command, horizon):
        code = main([*command, "--T", horizon, "--n", "64", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "horizon" in err
        assert not list(tmp_path.iterdir())

    # the fBm autocovariance's dt**2H overflows at 1e300 and underflows to zero at 1e-300
    @pytest.mark.parametrize("horizon", ["1e300", "1e-300"])
    @pytest.mark.parametrize("command", [["simulate", "--H", "0.85"], ["decompose", "--H", "0.85"],
                                         ["simulate", "--H", "0.85", "--paths", "3"]])
    def test_huge_horizon_is_a_numerical_failure(self, tmp_path, capsys, command, horizon):
        code = main([*command, "--T", horizon, "--n", "64", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "numerical failure" in err and "dt=" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("horizon, base_point", [("1e300", "5e299"), ("1e-300", "5e-301")])
    def test_huge_horizon_monte_carlo_variogram_is_a_numerical_failure(self, tmp_path, capsys,
                                                                       horizon, base_point):
        code = main(["variogram", "--method", "monte-carlo", "--H", "0.85", "--n", "256",
                     "--lags", "4", "--paths", "100", "--T", horizon, "--t0", base_point,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "numerical failure" in err and "dt=" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["variogram", "holder"])
    def test_underflowing_variogram_is_a_numerical_failure(self, tmp_path, capsys, command):
        # the Gram moments multiply two kernels near 1e-298, whose product underflows to 0
        code = main([command, "--method", "gram", "--H", "0.9", "--T", "1e300", "--t0", "5e299",
                     "--n", "1024", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        assert "numerical failure: variogram value 0.000e+00" in err
        assert not list(tmp_path.iterdir())

    # The library refuses an H outside its range (Alpha.from_h for the kernel
    # subcommands, the path synthesizer for simulate) before any file is written.
    @pytest.mark.parametrize("command, h", [
        *((command, h) for command in _H_COMMANDS if not command.startswith("simulate")
          for h in ("0.6", "1.5", "nan")),
        *((command, h) for command in ("simulate", "simulate-paths") for h in ("0", "1.5", "nan")),
    ])
    def test_invalid_h_exits_one(self, tmp_path, capsys, command, h):
        code = main([*_H_COMMANDS[command], "--H", h, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: H must be in" in err and f"got {float(h)}" in err
        assert not list(tmp_path.iterdir())

    # A subnormal cell width rounds the nodes off the grid: s = T would land on node 63 of 64.
    @pytest.mark.parametrize("command", [
        ["solve-kernel", "--kind", "L", "--H", "0.85", "--T", "1e-320", "--s", "1e-320", "--n", "64"],
        ["simulate", "--H", "0.5", "--T", "1e-310"],
    ])
    def test_subnormal_cell_width(self, tmp_path, capsys, command):
        code = main([*command, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: cell width" in err and "is subnormal" in err
        assert not list(tmp_path.iterdir())

    def test_no_paths(self, tmp_path, capsys):
        code = main(["simulate", "--H", "0.85", "--n", "64", "--paths", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: --paths must be >= 1" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("base_point", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["variogram", "holder"])
    def test_nonfinite_base_point(self, tmp_path, capsys, command, base_point):
        code = main([command, "--H", "0.85", "--n", "256", "--t0", base_point,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"t0={base_point} is not a grid node" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("window", [
        ["--window-min", "0.5", "--window-max", "0.1"],
        ["--window-min", "nan"],
        ["--window-max", "inf"],
        ["--lags", "3"],
    ], ids=["reversed", "nan", "inf", "too_few_lags"])
    def test_bad_fit_window_writes_nothing(self, tmp_path, capsys, window):
        code = main(["holder", "--H", "0.85", "--n", "1024", *window, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "window" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n, refine", [("256", "4096"), ("4096", "1000"), ("4096", "3"), ("2048", "5")])
    def test_monte_carlo_grid_cap(self, tmp_path, capsys, n, refine):
        # The sampling grid has n * mc_refine cells; past the cap it would run
        # for minutes or allocate gigabytes of normals per block.
        code = main(["variogram", "--H", "0.85", "--n", n, "--lags", "4", "--method", "monte-carlo",
                     "--mc-refine", refine, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "--mc-refine" in err
        assert not list(tmp_path.iterdir())

    def test_monte_carlo_needs_two_paths(self, tmp_path, capsys):
        code = main(["variogram", "--H", "0.85", "--n", "256", "--lags", "4",
                     "--method", "monte-carlo", "--paths", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "paths" in err

    @pytest.mark.parametrize("command", [
        ["simulate", "--H", "0.85", "--n", "64"],
        ["decompose", "--H", "0.85", "--n", "64"],
        ["variogram", "--H", "0.85", "--n", "256", "--lags", "4"],
    ])
    def test_negative_seed(self, tmp_path, capsys, command):
        code = main([*command, "--seed", "-1", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--seed must be >= 0" in err and "non-negative" not in err

    @pytest.mark.parametrize("lags", ["0", "-2"])
    @pytest.mark.parametrize("command", ["variogram", "holder"])
    def test_lags_below_one(self, tmp_path, capsys, command, lags):
        code = main([command, "--H", "0.85", "--n", "256", "--lags", lags,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "lag" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "64"],
        ["simulate", "--H", "0.85", "--n", "64"],
        ["simulate", "--H", "0.85", "--n", "64", "--paths", "3"],
        ["decompose", "--H", "0.85", "--n", "64"],
        ["variogram", "--H", "0.85", "--n", "256", "--lags", "4"],
        ["holder", "--H", "0.85", "--n", "256", "--lags", "4"],
        ["audit-bounds", "--H", "0.85", "--n-sweep", "64,128"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, command, threads):
        code = main([*command, "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "--threads must be >= 1" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("points, sweep, message", [
        # s and t share a node on the coarse grid: a zero constant, once with
        # an infinite stability ratio and once with a vacuous ratio of 1.
        (["--s", "0.5", "--t", "0.501"], "64,4096", "at n=64 they round to nodes 32 and 32"),
        (["--s", "0.5", "--t", "0.501"], "64,128", "at n=64 they round to nodes 32 and 32"),
        (["--s", "0.001"], "128,256,512,1024", "at n=128 they round to nodes 0 and 80"),
    ])
    def test_audit_points_on_distinct_nodes(self, tmp_path, capsys, points, sweep, message):
        code = main(["audit-bounds", "--H", "0.85", *points, "--n-sweep", sweep,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("sweep", ["256", "64,64", "64,128,128", "128,64"])
    def test_audit_sweep_must_strictly_increase(self, tmp_path, capsys, sweep):
        # the rule is audit_lemma_bounds'; the CLI passes its message on
        code = main(["audit-bounds", "--H", "0.85", "--s", "0.5", "--t", "0.625", "--n-sweep", sweep,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "at least two sizes that strictly increase" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--n", "999", "--n-sweep", "128,256"],
        ["--n-sweep", "128,256", "--n", "999"],
        ["--n=256", "--n-sweep", "128,256"],
    ])
    def test_audit_rejects_grid_size(self, tmp_path, capsys, argv):
        # the audit's sizes come from --n-sweep alone; --n once was accepted and ignored
        code = main(["audit-bounds", "--H", "0.85", *argv, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "unrecognized arguments: --n" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, option", [
        (["simulate", "--H", "0.85", "--n", "64"], ["--path", "3"]),
        (["holder", "--H", "0.85", "--n", "256", "--lags", "4"], ["--window-m", "0.05"]),
        (["variogram", "--H", "0.85", "--n", "256", "--lags", "4"], ["--mc", "2"]),
    ], ids=["simulate", "holder", "variogram"])
    def test_abbreviated_option_rejected(self, tmp_path, capsys, command, option):
        # a prefix of --paths, --window-min / --window-max or --mc-refine is
        # not that option
        code = main([*command, *option, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"unrecognized arguments: {option[0]}" in err
        assert not list(tmp_path.iterdir())

    def test_replayed_threads_below_one(self, tmp_path, capsys):
        assert main(["simulate", "--H", "0.85", "--n", "64", "--out-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "simulate_manifest.json"
        record = json.loads(manifest.read_text())
        record["parameters"]["threads"] = 0
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["--manifest", str(manifest)]) == 1
        assert "--threads must be >= 1" in capsys.readouterr().err


# Per subcommand: valid values of each option (every valid run stays at
# n <= 128) and edge or bad values, of which a drawn argv takes up to two.
_COMMON_VALID = {"H": ["0.85", "1"], "T": ["1", "0.5", "3"], "n": ["64", "128"], "seed": ["0", "7"]}
_COMMON_EDGE = {
    "H": ["nan", "inf", "-inf", "0", "0.5", "0.75", "0.7500001", "1.0000001"],
    "T": ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300"],
    "n": ["-1", "0", "63", "96", "8192"],
    "seed": ["-1", "-7"],
}
_POINT_EDGE = ["nan", "inf", "-0.25", "0", "2", "1e300"]
_COMMANDS = [
    (["solve-kernel", "--kind", "L"], {**_COMMON_VALID, "seed": None, "s": ["0.5", "1"]},
     {**_COMMON_EDGE, "seed": None, "s": _POINT_EDGE}),
    (["solve-kernel", "--kind", "g"], {**_COMMON_VALID, "seed": None, "t": ["0.5", "1"]},
     {**_COMMON_EDGE, "seed": None, "t": _POINT_EDGE}),
    (["simulate"], {**_COMMON_VALID, "paths": ["1", "2", "65"]},
     {**_COMMON_EDGE, "paths": ["-1", "0"]}),
    (["decompose"], {**_COMMON_VALID, "decimation": ["1", "8"]},
     {**_COMMON_EDGE, "decimation": ["-2", "0", "3", "256"]}),
    *(([command, "--method", method],
       {**_COMMON_VALID, "t0": ["0.5"], "lags": ["3"], "paths": ["16"], "mc-refine": ["1", "2"]},
       {**_COMMON_EDGE, "t0": _POINT_EDGE, "lags": ["-1", "0", "40"], "paths": ["-1", "1"],
        "mc-refine": ["-1", "0", "4096"]})
      for command in ("variogram", "holder") for method in ("reduced", "gram", "monte-carlo")),
    (["audit-bounds"], {"H": ["0.85"], "T": ["1"], "s": ["0.5"], "t": ["0.625"], "n-sweep": ["64,128"]},
     {**_COMMON_EDGE, "seed": None, "n": None, "s": _POINT_EDGE, "t": _POINT_EDGE,
      "n-sweep": ["128,64", "64", "64,96", "0,64", "64,8192", "x", ""]}),
]


@st.composite
def _argv(draw):
    head, valid, edge = draw(st.sampled_from(_COMMANDS))
    options = {name: draw(st.sampled_from(values)) for name, values in valid.items() if values}
    edge_names = sorted(name for name, values in edge.items() if values)
    for name in draw(st.lists(st.sampled_from(edge_names), max_size=2, unique=True)):
        options[name] = draw(st.sampled_from(edge[name]))
    return [*head, *(f"--{name}={value}" for name, value in options.items())]


class TestContract:
    """Whatever the arguments, the CLI exits 0, 1 or 2 and prints no traceback."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv())
    def test_exit_code_and_no_traceback(self, argv):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--threads", "1", "--out-dir", out_dir])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


def _run_python(probe, *args):
    """Run `probe` in a fresh interpreter that imports mfbm from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=300)


def test_cli_import_loads_no_scipy():
    # The package depends on NumPy alone; SciPy is only a test oracle and a
    # version the benchmark records.
    result = _run_python("import sys, mfbm.cli; print('scipy' in sys.modules)")
    assert result.stdout.strip() == "False"


# Every subcommand once with SciPy blocked, then a replay of each manifest
# into another directory.  The CI workflow repeats only the decompose run
# and its replay, through the installed console script with SciPy
# uninstalled, which an in-process test cannot do.
_CONSOLE_SCRIPT_RUNS = [
    ["--version"],
    ["simulate", "--H", "0.85", "--n", "64"],
    ["audit-bounds", "--H", "0.85", "--s", "0.5", "--t", "0.625", "--n-sweep", "128,256"],
    ["decompose", "--H", "0.85", "--n", "256", "--decimation", "1"],
    ["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "256"],
    ["solve-kernel", "--kind", "g", "--H", "0.85", "--t", "0.5", "--n", "256", "--prefix", "solve_kernel_g"],
    ["variogram", "--method", "gram", "--H", "0.85", "--n", "256", "--lags", "4"],
    ["variogram", "--method", "monte-carlo", "--H", "0.85", "--n", "256", "--lags", "4", "--paths", "300",
     "--prefix", "variogram_mc"],
    ["holder", "--H", "0.85", "--n", "1024", "--lags", "6", "--window-min", "0.0078125", "--svg"],
]

_NO_SCIPY_PROBE = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
import numpy as np
from mfbm.cli import main
from mfbm.quadrature import Alpha, Grid, build_weight_matrix

out = Path(sys.argv[1])
for n in json.loads(sys.argv[2]):
    np.save(out / f"entries_{n}.npy", build_weight_matrix(Grid(1.0, n), Alpha.from_h(0.85)).entries)
first, replay = out / "first", out / "replay"
codes = [main(argv if argv == ["--version"] else [*argv, "--out-dir", str(first)])
         for argv in json.loads(sys.argv[3])]
for manifest in sorted(first.glob("*_manifest.json")):
    parsed = json.loads(manifest.read_text())
    parsed["parameters"]["out_dir"] = str(replay)
    rewritten = out / manifest.name
    rewritten.write_text(json.dumps(parsed))
    codes.append(main(["--manifest", str(rewritten)]))
print(json.dumps(codes))
"""


def test_runtime_needs_no_scipy(tmp_path):
    from scipy.linalg import toeplitz

    from mfbm.quadrature import Alpha, Grid, build_weight_matrix

    sizes = [2, 3, 64, 1024]
    result = _run_python(_NO_SCIPY_PROBE, str(tmp_path), json.dumps(sizes), json.dumps(_CONSOLE_SCRIPT_RUNS))
    codes = json.loads(result.stdout.strip().splitlines()[-1])
    manifests = sorted(p.name for p in (tmp_path / "first").glob("*_manifest.json"))
    assert len(manifests) == len(_CONSOLE_SCRIPT_RUNS) - 1
    assert codes == [0] * (len(_CONSOLE_SCRIPT_RUNS) + len(manifests)), result.stderr
    for path in (tmp_path / "first").iterdir():
        if not path.name.endswith("_manifest.json"):
            assert path.read_bytes() == (tmp_path / "replay" / path.name).read_bytes(), path.name
    for n in sizes:
        column = build_weight_matrix(Grid(1.0, n), Alpha.from_h(0.85)).column
        entries = np.load(tmp_path / f"entries_{n}.npy")
        assert entries.tobytes() == toeplitz(column).tobytes() and entries.shape == (n, n)


class TestCsvWriter:
    """Rows are formatted a whole row at a time, to the bytes of the per-cell join."""

    CELLS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
             float("inf"), float("-inf"), float("nan"), 3, -7, 10 ** 20, True, np.float64(2.5e-300),
             np.float32(0.1), np.float32(-3.4028235e38), np.int64(-12), "gram", "1e3", "",
             type("Label", (str,), {})("subclass")]

    @staticmethod
    def _per_cell(header, rows):
        lines = [",".join(header)]
        lines += [",".join(c if isinstance(c, str) else format_float(c) for c in row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_bytes_equal_per_cell_join(self, tmp_path):
        rows = [tuple(self.CELLS), tuple(reversed(self.CELLS)), [1.5, "x"], ("y", 2.5), (), (np.float32(7.0),)]
        rows += [(cell, cell) for cell in self.CELLS]
        path = write_csv(tmp_path / "cells.csv", ["a", "b"], rows)
        assert path.read_bytes() == self._per_cell(["a", "b"], rows)

    def test_array_columns(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300) for _ in range(4)]
        header = ["t", "X", "phi", "M"]
        path = write_csv(tmp_path / "table.csv", header, zip(*columns))
        assert path.read_bytes() == self._per_cell(header, zip(*columns))


class TestSimulate:
    def test_single_path_schema(self, tmp_path):
        code = main(["simulate", "--H", "0.85", "--n", "128", "--seed", "7",
                     "--out-dir", str(tmp_path), "--prefix", "sim"])
        assert code == 0
        rows = read_csv(tmp_path / "sim.csv")
        assert set(rows[0]) == {"t", "fbm", "bm", "mixed"}
        assert len(rows) == 129
        first = rows[0]
        assert float(first["fbm"]) == float(first["bm"]) == float(first["mixed"]) == 0.0
        mixed = np.array([float(r["mixed"]) for r in rows])
        parts = np.array([float(r["fbm"]) + float(r["bm"]) for r in rows])
        assert np.array_equal(mixed, parts)

    def test_ensemble_summary(self, tmp_path):
        code = main(["simulate", "--H", "0.85", "--n", "64", "--seed", "7", "--paths", "200",
                     "--out-dir", str(tmp_path), "--prefix", "ens"])
        assert code == 0
        rows = read_csv(tmp_path / "ens.csv")
        assert set(rows[0]) == {"t", "mean_fbm", "var_fbm", "mean_bm", "var_bm",
                                "mean_mixed", "var_mixed"}
        assert len(rows) == 65


class TestDecompose:
    def test_schema_and_residual(self, tmp_path, capsys):
        code = main(["decompose", "--H", "1.0", "--n", "256", "--seed", "3",
                     "--decimation", "4", "--out-dir", str(tmp_path), "--prefix", "dec"])
        assert code == 0
        rows = read_csv(tmp_path / "dec.csv")
        assert set(rows[0]) == {"t", "X", "phi", "M", "bbar", "residual"}
        assert len(rows) == 65
        printed = capsys.readouterr().out
        assert "max residual" in printed
        x = np.array([float(r["X"]) for r in rows])
        res = np.array([float(r["residual"]) for r in rows])
        assert res[0] == 0.0
        assert np.max(np.abs(res)) <= 0.02 * np.max(np.abs(x))

    def test_bad_decimation(self, tmp_path, capsys):
        assert main(["decompose", "--H", "0.85", "--n", "128", "--decimation", "3",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: decimation 3 does not divide 128 cells" in err
        assert not list(tmp_path.iterdir())


class TestVariogramAndHolder:
    def test_variogram_schema(self, tmp_path):
        code = main(["variogram", "--H", "0.85", "--n", "256", "--lags", "4",
                     "--out-dir", str(tmp_path), "--prefix", "vg"])
        assert code == 0
        rows = read_csv(tmp_path / "vg.csv")
        assert set(rows[0]) == {"lag", "value", "log_lag", "log_value", "method", "stderr"}
        assert len(rows) == 4
        assert rows[0]["method"] == "reduced"
        lag0, val0 = float(rows[0]["lag"]), float(rows[0]["value"])
        assert float(rows[0]["log_lag"]) == pytest.approx(np.log(lag0))
        assert float(rows[0]["log_value"]) == pytest.approx(np.log(val0))

    def test_under_resolved_exits_one(self, tmp_path):
        assert main(["variogram", "--H", "0.85", "--n", "64", "--lags", "4",
                     "--out-dir", str(tmp_path)]) == 1

    def test_holder_fit_and_svg(self, tmp_path):
        code = main(["holder", "--H", "0.85", "--n", "1024", "--lags", "6", "--svg",
                     "--out-dir", str(tmp_path), "--prefix", "ho"])
        assert code == 0
        fit = json.loads((tmp_path / "ho_fit.json").read_text())
        for key in ("slope", "intercept", "r_squared", "target", "window",
                    "slope_stderr", "n_points"):
            assert key in fit
        assert fit["target"] == pytest.approx(0.4)
        assert abs(fit["slope"] - fit["target"]) <= 0.1
        svg = (tmp_path / "ho.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("bound, window", [
        (["--window-min", "0.0078125"], [0.0078125, 0.125]),
        (["--window-max", "0.25"], [0.015625, 0.25]),
    ], ids=["min", "max"])
    def test_lone_window_bound_keeps_its_value(self, tmp_path, bound, window):
        # the missing end comes from the default window [16 h, t0 / 4]
        code = main(["holder", "--H", "0.85", "--n", "1024", "--lags", "6", *bound,
                     "--out-dir", str(tmp_path), "--prefix", "lone"])
        assert code == 0
        assert json.loads((tmp_path / "lone_fit.json").read_text())["window"] == window
        manifest = json.loads((tmp_path / "lone_manifest.json").read_text())["parameters"]
        assert [manifest["window_min"], manifest["window_max"]] == window

    def test_gram_method_column(self, tmp_path):
        code = main(["variogram", "--H", "0.85", "--n", "256", "--lags", "4",
                     "--method", "gram", "--out-dir", str(tmp_path), "--prefix", "vgg"])
        assert code == 0
        rows = read_csv(tmp_path / "vgg.csv")
        assert rows[0]["method"] == "gram"


class TestAuditBounds:
    def test_report_schema(self, tmp_path):
        code = main(["audit-bounds", "--H", "0.85", "--n-sweep", "64,128",
                     "--out-dir", str(tmp_path), "--prefix", "ab"])
        assert code == 0
        payload = json.loads((tmp_path / "ab_bounds.json").read_text())
        assert set(payload) == {"i", "ii", "iii", "composite"}
        for part in payload.values():
            assert part["grid_sizes"] == [64, 128]
            assert len(part["constants"]) == 2
            assert part["stability_ratio"] >= 1.0
        assert "envelope" in payload["i"]

    def test_json_is_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"stability_ratio": float("inf")})
        assert not list(tmp_path.iterdir())

    def test_bad_sweep(self, tmp_path):
        assert main(["audit-bounds", "--H", "0.85", "--n-sweep", "128,64",
                     "--out-dir", str(tmp_path)]) == 1
        assert main(["audit-bounds", "--H", "0.85", "--n-sweep", "banana",
                     "--out-dir", str(tmp_path)]) == 1


# One run per subcommand, with the parameters its manifest must record.
_RUNS = {
    "solve-kernel": ["solve-kernel", "--kind", "g", "--H", "0.9", "--t", "0.75", "--n", "64"],
    "simulate": ["simulate", "--H", "0.85", "--n", "64", "--paths", "3", "--seed", "2",
                 "--threads", "2"],
    "decompose": ["decompose", "--H", "0.85", "--n", "128", "--seed", "5", "--decimation", "2",
                  "--prefix", "r1"],
    "variogram": ["variogram", "--method", "monte-carlo", "--H", "0.85", "--n", "128",
                  "--lags", "3", "--paths", "16", "--mc-refine", "1", "--threads", "1"],
    "holder": ["holder", "--H", "0.85", "--n", "512", "--lags", "5",
               "--window-min", "0.0078125", "--svg"],
    "audit-bounds": ["audit-bounds", "--H", "0.85", "--n-sweep", "64,128"],
}
_PARAMETERS = {
    "solve-kernel": {"kind": "g", "H": 0.9, "upper": 0.75, "T": 1.0, "n": 64,
                     "prefix": "solve_kernel", "threads": None},
    "simulate": {"H": 0.85, "paths": 3, "T": 1.0, "n": 64, "seed": 2, "prefix": "simulate",
                 "threads": 2},
    "decompose": {"H": 0.85, "decimation": 2, "T": 1.0, "n": 128, "seed": 5, "prefix": "r1",
                  "threads": None},
    "variogram": {"H": 0.85, "t0": 0.5, "lags": 3, "method": "monte_carlo", "paths": 16,
                  "mc_refine": 1, "T": 1.0, "n": 128, "seed": 0, "prefix": "variogram",
                  "threads": 1},
    "holder": {"H": 0.85, "t0": 0.5, "lags": 5, "method": "reduced", "paths": 5000,
               "mc_refine": 2, "window_min": 0.0078125, "window_max": 0.125, "svg": True,
               "T": 1.0, "n": 512, "seed": 0, "prefix": "holder", "threads": None},
    "audit-bounds": {"H": 0.85, "s": 0.5, "t": 0.625, "n_sweep": [64, 128], "T": 1.0,
                     "prefix": "audit_bounds", "threads": None},
}


# The runs whose data files must not depend on --threads: the two that
# sample on the worker pool, and two that solve without it.
_THREADED_RUNS = {
    "variogram-mc": ["variogram", "--method", "monte-carlo", "--H", "0.85", "--n", "256",
                     "--lags", "4", "--paths", "300"],
    "simulate-ensemble": ["simulate", "--H", "0.85", "--n", "256", "--paths", "200"],
    "decompose": ["decompose", "--H", "0.85", "--n", "256", "--decimation", "1"],
    "audit-bounds": ["audit-bounds", "--H", "0.85", "--n-sweep", "128,256"],
}


class TestReproducibility:
    @pytest.mark.parametrize("argv", list(_THREADED_RUNS.values()), ids=list(_THREADED_RUNS))
    def test_thread_count_does_not_change_bytes(self, tmp_path, argv):
        for threads in ("1", "2"):
            assert main([*argv, "--threads", threads, "--out-dir", str(tmp_path / threads)]) == 0
        # data files only: a manifest records --threads
        names = sorted(path.name for path in (tmp_path / "1").iterdir()
                       if not path.name.endswith("_manifest.json"))
        assert names
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.parametrize("argv", list(_RUNS.values()), ids=list(_RUNS))
    def test_manifest_replay_reproduces_bytes(self, tmp_path, argv):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, "--out-dir", str(first)]) == 0
        (manifest_path,) = first.glob("*_manifest.json")
        manifest = json.loads(manifest_path.read_text())
        manifest["parameters"]["out_dir"] = str(second)
        rewritten = tmp_path / "replay_manifest.json"
        rewritten.write_text(json.dumps(manifest))
        assert main(["--manifest", str(rewritten)]) == 0
        data = sorted(path.name for path in first.iterdir() if path != manifest_path)
        assert data == sorted(path.name for path in second.iterdir() if path.name != manifest_path.name)
        for name in data:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        replayed = json.loads((second / manifest_path.name).read_text())
        assert replayed["command"] == manifest["command"]
        assert replayed["parameters"] == manifest["parameters"]

    @pytest.mark.parametrize("command", list(_RUNS))
    def test_manifest_parameters(self, tmp_path, command):
        # the parsed options, but for upper, monte_carlo, the n_sweep list
        # and holder's resolved window
        assert main([*_RUNS[command], "--out-dir", str(tmp_path)]) == 0
        (manifest_path,) = tmp_path.glob("*_manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == command
        assert manifest["parameters"] == {**_PARAMETERS[command], "out_dir": str(tmp_path)}

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code = main(["solve-kernel", "--kind", "g", "--H", "0.9", "--t", "0.5",
                     "--n", "64", "--prefix", "envtest"])
        assert code == 0
        assert (tmp_path / "envtest.csv").exists()

    def test_csv_format_contract(self, tmp_path):
        main(["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "64",
              "--out-dir", str(tmp_path), "--prefix", "fmt"])
        raw = (tmp_path / "fmt.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        header, first_row = text.splitlines()[:2]
        assert header == "r,value"
        value_repr = first_row.split(",")[1]
        assert float(value_repr) == float(format(float(value_repr), ".17g"))


class TestBadManifest:
    """A replay is parsed and validated as a fresh run: bad manifests exit 1."""

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest["parameters"].pop("H"),
        lambda manifest: manifest.update(parameters=["H", 0.85]),
        lambda manifest: manifest.update(command=["simulate"]),
        lambda manifest: manifest.update(command="--help"),
        lambda manifest: manifest["parameters"].update(bogus=1),
        lambda manifest: manifest["parameters"].update(n="abc"),
        lambda manifest: manifest["parameters"].update(n=64.5),
        lambda manifest: manifest["parameters"].update(H=True),
        lambda manifest: manifest.pop("parameters"),
    ], ids=["missing-H", "parameters-list", "command-list", "command-option", "unknown-key",
            "n-text", "n-float", "H-bool", "no-parameters"])
    def test_exits_one(self, tmp_path, capsys, edit):
        record = tmp_path / "record"
        assert main(["simulate", "--H", "0.85", "--n", "64", "--out-dir", str(record)]) == 0
        manifest = json.loads((record / "simulate_manifest.json").read_text())
        replay_dir = tmp_path / "replay"
        manifest["parameters"]["out_dir"] = str(replay_dir)
        edit(manifest)
        path = tmp_path / "bad_manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not replay_dir.exists()

    @pytest.mark.parametrize("text", ["5", "null", '"x"', "[]"],
                             ids=["number", "null", "string", "list"])
    def test_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        assert main(["--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert [entry.name for entry in tmp_path.iterdir()] == ["scalar.json"]

    def test_subcommand_after_manifest(self, tmp_path, capsys):
        record = tmp_path / "record"
        assert main(["simulate", "--H", "0.85", "--n", "64", "--out-dir", str(record)]) == 0
        recorded = {path.name: path.read_bytes() for path in record.iterdir()}
        capsys.readouterr()
        code = main(["--manifest", str(record / "simulate_manifest.json"), "decompose",
                     "--H", "0.9", "--out-dir", str(tmp_path / "other")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert {path.name: path.read_bytes() for path in record.iterdir()} == recorded
        assert [path.name for path in tmp_path.iterdir()] == ["record"]

    def test_missing_manifest_file(self, tmp_path, capsys):
        assert main(["--manifest", str(tmp_path / "missing.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_out_dir_below_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "64",
                     "--out-dir", str(tmp_path / "file" / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["file"]
