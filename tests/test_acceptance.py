"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here and nowhere else.
"""
import json

import numpy as np
import pytest

from mfbm.cli import main as cli_main
from mfbm.quadrature import Alpha, Grid
from mfbm.kernel_solve import SweepSolver
from mfbm.gaussian_paths import restrict, simulate, simulate_ensemble
from mfbm.decomposition import decompose
from mfbm.regularity import (
    audit_lemma_bounds,
    build_variogram,
    fit_holder,
    mc_increment_variances,
    phi_cross_gram,
    second_moment_gram,
    second_moment_reduced,
)
from oracles import check_L_from_g, fbm_cov


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def sweeps_n512():
    """Shared drift-kernel solves at n = 512 for H in {0.8, 0.85, 0.9}."""
    grid = Grid(1.0, 512)
    out = {}
    for h in (0.8, 0.85, 0.9):
        sweep = SweepSolver(grid, Alpha.from_h(h))
        out[h] = sweep
    return out


def test_criterion_01_degenerate_kernel_oracle():
    worst = 0.0
    for n in (64, 256, 1024):
        grid = Grid(1.0, n)
        sweep = SweepSolver(grid, Alpha(0.0))
        for s in (0.25, 0.5, 1.0):
            k = grid.node_index(s)
            err_l = float(np.max(np.abs(sweep.L_field(k).values + 1.0 / (1.0 + s))))
            err_g = float(np.max(np.abs(sweep.g_field(k).values - 1.0 / (1.0 + s))))
            worst = max(worst, err_l, err_g)
    report(1, worst <= 1e-10,
           f"H=1 closed-form kernels reproduced, worst abs error {worst:.2e} (tol 1e-10)")


def test_criterion_02_formula_equivalence(sweeps_n512):
    worst = 0.0
    details = []
    for h, sweep in sweeps_n512.items():
        grid = sweep.grid
        for (s, t) in [(0.25, 0.3), (0.5, 0.6), (0.5, 0.9)]:
            ks, kt = grid.nearest_node_index(s), grid.nearest_node_index(t)
            l_s, l_t = sweep.L_field(ks), sweep.L_field(kt)
            reduced = second_moment_reduced(l_s, l_t)
            gram = second_moment_gram(l_s, l_t, sweep.weights)
            rel = abs(gram - reduced) / abs(reduced)
            worst = max(worst, rel)
            details.append(f"H={h}({s},{t}):{rel:.2%}")
    report(2, worst <= 0.02,
           f"gram vs reduced second moments agree, worst {worst:.2%} (tol 2%)")


def test_criterion_03_theorem_reproduction():
    lines = []
    ok = True
    for h in (0.8, 0.85, 0.9):
        variogram = build_variogram(h, 0.5, 6, 1024, method="reduced")
        fit = fit_holder(variogram)
        sep_zero = fit.slope / fit.slope_stderr
        sep_one = (1.0 - fit.slope) / fit.slope_stderr
        this_ok = (
            abs(fit.slope - fit.target) <= 0.1
            and fit.r_squared >= 0.98
            and sep_zero >= 3.0
            and sep_one >= 3.0
        )
        ok = ok and this_ok
        lines.append(
            f"H={h}: slope {fit.slope:.3f} (target {fit.target:.1f}), "
            f"R2 {fit.r_squared:.4f}, {sep_zero:.0f} SE from 0, {sep_one:.0f} SE from 1"
        )
    report(3, ok, "log-log variogram slope hits 4H-3; " + "; ".join(lines))


def test_criterion_04_reconstruction_residual():
    fine = simulate(Grid(1.0, 2048), 0.85, 11)
    coarse = restrict(fine, 2)
    _, innovation_coarse = decompose(coarse, decimation=1)
    _, innovation_fine = decompose(fine, decimation=1)
    scale = float(np.max(np.abs(fine.mixed)))
    res_coarse = float(np.max(np.abs(innovation_coarse.residual)))
    res_fine = float(np.max(np.abs(innovation_fine.residual)))
    ok = res_coarse <= 0.05 * scale and res_fine < res_coarse
    report(4, ok,
           f"path reconstruction residual {res_coarse / scale:.3%} of max |X| at n=1024 "
           f"(tol 5%), {res_fine / scale:.3%} at n=2048 (decreasing)")


def test_criterion_05_innovation_is_brownian():
    n, n_paths, h = 1024, 2000, 0.85
    grid = Grid(1.0, n)
    sweep = SweepSolver(grid, Alpha.from_h(h))
    indices = list(range(1, n + 1))
    g_fields = sweep.g_sweep(indices)
    g_matrix = np.zeros((n, n))
    for row, k in enumerate(indices):
        g_matrix[row, :k] = g_fields[k].values
    diag = sweep.g_diagonal(g_fields)
    diag_vec = np.array([diag[k] for k in indices])
    _, _, mixed = simulate_ensemble(grid, h, 777, n_paths)
    increments = np.diff(mixed, axis=1)
    martingale = increments @ g_matrix.T
    martingale = np.hstack([np.zeros((n_paths, 1)), martingale])
    db = np.diff(martingale, axis=1) / diag_vec[None, :]
    bbar = np.hstack([np.zeros((n_paths, 1)), np.cumsum(db, axis=1)])
    var_errs = {}
    for t in (0.25, 0.5, 1.0):
        var = float(np.var(bbar[:, grid.node_index(t)], ddof=1))
        var_errs[t] = abs(var - t) / t
    qv = np.sum(db[:3] ** 2, axis=1)
    qv_errs = np.abs(qv - 1.0)
    ok = all(err <= 0.05 for err in var_errs.values()) and np.all(qv_errs <= 0.10)
    report(5, ok,
           "innovation variance errors "
           + ", ".join(f"{t}: {e:.2%}" for t, e in var_errs.items())
           + f" (tol 5%); per-path quadratic variation errors "
           + ", ".join(f"{e:.2%}" for e in qv_errs) + " (tol 10%)")


def test_criterion_06_monte_carlo_vs_deterministic(sweeps_n512):
    h = 0.85
    n_paths = 5000
    sweep = sweeps_n512[h]
    grid = sweep.grid
    k_s = grid.node_index(0.5)
    k_t = grid.nearest_node_index(0.6)
    l_s, l_t = sweep.L_field(k_s), sweep.L_field(k_t)
    var_target = phi_cross_gram(l_s, l_s, sweep.weights)
    incr_gram = second_moment_gram(l_s, l_t, sweep.weights)
    incr_reduced = second_moment_reduced(l_s, l_t)
    incr_vals, var_mc = mc_increment_variances(h, k_s, [k_t], grid, seed=2026,
                                               n_paths=n_paths, refine=2)
    se_factor = np.sqrt(2.0 / (n_paths - 1))
    z_var = abs(var_mc - var_target) / (var_target * se_factor)
    z_gram = abs(incr_vals[0] - incr_gram) / (incr_gram * se_factor)
    z_reduced = abs(incr_vals[0] - incr_reduced) / (incr_reduced * se_factor)
    ok = z_var <= 3.0 and z_gram <= 3.0 and z_reduced <= 3.0
    report(6, ok,
           f"sampled drift variance z={z_var:.2f}, increment z={z_gram:.2f} (gram) "
           f"/ {z_reduced:.2f} (reduced), all vs 3 SE over {n_paths} paths")


def test_criterion_07_simulator_exactness():
    n_paths = 10_000
    grid = Grid(1.0, 64)
    subgrid = np.arange(8, 65, 8)
    times = grid.nodes[subgrid]
    worst = 0.0
    for h in (0.8, 0.9, 1.0):
        fbm, _, _ = simulate_ensemble(grid, h, 42, n_paths)
        sample = fbm[:, subgrid]
        empirical = sample.T @ sample / n_paths
        exact = fbm_cov(times[:, None], times[None, :], h)
        stderr = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact ** 2) / n_paths)
        worst = max(worst, float(np.max(np.abs(empirical - exact) / stderr)))
    report(7, worst <= 4.0,
           f"empirical 8x8 covariance within {worst:.2f} standard errors (tol 4) "
           f"for H in (0.8, 0.9, 1.0), {n_paths} paths")


def test_criterion_08_bound_audits():
    sweep_sizes = [128, 256, 512, 1024]
    reports_h = audit_lemma_bounds(Alpha.from_h(0.85), 0.5, 0.625, sweep_sizes)
    reports_0 = audit_lemma_bounds(Alpha(0.0), 0.5, 0.625, sweep_sizes)
    ratios_h = {part: rep.stability_ratio for part, rep in reports_h.items()}
    ratios_0 = {part: rep.stability_ratio for part, rep in reports_0.items()}
    ok_h = all(0.8 <= r <= 1.25 for r in ratios_h.values())
    ok_0 = all(abs(r - 1.0) <= 1e-10 for r in ratios_0.values())
    report(8, ok_h and ok_0,
           "bound-constant stability ratios at H=0.85: "
           + ", ".join(f"{p}={r:.3f}" for p, r in ratios_h.items())
           + " (tol [0.8, 1.25]); degenerate case exactly 1: "
           + ", ".join(f"{p}={abs(r - 1):.1e}" for p, r in ratios_0.items()))


def test_criterion_09_kernel_identity():
    sweep = SweepSolver(Grid(1.0, 1024), Alpha.from_h(0.85))
    disc = {dt: check_L_from_g(sweep, 512, dt)
            for dt in (1 / 64, 1 / 128, 1 / 256)}
    ok = disc[1 / 128] <= 0.05 and disc[1 / 128] < disc[1 / 64] and disc[1 / 256] < disc[1 / 128]
    report(9, ok,
           f"drift kernel vs derivative identity: {disc[1/128]:.3%} at dt=1/128 (tol 5%), "
           f"improving {disc[1/64]:.3%} -> {disc[1/128]:.3%} -> {disc[1/256]:.3%} as dt halves")


def test_criterion_10_determinism(tmp_path):
    args = ["variogram", "--H", "0.85", "--n", "256", "--lags", "4", "--seed", "9"]
    outputs = {}
    for threads, prefix in ((1, "t1"), (4, "t4")):
        code = cli_main(args + ["--threads", str(threads), "--out-dir", str(tmp_path),
                                "--prefix", prefix])
        assert code == 0
        outputs[threads] = (tmp_path / f"{prefix}.csv").read_bytes()
    manifest = json.loads((tmp_path / "t1_manifest.json").read_text())
    manifest["parameters"]["prefix"] = "rp"
    manifest["parameters"]["threads"] = 2
    replay_path = tmp_path / "replay.json"
    replay_path.write_text(json.dumps(manifest))
    assert cli_main(["--manifest", str(replay_path)]) == 0
    replayed = (tmp_path / "rp.csv").read_bytes()
    ok = outputs[1] == outputs[4] == replayed
    report(10, ok,
           "variogram bytes identical across --threads 1/4 and manifest replay "
           f"({len(outputs[1])} bytes)")
