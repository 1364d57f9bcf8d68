import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

from mfbm import kernel_solve
from mfbm.cli import main as cli_main
from mfbm.exceptions import NumericalError
from mfbm.quadrature import Alpha, Grid, build_weight_matrix, edge_fit, riesz_moment
from mfbm.kernel_solve import (
    RESIDUAL_TOL,
    SweepSolver,
    _checked,
    _sparse_solutions,
    _smooth_size,
    _tail_integral,
    toeplitz_matvec,
    solve_D,
    solve_q,
)
from oracles import check_L_from_g

ALPHA0 = Alpha(0.0)
ALPHA85 = Alpha.from_h(0.85)


@pytest.fixture(scope="module")
def grid512():
    return Grid(1.0, 512)


@pytest.fixture(scope="module")
def sweep512(grid512):
    return SweepSolver(grid512, ALPHA85)


class TestConstantKernelOracle:
    """At a = 0 every equation solves in closed form."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
    def test_drift_kernel(self, n, s):
        grid = Grid(1.0, n)
        field = SweepSolver(grid, ALPHA0).L_field(grid.node_index(s))
        assert np.max(np.abs(field.values + 1.0 / (1.0 + s))) <= 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_martingale_kernel(self, t):
        grid = Grid(1.0, 128)
        field = SweepSolver(grid, ALPHA0).g_field(grid.node_index(t))
        assert np.max(np.abs(field.values - 1.0 / (1.0 + t))) <= 1e-10

    def test_difference_kernel(self):
        sweep = SweepSolver(Grid(1.0, 128), ALPHA0)
        field = solve_D(sweep, 64, sweep.L_field(128))
        expected = 1.0 / 1.5 - 1.0 / 2.0
        assert np.max(np.abs(field.values - expected)) <= 1e-10

    def test_nystrom_endpoints(self):
        # g(r, 1) = 1/2 for every r, the endpoint included
        sweep = SweepSolver(Grid(1.0, 128), ALPHA0)
        assert sweep.g_diagonal(sweep.g_sweep([128]))[128] == pytest.approx(0.5, abs=1e-10)


class TestGenericSolve:
    def test_zero_rhs_gives_zero(self, sweep512):
        field = solve_q(sweep512, 256, lambda r: np.zeros_like(r))
        assert np.max(np.abs(field.values)) == 0.0

    def test_constant_kernel_scalar_reduction(self):
        field = solve_q(SweepSolver(Grid(1.0, 128), ALPHA0), 128, lambda r: np.ones_like(r))
        assert np.max(np.abs(field.values - 0.5)) <= 1e-10

    def test_linearity(self, sweep512):
        rhs1 = lambda r: np.cos(3.0 * r)
        rhs2 = lambda r: r ** 2 - 0.25
        combined = lambda r: 2.5 * rhs1(r) + rhs2(r)
        q1 = solve_q(sweep512, 384, rhs1)
        q2 = solve_q(sweep512, 384, rhs2)
        q12 = solve_q(sweep512, 384, combined)
        assert np.max(np.abs(q12.values - (2.5 * q1.values + q2.values))) <= 1e-10

    def test_energy_quadratic_form_nonnegative(self, sweep512):
        # the kernel is nonnegative definite; the solved field must satisfy
        # the discrete version up to rounding
        for k in (64, 256, 512):
            field = sweep512.L_field(k)
            quad_form = float(field.values @ sweep512.weights.entries[:k, :k] @ field.values)
            assert quad_form >= -1e-10

    def test_self_convergence_with_fine_oracle(self):
        alpha = Alpha(0.3)
        solutions = {}
        for n in (256, 1024, 4096):
            grid = Grid(1.0, n)
            solutions[n] = SweepSolver(grid, alpha).g_field(n).values
        fine = Grid(1.0, 4096)
        constants = {}
        for n in (256, 1024):
            coarse = Grid(1.0, n)
            idx = np.minimum((fine.midpoints / coarse.h).astype(int), n - 1)
            diff = float(np.max(np.abs(solutions[n][idx] - solutions[4096])))
            constants[n] = diff / coarse.h ** 0.7
        # error shrinks at order ~ h^0.7 with a stable constant
        assert constants[1024] <= constants[256] * 2.0
        assert constants[256] <= constants[1024] * 4.0

    def test_rejects_nonfinite_rhs(self, grid512, sweep512):
        s = grid512.nodes[256]
        with pytest.raises(ValueError):
            solve_q(sweep512, 256, lambda r: 1.0 / (s - np.asarray(r)) ** 2 * np.inf)


class TestDriftKernelShape:
    def test_values_strictly_negative(self, sweep512):
        field = sweep512.L_field(512)
        assert np.all(field.values < 0.0)

    def test_edge_statistic_stable_under_refinement(self):
        # sup |L(m)| (s - m)^a stays within 10% between n=512 and n=2048
        stats = {}
        for n in (512, 2048):
            grid = Grid(1.0, n)
            field = SweepSolver(grid, ALPHA85).L_field(n)
            stats[n] = float(np.max(np.abs(field.values) * (1.0 - grid.midpoints) ** ALPHA85.value))
        assert abs(stats[512] - stats[2048]) <= 0.10 * stats[2048]

    def test_bounded_rhs_statistic_stable(self):
        # Lemma-style audit for the difference-shaped rhs across refinement
        s, t = 0.5, 0.625
        a = ALPHA85.value
        stats = []
        for n in (128, 256, 512, 1024):
            grid = Grid(1.0, n)
            ks, kt = grid.node_index(s), grid.node_index(t)
            mids = grid.midpoints[:ks]
            rhs = lambda r: (s - np.asarray(r)) ** (-a) - (t - np.asarray(r)) ** (-a)
            field = solve_q(SweepSolver(grid, ALPHA85), ks, rhs)
            shape = (s - mids) ** (-a) - (t - mids) ** (-a)
            stats.append(float(np.max(np.abs(field.values)) / np.max(shape)))
        ratios = np.array(stats)
        assert np.max(ratios) / np.min(ratios) <= 1.2


class TestDifferenceKernel:
    def test_equal_indices_give_zero(self, sweep512):
        # the two equations coincide: the general solve gets a zero rhs and
        # returns exact zeros
        field = solve_D(sweep512, 256, sweep512.L_field(256))
        assert field.s_index == 256
        assert np.all(field.rhs(sweep512.grid.midpoints[:256]) == 0.0)
        assert np.all(field.values == 0.0)

    def test_matches_direct_difference(self, grid512, sweep512):
        ks = 256
        kt = grid512.nearest_node_index(0.6)
        d_field = solve_D(sweep512, ks, sweep512.L_field(kt))
        direct = sweep512.L_field(kt).values[:ks] - sweep512.L_field(ks).values
        err = np.max(np.abs(d_field.values - direct))
        assert err <= 0.03 * np.max(np.abs(direct))

    def test_rejects_reversed_indices(self, sweep512):
        with pytest.raises(ValueError):
            solve_D(sweep512, 300, sweep512.L_field(200))

    @pytest.mark.parametrize("foreign, match", [
        # t = 0.625 on a coarser grid, on another exponent, of the other family
        (lambda sweep: SweepSolver(Grid(1.0, 256), ALPHA85).L_field(160), "different grids"),
        (lambda sweep: SweepSolver(sweep.grid, Alpha.from_h(0.9)).L_field(320), "different exponents"),
        (lambda sweep: sweep.g_field(320), "drift-kernel"),
    ], ids=["grid", "exponent", "kind"])
    def test_rejects_foreign_L_t(self, sweep512, foreign, match):
        with pytest.raises(ValueError, match=match):
            solve_D(sweep512, 256, foreign(sweep512))


def dense_tail_oracle(L_t, ks, r):
    """int_s^t L(tau, t) |r - tau|**(-a) dtau with the interior cells taken
    from a dense per-entry riesz_moment table and the two-cell edge model."""
    grid, alpha, kt = L_t.grid, L_t.alpha, L_t.s_index
    n_edge = min(2, kt - ks)
    interior = np.arange(ks, kt - n_edge)
    out = np.zeros(r.shape)
    if interior.size:
        table = riesz_moment(grid.nodes[None, interior], grid.nodes[None, interior + 1], r[:, None], alpha)
        out += table @ L_t.values[interior]
    c, d = edge_fit(L_t.values[kt - n_edge:], alpha.value, grid.h)
    for j in range(kt - n_edge, kt):
        lo, hi = grid.nodes[j], grid.nodes[j + 1]
        out += c * np.abs(grid.midpoints[j] - r) ** (-alpha.value) * riesz_moment(lo, hi, L_t.upper_limit, alpha.value)
        out += d * riesz_moment(lo, hi, r, alpha)
    return out


class TestTailIntegral:
    """The tail integral of the difference-kernel rhs is a Toeplitz product
    at the midpoints, where alone it is defined."""

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    @pytest.mark.parametrize("cells", [(0.5, 0.625), (0.25, 0.75), 1, 2, 3],
                             ids=["s0.5-t0.625", "s0.25-t0.75", "gap1", "gap2", "gap3"])
    def test_midpoints_match_dense_oracle(self, n, cells):
        grid = Grid(1.0, n)
        sweep = SweepSolver(grid, ALPHA85)
        if isinstance(cells, tuple):
            ks, kt = int(cells[0] * n), int(cells[1] * n)
        else:  # kt - ks cells: no interior cell, or one
            ks, kt = n // 2, n // 2 + cells
        L_t = sweep.L_field(kt)
        mids = grid.midpoints[:ks]
        np.testing.assert_allclose(_tail_integral(L_t, ks, mids, sweep.weights.column),
                                   dense_tail_oracle(L_t, ks, mids), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("r", [0.3, np.array([0.0, 0.1234, 0.4999, 0.5])], ids=["scalar", "points"])
    def test_D_rhs_rejects_points_off_the_midpoints(self, sweep512, r):
        d_field = solve_D(sweep512, 256, sweep512.L_field(320))
        with pytest.raises(ValueError, match="midpoints"):
            d_field.rhs(r)
        with pytest.raises(ValueError, match="midpoints"):
            d_field.rhs(sweep512.grid.midpoints[:255])

    def test_solve_D_memory_is_linear(self):
        # The dense moment table alone of this tail is 2048 x 510 floats
        # (8.4 MB); the Toeplitz product needs a few vectors of length ~5000.
        grid = Grid(1.0, 4096)
        sweep = SweepSolver(grid, ALPHA85)
        L_t = sweep.L_field(2560)
        tracemalloc.start()
        try:
            solve_D(sweep, 2048, L_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestKernelIdentity:
    """The drift kernel is the scaled upper-limit derivative of the
    martingale kernel; a central difference must reproduce it."""

    def test_constant_kernel_exact_scaling(self):
        disc = check_L_from_g(SweepSolver(Grid(1.0, 512), ALPHA0), 256, 1 / 32)
        assert disc <= 1e-3

    def test_h085_within_five_percent(self):
        disc = check_L_from_g(SweepSolver(Grid(1.0, 1024), ALPHA85), 512, 1 / 128)
        assert disc <= 0.05

    def test_improves_when_dt_halves(self):
        sweep = SweepSolver(Grid(1.0, 1024), Alpha.from_h(0.9))
        coarse = check_L_from_g(sweep, 512, 1 / 64)
        fine = check_L_from_g(sweep, 512, 1 / 128)
        assert fine < coarse

    def test_rejects_off_grid_dt(self):
        with pytest.raises(ValueError):
            check_L_from_g(SweepSolver(Grid(1.0, 128), ALPHA85), 64, 0.01)


class TestSweepSolver:
    def test_diagonal_values(self, sweep512):
        # the Nystrom row of the equation at r = t_k: g(t_k, t_k) =
        # 1 - coeff * sum_j g_j * int_cell_j |t_k - tau|**(-a)
        nodes = sweep512.grid.nodes
        fields = sweep512.g_sweep([128, 256, 512])
        diag = sweep512.g_diagonal(fields)
        for k, fld in fields.items():
            row = riesz_moment(nodes[:k], nodes[1:k + 1], nodes[k], ALPHA85)
            assert diag[k] == pytest.approx(1.0 - ALPHA85.coeff * float(row @ fld.values), rel=1e-12)

    def test_residual_tolerance_enforced(self, grid512, sweep512):
        # residuals of the returned solutions satisfy the stated bound
        field = solve_q(sweep512, 512, lambda r: -(1.0 - np.asarray(r)) ** (-0.3))
        k = field.s_index
        f = field.rhs(grid512.midpoints[:k])
        residual = f - field.values - ALPHA85.coeff * (sweep512.weights.entries[:k, :k] @ field.values)
        assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.max(np.abs(f)))


def dense_oracle(weights, alpha, k, f):
    """Dense solve of the leading k x k collocation system."""
    matrix = np.eye(k) + alpha.coeff * toeplitz(weights.column[:k])
    return np.linalg.solve(matrix, f)


def assert_matches_oracle(values, oracle):
    assert np.max(np.abs(values - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


H_CORE = (0.76, 0.85, 1.0)
K_CORE = (1, 2, 3, 17, 101, 255, 256)


class TestLevinsonCore:
    """Every solve goes through one Levinson pass; the dense solve is the oracle."""

    @pytest.mark.parametrize("h", H_CORE)
    def test_drift_fields_match_dense_oracle(self, h):
        grid, alpha = Grid(1.0, 256), Alpha.from_h(h)
        sweep = SweepSolver(grid, alpha)
        fields = sweep.L_sweep(K_CORE)
        for k in K_CORE:
            f = fields[k].rhs(grid.midpoints[:k])
            assert_matches_oracle(fields[k].values, dense_oracle(sweep.weights, alpha, k, f))

    @pytest.mark.parametrize("h", H_CORE)
    def test_martingale_fields_match_dense_oracle(self, h):
        grid, alpha = Grid(1.0, 256), Alpha.from_h(h)
        sweep = SweepSolver(grid, alpha)
        fields = sweep.g_sweep(K_CORE)
        for k in K_CORE:
            assert_matches_oracle(fields[k].values, dense_oracle(sweep.weights, alpha, k, np.ones(k)))

    @pytest.mark.parametrize("h", H_CORE)
    @pytest.mark.parametrize("k", K_CORE)
    def test_generic_rhs_matches_dense_oracle(self, h, k):
        grid, alpha = Grid(1.0, 256), Alpha.from_h(h)
        sweep = SweepSolver(grid, alpha)
        rhs = lambda r: np.cos(7.0 * np.asarray(r)) - np.asarray(r) ** 2
        field = solve_q(sweep, k, rhs)
        oracle = dense_oracle(sweep.weights, alpha, k, rhs(grid.midpoints[:k]))
        assert_matches_oracle(field.values, oracle)

    @pytest.mark.parametrize("h", H_CORE)
    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_column_reproduces_moment_table_bitwise(self, h, n):
        grid, alpha = Grid(1.0, n), Alpha.from_h(h)
        table = riesz_moment(grid.nodes[None, :-1], grid.nodes[None, 1:], grid.midpoints[:, None], alpha)
        assert np.array_equal(toeplitz(build_weight_matrix(grid, alpha).column), table)

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 65, 200])
    def test_toeplitz_matvec_matches_dense(self, k):
        weights = build_weight_matrix(Grid(1.0, 256), ALPHA85)
        values = np.sin(np.arange(k) + 1.0)
        dense = toeplitz(weights.column[:k]) @ values
        assert np.max(np.abs(toeplitz_matvec(weights.column, values) - dense)) <= 1e-13

    def test_residual_failure_raises(self, monkeypatch):
        monkeypatch.setattr(kernel_solve, "RESIDUAL_TOL", 0.0)
        solver = SweepSolver(Grid(1.0, 64), ALPHA85)
        with pytest.raises(NumericalError):
            solver.g_sweep([64])

    def test_residual_failure_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kernel_solve, "RESIDUAL_TOL", 0.0)
        code = cli_main(["solve-kernel", "--kind", "g", "--H", "0.85", "--t", "1", "--n", "64",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "residual" in capsys.readouterr().err

    def test_breakdown_raises(self):
        # an indefinite Toeplitz matrix, eigenvalues 3 and -1
        with pytest.raises(NumericalError):
            _sparse_solutions(np.array([1.0, 2.0]), np.ones((1, 2)), [2])

    def test_levinson_rejects_a_nonpositive_diagonal(self):
        with pytest.raises(NumericalError, match=re.escape("diagonal -1.000e+00 is not positive")):
            list(kernel_solve._prefix_solutions(np.array([-1.0, 0.0]), np.ones((1, 2)), [2]))

    def test_levinson_breakdown_raises(self):
        # the indefinite matrix above: beta = 1 - 2**2 at order 2
        with pytest.raises(NumericalError, match=re.escape("order 2 (beta = -3.000e+00)")):
            list(kernel_solve._prefix_solutions(np.array([1.0, 2.0]), np.ones((1, 2)), [2]))

    @pytest.mark.parametrize("k", [0, 513])
    def test_solve_q_rejects_an_index_off_the_grid(self, sweep512, k):
        with pytest.raises(ValueError, match=re.escape("s_index must be in [1, 512]")):
            solve_q(sweep512, k, lambda r: np.ones_like(r))

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            _sparse_solutions(np.array([2.0, 1.0]), np.ones((1, 2)), [3])
        with pytest.raises(ValueError):
            _sparse_solutions(np.array([2.0, 1.0]), np.ones((1, 2)), [0])

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.floats(min_value=0.76, max_value=1.0),
        n=st.sampled_from([8, 64, 128]),
        sizes=st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_kept_size_matches_dense_oracle(self, h, n, sizes, seed):
        grid, alpha = Grid(1.0, n), Alpha.from_h(h)
        weights = build_weight_matrix(grid, alpha)
        keep = sorted({min(k, n) for k in sizes})
        rhs = np.random.default_rng(seed).standard_normal(n)
        column = alpha.coeff * weights.column
        column[0] += 1.0
        solutions = _sparse_solutions(column, rhs[None], keep)
        assert sorted(solutions) == keep
        for k in keep:
            assert_matches_oracle(solutions[k][0], dense_oracle(weights, alpha, k, rhs[:k]))


SPARSE_KEEP = (1, 2, 3, 17, 101, 255, 256)
BOUNDARY_SIZES = (64, 65, 96, 97, 128, 129)  # each pair straddles a check embedding size


class TestFusedPass:
    """One Levinson pass serves both kernel families, bit for bit."""

    @pytest.mark.parametrize("h", H_CORE)
    @pytest.mark.parametrize("keep", [range(1, 257), SPARSE_KEEP], ids=["all_prefix", "sparse"])
    def test_fields_equal_single_family_sweeps(self, h, keep):
        sweep = SweepSolver(Grid(1.0, 256), Alpha.from_h(h))
        l_fields, g_fields = sweep.L_g_sweep(keep)
        l_alone, g_alone = sweep.L_sweep(keep), sweep.g_sweep(keep)
        assert sorted(l_fields) == sorted(g_fields) == sorted(keep)
        for k in keep:
            assert np.array_equal(l_fields[k].values, l_alone[k].values)
            assert np.array_equal(g_fields[k].values, g_alone[k].values)
            assert (l_fields[k].kind, g_fields[k].kind) == ("L", "G")

    @pytest.mark.parametrize("h", H_CORE)
    def test_extra_rows_equal_solve_q(self, h):
        grid, alpha = Grid(1.0, 256), Alpha.from_h(h)
        sweep = SweepSolver(grid, alpha)
        ks, kt = 128, 160
        rhs = lambda r: (0.5 - np.asarray(r)) ** (-alpha.value) - (0.625 - np.asarray(r)) ** (-alpha.value)
        extra = np.zeros((2, kt))
        extra[0, :ks] = rhs(grid.midpoints[:ks])
        extra[1] = np.cos(grid.midpoints[:kt])
        l_fields, g_fields, solutions = sweep.L_g_sweep([ks, kt], extra_rhs=extra)
        assert sorted(solutions) == [ks, kt]
        assert solutions[ks].shape == (2, ks) and solutions[kt].shape == (2, kt)
        assert np.array_equal(solutions[ks][0], solve_q(sweep, ks, rhs).values)
        cosine = lambda r: np.cos(np.asarray(r))
        for k in (ks, kt):
            assert np.array_equal(solutions[k][1], solve_q(sweep, k, cosine).values)
        l_alone, g_alone = sweep.L_g_sweep([ks, kt])
        for k in (ks, kt):
            assert np.array_equal(l_fields[k].values, l_alone[k].values)
            assert np.array_equal(g_fields[k].values, g_alone[k].values)

    @pytest.mark.parametrize("shape", [(160,), (1, 159)])
    def test_extra_rows_need_a_stack_covering_the_pass(self, sweep512, shape):
        with pytest.raises(ValueError, match="extra_rhs"):
            sweep512.L_g_sweep([128, 160], extra_rhs=np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_extra_rows_must_be_finite(self, sweep512, value):
        extra = np.ones((2, 96))
        extra[1, 40] = value
        with pytest.raises(ValueError, match="extra_rhs must be finite"):
            sweep512.L_g_sweep([32, 96], extra_rhs=extra)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_increment_fails_the_residual_check(self, sweep512, value):
        increments = np.full(128, 0.01)
        increments[40] = value
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="residual"):
            sweep512.path_functionals(increments, range(1, 129))

    def test_smooth_sizes_are_minimal(self):
        smooth = [n for n in range(2, 2400) if _is_3_smooth(n)]
        for k in range(1, 600):
            target = max(2, 2 * k - 1)
            assert _smooth_size(k) == min(n for n in smooth if n >= target)


FORWARD_KEEP = sorted({1, 2, 3, *(k + d for k in BOUNDARY_SIZES for d in (-1, 0, 1)), 256})


def _three_rows(grid, sweep):
    """The drift rhs, the g rhs and one more row."""
    return np.array([sweep._drift_rhs(grid.cells), np.ones(grid.cells),
                     np.cos(7.0 * grid.midpoints) - grid.midpoints ** 2])


def assert_rows_close(actual, expected, rtol=1e-13):
    for a_row, e_row in zip(actual, expected):
        assert np.max(np.abs(a_row - e_row)) <= rtol * np.max(np.abs(e_row))


class TestForwardVectorSolve:
    """Kept orders solved from the forward vector alone (Gohberg-Semencul)
    agree with the dense solve and with rows riding the Levinson pass."""

    @pytest.mark.parametrize("h", (0.76, 0.85, 0.999, 1.0))
    def test_matches_dense_oracle_and_riding_rows(self, h):
        grid = Grid(1.0, 256)
        sweep = SweepSolver(grid, Alpha.from_h(h))
        rows = _three_rows(grid, sweep)
        assert len({_smooth_size(k) for k in FORWARD_KEEP}) > 1
        l_fields, g_fields, extra = sweep.L_g_sweep(FORWARD_KEEP, extra_rhs=rows[2:])
        riding = dict(kernel_solve._prefix_solutions(sweep._system, rows, FORWARD_KEEP))
        for k in FORWARD_KEEP:
            solved = np.array([l_fields[k].values, g_fields[k].values, extra[k][0]])
            oracle = np.linalg.solve(toeplitz(sweep._system[:k]), rows[:, :k].T).T
            riding_k = riding[k].copy()
            # an L field is the prefix solution of the drift row, reversed
            for expected in (oracle, riding_k):
                expected[0] = expected[0, ::-1]
            assert_rows_close(solved, oracle)
            assert_rows_close(solved, riding_k)

    @pytest.mark.parametrize("h", (0.85, 1.0))
    def test_row_alone_equals_row_stacked(self, h):
        grid = Grid(1.0, 256)
        sweep = SweepSolver(grid, Alpha.from_h(h))
        rows = _three_rows(grid, sweep)
        stacked = _sparse_solutions(sweep._system, rows, FORWARD_KEEP)
        for j in range(3):
            alone = _sparse_solutions(sweep._system, rows[j:j + 1], FORWARD_KEEP)
            pair = _sparse_solutions(sweep._system, rows[[j, 1]], FORWARD_KEEP)
            for k in FORWARD_KEEP:
                assert np.array_equal(alone[k][0], stacked[k][j]), (j, k)
                assert np.array_equal(pair[k][0], stacked[k][j]), (j, k)

    @pytest.mark.parametrize("h", (0.85, 1.0))
    @pytest.mark.parametrize("fused", [False, True], ids=["L_sweep", "L_g_sweep"])
    def test_drift_field_is_reversed_prefix_solution(self, h, fused):
        # the sweep reverses the drift row once, after the check, into a
        # C-contiguous copy
        sweep = SweepSolver(Grid(1.0, 256), Alpha.from_h(h))
        l_fields = sweep.L_g_sweep(FORWARD_KEEP)[0] if fused else sweep.L_sweep(FORWARD_KEEP)
        for k in FORWARD_KEEP:
            values = l_fields[k].values
            assert values.flags.c_contiguous, k
            v = sweep._drift_rhs(k)
            assert np.array_equal(values, _sparse_solutions(sweep._system, v[None], [k])[k][0][::-1]), k


class TestEverySolutionChecked:
    """A wrong entry in one Gohberg-Semencul product at one kept order is
    caught by the residual check before any caller sees it."""

    @staticmethod
    def _perturb(monkeypatch, order, row=-1):
        product = kernel_solve._gohberg_semencul

        def perturbed(f, rows):
            x = product(f, rows)
            if rows.shape[1] == order:
                x[row, order // 2] += 1e-8
            return x

        monkeypatch.setattr(kernel_solve, "_gohberg_semencul", perturbed)

    @pytest.mark.parametrize("order", [32, 96])
    @pytest.mark.parametrize("row", [0, 1, 2], ids=["L", "g", "extra"])
    def test_fused_sweep_raises(self, monkeypatch, order, row):
        sweep = SweepSolver(Grid(1.0, 128), ALPHA85)
        self._perturb(monkeypatch, order, row)
        with pytest.raises(NumericalError, match=f"block size {order}$"):
            sweep.L_g_sweep([32, 96], extra_rhs=np.ones((1, 96)))

    def test_solve_q_raises(self, monkeypatch):
        sweep = SweepSolver(Grid(1.0, 128), ALPHA85)
        self._perturb(monkeypatch, 100)
        with pytest.raises(NumericalError, match="block size 100$"):
            solve_q(sweep, 100, np.cos)

    def test_solve_D_raises(self, monkeypatch):
        sweep = SweepSolver(Grid(1.0, 128), ALPHA85)
        L_t = sweep.L_field(80)
        self._perturb(monkeypatch, 64)
        with pytest.raises(NumericalError, match="block size 64$"):
            solve_D(sweep, 64, L_t)

    def test_cli_exits_two(self, monkeypatch, tmp_path, capsys):
        self._perturb(monkeypatch, 32)
        code = cli_main(["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "64",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "residual" in capsys.readouterr().err


class TestForwardVectorReuse:
    """No forward vector is reused across calls: a solver used again after a
    sweep solves each order of the new call afresh, with the bits of a
    fresh solver and the same residual check."""

    @staticmethod
    def _count_solves(monkeypatch):
        solves = []
        forward = kernel_solve._cg_forward

        def counting(column, k):
            solves.append(k)
            return forward(column, k)

        monkeypatch.setattr(kernel_solve, "_cg_forward", counting)
        return solves

    @pytest.mark.parametrize("h", H_CORE)
    @pytest.mark.parametrize("ks", BOUNDARY_SIZES[:2])
    def test_reused_solves_equal_fresh_solves(self, monkeypatch, h, ks):
        grid, alpha, kt = Grid(1.0, 256), Alpha.from_h(h), 160
        sweep = SweepSolver(grid, alpha)
        l_fields, _ = sweep.L_g_sweep([ks, kt])
        solves = self._count_solves(monkeypatch)
        reused_D = solve_D(sweep, ks, l_fields[kt])
        reused_q = solve_q(sweep, ks, np.cos)
        assert solves == [ks, ks]
        fresh_D = solve_D(SweepSolver(grid, alpha), ks, l_fields[kt])
        fresh_q = solve_q(SweepSolver(grid, alpha), ks, np.cos)
        assert solves == [ks, ks, ks, ks]
        assert np.array_equal(reused_D.values, fresh_D.values)
        assert np.array_equal(reused_q.values, fresh_q.values)

    @pytest.mark.parametrize("h", H_CORE)
    @pytest.mark.parametrize("ks", BOUNDARY_SIZES[:2])
    def test_reused_order_is_checked(self, monkeypatch, h, ks):
        sweep = SweepSolver(Grid(1.0, 256), Alpha.from_h(h))
        l_fields, _ = sweep.L_g_sweep([ks, 160])
        solves = self._count_solves(monkeypatch)
        TestEverySolutionChecked._perturb(monkeypatch, ks)
        with pytest.raises(NumericalError, match=f"block size {ks}$"):
            solve_D(sweep, ks, l_fields[160])
        with pytest.raises(NumericalError, match=f"block size {ks}$"):
            solve_q(sweep, ks, np.cos)
        assert solves == [ks, ks]


CG_ORDERS = sorted({*K_CORE, *BOUNDARY_SIZES})


class TestConjugateGradientForward:
    """The sparse solves take each kept forward vector from its own
    conjugate-gradient solve; the Levinson pass is the oracle."""

    @pytest.mark.parametrize("h", (*H_CORE, 0.7501))
    def test_matches_levinson_forward_vectors(self, h):
        column = SweepSolver(Grid(1.0, 256), Alpha.from_h(h))._system
        first = np.zeros((1, 256))
        first[0, 0] = 1.0
        # the Levinson solutions of T_k f = e_1 are the forward vectors
        levinson = {k: f[0] for k, f in kernel_solve._prefix_solutions(column, first, CG_ORDERS)}
        for k in CG_ORDERS:
            # at most 1.06e-15 (relative) was measured over these orders
            scale = np.max(np.abs(levinson[k]))
            assert np.max(np.abs(kernel_solve._cg_forward(column, k) - levinson[k])) <= 4e-15 * scale, k

    @pytest.mark.parametrize("h", (0.7501, 0.85, 1.0))
    def test_order_alone_equals_order_in_larger_keep_set(self, monkeypatch, h):
        grid = Grid(1.0, 256)
        sweep = SweepSolver(grid, Alpha.from_h(h))
        rows = _three_rows(grid, sweep)
        solved = []
        solve = kernel_solve._cg_forward

        def recording(column, k):
            solved.append((k, solve(column, k)))
            return solved[-1][1]

        monkeypatch.setattr(kernel_solve, "_cg_forward", recording)
        together = _sparse_solutions(sweep._system, rows, FORWARD_KEEP)
        forward_all = dict(solved)
        assert sorted(forward_all) == sorted(FORWARD_KEEP)
        for k in FORWARD_KEEP:
            alone = _sparse_solutions(sweep._system, rows[:, :k], [k])
            assert solved[-1][0] == k
            assert np.array_equal(solved[-1][1], forward_all[k]), k
            assert np.array_equal(alone[k], together[k]), k

    def test_sparse_solves_run_no_levinson_pass(self, monkeypatch):
        passes = []
        original = kernel_solve._prefix_solutions

        def recording(column, rows, keep):
            passes.append(sorted(keep))
            return original(column, rows, keep)

        monkeypatch.setattr(kernel_solve, "_prefix_solutions", recording)
        sweep = SweepSolver(Grid(1.0, 128), ALPHA85)
        l_fields = sweep.L_g_sweep([32, 96], extra_rhs=np.ones((1, 96)))[0]
        sweep.L_sweep([17, 128])
        sweep.g_sweep([5])
        solve_q(sweep, 64, np.cos)
        solve_D(sweep, 32, l_fields[96])
        assert passes == []
        sweep.path_functionals(np.ones(128), range(1, 129))
        assert passes == [list(range(1, 129))]

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(kernel_solve, "_CG_MAX_ITER", 1)
        column = SweepSolver(Grid(1.0, 64), ALPHA85)._system
        message = r"order 40 did not converge in 1 iterations \(residual [0-9.e+-]+"
        with pytest.raises(NumericalError, match=message):
            kernel_solve._cg_forward(column, 40)

    def test_iteration_cap_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kernel_solve, "_CG_MAX_ITER", 1)
        code = cli_main(["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "256",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"order 128 did not converge in 1 iterations \(residual [0-9.e+-]+", err), err
        assert list(tmp_path.iterdir()) == []

    def test_indefinite_preconditioner_raises(self):
        # toeplitz([1, 2]) is its own circulant, with eigenvalues 3 and -1
        with pytest.raises(NumericalError, match="order 2: the circulant preconditioner has eigenvalue -1.000e[+]00"):
            kernel_solve._cg_forward(np.array([1.0, 2.0]), 2)

    def test_indefinite_block_raises_on_curvature(self):
        # toeplitz([1, 0, 2]) has eigenvalues 3, 1 and -1, its preconditioner
        # 7/3, 1/3 and 1/3: the first direction has curvature -9/7
        with pytest.raises(NumericalError, match="order 3 broke down at iteration 1: curvature -1.286e[+]00"):
            kernel_solve._cg_forward(np.array([1.0, 0.0, 2.0]), 3)

    @pytest.mark.parametrize("horizon", (1e4, 1e8, 1e12))
    @pytest.mark.parametrize("h", (0.7501, 0.99999))
    def test_preconditioner_bounds_iterations_at_long_horizons(self, monkeypatch, horizon, h):
        # unpreconditioned, these orders need 50 to 450 iterations; with the
        # circulant preconditioner at most 17 were measured up to n = 2**14
        monkeypatch.setattr(kernel_solve, "_CG_MAX_ITER", 20)
        column = SweepSolver(Grid(horizon, 1024), Alpha.from_h(h))._system
        for k in (512, 1024):
            f = kernel_solve._cg_forward(column, k)
            residual = toeplitz_matvec(column, f)
            residual[0] -= 1.0
            # at most 8e-16 * column[0] * max|f| was measured
            assert np.max(np.abs(residual)) <= 1e-14 * column[0] * np.max(np.abs(f)), k

    def test_bits_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product over threads above 10000 entries,
        # which changes its rounding; order 12288 is past that
        src = str(Path(kernel_solve.__file__).resolve().parents[1])
        probe = ("import hashlib; from mfbm.quadrature import Alpha, Grid; "
                 "from mfbm.kernel_solve import SweepSolver, _cg_forward; "
                 "column = SweepSolver(Grid(1.0, 16384), Alpha.from_h(0.85))._system; "
                 "print(hashlib.sha256(_cg_forward(column, 12288).tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                    text=True, check=True, timeout=120)
            digests.add(result.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("h", (0.7501, 0.95, 0.999))
    def test_long_horizon_converges_within_the_cap(self, h):
        # T = 1e8 stretches the spectrum of I + coeff * W far beyond that
        # on [0, 1]; the solve still stops within the cap
        grid, alpha = Grid(1e8, 512), Alpha.from_h(h)
        sweep = SweepSolver(grid, alpha)
        g_fields = sweep.g_sweep([300, 512])
        for k in (300, 512):
            assert_matches_oracle(g_fields[k].values, dense_oracle(sweep.weights, alpha, k, np.ones(k)))

    @pytest.mark.parametrize("horizon", (1e200, 1e300))
    @pytest.mark.parametrize("h, n", ((0.85, 64), (0.9, 1024)))
    def test_huge_horizon_matches_dense_solve(self, horizon, h, n):
        # the diagonal reaches 4e237 at T = 1e300: unscaled, the products
        # of two forward vectors underflowed, L read 0 and g failed its check
        grid, alpha = Grid(horizon, n), Alpha.from_h(h)
        sweep = SweepSolver(grid, alpha)
        k = n // 2
        L_field, g_field = sweep.L_field(k), sweep.g_field(k)
        for field, rhs in ((L_field, L_field.rhs(grid.midpoints[:k])), (g_field, np.ones(k))):
            oracle = dense_oracle(sweep.weights, alpha, k, rhs)
            assert np.max(np.abs(field.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def _is_3_smooth(n):
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n == 1


def _fused_solutions(keep):
    """Solutions of a fused L/g pass at H = 0.85, n = 256, with their rhs rows."""
    grid, alpha = Grid(1.0, 256), ALPHA85
    sweep = SweepSolver(grid, alpha)
    rows = np.array([-alpha.coeff * grid.midpoints ** (-alpha.value), np.ones(grid.cells)])
    column = sweep._system
    return column, rows, _sparse_solutions(column, rows, keep)


def _check(column, rows, solutions):
    """Run the pass's blockwise residual check over `solutions`."""
    for _ in _checked(column, rows, sorted(solutions.items())):
        pass


class TestResidualCheck:
    """The batched all-prefix check catches a bad entry in any row of any family."""

    @pytest.mark.parametrize("chunk_floats", [None, 1], ids=["default_blocks", "one_size_per_block"])
    def test_unperturbed_solutions_pass(self, monkeypatch, chunk_floats):
        if chunk_floats is not None:
            monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", chunk_floats)
        column, rows, solutions = _fused_solutions(range(1, 257))
        _check(column, rows, solutions)

    @pytest.mark.parametrize("chunk_floats", [None, 1], ids=["default_blocks", "one_size_per_block"])
    @pytest.mark.parametrize("k", BOUNDARY_SIZES)
    @pytest.mark.parametrize("row", [0, 1], ids=["L", "g"])
    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize("perturbation", ["twice_the_bound", "nan", "inf"])
    def test_perturbed_entry_raises(self, monkeypatch, chunk_floats, k, row, position, perturbation):
        if chunk_floats is not None:
            monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", chunk_floats)
        keep = sorted({*BOUNDARY_SIZES, k - 1, k + 1, 256})
        column, rows, solutions = _fused_solutions(keep)
        _check(column, rows, solutions)
        entry = 0 if position == "first" else k - 1
        scale = float(np.max(np.abs(rows[row, :k])))
        bad = dict(solutions)
        bad[k] = solutions[k].copy()
        if perturbation == "twice_the_bound":
            # twice the bound in the perturbed entry's own residual; the other
            # residual entries move by at most column[1] / column[0] (about 1 %)
            # of that, so only the entry itself can trip the check
            bad[k][row, entry] += 2.0 * RESIDUAL_TOL * scale / column[0]
        else:
            # a non-finite entry makes its row's residual NaN or inf
            bad[k][row, entry] = float(perturbation)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=f"block size {k}$"):
            _check(column, rows, bad)


    def test_small_rhs_is_its_own_scale(self):
        # the drift-kernel rhs at T = 1e300 is about 1e-90: a zero solution
        # leaves all of it as residual, relative 1, however small it is
        sweep = SweepSolver(Grid(1e300, 64), ALPHA85)
        rows = sweep._drift_rhs(64)[None]
        assert np.max(np.abs(rows)) < 1e-80
        with pytest.raises(NumericalError, match=re.escape("residual 1.000e+00")):
            _check(sweep._system, rows, {64: np.zeros((1, 64))})

    def test_one_embedding_size_computation_per_size(self, monkeypatch):
        column, rows, solutions = _fused_solutions(range(1, 257))
        calls = []

        def counting(k):
            calls.append(k)
            return _smooth_size(k)

        monkeypatch.setattr(kernel_solve, "_smooth_size", counting)
        _check(column, rows, solutions)
        assert len(calls) == len({_smooth_size(k) for k in range(1, 257)})

    def test_one_symbol_per_embedding_size(self, monkeypatch):
        # a small window, so that several blocks share an embedding size
        monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", 4096)
        column, rows, solutions = _fused_solutions(range(1, 257))
        symbols, blocks = [], []
        symbol, check = kernel_solve._circulant_symbol, kernel_solve._check_residuals

        def counting_symbol(column, size):
            symbols.append(size)
            return symbol(column, size)

        def counting_check(rhs, scale, solutions, size, *args):
            blocks.append(size)
            check(rhs, scale, solutions, size, *args)

        monkeypatch.setattr(kernel_solve, "_circulant_symbol", counting_symbol)
        monkeypatch.setattr(kernel_solve, "_check_residuals", counting_check)
        _check(column, rows, solutions)
        assert symbols == sorted({_smooth_size(k) for k in range(1, 257)})
        assert len(blocks) > len(symbols)


class TestCheckWindow:
    """The check's two buffers stay within the window of `_CHUNK_FLOATS`
    floats, unless one order alone needs more."""

    @pytest.mark.parametrize("chunk_floats", [None, 4096, 1], ids=["default", "small", "one_order"])
    def test_all_prefix_buffers_stay_in_the_window(self, monkeypatch, chunk_floats):
        if chunk_floats is not None:
            monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", chunk_floats)
        window = kernel_solve._CHUNK_FLOATS * np.dtype(float).itemsize
        check = kernel_solve._check_residuals
        largest = {}

        def recording(rhs, scale, solutions, size, symbol, buffers):
            check(rhs, scale, solutions, size, symbol, buffers)
            m = rhs.shape[0]
            # the bytes one order of this block needs in each buffer
            need = {float: m * size * 8, complex: m * (size // 2 + 1) * 16}
            for dtype, buffer in buffers.items():
                largest[dtype] = max(largest.get(dtype, 0), need[dtype])
                assert buffer.nbytes <= max(window, largest[dtype])

        monkeypatch.setattr(kernel_solve, "_check_residuals", recording)
        column = SweepSolver(Grid(1.0, 1024), ALPHA85)._system
        rows = np.array([np.random.default_rng(5).standard_normal(1024), np.ones(1024)])
        orders = [k for k, _ in kernel_solve._prefix_solutions(column, rows, range(1, 1025))]
        assert orders == list(range(1, 1025))
        assert set(largest) == {float, complex}

    def test_all_prefix_pass_reuses_its_buffers(self, monkeypatch):
        # a buffer grows at least twofold up to the window, so the pass's
        # many blocks share about log2(window / first block) buffers of each
        # dtype; a buffer made per block would give one per block
        check = kernel_solve._check_residuals
        seen = {float: [], complex: []}  # every buffer, kept alive so no id is reused

        def recording(rhs, scale, solutions, size, symbol, buffers):
            check(rhs, scale, solutions, size, symbol, buffers)
            assert set(buffers) == {float, complex}
            for dtype, buffer in buffers.items():
                seen[dtype].append(buffer)

        monkeypatch.setattr(kernel_solve, "_check_residuals", recording)
        column = SweepSolver(Grid(1.0, 1024), ALPHA85)._system
        rows = np.array([np.random.default_rng(5).standard_normal(1024), np.ones(1024)])
        for _ in kernel_solve._prefix_solutions(column, rows, range(1, 1025)):
            pass
        blocks = len(seen[float])
        for dtype, buffers in seen.items():
            distinct = list({id(buffer): buffer for buffer in buffers}.values())
            sizes = [buffer.size for buffer in distinct]
            assert len(distinct) <= 2 + np.log2(sizes[-1] / sizes[0]), (dtype, sizes)
            assert blocks >= 3 * len(distinct), (dtype, blocks, sizes)


class TestStreamedCheck:
    """The pass checks its solutions block by block as it goes."""

    @pytest.mark.parametrize("chunk_floats", [None, 4096, 1], ids=["default", "small", "one_order"])
    @pytest.mark.parametrize("keep", [range(1, 257), SPARSE_KEEP], ids=["all_prefix", "sparse"])
    def test_blocks_cover_every_order_once_within_the_bound(self, monkeypatch, chunk_floats, keep):
        if chunk_floats is not None:
            monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", chunk_floats)
        blocks = []
        check = kernel_solve._check_residuals

        def recording(rhs, scale, solutions, *args):
            blocks.append(sorted(solutions))
            check(rhs, scale, solutions, *args)

        monkeypatch.setattr(kernel_solve, "_check_residuals", recording)
        column, rows, solutions = _fused_solutions(keep)
        assert sorted(solutions) == sorted(keep)
        assert [k for block in blocks for k in block] == sorted(keep)
        for block in blocks:
            sizes = {_smooth_size(k) for k in block}
            assert len(sizes) == 1
            assert len(block) == 1 or len(block) * rows.shape[0] * sizes.pop() <= kernel_solve._CHUNK_FLOATS


def _reference_prefix_solutions(column, rows, keep):
    """{k: x_k} from the Levinson-Durbin order step written with one new
    array per operation: the step that `_prefix_solutions` must reproduce
    bit for bit with its preallocated buffers."""
    size = max(keep)
    lags = column[size - 1:0:-1].copy()
    m = rows.shape[0]
    f = np.zeros(size)
    x = np.zeros((m, size))
    f[0] = 1.0 / column[0]
    x[:, 0] = rows[:, 0] * f[0]
    out = {}
    for k in range(size):
        if k > 0:
            lag = lags[size - 1 - k:]
            eps = float(lag @ f[:k])
            beta = 1.0 - eps * eps
            f[: k + 1] = (f[: k + 1] - eps * f[k::-1]) / beta
            gap = rows[:, k] - [lag @ x[j, :k] for j in range(m)]
            x[:, : k + 1] += gap[:, None] * f[k::-1]
        if k + 1 in keep:
            out[k + 1] = x[:, : k + 1].copy()
    return out


class TestOrderStepReference:
    """The buffered order step gives the same bits as the step written out
    with temporaries (a copied reference, not stored digests, so the test
    holds under any BLAS dot product)."""

    @staticmethod
    def _assert_equal_to_reference(h, n, rows, keep):
        column = SweepSolver(Grid(1.0, n), Alpha.from_h(h))._system
        keep = set(keep)
        solutions = dict(kernel_solve._prefix_solutions(column, rows, keep))
        reference = _reference_prefix_solutions(column, rows, keep)
        assert sorted(solutions) == sorted(reference) == sorted(keep)
        for k in keep:
            assert np.array_equal(solutions[k], reference[k]), k

    @pytest.mark.parametrize("h", H_CORE)
    def test_all_prefix_two_rows(self, h):
        grid, alpha = Grid(1.0, 256), Alpha.from_h(h)
        rows = np.array([-alpha.coeff * grid.midpoints ** (-alpha.value), np.ones(grid.cells)])
        self._assert_equal_to_reference(h, 256, rows, range(1, 257))

    @pytest.mark.parametrize("h", H_CORE)
    def test_sparse_three_rows(self, h):
        rows = np.random.default_rng(7).standard_normal((3, 300))
        self._assert_equal_to_reference(h, 300, rows, (1, 2, 3, 17, 101, 255, 300))

    @pytest.mark.parametrize("h", (0.85, 1.0))
    def test_orders_straddling_check_embedding_sizes(self, h):
        rows = np.cos(np.arange(2 * 256).reshape(2, 256) * 0.37)
        keep = {k + d for k in BOUNDARY_SIZES for d in (-1, 0, 1)}
        assert len({_smooth_size(k) for k in keep}) > 1
        self._assert_equal_to_reference(h, 256, rows, keep)

    def test_single_row_single_order(self):
        self._assert_equal_to_reference(0.85, 4, np.array([[0.5, 1.0, 2.0, 3.0]]), [1])
