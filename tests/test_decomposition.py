import tracemalloc

import numpy as np
import pytest

from mfbm import kernel_solve
from mfbm.cli import main as cli_main
from mfbm.exceptions import NumericalError
from mfbm.quadrature import Alpha, Grid
from mfbm.kernel_solve import RESIDUAL_TOL, SweepSolver, _prefix_solutions
from mfbm.gaussian_paths import SamplePath, restrict, simulate
from mfbm.decomposition import compute_innovation, compute_phi, decompose


def _flat_path(grid, values):
    values = np.asarray(values, dtype=float)
    zeros = np.zeros_like(values)
    return SamplePath(grid=grid, h=0.85, seed=0, fbm=values, bm=zeros, mixed=values)


@pytest.fixture(scope="module")
def sweep_h1():
    return SweepSolver(Grid(1.0, 512), Alpha(0.0))


class TestDriftDerivative:
    def test_zero_path_gives_zero(self, sweep_h1):
        grid = sweep_h1.grid
        path = _flat_path(grid, np.zeros(grid.cells + 1))
        fields = sweep_h1.L_sweep([128, 256, 512])
        drift = compute_phi(path, fields)
        assert np.all(drift.phi == 0.0)
        assert drift.s_subset[0] == 0 and drift.phi[0] == 0.0

    def test_constant_kernel_closed_form(self, sweep_h1):
        grid = sweep_h1.grid
        path = simulate(grid, 1.0, 321)
        indices = list(range(8, 513, 8))
        drift = compute_phi(path, sweep_h1.L_sweep(indices))
        times = drift.times
        expected = -path.mixed[drift.s_subset] / (1.0 + times)
        assert np.max(np.abs(drift.phi - expected)) <= 1e-8 * np.max(np.abs(path.mixed))

    def test_exactly_linear_in_the_path(self, sweep_h1):
        grid = sweep_h1.grid
        rng = np.random.default_rng(0)
        x1 = np.concatenate([[0.0], np.cumsum(rng.standard_normal(grid.cells))])
        x2 = np.concatenate([[0.0], np.cumsum(rng.standard_normal(grid.cells))])
        fields = sweep_h1.L_sweep([256, 512])
        phi1 = compute_phi(_flat_path(grid, x1), fields).phi
        phi2 = compute_phi(_flat_path(grid, x2), fields).phi
        phi12 = compute_phi(_flat_path(grid, 2.0 * x1 + x2), fields).phi
        combined = 2.0 * phi1 + phi2
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(phi12 - combined)) <= 1e-12 * scale

    def test_missing_field_rejected(self, sweep_h1):
        grid = sweep_h1.grid
        path = simulate(grid, 1.0, 1)
        with pytest.raises(ValueError):
            compute_phi(path, {})

    @pytest.mark.parametrize("index", [0, 513])
    def test_field_index_outside_the_grid_rejected(self, sweep_h1, index):
        grid = sweep_h1.grid
        path = _flat_path(grid, np.zeros(grid.cells + 1))
        with pytest.raises(ValueError, match="outside the grid"):
            compute_phi(path, {index: sweep_h1.L_field(256)})

    def test_field_of_another_grid_rejected(self, sweep_h1):
        other = SweepSolver(Grid(2.0, 512), Alpha(0.0))
        path = _flat_path(sweep_h1.grid, np.zeros(513))
        with pytest.raises(ValueError, match="index 256 solved on a different grid"):
            compute_phi(path, other.L_sweep([256]))


class TestInnovation:
    def test_deterministic_ramp_refines_to_zero_residual(self):
        # smooth input X_t = t: all outputs finite, residual vanishes under
        # refinement
        residuals = []
        for n in (128, 512):
            grid = Grid(1.0, n)
            path = _flat_path(grid, grid.nodes.copy())
            drift, innovation = decompose(path, decimation=1)
            assert np.all(np.isfinite(innovation.bbar))
            residuals.append(float(np.max(np.abs(innovation.residual))))
        assert residuals[1] < residuals[0]
        assert residuals[1] <= 0.02

    def test_constant_kernel_reconstruction(self):
        grid = Grid(1.0, 1024)
        path = simulate(grid, 1.0, 2024)
        _, innovation = decompose(path, decimation=1)
        max_res = np.max(np.abs(innovation.residual))
        assert max_res <= 0.02 * np.max(np.abs(path.mixed))

    def test_residual_decreases_with_refinement(self):
        fine = simulate(Grid(1.0, 1024), 0.85, 11)
        coarse = restrict(fine, 2)
        _, inn_coarse = decompose(coarse, decimation=1)
        _, inn_fine = decompose(fine, decimation=1)
        res_coarse = np.max(np.abs(inn_coarse.residual))
        res_fine = np.max(np.abs(inn_fine.residual))
        assert res_fine < res_coarse
        assert res_fine <= 0.05 * np.max(np.abs(fine.mixed))

    def test_quadratic_variation_near_t(self):
        path = simulate(Grid(1.0, 1024), 0.85, 3)
        _, innovation = decompose(path, decimation=1)
        qv = float(np.sum(np.diff(innovation.bbar) ** 2))
        assert abs(qv - 1.0) <= 0.10

    def test_nonpositive_diagonal_flagged(self):
        grid = Grid(1.0, 128)
        sweep = SweepSolver(grid, Alpha.from_h(0.85))
        path = simulate(grid, 0.85, 0)
        g_fields = sweep.g_sweep([64, 128])
        with pytest.raises(NumericalError):
            compute_innovation(path, g_fields, {64: -0.1, 128: 0.5})

    def test_missing_diagonal_rejected(self):
        grid = Grid(1.0, 128)
        sweep = SweepSolver(grid, Alpha.from_h(0.85))
        g_fields = sweep.g_sweep([64, 128])
        with pytest.raises(ValueError, match="node index 128"):
            compute_innovation(simulate(grid, 0.85, 0), g_fields, {64: 0.5})

    def test_subset_mismatch_rejected(self):
        grid = Grid(1.0, 128)
        alpha = Alpha.from_h(0.85)
        sweep = SweepSolver(grid, alpha)
        path = simulate(grid, 0.85, 0)
        drift = compute_phi(path, sweep.L_sweep([64, 128]))
        g_fields = sweep.g_sweep([128])
        with pytest.raises(ValueError):
            compute_innovation(path, g_fields, sweep.g_diagonal(g_fields), drift=drift)

    def test_decimation_must_divide(self):
        path = simulate(Grid(1.0, 128), 0.85, 0)
        with pytest.raises(ValueError):
            decompose(path, decimation=3)



def _close(values, reference):
    return np.max(np.abs(values - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


class TestDualPass:
    """decompose takes phi, M and g(t, t) from one pass over the path's own
    increments; the stored-field route is its oracle."""

    @pytest.mark.parametrize("h", [0.76, 0.85, 1.0])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("decimation", [1, 4])
    def test_matches_field_route(self, h, n, decimation):
        path = simulate(Grid(1.0, n), h, 17)
        sweep = SweepSolver(path.grid, Alpha.from_h(h))
        drift, innovation = decompose(path, decimation=decimation)
        indices = range(decimation, n + 1, decimation)
        g_fields = sweep.g_sweep(indices)
        drift_ref = compute_phi(path, sweep.L_sweep(indices))
        innovation_ref = compute_innovation(path, g_fields, sweep.g_diagonal(g_fields), drift=drift_ref)
        assert np.array_equal(drift.s_subset, drift_ref.s_subset)
        assert np.array_equal(innovation.subset, innovation_ref.subset)
        assert _close(drift.phi, drift_ref.phi)
        assert _close(innovation.m_values, innovation_ref.m_values)
        assert _close(innovation.bbar, innovation_ref.bbar)
        assert _close(innovation.residual, innovation_ref.residual)

    @pytest.mark.parametrize("chunk_floats", [None, 1], ids=["default_blocks", "one_order_per_block"])
    @pytest.mark.parametrize("k", [1, 64, 65, 200, 256])
    @pytest.mark.parametrize("row", [0, 1], ids=["increments", "ones"])
    def test_perturbed_solution_raises_before_it_is_yielded(self, monkeypatch, chunk_floats, k, row):
        if chunk_floats is not None:
            monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", chunk_floats)
        check = kernel_solve._check_residuals

        def perturbed(rhs, scale, solutions, *args):
            if k in solutions:
                # twice the bound in the perturbed entry's own residual
                bound = RESIDUAL_TOL * scale[row, k - 1]
                solutions[k][row, k - 1] += 2.0 * bound / sweep._system[0]
            check(rhs, scale, solutions, *args)

        monkeypatch.setattr(kernel_solve, "_check_residuals", perturbed)
        path = simulate(Grid(1.0, 256), 0.85, 5)
        sweep = SweepSolver(path.grid, Alpha.from_h(0.85))
        rows = np.array([path.increments, np.ones(256)])
        yielded = []
        with pytest.raises(NumericalError, match=f"block size {k}$"):
            for order, _ in _prefix_solutions(sweep._system, rows, range(1, 257)):
                yielded.append(order)
        assert yielded == list(range(1, len(yielded) + 1)) and len(yielded) < k
        with pytest.raises(NumericalError, match=f"block size {k}$"):
            decompose(path, decimation=1)

    @pytest.mark.parametrize("chunk_floats", [None, 1], ids=["default_blocks", "one_order_per_block"])
    def test_forced_residual_failure(self, monkeypatch, tmp_path, capsys, chunk_floats):
        if chunk_floats is not None:
            monkeypatch.setattr(kernel_solve, "_CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(kernel_solve, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match=r"block size \d+$"):
            decompose(simulate(Grid(1.0, 64), 0.85, 0), decimation=1)
        code = cli_main(["decompose", "--H", "0.85", "--n", "64", "--decimation", "1",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "residual" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_memory_is_linear_in_n(self):
        # the stored-field route peaks at about 47 MB here (n**2 / 2 floats
        # per kernel family); the dual pass holds O(n) plus the residual
        # check's 1-MB window and peaks at 3.7 MB (14.0 MB with a 4-MB block
        # and buffers that could double past it)
        path = simulate(Grid(1.0, 2048), 0.85, 7)
        tracemalloc.start()
        try:
            decompose(path, decimation=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
