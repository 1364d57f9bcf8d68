import math

import numpy as np
import pytest

import mfbm.gaussian_paths as gp
from mfbm.quadrature import Grid
from mfbm.gaussian_paths import (
    fbm_cov,
    fgn_autocov,
    restrict,
    simulate,
    simulate_ensemble,
)


class TestCovariance:
    def test_variance_on_diagonal(self):
        for h in (0.6, 0.75, 0.85, 1.0):
            assert fbm_cov(1.0, 1.0, h) == pytest.approx(1.0)
            assert fbm_cov(0.3, 0.3, h) == pytest.approx(0.3 ** (2 * h))

    def test_brownian_case_is_min(self):
        assert fbm_cov(0.3, 0.7, 0.5) == pytest.approx(0.3)

    def test_direct_evaluation(self):
        assert fbm_cov(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0))

    def test_zero_time(self):
        assert fbm_cov(0.0, 0.8, 0.9) == 0.0

    def test_rejects_negative_times_and_bad_h(self):
        with pytest.raises(ValueError):
            fbm_cov(-0.1, 0.5, 0.8)
        with pytest.raises(ValueError):
            fbm_cov(0.1, 0.5, 1.2)


class TestIncrementAutocovariance:
    def test_lag_zero_is_step_variance(self):
        assert fgn_autocov(0, 0.85, 1.0) == pytest.approx(1.0)
        assert fgn_autocov(0, 0.8, 0.25) == pytest.approx(0.25 ** 1.6)

    def test_brownian_increments_independent(self):
        assert fgn_autocov(1, 0.5, 1.0) == 0.0

    def test_positive_memory_value(self):
        assert fgn_autocov(1, 0.85, 1.0) == pytest.approx(0.5 * (2 ** 1.7 - 2.0))

    def test_consistent_with_node_covariance(self):
        # gamma(k) must equal the covariance of two unit-lag increments
        dt, h = 0.125, 0.85
        for k in (0, 1, 2, 7):
            direct = (
                fbm_cov((k + 1) * dt, dt, h)
                - fbm_cov(k * dt, dt, h)
            )
            assert fgn_autocov(k, h, dt) == pytest.approx(direct, rel=1e-12, abs=1e-15)


class TestSimulate:
    def test_reproducible_and_additive(self):
        grid = Grid(1.0, 128)
        a = simulate(grid, 0.85, 1234)
        b = simulate(grid, 0.85, 1234)
        assert np.array_equal(a.mixed, b.mixed)
        assert np.array_equal(a.mixed, a.fbm + a.bm)
        assert a.fbm[0] == a.bm[0] == a.mixed[0] == 0.0

    def test_components_use_disjoint_substreams(self):
        grid = Grid(1.0, 128)
        path = simulate(grid, 0.85, 1234)
        other = simulate(grid, 0.85, 1235)
        assert not np.array_equal(path.fbm, path.bm)
        assert not np.array_equal(path.mixed, other.mixed)

    def test_degenerate_h_is_linear_path(self):
        grid = Grid(1.0, 64)
        path = simulate(grid, 1.0, 7)
        xi = path.fbm[-1] / grid.nodes[-1]
        assert np.allclose(path.fbm, xi * grid.nodes, atol=1e-14)

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            simulate(Grid(1.0, 64), 1.5, 0)

    def test_ensemble_matches_single_paths(self, monkeypatch):
        grid = Grid(1.0, 64)
        n_paths = gp.BLOCK + 5  # a full block and a partial one
        for h, cholesky in ((0.85, False), (1.0, False), (0.85, True)):
            with monkeypatch.context() as patch:
                if cholesky:
                    patch.setattr(gp, "_embedding_eigenvalues", lambda *a: None)
                fbm, bm, mixed = simulate_ensemble(grid, h, 99, n_paths)
                for p in (0, 1, 4, gp.BLOCK - 1, gp.BLOCK, n_paths - 1):
                    path = simulate(grid, h, 99, path_index=p)
                    assert np.array_equal(path.fbm, fbm[p])
                    assert np.array_equal(path.bm, bm[p])
                    assert np.array_equal(path.mixed, mixed[p])

    def test_ensemble_independent_of_thread_count(self):
        grid = Grid(1.0, 64)
        n_paths = 2 * gp.BLOCK + 7  # two full blocks and a partial one
        one = simulate_ensemble(grid, 0.85, 99, n_paths, threads=1)
        four = simulate_ensemble(grid, 0.85, 99, n_paths, threads=4)
        for a, b in zip(one, four):
            assert np.array_equal(a, b)

    def test_cholesky_fallback_agrees_in_law(self, monkeypatch):
        grid = Grid(1.0, 64)
        monkeypatch.setattr(gp, "_embedding_eigenvalues", lambda *a: None)
        fbm, _, _ = simulate_ensemble(grid, 0.85, 5, 4000)
        sample_var = np.var(fbm[:, -1], ddof=1)
        se = math.sqrt(2.0 / 3999)
        assert abs(sample_var - 1.0) <= 4 * se

    def test_sample_moments_match_covariance(self):
        grid = Grid(1.0, 64)
        n_paths = 4000
        for h in (0.8, 1.0):
            fbm, _, _ = simulate_ensemble(grid, h, 42, n_paths)
            var_end = np.var(fbm[:, -1], ddof=1)
            assert abs(var_end - 1.0) <= 3.0 * math.sqrt(2.0 / (n_paths - 1))
            k_half = 32
            emp = np.mean(fbm[:, k_half] * fbm[:, -1])
            exact = fbm_cov(0.5, 1.0, h)
            se = math.sqrt((fbm_cov(0.5, 0.5, h) * 1.0 + exact ** 2) / n_paths)
            assert abs(emp - exact) <= 3.0 * se


class TestRestrict:
    def test_exact_subsampling(self):
        fine = simulate(Grid(1.0, 256), 0.85, 5)
        coarse = restrict(fine, 4)
        assert coarse.grid.cells == 64
        assert np.array_equal(coarse.mixed, fine.mixed[::4])
        assert np.array_equal(coarse.fbm + coarse.bm, coarse.mixed)

    def test_rejects_nondivisor(self):
        fine = simulate(Grid(1.0, 256), 0.85, 5)
        with pytest.raises(ValueError):
            restrict(fine, 3)
