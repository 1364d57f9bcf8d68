import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfbm.gaussian_paths as gp
from mfbm.exceptions import NumericalError
from mfbm.quadrature import Grid
from mfbm.gaussian_paths import (
    fgn_autocov,
    restrict,
    simulate,
    simulate_ensemble,
)
from oracles import fbm_cov


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

    def test_ensemble_matches_single_paths(self):
        grid = Grid(1.0, 64)
        n_paths = gp.BLOCK + 5  # a full block and a partial one
        for h in (0.85, 1.0):
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

    @pytest.mark.parametrize("h", [0.85, 1.0])
    def test_node_moments_match_stored_ensemble(self, h):
        grid = Grid(1.0, 64)
        n_paths = 2 * gp.BLOCK + 7  # two full blocks and a partial one
        mean, var = gp.node_moments(grid, h, 99, n_paths, threads=1)
        ensemble = np.array(simulate_ensemble(grid, h, 99, n_paths))
        for got, want in ((mean, ensemble.mean(axis=1)), (var, ensemble.var(axis=1, ddof=1))):
            assert got.shape == want.shape == (3, grid.cells + 1)
            for row in range(3):
                scale = max(1.0, np.max(np.abs(want[row])))
                assert np.max(np.abs(got[row] - want[row])) <= 1e-12 * scale
        four = gp.node_moments(grid, h, 99, n_paths, threads=4)
        assert np.array_equal(mean, four[0]) and np.array_equal(var, four[1])

    def test_node_moments_need_two_paths(self):
        with pytest.raises(ValueError):
            gp.node_moments(Grid(1.0, 64), 0.85, 0, 1)

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


class TestStreams:
    """Path p draws from default_rng(SeedSequence(seed, spawn_key=(component, p)))."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([0, 7, 2**32 - 1, 2**32, 2**64 + 3, 10**99 + 289]) | st.integers(0, 2**130),
        component=st.sampled_from([gp.FBM_STREAM, gp.BM_STREAM]),
        paths=st.lists(
            st.integers(0, gp.BLOCK + 5) | st.sampled_from([2**32 - 1, 2**32]) | st.integers(0, 2**70),
            min_size=1, max_size=8,
        ),
    )
    def test_states_match_numpy_seeding(self, seed, component, paths):
        # One call mixes indices of one, two and three uint32 words.
        got = gp._stream_states(seed, component, paths)
        assert len(got) == len(paths)
        for p, (state, inc) in zip(paths, got):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(component, p))).state
            assert want["state"] == {"state": state, "inc": inc}, (seed, component, p)

    def test_normals_are_the_stated_substreams(self):
        grid = Grid(1.0, 64)
        seed, first, count = 2**64 + 3, 2**32 - 2, 4  # the block straddles a second index word
        z, white = gp._normals(grid, 0.85, seed, first, count)
        for i, p in enumerate(range(first, first + count)):
            for out, component in ((z, gp.FBM_STREAM), (white, gp.BM_STREAM)):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(component, p)))
                assert np.array_equal(out[i], rng.standard_normal(out.shape[1]))

    @pytest.mark.parametrize("h, seed, first, count, digest", [
        (0.85, 7, 60, 8, "09ec67a794e6aafcb1048dfd6a408f06dc262fb6c9b88ebf6e5aea583ef8f48d"),
        (1.0, 2**64 + 3, 2**32 - 4, 8, "3a9d54dbfd4e4542074ab79adcc21f06bf9caefaf7648011536408a199015561"),
    ])
    def test_golden_normals(self, h, seed, first, count, digest):
        # Digests of the normals as drawn by one SeedSequence and default_rng per path.
        z, white = gp._normals(Grid(1.0, 64), h, seed, first, count)
        data = z.astype("<f8").tobytes() + white.astype("<f8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("seed, path", [(-1, 0), (0, -1)])
    def test_rejects_negative_entropy(self, seed, path):
        with pytest.raises(ValueError):
            gp._stream_states(seed, gp.FBM_STREAM, [path])


class TestIncrementsTranspose:
    """increments_transpose is the transpose of the synthesis in _increments."""

    @settings(max_examples=40, deadline=None)
    @given(
        branch=st.sampled_from(["circulant", "h_one"]),
        h=st.floats(min_value=0.51, max_value=0.99),
        n=st.sampled_from([2, 8, 64, 256]),
        horizon=st.floats(min_value=0.25, max_value=4.0),
        rows=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_functionals_of_normals_match_synthesized_paths(self, branch, h, n, horizon, rows, seed):
        grid = Grid(horizon, n)
        h = 1.0 if branch == "h_one" else h
        a, b = np.random.default_rng(seed).standard_normal((2, rows, n))
        z, white = gp._normals(grid, h, seed, 0, 3)
        fgn, dB = gp._increments(grid, h, z, white)
        A, B = gp.increments_transpose(grid, h, a, b)
        want = fgn @ a.T + dB @ b.T
        # Scale of the sums: the error bound of a dot product is relative to it.
        scale = np.abs(fgn) @ np.abs(a.T) + np.abs(dB) @ np.abs(b.T)
        assert A.shape == (rows, z.shape[1]) and B.shape == (rows, n)
        assert np.all(np.abs(z @ A.T + white @ B.T - want) <= 1e-12 * scale)


class TestEmbedding:
    """The order-2n circulant embedding is the only long-memory synthesizer."""

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        n=st.sampled_from([2 ** j for j in range(1, 14)]),
    )
    def test_nonnegative_up_to_the_largest_cli_grid(self, h, n):
        # n * mc_refine <= 8192 bounds every sampling grid the CLI builds; the
        # eigenvalue ratio does not depend on the step, a factor dt**2H.
        amp = gp._amplitudes(n, h, 1.0 / n)
        assert amp.shape == (n + 1,) and np.all(amp >= 0.0) and not amp.flags.writeable

    def test_indefinite_embedding_raises(self):
        # Rounding in fgn_autocov makes this one embedding indefinite, with a
        # min/max eigenvalue ratio of about -1.7e-9.
        with pytest.raises(NumericalError, match=r"n=65536, H=0\.999999\): min/max eigenvalue -1\.\d+e-09"):
            simulate(Grid(1.0, 2 ** 16), 0.999999, 0)


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
