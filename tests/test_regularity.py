import numpy as np
import pytest

from mfbm.quadrature import Alpha, Grid
from mfbm.kernel_solve import SweepSolver
from mfbm.gaussian_paths import BLOCK, simulate_ensemble
from mfbm.regularity import (
    Variogram,
    audit_lemma_bounds,
    build_variogram,
    default_fit_window,
    fit_holder,
    mc_increment_variances,
    phi_cross_gram,
    phi_mc_weights,
    phi_variance_gram,
    second_moment_gram,
    second_moment_reduced,
)


def degenerate_case_moment(s, t):
    """Independent closed-form oracle at H = 1.

    There X = xi*t + B with standard normal xi, so E[X_s X_t] = s*t + min(s, t)
    and the drift derivative is -X_u/(1+u); expanding E(phi_t - phi_s)^2 from
    these moments gives t/(1+t) - s/(1+s).
    """

    def cross(u, v):
        return (u * v + min(u, v)) / ((1.0 + u) * (1.0 + v))

    return cross(t, t) + cross(s, s) - 2.0 * cross(s, t)


@pytest.fixture(scope="module")
def sweep_h1():
    return SweepSolver(Grid(1.0, 256), Alpha(0.0))


@pytest.fixture(scope="module")
def sweep_h85():
    return SweepSolver(Grid(1.0, 512), Alpha.from_h(0.85))


class TestDegenerateOracle:
    def test_variance(self, sweep_h1):
        field = sweep_h1.L_field(256)
        assert phi_variance_gram(field, sweep_h1.weights) == pytest.approx(0.5, abs=1e-10)

    def test_cross_moment(self, sweep_h1):
        l_half = sweep_h1.L_field(128)
        l_one = sweep_h1.L_field(256)
        expected = (0.5 * 1.0 + 0.5) / (1.5 * 2.0)
        assert phi_cross_gram(l_half, l_one, sweep_h1.weights) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("s,t", [(0.5, 1.0), (0.25, 0.5), (0.5, 0.625)])
    def test_both_formulas_match_closed_form(self, sweep_h1, s, t):
        grid = sweep_h1.grid
        l_s = sweep_h1.L_field(grid.node_index(s))
        l_t = sweep_h1.L_field(grid.node_index(t))
        expected = degenerate_case_moment(s, t)
        gram = second_moment_gram(s, t, l_s, l_t, sweep_h1.weights)
        reduced = second_moment_reduced(s, t, l_s, l_t)
        assert gram == pytest.approx(expected, abs=1e-10)
        assert reduced.value == pytest.approx(expected, abs=1e-10)

    def test_equal_arguments_vanish(self, sweep_h1):
        field = sweep_h1.L_field(128)
        assert second_moment_gram(0.5, 0.5, field, field, sweep_h1.weights) == 0.0


class TestSecondMoments:
    def test_variance_positive(self, sweep_h85):
        grid = sweep_h85.grid
        l_s = sweep_h85.L_field(256)
        l_t = sweep_h85.L_field(grid.nearest_node_index(0.6))
        reduced = second_moment_reduced(0.5, 0.6, l_s, l_t)
        assert reduced.value > 0.0
        assert second_moment_gram(0.5, 0.6, l_s, l_t, sweep_h85.weights) > 0.0

    def test_formula_agreement_two_percent(self, sweep_h85):
        grid = sweep_h85.grid
        for (s, t) in [(0.25, 0.3), (0.5, 0.6), (0.5, 0.9)]:
            ks, kt = grid.nearest_node_index(s), grid.nearest_node_index(t)
            l_s, l_t = sweep_h85.L_field(ks), sweep_h85.L_field(kt)
            s_node, t_node = grid.nodes[ks], grid.nodes[kt]
            reduced = second_moment_reduced(s_node, t_node, l_s, l_t).value
            gram = second_moment_gram(s_node, t_node, l_s, l_t, sweep_h85.weights)
            assert abs(gram - reduced) <= 0.02 * abs(reduced)

    def test_self_convergence_order(self):
        # fixed dyadic pair, refining grids: observed order >= 0.5
        alpha = Alpha.from_h(0.85)
        values = []
        for n in (128, 256, 512, 1024):
            grid = Grid(1.0, n)
            sweep = SweepSolver(grid, alpha)
            l_s = sweep.L_field(grid.node_index(0.5))
            l_t = sweep.L_field(grid.node_index(0.625))
            values.append(second_moment_reduced(0.5, 0.625, l_s, l_t).value)
        errors = np.abs(np.array(values[:-1]) - values[-1])
        # successive error ratio consistent with at least order 0.5
        assert errors[1] <= errors[0]
        assert errors[2] <= errors[1] * 0.8

    def test_rejects_equal_limits_in_reduced(self, sweep_h85):
        field = sweep_h85.L_field(256)
        with pytest.raises(ValueError):
            second_moment_reduced(0.5, 0.5, field, field)

    def test_rejects_mismatched_grids(self, sweep_h85):
        other = SweepSolver(Grid(1.0, 256), Alpha.from_h(0.85))
        with pytest.raises(ValueError):
            second_moment_gram(0.5, 1.0, other.L_field(128), sweep_h85.L_field(512),
                               sweep_h85.weights)


class TestVariogram:
    def test_degenerate_case_exact_curve(self):
        variogram = build_variogram(1.0, 0.5, 4, 256, method="reduced")
        expected = np.array([degenerate_case_moment(0.5, 0.5 + lag) for lag in variogram.lags])
        assert np.max(np.abs(variogram.values - expected) / expected) <= 1e-10

    def test_methods_agree(self):
        v_gram = build_variogram(0.85, 0.5, 4, 256, method="gram")
        v_red = build_variogram(0.85, 0.5, 4, 256, method="reduced")
        assert np.all(np.abs(v_gram.values - v_red.values) <= 0.03 * v_red.values)

    def test_monte_carlo_within_three_stderr(self):
        v_mc = build_variogram(0.85, 0.5, 3, 256, method="monte_carlo",
                               seed=99, n_paths=3000, mc_refine=2)
        v_red = build_variogram(0.85, 0.5, 3, 256, method="reduced")
        assert v_mc.stderr is not None
        z = np.abs(v_mc.values - v_red.values) / v_mc.stderr
        assert np.max(z) < 3.0

    def test_under_resolved_lag_rejected(self):
        with pytest.raises(ValueError):
            build_variogram(0.85, 0.5, 6, 256, method="reduced")

    def test_lag_leaving_grid_rejected(self):
        with pytest.raises(ValueError):
            build_variogram(0.85, 0.875, 3, 256, method="reduced")

    def test_negative_values_rejected_by_type(self):
        with pytest.raises(ValueError):
            Variogram(h=0.85, base_point=0.5, lags=np.array([0.1]),
                      values=np.array([-1.0]), method="reduced", stderr=None,
                      grid_cells=256, horizon=1.0)


class TestHolderFit:
    def _synthetic(self, exponent, n_lags=6):
        lags = 0.5 * 2.0 ** -np.arange(1, n_lags + 1)
        return Variogram(h=0.85, base_point=0.5, lags=lags, values=lags ** exponent,
                         method="reduced", stderr=None, grid_cells=1024, horizon=1.0)

    def test_exact_power_law(self):
        fit = fit_holder(self._synthetic(0.3), window=(1e-9, 1.0))
        assert fit.slope == pytest.approx(0.3, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 6

    @pytest.mark.parametrize("h,target", [(0.8, 0.2), (0.85, 0.4), (0.9, 0.6)])
    def test_target_exponent(self, h, target):
        v = self._synthetic(0.3)
        v = Variogram(h=h, base_point=v.base_point, lags=v.lags, values=v.values,
                      method=v.method, stderr=None, grid_cells=1024, horizon=1.0)
        assert fit_holder(v, window=(1e-9, 1.0)).target == pytest.approx(target)

    def test_default_window(self):
        grid = Grid(1.0, 1024)
        lo, hi = default_fit_window(grid, 0.5)
        assert lo == pytest.approx(16.0 / 1024)
        assert hi == pytest.approx(0.125)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_holder(self._synthetic(0.3, n_lags=3), window=(1e-9, 1.0))

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            fit_holder(self._synthetic(0.3), window=(0.5, 0.1))


class TestBoundAudits:
    def test_constant_kernel_constants_exact(self):
        reports = audit_lemma_bounds(Alpha(0.0), 0.5, 0.625, [128, 256, 512])
        for part, report in reports.items():
            assert abs(report.stability_ratio - 1.0) <= 1e-10, part

    def test_h085_stability(self):
        reports = audit_lemma_bounds(Alpha.from_h(0.85), 0.5, 0.625, [128, 256, 512])
        for report in reports.values():
            assert 0.8 <= report.stability_ratio <= 1.25
            assert all(np.isfinite(c) and c >= 0.0 for c in report.constants)

    def test_bounded_rhs_envelope(self):
        reports = audit_lemma_bounds(Alpha.from_h(0.85), 0.5, 0.625, [128, 256])
        report = reports["i"]
        assert report.envelope is not None
        assert all(c <= report.envelope for c in report.constants)

    def test_rejects_unsorted_sweep(self):
        with pytest.raises(ValueError):
            audit_lemma_bounds(Alpha(0.0), 0.5, 0.625, [256, 128])


class TestMcMachinery:
    def test_variance_within_three_stderr_of_gram(self, sweep_h85):
        grid = sweep_h85.grid
        field = sweep_h85.L_field(256)
        target = phi_variance_gram(field, sweep_h85.weights)
        _, var_s = mc_increment_variances(0.85, 256, [320], grid, seed=11,
                                          n_paths=3000, refine=2)
        se = target * np.sqrt(2.0 / 2999)
        assert abs(var_s - target) <= 3.0 * se

    def test_streamed_moments_match_ensemble_oracle(self):
        # Oracle: whole ensemble, increments by differencing the node paths.
        h, seed, refine = 0.85, 3, 2
        n_paths = 2 * BLOCK + 3
        grid = Grid(1.0, 64)
        ks, kts = 32, [36, 40, 48]
        fine = Grid(1.0, 64 * refine)
        fine_ks, fine_kts = ks * refine, [k * refine for k in kts]
        fields = SweepSolver(fine, Alpha.from_h(h)).L_sweep([fine_ks, *fine_kts])
        fbm, bm, _ = simulate_ensemble(fine, h, seed, n_paths)
        fgn, white = np.diff(fbm, axis=1), np.diff(bm, axis=1)

        def phi(k):
            a_w, b_w = phi_mc_weights(fields[k])
            return fgn[:, :k] @ a_w + white[:, :k] @ b_w

        want = [np.var(phi(k) - phi(fine_ks), ddof=1) for k in fine_kts]
        runs = [mc_increment_variances(h, ks, kts, grid, seed, n_paths, refine=refine,
                                       threads=threads) for threads in (1, 2)]
        variances, var_s = runs[0]
        np.testing.assert_allclose(variances, want, rtol=1e-12, atol=0.0)
        assert var_s == pytest.approx(np.var(phi(fine_ks), ddof=1), rel=1e-12)
        assert variances.tobytes() == runs[1][0].tobytes()
        assert var_s == runs[1][1]

    def test_rejects_bad_refine(self, sweep_h85):
        with pytest.raises(ValueError):
            mc_increment_variances(0.85, 256, [320], sweep_h85.grid, seed=1,
                                   n_paths=10, refine=0)
