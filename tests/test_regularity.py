import re
import warnings

import numpy as np
import pytest

from mfbm import kernel_solve
from mfbm.quadrature import Alpha, Grid, edge_fit, riesz_moment
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
        assert phi_cross_gram(field, field, sweep_h1.weights) == pytest.approx(0.5, abs=1e-10)

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
        gram = second_moment_gram(l_s, l_t, sweep_h1.weights)
        reduced = second_moment_reduced(l_s, l_t)
        assert gram == pytest.approx(expected, abs=1e-10)
        assert reduced == pytest.approx(expected, abs=1e-10)

    def test_equal_arguments_vanish(self, sweep_h1):
        field = sweep_h1.L_field(128)
        assert second_moment_gram(field, field, sweep_h1.weights) == 0.0


class TestSecondMoments:
    def test_variance_positive(self, sweep_h85):
        grid = sweep_h85.grid
        l_s = sweep_h85.L_field(256)
        l_t = sweep_h85.L_field(grid.nearest_node_index(0.6))
        assert second_moment_reduced(l_s, l_t) > 0.0
        assert second_moment_gram(l_s, l_t, sweep_h85.weights) > 0.0

    def test_formula_agreement_two_percent(self, sweep_h85):
        grid = sweep_h85.grid
        for (s, t) in [(0.25, 0.3), (0.5, 0.6), (0.5, 0.9)]:
            ks, kt = grid.nearest_node_index(s), grid.nearest_node_index(t)
            l_s, l_t = sweep_h85.L_field(ks), sweep_h85.L_field(kt)
            reduced = second_moment_reduced(l_s, l_t)
            gram = second_moment_gram(l_s, l_t, sweep_h85.weights)
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
            values.append(second_moment_reduced(l_s, l_t))
        errors = np.abs(np.array(values[:-1]) - values[-1])
        # successive error ratio consistent with at least order 0.5
        assert errors[1] <= errors[0]
        assert errors[2] <= errors[1] * 0.8

    def test_rejects_equal_limits_in_reduced(self, sweep_h85):
        field = sweep_h85.L_field(256)
        with pytest.raises(ValueError):
            second_moment_reduced(field, field)

    def test_rejects_reversed_limits(self, sweep_h85):
        l_s, l_t = sweep_h85.L_field(256), sweep_h85.L_field(320)
        with pytest.raises(ValueError, match="need s <= t"):
            second_moment_gram(l_t, l_s, sweep_h85.weights)

    def test_rejects_mismatched_grids(self, sweep_h85):
        other = SweepSolver(Grid(1.0, 256), Alpha.from_h(0.85))
        with pytest.raises(ValueError):
            second_moment_gram(other.L_field(128), sweep_h85.L_field(512), sweep_h85.weights)

    def test_rejects_weights_of_another_exponent(self, sweep_h1):
        # W at H = 1 on H = 0.85 fields of the same upper limits
        sweep_h85 = SweepSolver(sweep_h1.grid, Alpha.from_h(0.85))
        l_half, l_one = sweep_h85.L_field(128), sweep_h85.L_field(256)
        with pytest.raises(ValueError, match="different exponents"):
            phi_cross_gram(l_half, l_one, sweep_h1.weights)
        with pytest.raises(ValueError, match="different exponents"):
            second_moment_gram(l_half, l_one, sweep_h1.weights)

    def test_rejects_weights_of_another_grid(self, sweep_h85):
        other = SweepSolver(Grid(1.0, 256), Alpha.from_h(0.85))
        l_s, l_t = sweep_h85.L_field(256), sweep_h85.L_field(320)
        with pytest.raises(ValueError, match="different grids"):
            phi_cross_gram(l_s, l_t, other.weights)
        with pytest.raises(ValueError, match="different grids"):
            second_moment_gram(l_s, l_s, other.weights)


def closure_reduced_moment(L_s, L_t):
    """The reduced moment with its three boundary integrals written out one
    by one, each with its own copy of the two-cell edge model: the
    reference for the shared edge-weighted integral."""
    grid, alpha = L_s.grid, L_s.alpha
    ks, kt = L_s.s_index, L_t.s_index
    a = alpha.value
    h = grid.h
    nodes = grid.nodes
    mids = grid.midpoints
    s_node = float(nodes[ks])
    t_node = float(nodes[kt])

    def i3_term():
        v = L_t.values[ks:kt]
        n_edge = min(2, kt - ks)
        interior = np.arange(ks, kt - n_edge)
        total = 0.0
        if interior.size:
            total += float(v[: interior.size] @ riesz_moment(nodes[interior], nodes[interior + 1], t_node, a))
        c, d = edge_fit(v[v.size - n_edge:], a, h)
        cells = np.arange(kt - n_edge, kt)
        total += float(np.sum(
            c * riesz_moment(nodes[cells], nodes[cells + 1], t_node, 2.0 * a)
            + d * riesz_moment(nodes[cells], nodes[cells + 1], t_node, a)
        ))
        return total

    def i1_term():
        dvals = L_t.values[:ks] - L_s.values
        n_edge = min(2, ks)
        interior = np.arange(0, ks - n_edge)
        total = 0.0
        if interior.size:
            total += float(dvals[interior] @ riesz_moment(nodes[interior], nodes[interior + 1], t_node, a))
        c, d = edge_fit(dvals[ks - n_edge:], a, h)
        for j in range(ks - n_edge, ks):
            total += c * (t_node - mids[j]) ** (-a) * riesz_moment(nodes[j], nodes[j + 1], s_node, a)
            total += d * riesz_moment(nodes[j], nodes[j + 1], t_node, a)
        return total

    def i2_term():
        v = L_s.values
        n_edge = min(2, ks)
        interior = np.arange(0, ks - n_edge)
        total = 0.0
        if interior.size:
            w = (riesz_moment(nodes[interior], nodes[interior + 1], s_node, a)
                 - riesz_moment(nodes[interior], nodes[interior + 1], t_node, a))
            total += float(v[interior] @ w)
        c, d = edge_fit(v[ks - n_edge:], a, h)
        for j in range(ks - n_edge, ks):
            total += c * (riesz_moment(nodes[j], nodes[j + 1], s_node, 2.0 * a)
                          - (t_node - mids[j]) ** (-a) * riesz_moment(nodes[j], nodes[j + 1], s_node, a))
            total += d * (riesz_moment(nodes[j], nodes[j + 1], s_node, a)
                          - riesz_moment(nodes[j], nodes[j + 1], t_node, a))
        return total

    return float(-alpha.coeff * (i1_term() + i2_term() + i3_term()))


class TestReducedMomentReference:
    """The shared edge-weighted integral reproduces the three hand-written
    boundary integrals, one- and two-sample edge fits included (variogram
    lags never reach the one-sample branch: they span at least 8 cells)."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("h", [0.76, 0.85, 0.9, 1.0])
    def test_matches_closure_reference(self, h, n):
        pairs = [(ks, ks + gap) for ks in (1, 2, 3) for gap in (1, 2, 3)]
        pairs += [(n // 2, n // 2 + n // 8), (n // 4, 3 * n // 4)]
        fields = SweepSolver(Grid(1.0, n), Alpha.from_h(h)).L_sweep({k for pair in pairs for k in pair})
        got = [second_moment_reduced(fields[ks], fields[kt]) for ks, kt in pairs]
        want = [closure_reduced_moment(fields[ks], fields[kt]) for ks, kt in pairs]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown variogram method 'spline'"):
            build_variogram(0.85, 0.5, 4, 256, method="spline")

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

    def test_huge_upper_bound_pulls_in_no_lag_below_the_window(self):
        # lags 1/128 .. 1/4; each bound is padded relative to itself, so an
        # upper bound of 1e11 must not widen the lower one past 1/64
        v = build_variogram(0.85, 0.5, 6, 1024, method="reduced")
        wide, tight = fit_holder(v, window=(0.02, 1e11)), fit_holder(v, window=(0.02, 0.25))
        assert wide.n_points == tight.n_points == 4
        assert wide.slope == tight.slope


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

    @pytest.mark.parametrize("sweep", [[64, 64], [128, 256, 256], [64, 128, 128, 256]])
    def test_rejects_repeated_size(self, sweep):
        # a repeated size reports its own constant twice: a vacuous ratio of 1
        with pytest.raises(ValueError, match="strictly increase"):
            audit_lemma_bounds(Alpha.from_h(0.85), 0.5, 0.625, sweep)

    @pytest.mark.parametrize("sweep", [[256], []])
    def test_rejects_fewer_than_two_sizes(self, sweep):
        # one size has nothing to be stable against: its ratio would read 1
        with pytest.raises(ValueError, match="at least two sizes that strictly increase"):
            audit_lemma_bounds(Alpha.from_h(0.85), 0.5, 0.625, sweep)

    @pytest.mark.parametrize("s, t, sweep, nodes", [
        # s and t share a node at n = 64, which once gave an infinite ratio
        (0.5, 0.501, [64, 4096], (64, 32, 32)),
        (0.001, 0.625, [128, 256, 512, 1024], (128, 0, 80)),
    ])
    def test_rejects_points_off_distinct_nodes(self, s, t, sweep, nodes):
        n, ks, kt = nodes
        message = f"s={s} and t={t} must round to distinct nodes after 0 on every grid, " \
                  f"but at n={n} they round to nodes {ks} and {kt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                audit_lemma_bounds(Alpha.from_h(0.85), s, t, sweep)

    def test_cg_solves_per_size(self, monkeypatch):
        passes, solves = [], []
        solve, levinson = kernel_solve._cg_forward, kernel_solve._prefix_solutions

        def solving(column, k):
            solves.append(k)
            return solve(column, k)

        def recording(*args):
            passes.append(args)
            return levinson(*args)

        monkeypatch.setattr(kernel_solve, "_cg_forward", solving)
        monkeypatch.setattr(kernel_solve, "_prefix_solutions", recording)
        audit_lemma_bounds(Alpha.from_h(0.85), 0.5, 0.625, [64, 128, 256, 512])
        # per size: one solve each at s and t serves L, g and part iii, and
        # one more at s the difference kernel; no Levinson pass runs
        assert solves == [k for n in (64, 128, 256, 512) for k in (n // 2, 5 * n // 8, n // 2)]
        assert passes == []


class TestMcMachinery:
    def test_variance_within_three_stderr_of_gram(self, sweep_h85):
        grid = sweep_h85.grid
        field = sweep_h85.L_field(256)
        target = phi_cross_gram(field, field, sweep_h85.weights)
        _, var_s = mc_increment_variances(0.85, 256, [320], grid, seed=11,
                                          n_paths=3000, refine=2)
        se = target * np.sqrt(2.0 / 2999)
        assert abs(var_s - target) <= 3.0 * se

    def test_streamed_moments_match_ensemble_oracle(self):
        # Oracle: whole ensemble, increments by differencing the node paths.
        seed, refine = 3, 2
        n_paths = 2 * BLOCK + 3
        grid = Grid(1.0, 64)
        ks, kts = 32, [36, 40, 48]
        fine = Grid(1.0, 64 * refine)
        fine_ks, fine_kts = ks * refine, [k * refine for k in kts]
        for h in (0.85, 1.0):
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

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_rejects_fewer_than_two_paths(self, sweep_h85, n_paths):
        # a sample variance of one path is NaN, and of none there is no sample
        with pytest.raises(ValueError, match=f"at least 2 paths, got {n_paths}"):
            mc_increment_variances(0.85, 256, [320], sweep_h85.grid, seed=1, n_paths=n_paths)
