import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from mfbm.quadrature import (
    Alpha,
    Grid,
    build_weight_matrix,
    edge_fit,
    integrate_with_edge,
    edge_weighted_integral,
    riesz_moment,
)


class TestAlpha:
    def test_bounds(self):
        Alpha(0.0)
        Alpha(0.4999)
        with pytest.raises(ValueError):
            Alpha(0.5)
        with pytest.raises(ValueError):
            Alpha(-0.01)

    def test_from_h(self):
        assert Alpha.from_h(1.0).value == 0.0
        assert Alpha.from_h(0.85).value == pytest.approx(0.3)
        with pytest.raises(ValueError):
            Alpha.from_h(0.75)
        with pytest.raises(ValueError):
            Alpha.from_h(1.01)

    def test_coefficient_names_agree_exactly(self):
        for a in (0.0, 0.1, 0.3, 0.4, 0.49):
            alpha = Alpha(a)
            h = alpha.h
            assert alpha.coeff == pytest.approx(h * (2 * h - 1), rel=1e-15)
            assert 0.75 < h <= 1.0


class TestGrid:
    def test_structure(self):
        g = Grid(2.0, 8)
        assert g.h == 0.25
        assert np.all(np.diff(g.nodes) > 0)
        spacings = np.diff(g.nodes)
        assert np.allclose(spacings, g.h, rtol=0, atol=1e-15)
        # midpoints never hit nodes
        assert np.min(np.abs(g.midpoints[:, None] - g.nodes[None, :])) >= 0.4 * g.h

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 8)
        with pytest.raises(ValueError):
            Grid(1.0, 1)

    def test_rejects_subnormal_cell_width(self):
        tiny = np.finfo(float).tiny
        assert Grid(64 * tiny, 64).h == tiny
        with pytest.raises(ValueError, match="subnormal"):
            Grid(32 * tiny, 64)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_nonfinite_or_nonpositive_horizon(self, horizon):
        with pytest.raises(ValueError):
            Grid(horizon, 8)

    def test_node_index(self):
        g = Grid(1.0, 64)
        assert g.node_index(0.5) == 32
        assert g.node_index(1.0) == 64
        with pytest.raises(ValueError):
            g.node_index(0.51)
        assert g.nearest_node_index(0.51) == 33

    def test_node_tolerance_is_relative_to_the_cell(self):
        # 1.234e-13 lies 0.10 h off node 8 of a grid with h = 1.5625e-14
        with pytest.raises(ValueError, match="t0=1.234e-13 is not a grid node"):
            Grid(1e-12, 64).node_index(1.234e-13, "t0")
        for horizon in (1e-300, 1.0, 7.3, 1e8, 1e300):
            assert Grid(horizon, 256).node_index(horizon / 2) == 128

    @pytest.mark.parametrize("t", [-0.25, 2.0, float("nan"), float("inf")])
    def test_nearest_node_index_refuses_a_time_off_the_horizon(self, t):
        # once clamped to node 0 or node n without a word
        with pytest.raises(ValueError, match=re.escape(f"s={t} is outside [0, 1.0]")):
            Grid(1.0, 64).nearest_node_index(t, "s")


class TestRieszMoment:
    def test_full_singularity_at_endpoint(self):
        # integral of (1 - tau)^(-1/2) over [0, 1] is 2
        assert riesz_moment(0.0, 1.0, 1.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_interior_split(self):
        # symmetric split around r = 1/2 at exponent 1/2: 2 * 2 * sqrt(1/2)
        assert riesz_moment(0.0, 1.0, 0.5, 0.5) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_constant_kernel(self):
        assert riesz_moment(0.2, 0.7, 5.0, Alpha(0.0)) == pytest.approx(0.5, abs=0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            riesz_moment(1.0, 1.0, 0.5, Alpha(0.3))
        with pytest.raises(ValueError):
            riesz_moment(0.7, 0.2, 0.5, Alpha(0.3))
        with pytest.raises(ValueError, match="a >= 0"):
            riesz_moment(-0.1, 0.2, 0.5, Alpha(0.3))

    @pytest.mark.parametrize(
        "a,b,r,exponent",
        [
            (0.1, 0.9, 0.3, 0.3),
            (0.0, 0.5, 0.7, 0.45),
            (0.25, 1.5, 1.0, 0.2),
            (0.3, 0.8, 0.8, 0.4),
        ],
    )
    def test_against_adaptive_quadrature(self, a, b, r, exponent):
        # independent oracle: adaptive quadrature with the singular point declared
        expected, _ = quad(
            lambda tau: abs(r - tau) ** (-exponent), a, b,
            points=[r] if a < r < b else None, limit=200,
        )
        assert riesz_moment(a, b, r, exponent) == pytest.approx(expected, rel=1e-9)


class TestWeightMatrix:
    def test_constant_kernel_entries(self):
        w = build_weight_matrix(Grid(1.0, 2), Alpha(0.0))
        assert np.allclose(w.entries, 0.5, rtol=0, atol=0)

    def test_first_cell_split_moment(self):
        # m_0 = 0.25 against cell [0, 0.5] at exponent 1/2 gives 2
        g = Grid(1.0, 2)
        assert riesz_moment(g.nodes[0], g.nodes[1], g.midpoints[0], 0.5) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("exponent", [0.0, 0.2, 0.3, 0.45])
    def test_row_sum_identity(self, n, exponent):
        grid = Grid(1.0, n)
        alpha = Alpha(exponent)
        w = build_weight_matrix(grid, alpha)
        p = 1.0 - exponent
        exact = (grid.midpoints ** p + (1.0 - grid.midpoints) ** p) / p
        sums = np.array([math.fsum(row) for row in w.entries])
        assert np.all(np.abs(sums - exact) <= 8.0 * np.spacing(exact))

    def test_entries_positive_finite(self):
        w = build_weight_matrix(Grid(2.0, 128), Alpha(0.45))
        assert np.all(np.isfinite(w.entries))
        assert np.all(w.entries > 0)

    def test_rejects_a_vanishing_moment(self):
        # a stand-in grid whose second midpoint lies so far away that the
        # cell's moment rounds to 0; a Grid cannot do this
        far = SimpleNamespace(nodes=np.array([0.0, 1.0, 2.0]), midpoints=np.array([0.5, 1e300]))
        with pytest.raises(ValueError, match="finite and positive"):
            build_weight_matrix(far, Alpha(0.3))

    def test_matches_pointwise_definition(self):
        grid = Grid(1.0, 32)
        alpha = Alpha(0.3)
        w = build_weight_matrix(grid, alpha)
        for i in (0, 7, 31):
            for j in (0, 15, 31):
                direct = riesz_moment(grid.nodes[j], grid.nodes[j + 1], grid.midpoints[i], alpha)
                assert w.entries[i, j] == pytest.approx(direct, abs=1e-15)

    def test_shift_symmetry(self):
        # uniform grid: entries depend on i - j only, and the kernel is even
        w = build_weight_matrix(Grid(1.0, 64), Alpha(0.25)).entries
        assert np.max(np.abs(w - w.T)) <= 1e-14
        for d in (1, 5, 20):
            band = np.diagonal(w, offset=d)
            assert np.max(np.abs(band - band[0])) <= 1e-14

    def test_monotone_decay_from_collocation_point(self):
        grid = Grid(1.0, 64)
        w = build_weight_matrix(grid, Alpha(0.3)).entries
        for i in (0, 20, 63):
            dist = np.abs(grid.midpoints[i] - grid.midpoints)
            order = np.argsort(dist)
            values = w[i, order]
            distances = dist[order]
            strictly_farther = np.diff(distances) > 1e-12
            assert np.all(np.diff(values)[strictly_farther] < 0)


class TestEdgeTools:
    def test_one_sided_moment_closed_form(self):
        # integral of (1 - tau)^(-0.6) over [0.5, 1]
        expected = 0.5 ** 0.4 / 0.4
        assert riesz_moment(0.5, 1.0, 1.0, 0.6) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(ValueError):
            riesz_moment(0.5, 1.0, 1.0, 1.0)

    def test_edge_fit_reproduces_model(self):
        h = 0.01
        c_true, d_true = 2.5, -0.7
        beta = 0.35
        v = [c_true * (1.5 * h) ** (-beta) + d_true, c_true * (0.5 * h) ** (-beta) + d_true]
        c, d = edge_fit(v, beta, h)
        assert c == pytest.approx(c_true, rel=1e-12)
        assert d == pytest.approx(d_true, rel=1e-10)

    def test_edge_fit_degenerate_exponent(self):
        c, d = edge_fit([3.0, 3.5], 0.0, 0.1)
        assert c == 0.0 and d == 3.5

    def test_edge_fit_needs_a_sample(self):
        with pytest.raises(ValueError, match="at least one sample"):
            edge_fit([], 0.3, 0.1)

    def test_integrate_with_edge_exact_on_power_density(self):
        # density (t_k - tau)^(-0.5) + 2 integrated over [0, t_k]
        grid = Grid(1.0, 256)
        k = 192
        upper = grid.nodes[k]
        values = (upper - grid.midpoints[:k]) ** (-0.5) + 2.0
        result = integrate_with_edge(values, grid, k, 0.5)
        exact = 2.0 * math.sqrt(upper) + 2.0 * upper
        # interior midpoint rule limits global accuracy, edge cells are exact
        assert result == pytest.approx(exact, rel=2e-4)

    def test_integrate_with_edge_constant(self):
        grid = Grid(1.0, 64)
        values = np.full(32, 3.0)
        assert integrate_with_edge(values, grid, 32, 0.3) == pytest.approx(1.5, rel=1e-12)

    def test_integrate_with_edge_rejects_bad_cells(self):
        with pytest.raises(ValueError, match="cover exactly the cells below"):
            integrate_with_edge(np.ones(31), Grid(1.0, 64), 32, 0.3)

    def test_edge_weighted_integral_exact_on_edge_model(self):
        # v = C (t_e - tau)^(-b) + D on the two edge cells against (t_e - tau)^(-b):
        # the fit is exact and both parts are integrated in closed form
        grid, b, c_true, d_true = Grid(1.0, 64), 0.3, 1.7, -0.4
        t_e, width = grid.nodes[32], 2.0 * grid.h
        values = c_true * (t_e - grid.midpoints[30:32]) ** (-b) + d_true
        exact = c_true * width ** (1 - 2 * b) / (1 - 2 * b) + d_true * width ** (1 - b) / (1 - b)
        result = edge_weighted_integral(values, grid, b, 30, 32, [(1, 32)])
        assert result == pytest.approx(exact, rel=1e-12)

    def test_edge_weighted_integral_constant_density(self):
        # a constant v has C = 0: every cell takes the exact kernel moments
        grid, b = Grid(1.0, 64), 0.3
        values = np.full(20, 2.5)
        exact = 2.5 * (riesz_moment(grid.nodes[12], grid.nodes[32], grid.nodes[32], b)
                       - riesz_moment(grid.nodes[12], grid.nodes[32], grid.nodes[40], b))
        result = edge_weighted_integral(values, grid, b, 12, 32, [(1, 32), (-1, 40)])
        assert result == pytest.approx(exact, rel=1e-12)

    def test_edge_weighted_integral_rejects_bad_cells(self):
        grid = Grid(1.0, 64)
        with pytest.raises(ValueError):
            edge_weighted_integral(np.ones(3), grid, 0.3, 12, 16, [(1, 16)])
        with pytest.raises(ValueError):
            edge_weighted_integral(np.ones(0), grid, 0.3, 16, 16, [(1, 16)])
