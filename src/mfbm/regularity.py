"""Deterministic second moments of the drift derivative and their scaling.

Two independent evaluations of E(phi_t - phi_s)^2 are maintained:

* the Gram assembly, which integrates products of solved kernels against
  the exact cell moments (never invoking the integral equation), and
* the reduced assembly, which product-integrates the three boundary
  integrals that the equation collapses the Gram form into.

Both handle the (edge distance)**(-2a) blow-ups at the upper limits with
the fitted two-cell edge model; with exponents up to 2a = 0.4 those last
two cells carry a third of the singular mass, so midpoint sampling alone
visibly biases small lags.  Their agreement is the strongest internal
consistency check in the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import NumericalError
from .kernel_solve import KernelField, SweepSolver, check_discretization, toeplitz_matvec
from .parallelism import parallel_map  # unused here; perfbench/spans.py patches this name
from .quadrature import (
    Alpha, Grid, WeightMatrix, edge_fit, edge_weighted_integral, integrate_with_edge, riesz_moment,
)
from .gaussian_paths import increments_transpose, map_blocks
from .gaussian_paths import simulate_ensemble  # unused here; perfbench/spans.py patches this name

__all__ = [
    "Variogram",
    "HolderFit",
    "BoundReport",
    "phi_cross_gram",
    "second_moment_gram",
    "second_moment_reduced",
    "phi_mc_weights",
    "build_variogram",
    "fit_holder",
    "audit_lemma_bounds",
    "default_fit_window",
]


def _check_pair(L_s: KernelField, L_t: KernelField, *weights: WeightMatrix):
    """Raise ValueError unless both fields, and the weight matrix if one is
    passed, share grid and exponent, and L_s's upper limit is not above L_t's."""
    check_discretization(L_s, L_t, "kernel fields")
    for table in weights:
        check_discretization(table, L_s, "weight matrix and kernel fields")
    if L_s.s_index > L_t.s_index:
        raise ValueError("need s <= t (pass the smaller upper limit first)")


def phi_cross_gram(L_s: KernelField, L_t: KernelField, weights: WeightMatrix) -> float:
    """Gram cross-moment E[phi_s phi_t] for s <= t.

    Independence of the two noise components splits the moment into a
    plain product integral plus the kernel-weighted double integral; the
    double integral uses weight-matrix rows (exact inner moments, applied
    as a Toeplitz matvec) and the edge-corrected midpoint rule outside.
    The integrand behaves like (s - r)**(-2a) at r = s when s = t and like
    (s - r)**(-a) otherwise.
    """
    _check_pair(L_s, L_t, weights)
    return _cross_moment(L_s, L_t, toeplitz_matvec(weights.column, L_t.values))


def _cross_moment(L_s: KernelField, L_t: KernelField, inner_t: np.ndarray) -> float:
    """:func:`phi_cross_gram` of a checked pair, with inner_t = W L_t (the
    Toeplitz product of L_t's whole field) given."""
    grid, alpha = L_s.grid, L_s.alpha
    ka, kb = L_s.s_index, L_t.s_index
    beta = 2.0 * alpha.value if ka == kb else alpha.value
    plain = L_s.values * L_t.values[:ka]
    t1 = integrate_with_edge(plain, grid, ka, beta)
    t2 = integrate_with_edge(L_s.values * inner_t[:ka], grid, ka, beta)
    return t1 + alpha.coeff * t2


def second_moment_gram(L_s: KernelField, L_t: KernelField, weights: WeightMatrix) -> float:
    """E(phi_t - phi_s)^2 assembled from the three Gram moments, with s and
    t the upper limits of L_s and L_t."""
    _check_pair(L_s, L_t, weights)
    if L_s.s_index == L_t.s_index:
        return 0.0
    v_ss = _cross_moment(L_s, L_s, toeplitz_matvec(weights.column, L_s.values))
    return _gram_increment(L_s, L_t, v_ss, toeplitz_matvec(weights.column, L_t.values))


def _gram_increment(L_s: KernelField, L_t: KernelField, v_ss: float, inner_t: np.ndarray) -> float:
    """v_tt + v_ss - 2 v_st for a checked pair with s < t, given the base
    moment v_ss = E[phi_s^2] and inner_t = W L_t, which v_tt and v_st share."""
    v_tt = _cross_moment(L_t, L_t, inner_t)
    v_st = _cross_moment(L_s, L_t, inner_t)
    return v_tt + v_ss - 2.0 * v_st


def second_moment_reduced(L_s: KernelField, L_t: KernelField) -> float:
    """E(phi_t - phi_s)^2 via the three boundary integrals, with s and t
    the upper limits of L_s and L_t.

    I1 integrates the kernel difference against (t - tau)**(-a) on [0, s],
    I2 the s-kernel against the weight difference on [0, s], I3 the
    t-kernel against (t - tau)**(-a) on [s, t]; the result is
    -coeff * (I1 + I2 + I3).  Each is one :func:`edge_weighted_integral`,
    whose two-cell edge model takes the blow-ups at tau = s (I1, I2) and
    tau = t (I3).
    """
    _check_pair(L_s, L_t)
    grid, alpha = L_s.grid, L_s.alpha
    ks, kt = L_s.s_index, L_t.s_index
    if ks >= kt:
        raise ValueError("reduced form needs s < t")
    a = alpha.value
    i1 = edge_weighted_integral(L_t.values[:ks] - L_s.values, grid, a, 0, ks, [(1, kt)])
    i2 = edge_weighted_integral(L_s.values, grid, a, 0, ks, [(1, ks), (-1, kt)])
    i3 = edge_weighted_integral(L_t.values[ks:kt], grid, a, ks, kt, [(1, kt)])
    return float(-alpha.coeff * (i1 + i2 + i3))


def phi_mc_weights(field: KernelField):
    """Two-stream quadrature weights (a, b) for sampling the drift functional.

    The sampled functional is sum_i a_i dB^H_i + sum_i b_i dB_i over the
    two independent simulated components.  Interior cells take the
    midpoint kernel value in both streams.  On the last two cells the
    fitted edge model replaces it: its cell average for the correlated
    stream, its signed cell root-mean-square for the white stream, which
    reproduces the white-noise variance of the (s - r)**(-a) blow-up
    exactly.  A cell-constant weight against the mixed increments alone
    cannot do this: its variance deficit decays only like h**(1 - 2a).
    At a = 0 both streams reduce to the solved values.
    """
    grid, alpha, k = field.grid, field.alpha, field.s_index
    a_w = field.values.copy()
    b_w = field.values.copy()
    if alpha.value == 0.0 or k < 2:
        return a_w, b_w
    h = grid.h
    s = field.upper_limit
    a = alpha.value
    c, d = edge_fit(field.values[k - 2:], a, h)
    for j in (k - 2, k - 1):
        lo, hi = grid.nodes[j], grid.nodes[j + 1]
        p_single = riesz_moment(lo, hi, s, a)
        p_double = riesz_moment(lo, hi, s, 2.0 * a)
        mean = (c * p_single + d * h) / h
        mean_square = (c * c * p_double + 2.0 * c * d * p_single + d * d * h) / h
        a_w[j] = mean
        b_w[j] = np.sign(mean) * np.sqrt(max(mean_square, 0.0))
    return a_w, b_w


@dataclass(frozen=True)
class Variogram:
    """Second moments of drift-derivative increments over geometric lags."""

    h: float
    base_point: float
    lags: np.ndarray
    values: np.ndarray
    method: str
    stderr: Optional[np.ndarray]
    grid_cells: int
    horizon: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values) & (self.values > 0.0)):
            raise ValueError("variogram values must be finite and positive")


def default_fit_window(grid: Grid, t0: float) -> Tuple[float, float]:
    """Default fitting window [16 h, t0 / 4]: below 16 cells discretization
    bias dominates, above t0/4 the scaling prefactor drifts."""
    return 16.0 * grid.h, t0 / 4.0


def mc_increment_variances(
    h: float,
    s_index: int,
    t_indices,
    grid: Grid,
    seed: int,
    n_paths: int,
    refine: int = 2,
    threads=None,
):
    """Sampled variances of phi_t - phi_s for several t, common paths.

    Samples the two-stream drift functional (see :func:`phi_mc_weights`)
    on a grid refined by `refine` relative to `grid`; the requested node
    indices map onto the fine grid exactly, so the deterministic targets
    stay comparable.  Returns (variances, variance of phi_s).  Raises
    ValueError unless n_paths >= 2, the least a sample variance needs.
    """
    if n_paths < 2:
        raise ValueError(f"monte carlo needs at least 2 paths, got {n_paths}")
    refine = int(refine)
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    alpha = Alpha.from_h(h)
    fine = Grid(grid.horizon, grid.cells * refine)
    sweep = SweepSolver(fine, alpha)
    t_indices = [int(k) for k in t_indices]
    fine_indices = sorted({int(s_index) * refine, *[k * refine for k in t_indices]})
    fields = sweep.L_sweep(fine_indices)
    # Row j of (a_w, b_w) weighs the two increment streams for phi at
    # fine_indices[j]; entries past that index stay zero.
    a_w = np.zeros((len(fine_indices), fine.cells))
    b_w = np.zeros_like(a_w)
    for j, k in enumerate(fine_indices):
        a_w[j, :k], b_w[j, :k] = phi_mc_weights(fields[k])
    # phi is linear in each path's normals: weigh the normals directly, so
    # no path is ever synthesized.
    a_z, b_z = increments_transpose(fine, h, a_w, b_w)

    def phi_block(first, z, white):
        # einsum over contiguous weight rows, not BLAS @: alone @ is faster
        # per block, but its threads spin against the pool workers.  On 2
        # cores (threads=2, 5000 paths, 2048 fine cells, 5 functionals) the
        # whole call took 0.75-0.85 s with einsum and 0.89-1.16 s with @.
        return np.einsum("pi,ji->pj", z, a_z) + np.einsum("pi,ji->pj", white, b_z)

    phi = np.vstack(map_blocks(phi_block, fine, h, seed, n_paths, threads=threads))
    column = {k: j for j, k in enumerate(fine_indices)}
    phi_s = phi[:, column[int(s_index) * refine]]
    variances = [float(np.var(phi[:, column[k * refine]] - phi_s, ddof=1)) for k in t_indices]
    return np.array(variances), float(np.var(phi_s, ddof=1))


def build_variogram(
    h: float,
    t0: float,
    n_lags: int,
    n: int,
    method: str = "reduced",
    horizon: float = 1.0,
    seed: int = 0,
    n_paths: int = 5000,
    mc_refine: int = 2,
    threads=None,
) -> Variogram:
    """Variogram of the drift derivative at base point t0.

    Lags are t0 * 2**(-k) for k = 1..n_lags, rounded to whole cells; each
    must span at least 8 cells and t0 plus the largest lag must stay on
    the grid.  Deterministic methods ('gram', 'reduced') evaluate the
    moment formulas; 'monte_carlo' estimates the same quantities from a
    common path ensemble (same paths for every lag, simulated on a grid
    refined by `mc_refine`) and reports standard errors.  The Gram route
    takes each field's Toeplitz product and the base moment once for all
    lags (the bits of :func:`second_moment_gram` per lag).  A value that is
    not finite and positive (the Gram moments underflow at T = 1e300) is a
    NumericalError.
    """
    if method not in ("gram", "reduced", "monte_carlo"):
        raise ValueError(f"unknown variogram method {method!r}")
    if int(n_lags) < 1:
        raise ValueError(f"need at least one lag, got {n_lags}")
    grid = Grid(horizon, n)
    alpha = Alpha.from_h(h)
    k0 = grid.node_index(t0, name="t0")
    lag_cells = []
    for k in range(1, int(n_lags) + 1):
        cells = int(round(t0 * 2.0 ** (-k) / grid.h))
        if cells < 8:
            raise ValueError(
                f"lag {t0 * 2.0 ** (-k):g} spans {cells} cells; need >= 8 (grid too coarse)"
            )
        lag_cells.append(cells)
    if k0 + lag_cells[0] > grid.cells:
        raise ValueError("t0 plus the largest lag leaves the grid")
    lags = np.array([c * grid.h for c in lag_cells])
    stderr = None
    if method == "monte_carlo":
        values, _ = mc_increment_variances(
            h, k0, [k0 + c for c in lag_cells], grid, seed, n_paths,
            refine=mc_refine, threads=threads,
        )
        stderr = values * np.sqrt(2.0 / (n_paths - 1))
    else:
        sweep = SweepSolver(grid, alpha)
        indices = sorted({k0, *[k0 + c for c in lag_cells]})
        fields = sweep.L_sweep(indices)
        base = fields[k0]
        if method == "reduced":
            values = np.array([second_moment_reduced(base, fields[k0 + c]) for c in lag_cells])
        else:
            # one Toeplitz product per field and one base moment, shared by every lag
            inner = {k: toeplitz_matvec(sweep.weights.column, field.values) for k, field in fields.items()}
            v_ss = _cross_moment(base, base, inner[k0])
            values = np.array([_gram_increment(base, fields[k0 + c], v_ss, inner[k0 + c]) for c in lag_cells])
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        raise NumericalError(f"variogram value {values[bad[0]]:.3e} at lag {lags[bad[0]]:g} is not "
                             f"finite and positive ({method} moments at horizon {horizon:g})")
    return Variogram(
        h=h, base_point=t0, lags=lags, values=values, method=method,
        stderr=stderr, grid_cells=n, horizon=horizon,
    )


@dataclass(frozen=True)
class HolderFit:
    """Log-log regression of the variogram against lag.  Its fields, with
    the variogram's method, are the keys of `holder`'s fit JSON."""

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    residual_norm: float
    target: float
    window: Tuple[float, float]
    n_points: int


def fit_holder(variogram: Variogram,
               window: Tuple[Optional[float], Optional[float]] = (None, None)) -> HolderFit:
    """Ordinary least squares of log V against log lag inside the window.

    The reference slope is 4H - 3 (twice the pathwise smoothness order).
    A bound given as None is that of :func:`default_fit_window`.  Requires
    a finite window 0 < lo < hi with at least 4 lags inside it.
    """
    lo, hi = window
    if lo is None or hi is None:
        default = default_fit_window(Grid(variogram.horizon, variogram.grid_cells), variogram.base_point)
        lo, hi = default[0] if lo is None else lo, default[1] if hi is None else hi
    lo, hi = float(lo), float(hi)
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"degenerate fit window ({lo}, {hi})")
    # each bound is padded relative to itself, so a huge hi pulls in no lag below lo
    mask = ((variogram.lags >= lo - 1e-12 * max(lo, 1.0))
            & (variogram.lags <= hi + 1e-12 * max(hi, 1.0)))
    if int(mask.sum()) < 4:
        raise ValueError(f"need >= 4 lags inside the window, found {int(mask.sum())}")
    x = np.log(variogram.lags[mask])
    y = np.log(variogram.values[mask])
    m = x.size
    x_bar, y_bar = float(np.mean(x)), float(np.mean(y))
    s_xx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / s_xx)
    intercept = y_bar - slope * x_bar
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y_bar) ** 2))
    r_squared = 1.0 - (ss_res / ss_tot if ss_tot > 0.0 else 0.0)
    slope_stderr = float(np.sqrt(ss_res / (m - 2) / s_xx))
    return HolderFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        slope_stderr=slope_stderr,
        residual_norm=float(np.sqrt(ss_res)),
        target=4.0 * variogram.h - 3.0,
        window=(lo, hi),
        n_points=m,
    )


@dataclass(frozen=True)
class BoundReport:
    """Fitted constant of one solution bound across a grid refinement sweep.
    Its fields that are not None are the keys of the part's entry in the
    `audit-bounds` JSON."""

    grid_sizes: Tuple[int, ...]
    constants: Tuple[float, ...]
    stability_ratio: float
    envelope: Optional[float] = None


def _fitted_constant(numerators: np.ndarray, denominators: np.ndarray) -> float:
    # sup |Q| / sup shape; an identically zero pair means the bound is
    # vacuous (zero rhs forces zero solution), reported as constant 0.
    sup_num = float(np.max(np.abs(numerators)))
    sup_den = float(np.max(np.abs(denominators)))
    if sup_den < 1e-300:
        return 0.0
    return sup_num / sup_den


def _stability_ratio(constants) -> float:
    arr = np.asarray(constants, dtype=float)
    if np.all(arr < 1e-300):
        return 1.0
    return float(np.max(arr) / np.min(arr))


def audit_lemma_bounds(alpha: Alpha, s: float, t: float, n_sweep, horizon: float = 1.0) -> dict:
    """Numerical audit of the a-priori solution bounds across grid refinement.

    For each grid size the fitted constants are:

    * 'i'   sup |Q| for the bounded rhs 1 on [0, t] (with the explicit
            envelope 2 t**(1-a) / (1 - 2a) + 1 attached),
    * 'ii'  sup |Q(m)| (s - m)**a for the drift-type rhs on [0, s],
    * 'iii' sup |Q(m)| / ((s-m)**(-a) - (t-m)**(-a)) for the difference rhs,
    * 'composite' sup |D(m)| / (((s-m)**(-a) - (t-m)**(-a))
            + (t-s)**(1-a) (s-m)**(-a)) for the solved difference kernel.

    Constants are reported per size with their max/min stability ratio;
    the proofs guarantee existence of bounding constants, not values, so
    refinement stability is the testable statement.  Each size runs two
    conjugate-gradient solves for forward vectors, one at s and one at t,
    and no Levinson pass: its solver keeps them, so L at s and t, g at t,
    the part-iii rhs at s and the difference kernel at s, whose rhs needs
    L(., t), are all solved from those two.
    Raises ValueError unless there are at least two sizes and they
    strictly increase (a single or repeated size would report a vacuous
    stability ratio of 1), s and t lie in [0, horizon] and, on every grid
    of the sweep, s rounds to a node after 0 and t to a later one.
    """
    n_sweep = [int(n) for n in n_sweep]
    if len(n_sweep) < 2 or any(a >= b for a, b in zip(n_sweep, n_sweep[1:])):
        raise ValueError(f"n_sweep must hold at least two sizes that strictly increase, got {n_sweep}")
    a = alpha.value
    points = []
    for n in n_sweep:
        grid = Grid(horizon, n)
        ks, kt = grid.nearest_node_index(s, "s"), grid.nearest_node_index(t, "t")
        if not 1 <= ks < kt:
            raise ValueError(f"s={s} and t={t} must round to distinct nodes after 0 on every grid, "
                             f"but at n={n} they round to nodes {ks} and {kt}")
        points.append((grid, ks, kt))

    def constants_for(grid, ks, kt):
        # imported at call time, so that a wrapper perfbench/spans.py puts on
        # kernel_solve.solve_q or solve_D is the one called
        from .kernel_solve import solve_D, solve_q

        sweep = SweepSolver(grid, alpha)
        s_node, t_node = grid.nodes[ks], grid.nodes[kt]
        mids_s = grid.midpoints[:ks]
        out = {}

        def part_iii(r):
            return (s_node - r) ** (-a) - (t_node - r) ** (-a)

        shape = part_iii(mids_s)
        drift_fields = sweep.L_sweep([ks, kt])
        out["i"] = _fitted_constant(sweep.g_field(kt).values, np.ones(kt))
        out["ii"] = _fitted_constant(drift_fields[ks].values * (s_node - mids_s) ** a, np.ones(ks))
        out["iii"] = _fitted_constant(solve_q(sweep, ks, part_iii).values, shape)
        d_field = solve_D(sweep, ks, drift_fields[kt])
        composite_shape = shape + (t_node - s_node) ** (1.0 - a) * (s_node - mids_s) ** (-a)
        out["composite"] = _fitted_constant(d_field.values, composite_shape)
        return out

    per_size = [constants_for(*point) for point in points]
    reports = {}
    envelope_i = 2.0 * t ** (1.0 - a) / (1.0 - 2.0 * a) + 1.0
    for part in ("i", "ii", "iii", "composite"):
        constants = tuple(res[part] for res in per_size)
        reports[part] = BoundReport(
            grid_sizes=tuple(n_sweep),
            constants=constants,
            stability_ratio=_stability_ratio(constants),
            envelope=envelope_i if part == "i" else None,
        )
    return reports
