"""Exact integration of the power-law kernel |r - tau|**(-a) over grid cells.

Everything downstream (Nystrom solves, second-moment assembly, drift
reconstruction) runs on piecewise-constant densities against this kernel,
so the cell moments here are computed from the closed-form antiderivative
rather than sampled quadrature.  The kernel exponent a lives in [0, 1/2);
a = 0 is the constant-kernel edge case whose solutions are known in closed
form and serve as the test oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Alpha",
    "Grid",
    "WeightMatrix",
    "riesz_moment",
    "build_weight_matrix",
    "edge_fit",
    "integrate_with_edge",
    "edge_weighted_integral",
]


@dataclass(frozen=True)
class Alpha:
    """Kernel exponent a in [0, 1/2) with its derived coefficients.

    The long-memory parameter is H = 1 - a/2, and the kernel coupling
    `coeff` = H*(2H - 1) equals (1 - a/2)*(1 - a).
    """

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value < 0.5:
            raise ValueError(f"kernel exponent must be in [0, 0.5), got {self.value}")

    @classmethod
    def from_h(cls, h: float) -> "Alpha":
        if not 0.75 < h <= 1.0:
            raise ValueError(f"H must be in (0.75, 1], got {h}")
        return cls(2.0 - 2.0 * h)

    @property
    def h(self) -> float:
        return 1.0 - 0.5 * self.value

    @property
    def coeff(self) -> float:
        return (1.0 - 0.5 * self.value) * (1.0 - self.value)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] into `cells` cells, collocated at midpoints.

    Midpoints never coincide with nodes, which keeps singular right-hand
    sides evaluable at every collocation point.  A subnormal cell width,
    which would round nodes and midpoints off the grid, is refused.
    """

    horizon: float
    cells: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    midpoints: np.ndarray = field(init=False, repr=False, compare=False)
    _moments: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.cells < 2:
            raise ValueError(f"need at least 2 cells, got {self.cells}")
        h = self.horizon / self.cells
        if h < np.finfo(float).tiny:
            raise ValueError(f"cell width T/n = {h:.4g} is subnormal (T={self.horizon:g}, n={self.cells})")
        object.__setattr__(self, "nodes", np.arange(self.cells + 1) * h)
        object.__setattr__(self, "midpoints", (np.arange(self.cells) + 0.5) * h)

    @property
    def h(self) -> float:
        return self.horizon / self.cells

    def node_index(self, t: float, name: str = "t") -> int:
        """Index of the node equal to `t` within 1e-9 of a cell width;
        rejects off-grid values."""
        if not np.isfinite(t):
            raise ValueError(f"{name}={t} is not a grid node (h={self.h})")
        k = int(round(t / self.h))
        if k < 0 or k > self.cells or abs(k * self.h - t) > 1e-9 * self.h:
            raise ValueError(f"{name}={t} is not a grid node (h={self.h})")
        return k

    def nearest_node_index(self, t: float, name: str = "t") -> int:
        """Index of the node closest to `t`.  A `t` outside [0, T], NaN and
        infinities included, is refused rather than clamped to the grid."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"{name}={t} is outside [0, {self.horizon}]")
        return int(round(t / self.h))

    def first_cell_moments(self, alpha) -> np.ndarray:
        """mu[i] = riesz_moment(t_0, t_1, t_(i+1), alpha) for i < cells:
        the kernel moments of the first cell against every later node, made
        once per grid and exponent and read-only.  The moment of cell j
        against node t_u depends on u - 1 - j only, so mu[u - edge:u - first]
        reversed holds those of cells first .. edge - 1 against t_u: bit for
        bit where the node differences are exact (as at T = 1 with a
        power-of-two n), else to rounding."""
        exponent = alpha.value if isinstance(alpha, Alpha) else float(alpha)
        moments = self._moments.get(exponent)
        if moments is None:
            moments = riesz_moment(self.nodes[0], self.nodes[1], self.nodes[1:], exponent)
            moments.flags.writeable = False
            self._moments[exponent] = moments
        return moments


def riesz_moment(a, b, r, alpha):
    """Integral of |r - tau|**(-alpha) over tau in [a, b].

    Computed from the exact antiderivative sign(x)*|x|**(1-alpha)/(1-alpha),
    which splits at tau = r automatically when a < r < b.  Exact up to
    rounding; vectorized over any broadcastable combination of a, b, r.
    `alpha` may be an :class:`Alpha` or any bare exponent in [0, 1).  With
    b <= r it is the one-sided moment of (r - tau)**(-alpha) that the edge
    models integrate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r = np.asarray(r, dtype=float)
    exponent = alpha.value if isinstance(alpha, Alpha) else float(alpha)
    if not 0.0 <= exponent < 1.0:
        raise ValueError(f"kernel exponent must be in [0, 1), got {exponent}")
    if np.any(b <= a):
        raise ValueError("riesz_moment needs a < b")
    if np.any(a < 0.0):
        raise ValueError("riesz_moment needs a >= 0")
    p = 1.0 - exponent
    hi = b - r
    lo = a - r
    out = (np.sign(hi) * np.abs(hi) ** p - np.sign(lo) * np.abs(lo) ** p) / p
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class WeightMatrix:
    """Cell moments W[i, j] = integral over cell j of |m_i - tau|**(-a).

    On a uniform grid W[i, j] depends on |i - j| only, so W is the symmetric
    Toeplitz matrix of its first column, which is all that is stored.
    """

    alpha: Alpha
    grid: Grid
    column: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n table, built on first access (a test and tracing aid).

        Row i is the length-n window of (c[n-1], ..., c[1], c[0], ..., c[n-1])
        that starts at n - 1 - i."""
        mirrored = np.concatenate([self.column[:0:-1], self.column])
        return sliding_window_view(mirrored, self.column.size)[::-1].copy()


def build_weight_matrix(grid: Grid, alpha: Alpha) -> WeightMatrix:
    """Moments of the first cell against every midpoint: the first column of W.

    Row sums obey the closed-form identity
    sum_j W[i, j] = (m_i**(1-a) + (T - m_i)**(1-a)) / (1-a).
    """
    column = riesz_moment(grid.nodes[0], grid.nodes[1], grid.midpoints, alpha)
    if not np.all(np.isfinite(column)) or np.any(column <= 0.0):
        raise ValueError("weight matrix entries must be finite and positive")
    return WeightMatrix(alpha=alpha, grid=grid, column=column)


def edge_fit(values, beta: float, h: float):
    """Coefficients (C, D) of v(tau) ~ C*d(tau)**(-beta) + D near an upper edge.

    `values` are the midpoint samples of v on the last one or two cells
    before the edge, so their distances to it are (1.5h, 0.5h) or (0.5h,).
    Two samples pin both coefficients exactly; a single sample fixes the
    singular term alone.  beta = 0 degenerates to the constant model.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("edge_fit needs at least one sample")
    if beta == 0.0:
        return 0.0, float(values[-1])
    if values.size == 1:
        return float(values[-1] * (0.5 * h) ** beta), 0.0
    p_outer = (1.5 * h) ** (-beta)
    p_inner = (0.5 * h) ** (-beta)
    c = float((values[-1] - values[-2]) / (p_inner - p_outer))
    d = float(values[-1] - c * p_inner)
    return c, d


def integrate_with_edge(values, grid: Grid, upper_index: int, beta: float) -> float:
    """Integral over [0, t_k] of a midpoint-sampled density that may blow up
    like (t_k - tau)**(-beta) at the upper edge.

    Interior cells use the plain midpoint rule; the final two cells use the
    fitted edge model integrated in closed form.  beta < 1 required.
    """
    values = np.asarray(values, dtype=float)
    k = int(upper_index)
    if values.shape[0] != k:
        raise ValueError("values must cover exactly the cells below upper_index")
    h = grid.h
    t_upper = grid.nodes[k]
    n_edge = min(2, k)
    bulk = float(values[: k - n_edge].sum()) * h
    c, d = edge_fit(values[k - n_edge:], beta, h)
    lo = grid.nodes[k - n_edge: k]
    hi = grid.nodes[k - n_edge + 1: k + 1]
    edge = float(np.sum(c * riesz_moment(lo, hi, t_upper, beta) + d * (hi - lo)))
    return bulk + edge


def edge_weighted_integral(values, grid: Grid, beta: float, first: int, edge: int, kernels) -> float:
    """Integral over the cells first .. edge - 1 of v(tau) times the sum of
    sign * (t_u - tau)**(-beta) over the (sign, u) pairs in `kernels`.

    `values` are the midpoint samples of v on those cells; v may blow up
    like (t_edge - tau)**(-beta) at the upper edge.  Each u is a node index
    >= edge.  Interior cells weigh the samples with the exact kernel
    moments, read as reversed slices of the grid's first-cell moments
    (:meth:`Grid.first_cell_moments`); the last one or two cells use the
    fitted edge model C*(t_edge - tau)**(-beta) + D (see :func:`edge_fit`).
    Its constant part takes the same kernel moments; its singular part is
    integrated exactly against a kernel with u = edge and against the
    kernel frozen at the cell midpoint otherwise.  beta < 1/2 required.
    """
    values = np.asarray(values, dtype=float)
    first, edge = int(first), int(edge)
    if not 0 <= first < edge <= grid.cells or values.shape != (edge - first,):
        raise ValueError(f"values must cover exactly the cells {first} .. {edge - 1}")
    nodes = grid.nodes
    n_interior = edge - first - min(2, edge - first)
    moments = grid.first_cell_moments(beta)
    smooth = sum(sign * moments[u - edge:u - first][::-1] for sign, u in kernels)
    lo, hi = nodes[first + n_interior:edge], nodes[first + n_interior + 1:edge + 1]
    exact = riesz_moment(lo, hi, nodes[edge], 2.0 * beta)
    frozen = riesz_moment(lo, hi, nodes[edge], beta)
    mids = grid.midpoints[first + n_interior:edge]
    singular = sum(sign * (exact if u == edge else (nodes[u] - mids) ** (-beta) * frozen)
                   for sign, u in kernels)
    c, d = edge_fit(values[n_interior:], beta, grid.h)
    interior = float(values[:n_interior] @ smooth[:n_interior])
    return interior + float(np.sum(c * singular + d * smooth[n_interior:]))
