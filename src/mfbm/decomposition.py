"""Pathwise semimartingale objects: drift derivative, martingale, innovation.

The stochastic integrals are discretized left-point (Ito-consistent) with
the kernels evaluated at cell midpoints; the innovation increments divide
martingale increments by the right-endpoint diagonal value, and the
reconstruction residual integrates the drift derivative by trapezoid on
the same decimated node subset.  :func:`decompose` takes the integrals
from one prefix solve of the path's own increments and stores no kernel
field; :func:`compute_phi` and :func:`compute_innovation` integrate given
solved fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .exceptions import NumericalError
from .kernel_solve import KernelField, SweepSolver
from .quadrature import Alpha, Grid
from .gaussian_paths import SamplePath

__all__ = [
    "DriftPath",
    "InnovationPath",
    "compute_phi",
    "compute_innovation",
    "decompose",
]


@dataclass(frozen=True)
class DriftPath:
    """Drift derivative sampled on a decimated subset of nodes (index 0 first)."""

    grid: Grid
    s_subset: np.ndarray
    phi: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes[self.s_subset]

    def integral(self) -> np.ndarray:
        """Cumulative trapezoid of the drift derivative along the subset."""
        steps = np.diff(self.times)
        partial = np.cumsum(0.5 * (self.phi[1:] + self.phi[:-1]) * steps)
        return np.concatenate([[0.0], partial])


@dataclass(frozen=True)
class InnovationPath:
    """Martingale, innovation process and reconstruction residual on a subset."""

    grid: Grid
    subset: np.ndarray
    m_values: np.ndarray
    bbar: np.ndarray
    residual: Optional[np.ndarray]


def _integrals(path: SamplePath, fields: Mapping[int, KernelField]):
    """(subset, integrals): node 0 and the sorted field indices k, and
    <field_k, dX[:k]> at each (0 at node 0, the empty integral)."""
    if not fields:
        raise ValueError("need at least one solved kernel field")
    grid = path.grid
    ks = sorted(int(k) for k in fields)
    if ks[0] < 1 or ks[-1] > grid.cells:
        raise ValueError("field indices outside the grid")
    increments = path.increments
    integrals = np.zeros(len(ks) + 1)
    for pos, k in enumerate(ks, start=1):
        if fields[k].grid is not grid and not np.array_equal(fields[k].grid.nodes, grid.nodes):
            raise ValueError(f"field at index {k} solved on a different grid")
        integrals[pos] = float(fields[k].values @ increments[:k])
    return np.array([0] + ks, dtype=int), integrals


def compute_phi(path: SamplePath, fields: Mapping[int, KernelField]) -> DriftPath:
    """Drift derivative phi_s = sum_i L(m_i, s) * (X_{i+1} - X_i) over cells in [0, s].

    One solved drift-kernel field per requested node index; the value at
    s = 0 is 0 (empty integral) and is always included.
    """
    subset, phi = _integrals(path, fields)
    return DriftPath(grid=path.grid, s_subset=subset, phi=phi)


def compute_innovation(
    path: SamplePath,
    g_fields: Mapping[int, KernelField],
    g_diagonal: Mapping[int, float],
    drift: Optional[DriftPath] = None,
) -> InnovationPath:
    """Martingale M, innovation process and (given the drift) the residual.

    M_{t_k} = sum_i g(m_i, t_k) dX_i; innovation increments are
    (M_{k+1} - M_k) / g(t_{k+1}, t_{k+1}) with the diagonal values
    `g_diagonal` (see :meth:`SweepSolver.g_diagonal`), one per field index.
    The residual X_t - bbar_t + int_0^t phi ds requires `drift` on the same
    subset.
    """
    subset, m_values = _integrals(path, g_fields)
    diag = np.zeros(len(subset))
    for pos, k in enumerate(subset[1:].tolist(), start=1):
        if k not in g_diagonal:
            raise ValueError(f"g_diagonal has no value at node index {k}")
        diag[pos] = float(g_diagonal[k])
    return _innovation(path, subset, m_values, diag, drift)


def _innovation(path, subset, m_values, diag, drift) -> InnovationPath:
    """Innovation process and residual from M and g(t, t) on `subset` (entry 0 unused)."""
    if np.any(diag[1:] <= 0.0):
        bad = subset[1:][diag[1:] <= 0.0][0]
        raise NumericalError(f"g(t, t) <= 0 at node index {bad}")
    bbar = np.concatenate([[0.0], np.cumsum(np.diff(m_values) / diag[1:])])
    residual = None
    if drift is not None:
        if not np.array_equal(drift.s_subset, subset):
            raise ValueError("drift and innovation subsets differ")
        residual = path.mixed[subset] - bbar + drift.integral()
    return InnovationPath(grid=path.grid, subset=subset, m_values=m_values, bbar=bbar, residual=residual)


def decompose(path: SamplePath, decimation: int = 8):
    """Full decomposition of one path: returns (DriftPath, InnovationPath).

    At every `decimation`-th node, phi, M and g(t, t) come from one
    Levinson pass over the path's increments (see
    :meth:`SweepSolver.path_functionals`), which stores no kernel field:
    O(n) memory.  Innovation and residual are assembled on that subset as
    in :func:`compute_innovation`.
    """
    decimation = int(decimation)
    n = path.grid.cells
    if decimation < 1 or n % decimation != 0:
        raise ValueError(f"decimation {decimation} does not divide {n} cells")
    sweep = SweepSolver(path.grid, Alpha.from_h(path.h))
    indices = np.arange(decimation, n + 1, decimation)
    subset = np.concatenate([[0], indices])
    phi, m_values, diag = (
        np.concatenate([[0.0], values]) for values in sweep.path_functionals(path.increments, indices)
    )
    drift = DriftPath(grid=path.grid, s_subset=subset, phi=phi)
    return drift, _innovation(path, subset, m_values, diag, drift)
