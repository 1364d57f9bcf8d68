"""Exact simulation of the mixed process X = B^H + B on the grid.

The long-memory increments are synthesized by circulant embedding of the
stationary increment autocovariance (spectral method, exact in
distribution); the independent Brownian component is a scaled Gaussian
walk.  Every path draws from substreams derived deterministically from
(seed, component, path index), so ensembles are reproducible and
independent of scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import NumericalError
from .parallelism import parallel_map
from .quadrature import Grid

__all__ = [
    "SamplePath",
    "fbm_cov",
    "fgn_autocov",
    "simulate",
    "simulate_ensemble",
    "restrict",
]

#: Substream component tags for the two independent noise sources.
FBM_STREAM = 0
BM_STREAM = 1

#: Paths synthesized together; a constant, so block contents never depend
#: on the worker count.
BLOCK = 64

#: Relative eigenvalue floor below which the embedding is declared invalid.
EIG_TOL = 1e-9


def fbm_cov(s, t, h: float):
    """Covariance of the long-memory component:
    0.5 * (t**2H + s**2H - |t - s|**2H)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("times must be nonnegative")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"H must be in (0, 1], got {h}")
    two_h = 2.0 * h
    out = 0.5 * (t ** two_h + s ** two_h - np.abs(t - s) ** two_h)
    return out if out.ndim else float(out)


def fgn_autocov(k, h: float, dt: float = 1.0):
    """Autocovariance of increments at lag k (in steps of size dt):
    0.5 * dt**2H * (|k+1|**2H - 2|k|**2H + |k-1|**2H)."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("lag must be nonnegative")
    two_h = 2.0 * h
    out = 0.5 * dt ** two_h * (
        np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h
    )
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SamplePath:
    """One seeded realization of the component paths at the grid nodes."""

    grid: Grid
    h: float
    seed: int
    fbm: np.ndarray
    bm: np.ndarray
    mixed: np.ndarray

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.mixed)


def _substream(seed: int, component: int, path_index: int) -> np.random.Generator:
    # Stated derivation contract: substream = SeedSequence(seed, spawn_key=(component, path)).
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(component, path_index)))


@lru_cache(maxsize=32)
def _embedding_eigenvalues(n: int, h: float, dt: float):
    """Eigenvalues of the order-2n circulant embedding, or None if indefinite."""
    gamma = fgn_autocov(np.arange(n + 1), h, dt)
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[1:n][::-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -EIG_TOL * lam.max():
        return None
    lam = np.clip(lam, 0.0, None)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=8)
def _increment_cholesky(n: int, h: float, dt: float):
    """Dense Cholesky factor of the exact increment covariance (fallback)."""
    t = np.arange(n + 1) * dt
    cov_nodes = fbm_cov(t[:, None], t[None, :], h)
    cov_inc = (
        cov_nodes[1:, 1:] - cov_nodes[1:, :-1] - cov_nodes[:-1, 1:] + cov_nodes[:-1, :-1]
    )
    try:
        chol = np.linalg.cholesky(cov_inc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"increment covariance not positive definite (n={n}, H={h})"
        ) from exc
    chol.setflags(write=False)
    return chol


def _increments(grid: Grid, h: float, seed: int, first: int, count: int):
    """Long-memory and Brownian increments of paths first .. first+count-1.

    Returns two (count, n) arrays.  Path p reads its normals from the
    substreams (seed, component, p) alone, so a path's increments do not
    depend on which block it is synthesized in.  The circulant branch
    draws 2n normals per path for the half spectrum of the order-2n
    embedding and synthesizes with one real inverse FFT.
    """
    n, dt = grid.cells, grid.h
    lam = None if h == 1.0 else _embedding_eigenvalues(n, h, dt)
    # Normals per path: one slope at H = 1, n for the Cholesky fallback.
    width = 1 if h == 1.0 else (n if lam is None else 2 * n)
    z = np.empty((count, width))
    white = np.empty((count, n))
    for i, p in enumerate(range(first, first + count)):
        z[i] = _substream(seed, FBM_STREAM, p).standard_normal(width)
        white[i] = _substream(seed, BM_STREAM, p).standard_normal(n)
    white *= np.sqrt(dt)
    if h == 1.0:
        # Degenerate covariance: the path is xi * t for one standard Gaussian.
        return np.repeat(z * dt, n, axis=1), white
    if lam is None:
        chol = _increment_cholesky(n, h, dt)
        return np.array([chol @ row for row in z]), white
    m = 2 * n
    # irfft with norm="forward" applies no 1/m, so sqrt(m) / m goes here.
    amp = np.sqrt(lam[: n + 1] / m)
    amp[1:n] *= np.sqrt(0.5)
    half = np.zeros((count, n + 1), dtype=complex)
    half.real[:, 0] = amp[0] * z[:, 0]
    half.real[:, n] = amp[n] * z[:, 1]
    half.real[:, 1:n] = amp[1:n] * z[:, 2 : n + 1]
    half.imag[:, 1:n] = amp[1:n] * z[:, n + 1 :]
    return np.fft.irfft(half, n=m, axis=1, norm="forward")[:, :n], white


def map_blocks(fn, grid: Grid, h: float, seed: int, n_paths: int, threads=None) -> list:
    """[fn(first, fgn, white) for each block of paths], in path order.

    Blocks hold BLOCK paths (the last one may hold fewer) whatever the
    worker count, so a caller that reduces each block right away keeps
    O(BLOCK * n) memory and gets results independent of `threads`.
    """
    def one(first):
        return fn(first, *_increments(grid, h, seed, first, min(BLOCK, n_paths - first)))

    return parallel_map(one, range(0, n_paths, BLOCK), threads=threads)


def _check_h(h: float):
    if not 0.0 < h <= 1.0:
        raise ValueError(f"H must be in (0, 1], got {h}")


def simulate(grid: Grid, h: float, seed: int, path_index: int = 0) -> SamplePath:
    """Seeded realization of (B^H, B, X) at the grid nodes.

    Deterministic for fixed (seed, n, h, path_index); the two components
    come from disjoint substreams of the seed.  Bit-identical to row
    `path_index` of :func:`simulate_ensemble`.
    """
    _check_h(h)
    fgn, white = _increments(grid, h, seed, int(path_index), 1)
    fbm_path = np.concatenate([[0.0], np.cumsum(fgn[0])])
    bm_path = np.concatenate([[0.0], np.cumsum(white[0])])
    return SamplePath(grid=grid, h=h, seed=int(seed), fbm=fbm_path, bm=bm_path, mixed=fbm_path + bm_path)


def simulate_ensemble(grid: Grid, h: float, seed: int, n_paths: int, threads=None):
    """Stacked node values (fbm, bm, mixed), each of shape (n_paths, n + 1).

    Path p uses substreams (seed, component, p), so the ensemble content
    does not depend on blocking or worker count.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    _check_h(h)
    fbm = np.zeros((n_paths, grid.cells + 1))
    bm = np.zeros_like(fbm)

    def cumulate(first, fgn, white):
        rows = slice(first, first + len(fgn))
        np.cumsum(fgn, axis=1, out=fbm[rows, 1:])
        np.cumsum(white, axis=1, out=bm[rows, 1:])

    map_blocks(cumulate, grid, h, seed, n_paths, threads=threads)
    return fbm, bm, fbm + bm


def restrict(path: SamplePath, factor: int) -> SamplePath:
    """The same realization on a grid coarsened by an integer factor.

    Used for coupled refinement studies: the coarse path is the exact
    restriction of the fine one, so residual comparisons share one sample.
    """
    factor = int(factor)
    if factor < 1 or path.grid.cells % factor != 0:
        raise ValueError(f"factor {factor} does not divide {path.grid.cells} cells")
    coarse = Grid(path.grid.horizon, path.grid.cells // factor)
    return SamplePath(
        grid=coarse,
        h=path.h,
        seed=path.seed,
        fbm=path.fbm[::factor].copy(),
        bm=path.bm[::factor].copy(),
        mixed=path.mixed[::factor].copy(),
    )
