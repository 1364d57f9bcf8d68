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
    "fgn_autocov",
    "simulate",
    "simulate_ensemble",
    "node_moments",
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (pcg64.h), as _stream_states re-derives them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _words(x: int) -> list:
    """x as little-endian uint32 words, [0] for 0, as SeedSequence reads an int."""
    x = int(x)
    if x < 0:
        raise ValueError(f"seed and spawn key entries must be >= 0, got {x}")
    words = [x & _MASK32]
    while x >> 32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant.

    Works on Python ints and on uint32 arrays alike: every product and
    difference is reduced mod 2**32 (a no-op on uint32 arrays).
    """
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _stream_states(seed: int, component: int, paths) -> list:
    """PCG64 (state, inc) of default_rng(SeedSequence(seed, spawn_key=(component, p)))
    for each p in paths, without building either object.

    SeedSequence hashes the entropy words [seed words zero-padded to the
    pool size, component words, path words] into a pool of four uint32 and
    draws four uint64 from it; PCG64 seeds itself from those.  Everything up
    to the path words is shared by the block and runs once on Python ints;
    the path words and the draw run on uint32 arrays, one row per path.  A
    path index of 2**32 or more adds words, mixed into its row only.
    """
    seed_words = _words(seed)
    entropy = seed_words + [0] * (_POOL_SIZE - len(seed_words)) + _words(component)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    rest = np.array([int(p) for p in paths], dtype=object)
    if (rest < 0).any():
        raise ValueError(f"path indices must be >= 0, got {rest.min()}")
    pool = [np.full(len(rest), word, dtype=np.uint32) for word in pool]
    live = np.ones(len(rest), dtype=bool)  # every index has a word 0, even 0
    while live.any():
        word = (rest[live] & _MASK32).astype(np.uint32)
        for dst in range(_POOL_SIZE):
            pool[dst][live] = _mix(pool[dst][live], hashmix(word))
        rest >>= 32
        live = rest != 0

    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian; PCG64 takes (initstate, initseq) as (high, low) pairs
    # and seeds by pcg_setseq_128_srandom_r.
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    words = words.astype(np.uint64)
    states = []
    for s_hi, s_lo, q_hi, q_lo in (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist():
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


@lru_cache(maxsize=32)
def _amplitudes(n: int, h: float, dt: float) -> np.ndarray:
    """Half-spectrum amplitudes of the order-2n circulant embedding (read-only).

    Entry k scales the normals of frequency k in both the synthesis and its
    transpose; irfft with norm="forward" applies no 1/m, so sqrt(m) / m is
    folded in here.  The embedding of fGn is nonnegative definite for every
    H (Dietrich and Newsam 1997), so an eigenvalue below -EIG_TOL times the
    largest is a numerical failure, and rounding noise above it is clipped.
    A largest eigenvalue that is not positive and finite is a numerical
    failure too: at a tiny dt the autocovariance underflows to zero.  At a
    huge dt its dt**2H overflows, which is one as well.
    """
    try:
        gamma = fgn_autocov(np.arange(n + 1), h, dt)
    except OverflowError:
        raise NumericalError(
            f"fGn autocovariance overflows: dt**2H is out of range (n={n}, H={h}, dt={dt:.4g})"
        ) from None
    row = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[1:n][::-1]])
    lam = np.fft.fft(row).real
    top = lam.max()
    if not 0.0 < top < np.inf:
        raise NumericalError(
            f"circulant embedding has largest eigenvalue {top:.4g} (n={n}, H={h}, dt={dt:.4g})"
        )
    ratio = lam.min() / top
    if not ratio >= -EIG_TOL:
        raise NumericalError(
            f"circulant embedding indefinite (n={n}, H={h}): min/max eigenvalue {ratio:.4g}"
        )
    amp = np.sqrt(np.clip(lam[: n + 1], 0.0, None) / (2 * n))
    amp[1:n] *= np.sqrt(0.5)
    amp.setflags(write=False)
    return amp


def _check_h(h: float):
    if not 0.0 < h <= 1.0:
        raise ValueError(f"H must be in (0, 1], got {h}")


def _normals(grid: Grid, h: float, seed: int, first: int, count: int):
    """Standard normals (z, white) of paths first .. first+count-1.

    The only reader of the substreams: path p draws z from
    default_rng(SeedSequence(seed, spawn_key=(FBM_STREAM, p))) and white
    from the same with BM_STREAM, so its normals do not depend on which
    block it is drawn in.  Neither object is built: :func:`_stream_states`
    derives the block's PCG64 states in one pass, and one generator draws
    each row from its own state.  z holds one slope per path at H = 1 and
    otherwise 2n normals for the half spectrum of the order-2n circulant
    embedding; white holds n.  Raises ValueError unless 0 < H <= 1.
    """
    _check_h(h)
    n = grid.cells
    z = np.empty((count, 1 if h == 1.0 else 2 * n))
    white = np.empty((count, n))
    bit_generator = np.random.PCG64(0)  # placeholder state: every row sets its own
    draw = np.random.Generator(bit_generator).standard_normal
    paths = range(first, first + count)
    for out, component in ((z, FBM_STREAM), (white, BM_STREAM)):
        for row, (state, inc) in zip(out, _stream_states(seed, component, paths)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            draw(out=row)
    return z, white


def _increments(grid: Grid, h: float, z: np.ndarray, white: np.ndarray):
    """Long-memory and Brownian increments, two (count, n) arrays, of the
    normals from :func:`_normals`.

    The long-memory increments are synthesized from the half spectrum with
    one real inverse FFT.  Both maps are linear; :func:`increments_transpose`
    is their transpose.
    """
    n, dt = grid.cells, grid.h
    white = white * np.sqrt(dt)
    if h == 1.0:
        # Degenerate covariance: the path is xi * t for one standard Gaussian.
        return np.repeat(z * dt, n, axis=1), white
    amp = _amplitudes(n, h, dt)
    half = np.zeros((len(z), n + 1), dtype=complex)
    half.real[:, 0] = amp[0] * z[:, 0]
    half.real[:, n] = amp[n] * z[:, 1]
    half.real[:, 1:n] = amp[1:n] * z[:, 2 : n + 1]
    half.imag[:, 1:n] = amp[1:n] * z[:, n + 1 :]
    return np.fft.irfft(half, n=2 * n, axis=1, norm="forward")[:, :n], white


def _nodes(grid: Grid, h: float, z: np.ndarray, white: np.ndarray) -> np.ndarray:
    """Node values of the paths of the normals from :func:`_normals`: one
    (3, count, n + 1) array of fbm, bm and mixed, each row starting at 0."""
    fgn, dB = _increments(grid, h, z, white)
    nodes = np.zeros((3, len(z), grid.cells + 1))
    np.cumsum(fgn, axis=1, out=nodes[0, :, 1:])
    np.cumsum(dB, axis=1, out=nodes[1, :, 1:])
    np.add(nodes[0], nodes[1], out=nodes[2])
    return nodes


def increments_transpose(grid: Grid, h: float, a: np.ndarray, b: np.ndarray):
    """Weights (A, B) on the normals with z @ A.T + white @ B.T equal to
    fgn @ a.T + dB @ b.T, where (fgn, dB) = _increments(grid, h, z, white).

    Each row of a and b (length n) weighs the two increment streams for one
    linear functional of a path; mapped once, the functional is read off
    each path's raw normals with no synthesis.  For H < 1, A is one forward
    real FFT of the zero-padded rows of a, scaled by the synthesis
    amplitudes.
    """
    n, dt = grid.cells, grid.h
    b = b * np.sqrt(dt)
    if h == 1.0:
        return dt * a.sum(axis=-1, keepdims=True), b
    amp = _amplitudes(n, h, dt)
    spec = np.fft.rfft(a, n=2 * n, axis=-1)
    out = np.empty(a.shape[:-1] + (2 * n,))
    out[..., 0] = amp[0] * spec[..., 0].real
    out[..., 1] = amp[n] * spec[..., n].real
    out[..., 2 : n + 1] = 2.0 * amp[1:n] * spec[..., 1:n].real
    out[..., n + 1 :] = 2.0 * amp[1:n] * spec[..., 1:n].imag
    return out, b


def map_blocks(fn, grid: Grid, h: float, seed: int, n_paths: int, threads=None) -> list:
    """[fn(first, z, white) for each block of paths], in path order.

    z and white are the block's raw normals from :func:`_normals`; callers
    synthesize paths with :func:`_nodes` or reduce the normals directly
    through :func:`increments_transpose`.  Blocks hold BLOCK paths
    (the last one may hold fewer) whatever the worker count, so a caller
    that reduces each block right away keeps O(BLOCK * n) memory and gets
    results independent of `threads`.
    """
    def one(first):
        return fn(first, *_normals(grid, h, seed, first, min(BLOCK, n_paths - first)))

    return parallel_map(one, range(0, n_paths, BLOCK), threads=threads)


def simulate(grid: Grid, h: float, seed: int, path_index: int = 0) -> SamplePath:
    """Seeded realization of (B^H, B, X) at the grid nodes.

    Deterministic for fixed (seed, n, h, path_index); the two components
    come from disjoint substreams of the seed.  Bit-identical to row
    `path_index` of :func:`simulate_ensemble`.
    """
    fbm, bm, mixed = _nodes(grid, h, *_normals(grid, h, seed, int(path_index), 1))[:, 0]
    return SamplePath(grid=grid, h=h, seed=int(seed), fbm=fbm, bm=bm, mixed=mixed)


def simulate_ensemble(grid: Grid, h: float, seed: int, n_paths: int, threads=None):
    """Stacked node values (fbm, bm, mixed), each of shape (n_paths, n + 1).

    Path p uses substreams (seed, component, p), so the ensemble content
    does not depend on blocking or worker count.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    nodes = np.empty((3, n_paths, grid.cells + 1))

    def store(first, z, white):
        nodes[:, first:first + len(z)] = _nodes(grid, h, z, white)

    map_blocks(store, grid, h, seed, n_paths, threads=threads)
    return nodes[0], nodes[1], nodes[2]


def node_moments(grid: Grid, h: float, seed: int, n_paths: int, threads=None):
    """Per-node sample means and variances (ddof=1) of the ensemble's fbm,
    bm and mixed paths: two (3, n + 1) arrays, rows in that order.

    The ensemble is that of :func:`simulate_ensemble`, but never stored:
    each block of paths is reduced to its (count, mean, M2) at once, and
    the block summaries are merged in block order by the pairwise update of
    Chan, Golub and LeVeque, so the result does not depend on `threads`.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a sample variance, got {n_paths}")

    def summarize(first, z, white):
        nodes = _nodes(grid, h, z, white)
        mean = nodes.mean(axis=1)
        nodes -= mean[:, None]
        return len(z), mean, np.square(nodes, out=nodes).sum(axis=1)

    blocks = map_blocks(summarize, grid, h, seed, n_paths, threads=threads)
    count, mean, m2 = blocks[0]
    for count_b, mean_b, m2_b in blocks[1:]:
        total = count + count_b
        delta = mean_b - mean
        mean = mean + delta * (count_b / total)
        m2 = m2 + m2_b + delta ** 2 * (count * count_b / total)
        count = total
    return mean, m2 / (count - 1)


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
