"""Nystrom solution of the second-kind integral equations on [0, s].

All four equation families share one discretization: piecewise-constant
densities on grid cells, collocation at cell midpoints, and the exact
kernel moments from :mod:`mfbm.quadrature`.  For upper limit t_k the
collocation matrix is I + coeff * W[:k, :k], the leading block of one
symmetric positive definite Toeplitz matrix stored as its first column.
Every solve starts from the forward vector f_k = T_k^-1 e_1, and there
are two ways to reach it.  Callers that keep a few orders (the single
solves and the L/g sweeps, through :func:`_sparse_solutions`) give every
order k an anchor a(k) <= k within min(128, k / 8) of it, computed from k
alone (:func:`_anchor`).  An anchor takes f_a from one conjugate-gradient
solve from zero (:func:`_cg_forward`, preconditioned by a circulant, every
product by FFT); any other kept order grows f_a(k) by k - a(k) Levinson
order steps (:func:`_forward_step`) and polishes the result by conjugate
gradients started from it.  The :class:`SweepSolver` keeps every forward
vector it reached for its later calls.  No Levinson pass runs there: at
each kept order T_k^-1 follows from f_k alone (Gohberg-Semencul), applied
to every row by FFT.  The one caller that keeps every order,
:meth:`SweepSolver.path_functionals`, runs one Levinson-Durbin pass
(:func:`_prefix_solutions`) whose every order step grows f_k and extends
each row's solution.  Either way the solver returns T_k^-1 rows[:, :k] in
prefix order, each solution residual-checked by FFT matvec
(:func:`_checked`) before it is handed on; the sweeps reverse the
drift-kernel rows afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Optional

import numpy as np

from .exceptions import NumericalError
from .quadrature import Alpha, Grid, _dot, build_weight_matrix, edge_fit, riesz_moment

__all__ = [
    "KernelField",
    "SweepSolver",
    "solve_q",
    "solve_D",
]

#: Max-norm residual bound for the linear solve, relative to the rhs scale.
RESIDUAL_TOL = 1e-10

#: The residual check's window (1 MB of floats, within a 2-MB L2 cache):
#: the most one batched FFT block of :func:`_checked` and each of its two
#: buffers hold, unless a single order alone needs more.
_CHUNK_FLOATS = 1 << 17

#: Max-norm residual of T_k f = e_1 at which :func:`_cg_forward` stops, far
#: below RESIDUAL_TOL.
_CG_TOL = 1e-15

#: Iteration cap of :func:`_conjugate_gradients`.  From zero it needs at
#: most 8 iterations on [0, 1] (H -> 3/4; 1 at H = 1) and at most 17 up to
#: T = 1e12, for every order up to n = 2**14.
_CG_MAX_ITER = 100

#: Largest spacing of the anchor orders (see :func:`_anchor`): a kept order
#: that is not an anchor is reached from its anchor's forward vector by
#: fewer than this many O(k) Levinson order steps, then polished.  The 128
#: steps from order 2048 to 2176 took 1.00 ms, 0.89 times the 1.12 ms of
#: one conjugate-gradient solve from zero at order 2176 (H = 0.85,
#: n = 4096, medians of 200 on a 2-core VM); fewer steps cost less.
_ANCHOR_STRIDE = 128


@dataclass
class KernelField:
    """Solution values of one integral equation at the midpoints of [0, t_k].

    kind is 'L' (drift kernel), 'G' (martingale kernel, rhs 1), 'D'
    (difference of two L kernels) or 'Q' (generic right-hand side).
    """

    kind: str
    alpha: Alpha
    grid: Grid
    s_index: int
    values: np.ndarray
    rhs: Optional[Callable] = dataclass_field(default=None, repr=False, compare=False)

    @property
    def upper_limit(self) -> float:
        return float(self.grid.nodes[self.s_index])

    @property
    def midpoints(self) -> np.ndarray:
        return self.grid.midpoints[: self.s_index]


def _smooth_size(k: int) -> int:
    """Smallest 2**a * 3**b >= max(2, 2k - 1): the shortest fast FFT length
    that embeds a k x k block, longer than k."""
    target = max(2, 2 * k - 1)
    best = 1 << (target - 1).bit_length()
    power3 = 3
    while power3 < best:
        best = min(best, power3 << (-(-target // power3) - 1).bit_length())
        power3 *= 3
    return best


def _circulant_symbol(column: np.ndarray, size: int) -> np.ndarray:
    """Real FFT of the length-`size` symmetric circulant whose leading
    (size + 1) // 2 block is toeplitz(column[:(size + 1) // 2]) (zero-padded
    if the column is shorter)."""
    m = min((size + 1) // 2, column.size)
    embed = np.zeros(size)
    embed[:m] = column[:m]
    embed[size - m + 1:] = column[m - 1:0:-1]
    return np.fft.rfft(embed)


def toeplitz_matvec(column: np.ndarray, values: np.ndarray) -> np.ndarray:
    """toeplitz(column[:k]) @ values for k = len(values), by FFT in O(k log k)."""
    k = values.shape[0]
    size = _smooth_size(k)
    product = np.fft.irfft(np.fft.rfft(values, n=size) * _circulant_symbol(column, size), n=size)
    return product[:k]


def _scratch(buffers: dict, dtype, count: int) -> np.ndarray:
    """A flat array of `count` entries: a view of the buffer `buffers` keeps
    for `dtype`.  A buffer that is too short grows at least twofold (so a
    small check allocates little and a pass reallocates rarely), but never
    past the check window of `_CHUNK_FLOATS` floats unless `count` alone
    needs more."""
    buffer = buffers.get(dtype)
    if buffer is None or buffer.size < count:
        window = _CHUNK_FLOATS * np.dtype(float).itemsize // np.dtype(dtype).itemsize
        size = count if buffer is None else max(count, min(2 * buffer.size, window))
        buffer = buffers[dtype] = np.empty(size, dtype)
    return buffer[:count]


def _check_residuals(rhs: np.ndarray, scale: np.ndarray, solutions: dict, size: int,
                     symbol: np.ndarray, buffers: dict) -> None:
    """Raise NumericalError unless every row j of every order k in
    `solutions` has
    max|rhs[j, :k] - T_k x_k[j]| <= RESIDUAL_TOL * scale[j, k - 1].

    `rhs` is (m, K), `scale` holds max|rhs[j, :k]| at [j, k - 1] (1 where
    that is 0, as on a zero-padded row), and `solutions` maps k to the
    (m, k) solutions: one block of :func:`_checked`, whose orders all embed
    in the symmetric circulant of length `size` (a 2**a * 3**b at least
    2k - 1) with real symbol `symbol`, multiplied in one batched FFT.  The
    FFT runs in the two buffers `buffers` keeps by dtype (see
    :func:`_scratch`).
    """
    ks = sorted(solutions)
    m, width = rhs.shape[0], ks[-1]
    shape = (len(ks), m, size)
    block = _scratch(buffers, float, len(ks) * m * size).reshape(shape)
    for row, k in enumerate(ks):
        block[row, :, :k] = solutions[k]
        block[row, :, k:] = 0.0
    spectrum = _scratch(buffers, complex, len(ks) * m * (size // 2 + 1))
    spectrum = np.fft.rfft(block, out=spectrum.reshape(shape[:2] + (-1,)))
    spectrum *= symbol
    product = np.fft.irfft(spectrum, n=size, out=block)
    residual = product[..., :width]
    residual -= rhs[:, :width]
    np.abs(residual, out=residual)
    # Ragged per-row maximum over the first k entries: segments
    # [r * size, r * size + k) of the flat product, gaps dropped.
    sizes = np.repeat(ks, m)
    starts = np.arange(sizes.size) * size
    bounds = np.stack([starts, starts + sizes], axis=1).ravel()
    worst = np.maximum.reduceat(product.ravel(), bounds)[::2]
    relative = worst / scale[np.tile(np.arange(m), len(ks)), sizes - 1]
    # NaN-safe: a NaN or inf in a solution or a rhs fails the check
    bad = np.flatnonzero(~(relative <= RESIDUAL_TOL))
    if bad.size:
        raise NumericalError(
            f"linear solve residual {relative[bad[0]]:.3e} (relative) exceeds "
            f"tolerance {RESIDUAL_TOL:g} at block size {sizes[bad[0]]}"
        )


def _kept_orders(column, keep) -> list:
    """`keep` as an ascending list of distinct orders, each a block size of
    toeplitz(column): in [1, len(column)]."""
    keep = sorted({int(k) for k in keep})
    if keep and not 1 <= keep[0] <= keep[-1] <= len(column):
        raise ValueError(f"block sizes must be in [1, {len(column)}], got {keep}")
    return keep


def _checked(column, rows, solved):
    """Yield the (k, x_k) pairs of `solved` (ascending k) in order, each
    only after its residual check (see :func:`_check_residuals`) passed.

    Kept solutions are held back in blocks of consecutive orders with one
    check embedding size (`_smooth_size`, which changes only once 2k - 1
    exceeds it), as many as keep the block's complex spectrum (m rows of
    size // 2 + 1 entries per order, at least the m * size floats of the
    real block) within `_CHUNK_FLOATS` floats, or one order.  So a failed
    check raises before any solution of its block is handed on.  The rhs
    scale is taken once per call and the circulant symbol once per
    embedding size, when the size changes; the check's FFT buffers live
    for the whole call.
    """
    m = rows.shape[0]
    scale = np.maximum.accumulate(np.abs(rows), axis=1)
    scale[scale == 0.0] = 1.0
    buffers, block, embed, symbol, order_floats = {}, {}, 0, None, 0
    for k, x_k in solved:
        if block and (embed < 2 * k - 1 or (len(block) + 1) * order_floats > _CHUNK_FLOATS):
            _check_residuals(rows, scale, block, embed, symbol, buffers)
            yield from block.items()
            block = {}
        if embed < 2 * k - 1:
            embed = _smooth_size(k)
            symbol = _circulant_symbol(column, embed).real
            order_floats = m * 2 * (embed // 2 + 1)
        block[k] = x_k
    if block:
        _check_residuals(rows, scale, block, embed, symbol, buffers)
        yield from block.items()


def _forward_step(f, k, lag, work):
    """The Levinson-Durbin order step: grow f[:k], the forward vector
    T_k^-1 e_1, in place to f[:k + 1] = T_(k+1)^-1 e_1, and return the new
    backward vector f[k::-1] (T is persymmetric).

    f[k] must be 0 on entry.  `lag` is column[k], ..., column[1] and `work`
    a buffer of at least k + 1 floats; f = (f - eps * f[::-1]) / beta with
    eps = lag . f[:k] and beta = 1 - eps**2, written through `work`, so the
    step allocates nothing.  O(k).  Raises NumericalError, naming order
    k + 1, if beta <= 0 (impossible for a positive definite T).
    """
    eps = _dot(lag, f[:k])
    beta = 1.0 - eps * eps
    if not beta > 0.0:
        raise NumericalError(f"Levinson recursion broke down at order {k + 1} (beta = {beta:.3e})")
    head, backward, work = f[:k + 1], f[k::-1], work[:k + 1]
    np.multiply(backward, eps, work)
    np.subtract(head, work, work)
    np.divide(work, beta, head)
    return backward


def _prefix_solutions(column, rows, keep):
    """Yield (k, x_k) for every k in `keep`, ascending: the solutions of
    toeplitz(column)[:k, :k] x = rows[:, :k], every row riding one
    Levinson-Durbin pass.

    This is the solver for callers that keep (nearly) every order, as
    :meth:`SweepSolver.path_functionals` does.  `column` is the first
    column of a symmetric positive definite Toeplitz matrix T; `rows` is a
    stack of m right-hand sides (m, K).  The step to order k + 1 grows the
    forward vector f = T_k^-1 e_1 to f_(k+1) (:func:`_forward_step`, whose
    backward vector is f[k::-1]), then extends each row's solution by
    x += (rows[j, k] - lag . x[:k]) * f[k::-1] with lag = column[k],
    ..., column[1]: O(m K) extra work per order, cheaper than solving each
    kept order afresh.  Both steps write their temporaries into buffers
    made once per pass (a ufunc's third argument is its output), and round
    as f = (f - eps * f[::-1]) / beta and x += gap * f[::-1] do, in the
    same order.  Each row keeps its own dot product (the bits of a
    matrix-vector product may depend on how many rows are stacked), so its
    solutions are bit-identical to a pass over that row alone.  x_k is a
    new (m, k) array, every row in prefix order, yielded only after its
    residual check (see :func:`_checked`).  O(m K**2) time, O(m K) work
    space plus one check block.  Raises NumericalError if the recursion
    breaks down (a diagonal <= 0 or beta = 1 - eps**2 <= 0, impossible for
    a positive definite T).
    """
    keep = _kept_orders(column, keep)
    if not keep:
        return
    column = np.asarray(column, dtype=float)
    if not column[0] > 0.0:
        raise NumericalError(f"Toeplitz diagonal {column[0]:.3e} is not positive")
    size, m = keep[-1], rows.shape[0]
    # lags[size - 1 - k:] is column[k], ..., column[1]
    lags = column[size - 1:0:-1].copy()
    f, f_work = np.zeros(size), np.empty(size)
    x, x_work = np.zeros((m, size)), np.empty((m, size))
    x_rows = list(x)  # views of the rows of x, made once
    gap = np.empty((m, 1))
    wanted = set(keep)
    f[0] = 1.0 / column[0]
    x[:, 0] = rows[:, 0] * f[0]

    def solved():
        for k in range(size):
            if k:
                lag = lags[size - 1 - k:]
                backward = _forward_step(f, k, lag, f_work)
                for j, x_j in enumerate(x_rows):
                    gap[j, 0] = rows[j, k] - _dot(lag, x_j[:k])
                head, work = x[:, :k + 1], x_work[:, :k + 1]
                np.multiply(gap, backward, work)
                head += work
            if k + 1 in wanted:
                yield k + 1, x[:, :k + 1].copy()

    yield from _checked(column, rows, solved())


def _gohberg_semencul(f, rows):
    """T^-1 rows[j] for each row of the (m, k) stack `rows`, where T is the
    symmetric positive definite Toeplitz matrix with forward vector
    f = T^-1 e_1 (length k).

    Gohberg-Semencul: T^-1 = (L(f) L(f)^T - L(g) L(g)^T) / f[0] with
    g = (0, f[k - 1], ..., f[1]) and L(u) the lower triangular Toeplitz
    matrix with first column u.  Each triangular product is a convolution
    cut to k entries, taken by rfft on the `_smooth_size(k)` embedding, and
    L(u)^T b = J L(u) J b with J the reversal.  Every row is transformed on
    its own, so its solution does not depend on the other rows.
    O(m k log k).
    """
    m, k = rows.shape
    size = _smooth_size(k)
    generators = np.zeros((2, 1, k))
    generators[0, 0] = f
    generators[1, 0, 1:] = f[:0:-1]
    spectra = np.fft.rfft(generators, n=size)
    transposed = np.fft.irfft(spectra * np.fft.rfft(rows[:, ::-1], n=size), n=size)[..., k - 1::-1]
    products = spectra * np.fft.rfft(transposed, n=size)
    return np.fft.irfft(products[0] - products[1], n=size)[:, :k] / f[0]


def _cg_forward(column, k):
    """The forward vector f_k = T_k^-1 e_1 of the leading k x k block T_k of
    the symmetric positive definite Toeplitz T with first column `column`,
    by :func:`_conjugate_gradients` from f = 0: the solve each anchor order
    (:func:`_anchor`) runs, and an order that is not an anchor runs at its
    anchor before its order steps and polish (:func:`_store_forward`).  No
    guess is taken from another order, so f_k depends on the column and k
    only."""
    return _conjugate_gradients(column, k, None)


def _conjugate_gradients(column, k, start):
    """Preconditioned conjugate gradients for T_k f = e_1 (see
    :func:`_cg_forward`), from f = 0 if `start` is None, else from a copy of
    the length-k vector `start` (the polish of an extended forward vector,
    see :func:`_store_forward`).

    Each product T_k p is an rfft/irfft product on the `_smooth_size(k)`
    circulant embedding, the one the residual check uses.  The
    preconditioner is T. Chan's optimal circulant approximation of T_k
    (entries ((k - j) t_j + j t_(k-j)) / k), inverted by an FFT of length
    k: O(k log k) per iteration.  Its eigenvalues are Rayleigh quotients of
    T_k, so they are positive when T_k is positive definite, and the
    iteration count hardly grows with k or the horizon (counts at
    `_CG_MAX_ITER`).  The solve stops once the max-norm of the recursive
    residual is `_CG_TOL` or below; a start that already meets it is
    returned as it is, with no iteration.  Inner products are NumPy sums,
    not BLAS calls, so the bits do not depend on the BLAS thread count.
    Raises NumericalError, naming k, if an eigenvalue of the preconditioner
    or the curvature p . T_k p is not positive (T_k is not positive
    definite), or if `_CG_MAX_ITER` iterations do not reach the stop
    (naming the last residual).
    """
    column = np.asarray(column, dtype=float)
    size = _smooth_size(k)
    symbol = _circulant_symbol(column, size).real
    if start is None:
        f = np.zeros(k)
        residual = np.zeros(k)
        residual[0] = 1.0
        worst = 1.0
    else:
        f = np.array(start, dtype=float)
        residual = -np.fft.irfft(np.fft.rfft(f, n=size) * symbol, n=size)[:k]
        residual[0] += 1.0
        worst = float(np.max(np.abs(residual)))
        if worst <= _CG_TOL:
            return f
    lags = np.arange(k)
    wrapped = np.zeros(k)
    wrapped[1:] = column[k - 1:0:-1]
    eigen = np.fft.rfft(((k - lags) * column[:k] + lags * wrapped) / k).real
    if not np.min(eigen) > 0.0:
        raise NumericalError(
            f"conjugate gradients for the forward vector of order {k}: the circulant "
            f"preconditioner has eigenvalue {np.min(eigen):.3e}, so the block is not "
            f"positive definite"
        )
    smoothed = np.fft.irfft(np.fft.rfft(residual) / eigen, n=k)
    direction = smoothed.copy()
    fit = float(np.sum(residual * smoothed))
    for iteration in range(1, _CG_MAX_ITER + 1):
        product = np.fft.irfft(np.fft.rfft(direction, n=size) * symbol, n=size)[:k]
        curvature = float(np.sum(direction * product))
        if not curvature > 0.0:
            raise NumericalError(
                f"conjugate gradients for the forward vector of order {k} broke down at "
                f"iteration {iteration}: curvature {curvature:.3e} is not positive "
                f"(residual {worst:.3e})"
            )
        step = fit / curvature
        f += step * direction
        residual -= step * product
        worst = float(np.max(np.abs(residual)))
        if worst <= _CG_TOL:
            return f
        smoothed = np.fft.irfft(np.fft.rfft(residual) / eigen, n=k)
        fit, previous = float(np.sum(residual * smoothed)), fit
        direction *= fit / previous
        direction += smoothed
    raise NumericalError(
        f"conjugate gradients for the forward vector of order {k} did not converge in "
        f"{_CG_MAX_ITER} iterations (residual {worst:.3e}, tolerance {_CG_TOL:g})"
    )


def _anchor(k: int) -> int:
    """The anchor a(k) of order k: k rounded down to a multiple of
    min(_ANCHOR_STRIDE, 2**max(0, bit_length(k) - 4)).  So a(k) <= k,
    k - a(k) < min(_ANCHOR_STRIDE, max(1, k / 8)) and a(a(k)) = a(k); every
    order below 16 and every n / 2 and 5n / 8 of a power-of-two n is its
    own anchor.  It depends on k alone, never on which other orders a call
    keeps."""
    stride = min(_ANCHOR_STRIDE, 1 << max(0, k.bit_length() - 4))
    return k - k % stride


def _read_only(f):
    f.flags.writeable = False
    return f


def _store_forward(column, orders, forward: dict) -> None:
    """Put f_k into `forward`, read-only, for every k in `orders`
    (ascending, none of them in `forward`).

    An anchor order (k = a(k), see :func:`_anchor`) runs one
    conjugate-gradient solve from zero (:func:`_cg_forward`).  Any other
    order takes f_a(k) from `forward` (solved and stored there first if it
    is missing) and grows it by k - a(k) Levinson order steps
    (:func:`_forward_step`), O(k) each; conjugate gradients started from
    that vector then polish it to the `_CG_TOL` stop
    (:func:`_conjugate_gradients`).  The orders that share an anchor ride
    one run of steps up to the largest of them: the vector after j steps
    from f_a does not depend on how far the run goes on, so each f_k still
    depends on the column and k only.  An order whose steps or polish
    raise (a breakdown, or `_CG_MAX_ITER` reached, each naming the order)
    stores nothing.
    """
    by_anchor = {}
    for k in orders:
        by_anchor.setdefault(_anchor(k), []).append(k)
    for anchor, ks in by_anchor.items():
        if anchor not in forward:
            forward[anchor] = _read_only(_cg_forward(column, anchor))
        top = ks[-1]
        if top == anchor:
            continue
        # lags[top - 1 - j:] is column[j], ..., column[1]
        lags = column[top - 1:0:-1]
        f, work = np.zeros(top), np.empty(top)
        f[:anchor] = forward[anchor]
        for j in range(anchor, top):
            _forward_step(f, j, lags[top - 1 - j:], work)
            if j + 1 in ks:
                forward[j + 1] = _read_only(_conjugate_gradients(column, j + 1, f[:j + 1]))


def _sparse_solutions(column, rows, keep, forward: dict) -> dict:
    """{k: x_k} for every k in `keep`: the solutions of
    toeplitz(column)[:k, :k] x = rows[:, :k], each residual-checked.

    This is the solver for callers that keep a few orders (every solve but
    :meth:`SweepSolver.path_functionals`); no Levinson pass runs.  Each
    kept order k takes its forward vector from `forward`, a {k: f_k} dict
    of read-only vectors solved before for this same column; on a miss
    :func:`_store_forward` reaches it from its anchor a(k) (an order within
    min(128, k / 8) below k): a conjugate-gradient solve from zero at the
    anchor (O(k log k) per iteration), then k - a(k) Levinson order steps
    and a conjugate-gradient polish for an order that is not an anchor.
    The dict keeps the anchors and the extended orders alike.  Its
    Gohberg-Semencul inverse (:func:`_gohberg_semencul`) solves all rows
    by FFT in O(m k log k).  `rows` is a stack of m right-hand sides
    (m, K); x_k is a new (m, k) array, every row in prefix order.  A row's
    solutions are bit-identical whether it is solved alone or stacked with
    others, with other kept orders (its anchor among them) or without, and
    with a stored forward vector or a new one (f_k depends on the column
    and k only).  The column, and each checked solution, is divided by the
    power of two of the diagonal (exact), so the forward vectors' products
    do not underflow at a huge horizon (a diagonal of 1e208 to 1e237 at
    T = 1e300); the stored vectors are those of the scaled column.
    """
    keep = _kept_orders(column, keep)
    _, exponent = np.frexp(column[0])
    column = np.ldexp(column, -exponent)
    _store_forward(column, [k for k in keep if k not in forward], forward)
    solved = ((k, _gohberg_semencul(forward[k], rows[:, :k])) for k in keep)
    return {k: np.ldexp(x, -exponent) for k, x in _checked(column, rows, solved)}


def _ones(r):
    return np.ones_like(np.asarray(r, dtype=float))


def solve_q(sweep: "SweepSolver", s_index: int, rhs: Callable, kind: str = "Q") -> KernelField:
    """Solve Q(r) + coeff * int_0^s Q(tau) |r - tau|**(-a) dtau = rhs(r)
    on the grid and exponent of `sweep`, with s its node `s_index`.

    `rhs` must accept an array of midpoints and return finite values there;
    the result carries it.
    """
    grid, k = sweep.grid, int(s_index)
    if not 1 <= k <= grid.cells:
        raise ValueError(f"s_index must be in [1, {grid.cells}], got {k}")
    mids = grid.midpoints[:k]
    f = np.broadcast_to(np.asarray(rhs(mids), dtype=float), (k,)).copy()
    if not np.all(np.isfinite(f)):
        raise ValueError("rhs must be finite at all collocation midpoints")
    x = _sparse_solutions(sweep._system, f[None], [k], sweep._forward)[k][0]
    return KernelField(kind=kind, alpha=sweep.alpha, grid=grid, s_index=k, values=x, rhs=rhs)


def _l_rhs(alpha: Alpha, s: float) -> Callable:
    """Drift-kernel rhs on [0, s]: -coeff * (s - r)**(-a).  At a = 0 the
    solution is the constant -1/(1 + s)."""
    def rhs(r):
        return -alpha.coeff * np.abs(s - np.asarray(r, dtype=float)) ** (-alpha.value)

    return rhs


def check_discretization(item, reference, what: str) -> None:
    """Raise ValueError unless `item` and `reference` share grid nodes and
    kernel exponent.  Either may be a KernelField, a WeightMatrix or a
    SweepSolver: anything with `grid` and `alpha`."""
    if item.grid is not reference.grid and not np.array_equal(item.grid.nodes, reference.grid.nodes):
        raise ValueError(f"{what} live on different grids")
    if item.alpha.value != reference.alpha.value:
        raise ValueError(f"{what} have different exponents")


def _tail_integral(L_t: KernelField, s_index: int, r, column: np.ndarray) -> np.ndarray:
    """Product integration of int_s^t L(tau, t) |r - tau|**(-a) dtau at the
    collocation midpoints r of [0, s].

    The density blows up like (t - tau)**(-a) at tau = t, so the last two
    cells use the fitted edge model: its singular part is integrated
    exactly against (t - tau)**(-a) with the smooth factor frozen at the
    cell midpoint, its constant part against the exact kernel moment.  The
    moments of the other cells form the block W[:ks, ks:kt - 2] of the
    Toeplitz W whose first column is `column`, applied as one FFT Toeplitz
    product: O(kt) memory.  Raises ValueError unless `r` is exactly the
    midpoints of [0, s].
    """
    grid, alpha = L_t.grid, L_t.alpha
    ks, kt = int(s_index), L_t.s_index
    r = np.asarray(r, dtype=float)
    if r.shape != (ks,) or not np.array_equal(r, grid.midpoints[:ks]):
        raise ValueError("the tail integral is evaluated at the collocation midpoints of [0, s] only")
    n_edge = min(2, kt - ks)
    stop = kt - n_edge
    padded = np.zeros(stop)
    padded[ks:] = L_t.values[ks:stop]
    out = toeplitz_matvec(column, padded)[:ks] if stop > ks else np.zeros(ks)
    if not n_edge:  # s = t: an empty tail
        return out
    edge_cells = np.arange(stop, kt)
    c, d = edge_fit(L_t.values[edge_cells], alpha.value, grid.h)
    for j in edge_cells:
        a, b = grid.nodes[j], grid.nodes[j + 1]
        kernel_mid = np.abs(grid.midpoints[j] - r) ** (-alpha.value)
        out += c * kernel_mid * riesz_moment(a, b, L_t.upper_limit, alpha)
        out += d * riesz_moment(a, b, r, alpha)
    return out


def solve_D(sweep: "SweepSolver", s_index: int, L_t: KernelField) -> KernelField:
    """Difference kernel D(., s) = L(., t) - L(., s) solved on [0, s].

    `L_t` is the drift-kernel field at t, on the grid and exponent of
    `sweep`.  Right-hand side: coeff * ((s-r)**(-a) - (t-r)**(-a)) minus
    the kernel integral of L(., t) over [s, t], which the field's `rhs`
    evaluates at the midpoints of [0, s] only (ValueError elsewhere).
    At s_index equal to L_t's index the two equations coincide: the rhs
    and the solution are exact zeros.
    """
    if L_t.kind != "L":
        raise ValueError(f"L_t must be a drift-kernel field, got kind {L_t.kind!r}")
    check_discretization(L_t, sweep, "L_t and the solver")
    grid, alpha = sweep.grid, sweep.alpha
    ks, kt = int(s_index), L_t.s_index
    if ks > kt:
        raise ValueError(f"need s_index <= the index of L_t, got {ks} > {kt}")
    s = float(grid.nodes[ks])
    t = float(grid.nodes[kt])

    def rhs(r):
        tail = _tail_integral(L_t, ks, r, sweep.weights.column)
        r = np.asarray(r, dtype=float)
        direct = alpha.coeff * ((s - r) ** (-alpha.value) - (t - r) ** (-alpha.value))
        return direct - alpha.coeff * tail

    return solve_q(sweep, ks, rhs, kind="D")


class SweepSolver:
    """Solve families of upper limits on one grid.

    The collocation matrices for all upper limits are the leading blocks of
    one symmetric positive definite Toeplitz matrix I + coeff * W.  A sweep
    (see :func:`_sparse_solutions`) takes the forward vector at each
    requested index k from its anchor a(k): one preconditioned
    conjugate-gradient solve with FFT products at the anchor, then, for an
    index that is not an anchor, k - a(k) < 128 Levinson order steps and a
    conjugate-gradient polish.  Every requested field follows from the
    forward vector by FFT: O(k log k) per iteration and per field, and O(n)
    matrix storage.  A variogram at t0 = T/2 keeps the anchor n/2, and its
    lags below min(128, n/16) cells ride it (at n = 4096 the orders 2080
    and 2112, lags 32h and 64h).  One isolated index that is not an anchor
    pays for its anchor's solve as well as the steps: at n = 4096, H = 0.85,
    a single L_field took 2.7 to 2.8 ms at orders 2175 and 2303 where a
    solve from zero took 1.8 to 1.9 ms (2-core VM).  The solver keeps each
    forward vector it reached, anchors included, read-only, so a later
    sweep or single solve at that index runs no second solve; every call
    still checks the residual of every solution against `RESIDUAL_TOL` in
    prefix order, as the solvers return it.  A drift-kernel field is its
    solution reversed after the check.  Only :meth:`path_functionals`,
    which keeps every order, runs a Levinson-Durbin pass
    (:func:`_prefix_solutions`).  It owns W: the single solves
    (:func:`solve_q`, :func:`solve_D`) take the solver, not a grid,
    exponent and W.
    """

    def __init__(self, grid: Grid, alpha: Alpha):
        self.grid = grid
        self.alpha = alpha
        self.weights = build_weight_matrix(grid, alpha)
        # first column of the collocation matrix I + coeff * W
        self._system = alpha.coeff * self.weights.column
        self._system[0] += 1.0
        # {k: f_k} of the power-of-two-scaled _system (see _sparse_solutions)
        self._forward = {}

    def L_field(self, s_index: int) -> KernelField:
        return self._single_field(self.L_sweep, s_index)

    def g_field(self, t_index: int) -> KernelField:
        return self._single_field(self.g_sweep, t_index)

    def _single_field(self, sweep, index: int) -> KernelField:
        # an upper limit up to half a cell rounds to node 0, whose block is empty
        if int(index) == 0:
            raise ValueError(f"the upper limit rounds to node 0: it must be more than half a cell "
                             f"({self.grid.h / 2:g}) above 0")
        return sweep([index])[int(index)]

    def L_sweep(self, indices: Iterable[int]) -> dict:
        """Drift-kernel fields for every index.

        The L rhs at index k is v[k - 1 - i] with v_j = -coeff * m_j**(-a),
        the reversed k-prefix of one vector; the matrix is persymmetric, so
        the solver solves for the prefix v[:k] and each L field is a
        C-contiguous copy of that solution reversed.
        """
        return {k: KernelField(kind="L", alpha=self.alpha, grid=self.grid, s_index=k,
                               values=x[0, ::-1].copy(), rhs=_l_rhs(self.alpha, float(self.grid.nodes[k])))
                for k, x in self._sweep(indices, self._drift_rhs).items()}

    def g_sweep(self, indices: Iterable[int]) -> dict:
        """Martingale-kernel fields (rhs identically 1) for every index."""
        return {k: KernelField(kind="G", alpha=self.alpha, grid=self.grid, s_index=k, values=x[0], rhs=_ones)
                for k, x in self._sweep(indices, np.ones).items()}

    def _sweep(self, indices: Iterable[int], row) -> dict:
        """{k: (1, k) solution} at every index k, for the rhs row(K)[:k]
        (`row` builds the length-K rhs, K the largest index)."""
        indices = {int(i) for i in indices}
        # the row stops at the grid; the solver refuses an index past it
        size = min(max(indices, default=0), self.grid.cells)
        return _sparse_solutions(self._system, row(size)[None], indices, self._forward)

    def _drift_rhs(self, size: int) -> np.ndarray:
        """v[:size] with v_j = -coeff * m_j**(-a): the drift-kernel rhs at
        index k is v[k - 1::-1]."""
        return -self.alpha.coeff * self.grid.midpoints[:size] ** (-self.alpha.value)

    def g_diagonal(self, g_fields: dict) -> dict:
        """Endpoint values g(t_k, t_k) by Nystrom interpolation, per index:
        mu[k - 1::-1] (see :meth:`Grid.first_cell_moments`) holds the kernel
        moments of the k cells below t_k."""
        moments = self.grid.first_cell_moments(self.alpha)
        return {
            k: 1.0 - self.alpha.coeff * float(moments[k - 1::-1] @ fld.values)
            for k, fld in g_fields.items()
        }

    def path_functionals(self, increments: np.ndarray, indices: Iterable[int]) -> tuple:
        """(phi, M, g(t_k, t_k)) of one path at every index, ascending, from
        one pass over the two rows {dX, 1} that stores no kernel field.

        phi_k = <L_k, dX[:k]> and M_k = <g_k, dX[:k]> are the stochastic
        integrals of the drift and martingale kernels.  T_k is symmetric and
        L_k = T_k^-1 v[k - 1::-1], so with z_k = T_k^-1 dX[:k] they are
        phi_k = <v[k - 1::-1], z_k> and M_k = sum(z_k).  The diagonal is
        that of :meth:`g_diagonal`, from y_k = T_k^-1 1, the martingale
        kernel itself (bit for bit).  O(K**2) time and O(K) memory, every
        z_k and y_k residual-checked.  `increments` holds dX on the cells
        (at least max(indices) of them).
        """
        indices = sorted({int(i) for i in indices})
        size = indices[-1] if indices else 0
        v = self._drift_rhs(size)
        moments = self.grid.first_cell_moments(self.alpha)
        rows = np.array([np.asarray(increments, dtype=float)[:size], np.ones(size)])
        phi, m_values, diagonal = (np.empty(len(indices)) for _ in range(3))
        for pos, (k, (z, y)) in enumerate(_prefix_solutions(self._system, rows, indices)):
            phi[pos] = v[k - 1::-1] @ z
            m_values[pos] = z.sum()
            diagonal[pos] = 1.0 - self.alpha.coeff * float(moments[k - 1::-1] @ y)
        return phi, m_values, diagonal
