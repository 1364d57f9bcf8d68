"""Nystrom solution of the second-kind integral equations on [0, s].

All four equation families share one discretization: piecewise-constant
densities on grid cells, collocation at cell midpoints, and the exact
kernel moments from :mod:`mfbm.quadrature`.  For upper limit t_k the
collocation matrix is I + coeff * W[:k, :k], the leading block of one
symmetric positive definite Toeplitz matrix stored as its first column.
Every solve grows the forward vector f_k = T_k^-1 e_1 in one
Levinson-Durbin pass (:func:`_forward_vectors`), which has two consumers.
Callers that keep a few orders of a pass (the single solves and the L/g
sweeps, through :func:`_levinson`) let no right-hand side ride it: at
each kept order T_k^-1 follows from f_k alone (Gohberg-Semencul), applied
by FFT.  A :class:`SweepSolver` keeps the f_k of its latest such pass, so
a later solve at kept orders runs no pass at all: the bound audit makes
one pass per grid size.  The one caller that keeps every order,
:meth:`SweepSolver.path_functionals`, has its rows ride the pass
(:func:`_prefix_solutions`).  Either consumer returns T_k^-1 rows[:, :k]
in prefix order, each solution residual-checked by FFT matvec before it
is handed on; the sweeps reverse the drift-kernel rows afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Optional

import numpy as np

from .exceptions import NumericalError
from .quadrature import Alpha, Grid, build_weight_matrix, edge_fit, power_moment, riesz_moment

__all__ = [
    "KernelField",
    "SweepSolver",
    "solve_q",
    "solve_D",
    "check_L_from_g",
]

#: Max-norm residual bound for the linear solve, relative to the rhs scale.
RESIDUAL_TOL = 1e-10

#: Floats per batched FFT block of the residual check (4 MB).
_CHUNK_FLOATS = 1 << 19


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


def _scratch(workspace: dict, dtype, count: int) -> np.ndarray:
    """A flat array of `count` entries: a view of the buffer `workspace`
    keeps for `dtype`, which grows at least twofold when it is too short
    (so a small check allocates little and a pass reallocates rarely)."""
    buffer = workspace.get(dtype)
    if buffer is None or buffer.size < count:
        size = count if buffer is None else max(count, 2 * buffer.size)
        buffer = workspace[dtype] = np.empty(size, dtype)
    return buffer[:count]


def _check_residuals(column: np.ndarray, rhs: np.ndarray, solutions: dict, size: int,
                     workspace: dict) -> None:
    """Raise NumericalError unless every row j of every order k in
    `solutions` has
    max|rhs[j, :k] - T_k x_k[j]| <= RESIDUAL_TOL * max(1, max|rhs[j, :k]|).

    `rhs` is (m, K) and `solutions` maps k to the (m, k) solutions: one
    block of :func:`_checked`, whose orders all embed in the symmetric
    circulant of length `size` (a 2**a * 3**b at least 2k - 1, so its
    symbol is real), multiplied in one batched FFT.  The FFTs run in two
    buffers kept in `workspace` (a dict); :func:`_checked` passes the same
    one for every block of a pass, so the buffers are not freed and
    faulted in again for every block.
    """
    ks = sorted(solutions)
    m, width = rhs.shape[0], ks[-1]
    shape = (len(ks), m, size)
    block = _scratch(workspace, float, len(ks) * m * size).reshape(shape)
    for row, k in enumerate(ks):
        block[row, :, :k] = solutions[k]
        block[row, :, k:] = 0.0
    spectrum = _scratch(workspace, complex, len(ks) * m * (size // 2 + 1))
    spectrum = np.fft.rfft(block, out=spectrum.reshape(shape[:2] + (-1,)))
    spectrum *= _circulant_symbol(column, size).real
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
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(rhs[:, :width]), axis=1))
    relative = worst / scale[np.tile(np.arange(m), len(ks)), sizes - 1]
    bad = np.flatnonzero(relative > RESIDUAL_TOL)
    if bad.size:
        raise NumericalError(
            f"linear solve residual {relative[bad[0]]:.3e} (relative) exceeds "
            f"tolerance {RESIDUAL_TOL:g} at block size {sizes[bad[0]]}"
        )


def _kept_orders(column, rows, keep) -> list:
    """`keep` as an ascending list of distinct orders, each a block size of
    both toeplitz(column) and the (m, K) stack `rows`."""
    keep = sorted({int(k) for k in keep})
    limit = min(len(column), rows.shape[1])
    if keep and (keep[0] < 1 or keep[-1] > limit):
        raise ValueError(f"block sizes must be in [1, {limit}], got {keep}")
    return keep


def _forward_vectors(column, size):
    """Yield (k, lag, f) for k = 1, ..., size from one Levinson-Durbin pass:
    f[:k] is the forward vector T_k^-1 e_1 of the leading k x k block of the
    symmetric positive definite Toeplitz T with first column `column`, and
    lag holds column[k - 1], ..., column[1], which the step to order k read.

    f is one length-`size` buffer that the next step overwrites; the
    backward vector T_k^-1 e_k is f[k - 1::-1] because T_k is persymmetric.
    The step writes its temporaries into a buffer made once (a ufunc's third
    argument is its output), so it allocates no array; it rounds as
    f = (f - eps * f[::-1]) / beta does, in the same order.  O(size**2)
    time.  Raises NumericalError if the recursion breaks down (a diagonal
    <= 0 or beta = 1 - eps**2 <= 0, impossible for a positive definite T).
    """
    column = np.asarray(column, dtype=float)
    if not column[0] > 0.0:
        raise NumericalError(f"Toeplitz diagonal {column[0]:.3e} is not positive")
    # lags[size - 1 - k:size - 1] is column[k], ..., column[1]
    lags = column[size - 1:0:-1].copy()
    f = np.zeros(size)
    f_work = np.empty(size)
    f[0] = 1.0 / column[0]
    yield 1, lags[size - 1:], f
    for k in range(1, size):
        lag = lags[size - 1 - k:]
        eps = float(lag.dot(f[:k]))
        beta = 1.0 - eps * eps
        if not beta > 0.0:
            raise NumericalError(f"Levinson recursion broke down at order {k + 1} (beta = {beta:.3e})")
        head, backward, work = f[: k + 1], f[k::-1], f_work[: k + 1]
        np.multiply(backward, eps, work)
        np.subtract(head, work, work)
        np.divide(work, beta, head)
        yield k + 1, lag, f


def _checked(column, rows, solved):
    """Yield the (k, x_k) pairs of `solved` (ascending k) in order, each
    only after its residual check (see :func:`_check_residuals`) passed.

    Kept solutions are held back in blocks of consecutive orders with one
    check embedding size (`_smooth_size`, which changes only once 2k - 1
    exceeds it), as many as fit in one batched FFT of `_CHUNK_FLOATS`
    floats (or one order), so a failed check raises before any solution of
    its block is handed on.  The check's FFT buffers live for the whole
    pass.
    """
    m = rows.shape[0]
    block, embed, workspace = {}, 0, {}
    for k, x_k in solved:
        if block and (embed < 2 * k - 1 or (len(block) + 1) * m * embed > _CHUNK_FLOATS):
            _check_residuals(column, rows, block, embed, workspace)
            yield from block.items()
            block = {}
        if embed < 2 * k - 1:
            embed = _smooth_size(k)
        block[k] = x_k
    if block:
        _check_residuals(column, rows, block, embed, workspace)
        yield from block.items()


def _riding_solutions(column, rows, keep):
    """(k, x_k) for every k in `keep`, ascending, with every row of `rows`
    riding the forward pass: each order k extends each row's solution by
    the Levinson x-step x += (rows[j, k - 1] - lag . x[:k - 1]) * f[k - 1::-1]."""
    keep = _kept_orders(column, rows, keep)
    if not keep:
        return
    size, m = keep[-1], rows.shape[0]
    # rhs[k] is the column rows[:, k]
    rhs = rows[:, :size].T.copy()
    x = np.zeros((m, size))
    x_rows = list(x)  # views of the rows of x, made once
    # The x-step writes into buffers made once per pass; it rounds as
    # x += gap * f[::-1] does.
    x_work = np.empty((m, size))
    gap = np.empty((m, 1))
    wanted = set(keep)
    for k, lag, f in _forward_vectors(column, size):
        if k == 1:
            x[:, 0] = rows[:, 0] * f[0]
        else:
            # One dot product per row: the bits of a matrix-vector product
            # may depend on how many rows are stacked.
            rhs_k = rhs[k - 1]
            for j, x_j in enumerate(x_rows):
                gap[j, 0] = rhs_k[j] - lag.dot(x_j[:k - 1])
            head, work = x[:, :k], x_work[:, :k]
            np.multiply(gap, f[k - 1::-1], work)
            head += work
        if k in wanted:
            yield k, x[:, :k].copy()


def _prefix_solutions(column, rows, keep):
    """Yield (k, x_k) for every k in `keep`, ascending: the solutions of
    toeplitz(column)[:k, :k] x = rows[:, :k], every row riding one
    Levinson-Durbin pass.

    This is the consumer for callers that keep (nearly) every order, as
    :meth:`SweepSolver.path_functionals` does: at O(m K) extra work per
    order, the x-step is cheaper than solving each kept order afresh.
    `column` is the first column of a symmetric positive definite Toeplitz
    matrix T; `rows` is a stack of m right-hand sides (m, K).  Each row
    keeps its own dot product, so its solutions are bit-identical to a pass
    over that row alone.  x_k is a new (m, k) array, every row in prefix
    order.  Every yielded solution is residual-checked (see
    :func:`_checked`), and a failed check raises before the generator
    finishes.  O(m K**2) time, O(m K) work space plus one block.
    """
    return _checked(column, rows, _riding_solutions(column, rows, keep))


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


def _kept_forward(column, keep, forward):
    """Yield (k, f_k) for every k in the ascending list `keep`, f_k the
    forward vector T_k^-1 e_1 of toeplitz(column) as a read-only array.

    `forward` maps orders to forward vectors kept from an earlier pass
    over the same column.  If it holds every order of `keep`, those are
    yielded and no pass runs; f_k depends on the column and k only, so a
    kept copy has the bits a new pass would grow.  Otherwise one
    Levinson-Durbin pass up to max(keep) runs, and `forward` is emptied and
    then holds a copy of f_k for each k in `keep`, so it never keeps more
    than one pass's kept orders.
    """
    kept = [forward.get(k) for k in keep]
    if all(f_k is not None for f_k in kept):
        yield from zip(keep, kept)
        return
    forward.clear()
    wanted = set(keep)
    for k, _, f in _forward_vectors(column, keep[-1]):
        if k in wanted:
            f_k = f[:k].copy()
            f_k.flags.writeable = False
            forward[k] = f_k
            yield k, f_k


def _levinson(column, rows, keep, forward) -> dict:
    """{k: x_k} for every k in `keep`: the solutions of
    toeplitz(column)[:k, :k] x = rows[:, :k], each residual-checked.

    This is the consumer for callers that keep a few orders of a pass (every
    solve but :meth:`SweepSolver.path_functionals`): no right-hand side
    rides the pass.  One Levinson-Durbin pass up to max(keep) grows the
    forward vector alone, and at each kept order its Gohberg-Semencul
    inverse (:func:`_gohberg_semencul`) solves all rows by FFT, so a pass
    costs O(K**2) plus O(m k log k) per kept order k.  `forward`, a dict of
    the forward vectors kept from the last pass over `column` (see
    :func:`_kept_forward`), skips the pass when it holds every order of
    `keep`; an empty dict makes the call run its own pass.  `rows` is a
    stack of m right-hand sides (m, K); x_k is a new (m, k) array, every
    row in prefix order.  A row's solutions are bit-identical whether it is
    solved alone or stacked with others, and whether its forward vectors
    were grown or kept.
    """
    keep = _kept_orders(column, rows, keep)
    solved = ((k, _gohberg_semencul(f_k, rows[:, :k]))
              for k, f_k in _kept_forward(column, keep, forward))
    return dict(_checked(column, rows, solved))


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
    x = _levinson(sweep._system, f[None], [k], sweep._forward)[k][0]
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
    edge_cells = np.arange(stop, kt)
    c, d = edge_fit(L_t.values[edge_cells], alpha.value, grid.h)
    for j in edge_cells:
        a, b = grid.nodes[j], grid.nodes[j + 1]
        kernel_mid = np.abs(grid.midpoints[j] - r) ** (-alpha.value)
        out += c * kernel_mid * power_moment(a, b, L_t.upper_limit, alpha.value)
        out += d * riesz_moment(a, b, r, alpha)
    return out


def solve_D(sweep: "SweepSolver", s_index: int, L_t: KernelField) -> KernelField:
    """Difference kernel D(., s) = L(., t) - L(., s) solved on [0, s].

    `L_t` is the drift-kernel field at t, on the grid and exponent of
    `sweep`.  Right-hand side: coeff * ((s-r)**(-a) - (t-r)**(-a)) minus
    the kernel integral of L(., t) over [s, t], which the field's `rhs`
    evaluates at the midpoints of [0, s] only (ValueError elsewhere).
    s_index equal to L_t's index returns the zero field (the two equations
    coincide).
    """
    if L_t.kind != "L":
        raise ValueError(f"L_t must be a drift-kernel field, got kind {L_t.kind!r}")
    check_discretization(L_t, sweep, "L_t and the solver")
    grid, alpha = sweep.grid, sweep.alpha
    ks, kt = int(s_index), L_t.s_index
    if ks > kt:
        raise ValueError(f"need s_index <= the index of L_t, got {ks} > {kt}")
    if ks == kt:
        return KernelField(
            kind="D", alpha=alpha, grid=grid, s_index=ks,
            values=np.zeros(ks), rhs=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
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
    one symmetric positive definite Toeplitz matrix I + coeff * W, so one
    forward-vector pass up to the largest requested index (see
    :func:`_levinson`) returns every requested field of one family, or of
    both (:meth:`L_g_sweep`): O(K**2) time per pass, shared by the
    families, plus O(k log k) per field by FFT from the forward vector at
    its index k, and O(n) matrix storage.  The residual of every solution
    is checked against `RESIDUAL_TOL` in prefix order, as the solvers
    return it; a drift-kernel field is its solution reversed after the
    check.  Only :meth:`path_functionals`, which keeps every order, has its
    rows ride the pass.  It owns W: the single solves (:func:`solve_q`,
    :func:`solve_D`) take the solver, not a grid, exponent and W.

    The solver keeps a read-only copy of the forward vector f_k at each
    kept order of its latest sweep or single solve, until the next pass
    replaces them: memory for one pass's kept orders.  A sweep or single
    solve whose orders are all kept reads those copies and runs no pass,
    with the same bits and the same residual check as after a new pass,
    so :func:`solve_D` at s after :meth:`L_g_sweep` at (s, t) costs FFTs
    only.  :meth:`path_functionals` neither reads nor replaces them.
    """

    def __init__(self, grid: Grid, alpha: Alpha):
        self.grid = grid
        self.alpha = alpha
        self.weights = build_weight_matrix(grid, alpha)
        # first column of the collocation matrix I + coeff * W
        self._system = alpha.coeff * self.weights.column
        self._system[0] += 1.0
        # read-only forward vectors f_k of the latest sparse pass, by order
        self._forward = {}

    def L_field(self, s_index: int) -> KernelField:
        return self.L_sweep([s_index])[int(s_index)]

    def g_field(self, t_index: int) -> KernelField:
        return self.g_sweep([t_index])[int(t_index)]

    def _sweep(self, indices: Iterable[int], kinds: str, extra_rhs=None) -> tuple:
        """Fields of each family in `kinds` ('L', 'G') at every index, from one pass.

        The L rhs at index k is v[k - 1 - i] with v_j = -coeff * m_j**(-a),
        the reversed k-prefix of one vector; the matrix is persymmetric, so
        the pass solves for the prefix v[:k] and each L field is a
        C-contiguous copy of that solution reversed.  The g rhs is
        identically 1.  Rows of `extra_rhs` are solved after the families,
        from the same forward vectors; their solutions, {k: (m, k)}, follow
        the fields as one more item.
        """
        indices = {int(i) for i in indices}
        size = max(indices, default=0)
        rows = [self._drift_rhs(size) if kind == "L" else np.ones(size) for kind in kinds]
        if extra_rhs is not None:
            extra_rhs = np.asarray(extra_rhs, dtype=float)
            if extra_rhs.ndim != 2 or extra_rhs.shape[1] < size:
                raise ValueError(f"extra_rhs must be an (m, K) stack with K >= {size}, "
                                 f"got shape {extra_rhs.shape}")
            rows.extend(extra_rhs[:, :size])
        solutions = _levinson(self._system, np.array(rows), indices, self._forward)
        fields = tuple(
            {k: KernelField(kind=kind, alpha=self.alpha, grid=self.grid, s_index=k,
                            values=x[j, ::-1].copy() if kind == "L" else x[j],
                            rhs=_l_rhs(self.alpha, float(self.grid.nodes[k])) if kind == "L" else _ones)
             for k, x in solutions.items()}
            for j, kind in enumerate(kinds)
        )
        if extra_rhs is None:
            return fields
        return fields + ({k: x[len(kinds):] for k, x in solutions.items()},)

    def L_g_sweep(self, indices: Iterable[int], extra_rhs=None) -> tuple:
        """(drift-kernel fields, martingale-kernel fields) at every index, from one pass.

        `extra_rhs`, an optional (m, K) stack of further right-hand sides on
        the first K >= max(indices) midpoints, is solved from the same pass,
        and a third item maps every index k to the (m, k) solutions for
        extra_rhs[:, :k].  A rhs meant for one index k only is zero-padded
        past k and read at k.  A row's solution at k depends on the row
        and on the forward vector at k only, so it is bit-identical to
        :func:`solve_q` with that rhs.
        """
        return self._sweep(indices, "LG", extra_rhs)

    def L_sweep(self, indices: Iterable[int]) -> dict:
        """Drift-kernel fields for every index in one pass."""
        return self._sweep(indices, "L")[0]

    def g_sweep(self, indices: Iterable[int]) -> dict:
        """Martingale-kernel fields (rhs identically 1) for every index in one pass."""
        return self._sweep(indices, "G")[0]

    def _drift_rhs(self, size: int) -> np.ndarray:
        """v[:size] with v_j = -coeff * m_j**(-a): the drift-kernel rhs at
        index k is v[k - 1::-1]."""
        return -self.alpha.coeff * self.grid.midpoints[:size] ** (-self.alpha.value)

    def _first_cell_moments(self) -> np.ndarray:
        """mu_i: the kernel moment of the first cell against node t_(i+1).
        The moment of cell j against node t_k depends on k - 1 - j only, so
        mu[k - 1::-1] holds the moments of the k cells below t_k."""
        nodes = self.grid.nodes
        return riesz_moment(nodes[0], nodes[1], nodes[1:], self.alpha)

    def g_diagonal(self, g_fields: dict) -> dict:
        """Endpoint values g(t_k, t_k) by Nystrom interpolation, per index."""
        moments = self._first_cell_moments()
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
        moments = self._first_cell_moments()
        rows = np.array([np.asarray(increments, dtype=float)[:size], np.ones(size)])
        phi, m_values, diagonal = (np.empty(len(indices)) for _ in range(3))
        for pos, (k, (z, y)) in enumerate(_prefix_solutions(self._system, rows, indices)):
            phi[pos] = v[k - 1::-1] @ z
            m_values[pos] = z.sum()
            diagonal[pos] = 1.0 - self.alpha.coeff * float(moments[k - 1::-1] @ y)
        return phi, m_values, diagonal


def check_L_from_g(sweep: SweepSolver, s_index: int, dt: float) -> float:
    """Max relative mismatch between the drift kernel and its defining identity.

    The drift kernel equals the upper-limit derivative of the martingale
    kernel scaled by its diagonal value; this compares the drift-kernel
    field at s against the central finite difference
    (g(r, s+dt) - g(r, s-dt)) / (2 dt g(s, s)) on interior midpoints
    r <= 0.9 s, all from one pass of `sweep`.
    """
    grid, k = sweep.grid, int(s_index)
    step = int(round(dt / grid.h))
    if step < 1 or abs(step * grid.h - dt) > 1e-9 * grid.h:
        raise ValueError(f"dt={dt} is not a positive multiple of the grid spacing")
    if k - step < 1 or k + step > grid.cells:
        raise ValueError("dt pushes the shifted upper limits off the grid")
    l_fields, g_fields = sweep.L_g_sweep([k - step, k, k + step])
    g_plus, g_minus, g_mid = g_fields[k + step], g_fields[k - step], g_fields[k]
    l_ref = l_fields[k]
    s = float(grid.nodes[k])
    g_ss = sweep.g_diagonal({k: g_mid})[k]
    if g_ss <= 0.0:
        raise NumericalError(f"g(s, s) = {g_ss} is not positive")
    n_keep = np.searchsorted(grid.midpoints[: k - step], 0.9 * s, side="right")
    fd = (g_plus.values[:n_keep] - g_minus.values[:n_keep]) / (2.0 * step * grid.h * g_ss)
    ref = l_ref.values[:n_keep]
    return float(np.max(np.abs(fd - ref) / np.abs(ref)))
