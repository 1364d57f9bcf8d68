"""Test-only oracles: closed forms and identity checks the library does not
need, and the BLAS thread probe.

Imported by the tests that use them (pytest puts this directory on
sys.path); pytest collects no tests from this module.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mfbm
from mfbm.exceptions import NumericalError
from mfbm.kernel_solve import SweepSolver


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


def check_L_from_g(sweep: SweepSolver, s_index: int, dt: float) -> float:
    """Max relative mismatch between the drift kernel and its defining identity.

    The drift kernel equals the upper-limit derivative of the martingale
    kernel scaled by its diagonal value; this compares the drift-kernel
    field at s against the central finite difference
    (g(r, s+dt) - g(r, s-dt)) / (2 dt g(s, s)) on interior midpoints
    r <= 0.9 s, all from sweeps of `sweep`.
    """
    grid, k = sweep.grid, int(s_index)
    step = int(round(dt / grid.h))
    if step < 1 or abs(step * grid.h - dt) > 1e-9 * grid.h:
        raise ValueError(f"dt={dt} is not a positive multiple of the grid spacing")
    if k - step < 1 or k + step > grid.cells:
        raise ValueError("dt pushes the shifted upper limits off the grid")
    g_fields = sweep.g_sweep([k - step, k, k + step])
    g_plus, g_minus, g_mid = g_fields[k + step], g_fields[k - step], g_fields[k]
    l_ref = sweep.L_sweep([k])[k]
    s = float(grid.nodes[k])
    g_ss = sweep.g_diagonal({k: g_mid})[k]
    if g_ss <= 0.0:
        raise NumericalError(f"g(s, s) = {g_ss} is not positive")
    n_keep = np.searchsorted(grid.midpoints[: k - step], 0.9 * s, side="right")
    fd = (g_plus.values[:n_keep] - g_minus.values[:n_keep]) / (2.0 * step * grid.h * g_ss)
    ref = l_ref.values[:n_keep]
    return float(np.max(np.abs(fd - ref) / np.abs(ref)))


def blas_thread_digests(probe: str) -> set:
    """The lines that `probe`, Python source run in a fresh interpreter,
    prints at 1 and at 2 BLAS threads (OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS), as a set: one line when the bits it digests do not
    depend on the thread count."""
    src = str(Path(mfbm.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, check=True, timeout=120)
        digests.add(result.stdout.strip())
    return digests
