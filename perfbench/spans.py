"""Span tracing for the per-layer run.

The traced run calls the CLI exactly as the timed run does, with the public
names it reaches (and the names those functions reach in other layers)
wrapped from here for the duration of one task.  Each wrapped call records
one span; nothing under src/ is edited.

Self time partitions the task's wall time: every instant goes to the
innermost span(s) active at that instant, shared equally when parallel
workers run several at once.  The root span is the CLI call itself, so its
share is the time no layer span covers (`cli.unattributed_s`), and the
per-kind self times add up to the traced task time.
"""
from __future__ import annotations

import functools
import inspect
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT_KIND = "cli.unattributed"

#: Span kinds in report order; each becomes the per-layer metric `<kind>_s`.
KINDS = (
    "quadrature.weight_matrix",
    "kernel_solve.factor",
    "kernel_solve.sweep",
    "kernel_solve.g_diagonal",
    "kernel_solve.dense_solve",
    "gaussian_paths.simulate",
    "gaussian_paths.ensemble",
    "decomposition.decompose",
    "decomposition.assemble",
    "regularity.variogram",
    "regularity.moment",
    "regularity.fit",
    "regularity.mc_moments",
    "regularity.audit_self",
    "parallelism.map",
    "outputs.write",
    ROOT_KIND,
)


class Span:
    __slots__ = ("kind", "parent", "start", "end")

    def __init__(self, kind, parent):
        self.kind = kind
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Spans and computed counts of one traced task."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._count_lock = threading.Lock()
        self.workers = 1
        self.residual_samples = []   # (weight entries, coeff, KernelField)
        self.written = set()         # paths returned by the output writers
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, key, amount):
        with self._count_lock:  # pool threads update counts too
            self.counts[key] += amount

    def current_kind(self):
        stack = self._stack()
        return stack[-1].kind if stack else ROOT_KIND

    @contextmanager
    def span(self, kind, parent=None):
        stack = self._stack()
        span = Span(kind, parent if parent is not None else (stack[-1] if stack else None))
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def self_times(self) -> dict:
        """Wall time of the task split over span kinds (see module docstring)."""
        spans = self.spans
        bounds = sorted({t for s in spans for t in (s.start, s.end)})
        out = defaultdict(float)
        for lo, hi in zip(bounds, bounds[1:]):
            active = [s for s in spans if s.start <= lo and s.end >= hi]
            parents = {id(s.parent) for s in active if s.parent is not None}
            leaves = [s for s in active if id(s) not in parents]
            for s in leaves:
                out[s.kind] += (hi - lo) / len(leaves)
        return out

    def max_rel_residual(self) -> float:
        """Max of |f - (I + coeff W) x| / max(1, |f|) over the sampled fields."""
        worst = 0.0
        for entries, coeff, field in self.residual_samples:
            k = field.s_index
            x = field.values
            f = np.broadcast_to(np.asarray(field.rhs(field.grid.midpoints[:k]), dtype=float), (k,))
            residual = f - x - coeff * (entries[:k, :k] @ x)
            scale = max(1.0, float(np.max(np.abs(f))))
            worst = max(worst, float(np.max(np.abs(residual))) / scale)
        return worst


def _wrap(tracer, kind, fn, after=None):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(kind):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return call


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points the CLI reaches; restore them on exit."""
    from mfbm import cli, decomposition, gaussian_paths, kernel_solve, outputs, regularity
    from mfbm.kernel_solve import SweepSolver
    from mfbm.parallelism import resolve_threads

    def weight_matrix_done(result, *args, **kwargs):
        tracer.count("quadrature.weight_matrix_bytes", result.entries.nbytes)

    def sweep_done(result, solver, *args, **kwargs):
        n = solver.grid.cells
        ks = sorted(result)
        tracer.count("kernel_solve.sweep_columns", len(ks))
        tracer.count("useful_flops", sum(k * k for k in ks))
        tracer.count("padded_flops", len(ks) * n * n)
        for k in {ks[0], ks[len(ks) // 2], ks[-1]}:  # residual sample: first, middle, last
            tracer.residual_samples.append((solver.weights.entries, solver.alpha.coeff, result[k]))

    solve_q_signature = inspect.signature(kernel_solve.solve_q)

    def solve_q_done(result, *args, **kwargs):
        tracer.count("kernel_solve.dense_solves", 1)
        weights = solve_q_signature.bind(*args, **kwargs).arguments.get("weights")
        if weights is not None:
            tracer.residual_samples.append((weights.entries, result.alpha.coeff, result))

    def simulate_done(result, *args, **kwargs):
        tracer.count("gaussian_paths.rng_streams", 2)

    def ensemble_done(result, grid, h, seed, n_paths, *args, **kwargs):
        tracer.count("gaussian_paths.rng_streams", 2 * n_paths)
        tracer.count("ensemble_paths", n_paths)
        tracer.count("gaussian_paths.ensemble_bytes", sum(a.nbytes for a in result))

    def written(result, *args, **kwargs):
        tracer.written.add(str(result))

    def traced_map(original):
        # Items run with the caller's kind, as children of the map span, so
        # work done on pool threads stays with the layer that asked for it.
        @functools.wraps(original)
        def call(fn, items, threads=None):
            items = list(items)
            tracer.workers = max(tracer.workers, min(resolve_threads(threads), max(1, len(items))))
            kind = tracer.current_kind()
            with tracer.span("parallelism.map") as map_span:
                def item(x):
                    with tracer.span(kind, parent=map_span):
                        return fn(x)

                return original(item, items, threads=threads)

        return call

    patches = [
        (kernel_solve, "build_weight_matrix", "quadrature.weight_matrix", weight_matrix_done),
        (SweepSolver, "__init__", "kernel_solve.factor", None),
        (SweepSolver, "L_sweep", "kernel_solve.sweep", sweep_done),
        (SweepSolver, "g_sweep", "kernel_solve.sweep", sweep_done),
        (SweepSolver, "g_diagonal", "kernel_solve.g_diagonal", None),
        (kernel_solve, "solve_q", "kernel_solve.dense_solve", solve_q_done),
        (kernel_solve, "solve_D", "kernel_solve.dense_solve", None),
        (cli, "simulate", "gaussian_paths.simulate", simulate_done),
        (cli, "simulate_ensemble", "gaussian_paths.ensemble", ensemble_done),
        (regularity, "simulate_ensemble", "gaussian_paths.ensemble", ensemble_done),
        (cli, "decompose", "decomposition.decompose", None),
        (decomposition, "compute_phi", "decomposition.assemble", None),
        (decomposition, "compute_innovation", "decomposition.assemble", None),
        (cli, "build_variogram", "regularity.variogram", None),
        (regularity, "second_moment_reduced", "regularity.moment", None),
        (regularity, "second_moment_gram", "regularity.moment", None),
        (cli, "default_fit_window", "regularity.fit", None),
        (cli, "fit_holder", "regularity.fit", None),
        (regularity, "mc_increment_variances", "regularity.mc_moments", None),
        (cli, "audit_lemma_bounds", "regularity.audit_self", None),
        (outputs, "write_csv", "outputs.write", written),
        (outputs, "write_json", "outputs.write", written),
        (outputs, "write_manifest", "outputs.write", written),
        (outputs, "loglog_svg", "outputs.write", written),
    ]
    saved = []
    try:
        for owner, name, kind, after in patches:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, _wrap(tracer, kind, original, after))
        for owner in (regularity, gaussian_paths):
            saved.append((owner, "parallel_map", owner.parallel_map))
            owner.parallel_map = traced_map(owner.parallel_map)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
