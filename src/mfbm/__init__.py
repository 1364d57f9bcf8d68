"""Doob-Meyer decomposition of the mixed fractional Brownian motion.

Numerical core for the semimartingale structure of X = B^H + B with
H > 3/4: Nystrom solution of the weakly singular kernel equations,
exact path simulation, pathwise drift / innovation reconstruction, and
the second-moment scaling analysis that exhibits the 4H - 3 exponent of
the drift derivative.
"""

__version__ = "0.1.0"

from .exceptions import NumericalError
from .quadrature import (
    Alpha,
    Grid,
    WeightMatrix,
    build_weight_matrix,
    riesz_moment,
)
from .kernel_solve import (
    KernelField,
    SweepSolver,
    solve_D,
    solve_q,
)
from .gaussian_paths import (
    SamplePath,
    fgn_autocov,
    restrict,
    simulate,
    simulate_ensemble,
)
from .decomposition import (
    DriftPath,
    InnovationPath,
    compute_phi,
    compute_innovation,
    decompose,
)
from .regularity import (
    BoundReport,
    HolderFit,
    Variogram,
    audit_lemma_bounds,
    build_variogram,
    default_fit_window,
    fit_holder,
    mc_increment_variances,
    phi_cross_gram,
    second_moment_gram,
    second_moment_reduced,
)

__all__ = [
    "__version__",
    "NumericalError",
    "Alpha",
    "Grid",
    "WeightMatrix",
    "build_weight_matrix",
    "riesz_moment",
    "KernelField",
    "SweepSolver",
    "solve_D",
    "solve_q",
    "SamplePath",
    "fgn_autocov",
    "restrict",
    "simulate",
    "simulate_ensemble",
    "DriftPath",
    "InnovationPath",
    "compute_phi",
    "compute_innovation",
    "decompose",
    "BoundReport",
    "HolderFit",
    "Variogram",
    "audit_lemma_bounds",
    "build_variogram",
    "default_fit_window",
    "fit_holder",
    "mc_increment_variances",
    "phi_cross_gram",
    "second_moment_gram",
    "second_moment_reduced",
]
