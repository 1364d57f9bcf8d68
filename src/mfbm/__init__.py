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
    check_L_from_g,
    nystrom_eval,
    solve_D,
    solve_L,
    solve_g,
    solve_q,
)
from .gaussian_paths import (
    SamplePath,
    fbm_cov,
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
    field_matrix,
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
    phi_variance_gram,
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
    "check_L_from_g",
    "nystrom_eval",
    "solve_D",
    "solve_L",
    "solve_g",
    "solve_q",
    "SamplePath",
    "fbm_cov",
    "fgn_autocov",
    "restrict",
    "simulate",
    "simulate_ensemble",
    "DriftPath",
    "InnovationPath",
    "compute_phi",
    "compute_innovation",
    "decompose",
    "field_matrix",
    "BoundReport",
    "HolderFit",
    "Variogram",
    "audit_lemma_bounds",
    "build_variogram",
    "default_fit_window",
    "fit_holder",
    "mc_increment_variances",
    "phi_cross_gram",
    "phi_variance_gram",
    "second_moment_gram",
    "second_moment_reduced",
]
