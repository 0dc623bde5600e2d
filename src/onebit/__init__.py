"""One-bit compressed sensing by linear programming.

Recover the direction of a sparse signal from the signs of Gaussian
measurements, with a self-contained LP solver and geometric verification
subroutines (hyperplane tessellation, concentration of the first absolute
moment, sparse-cap sampling).
"""

__version__ = "0.1.0"

from .measurement import (
    MeasurementEnsemble,
    derive_seed,
    effective_sparsity,
    gen_bernoulli_ensemble,
    gen_gaussian_ensemble,
    gen_sparse_signal,
    mix64,
    sign_quantize,
)
from .lp_core import (
    LinearProgram,
    LpSolution,
    solve_lp,
)
from .recovery import (
    RecoveryError,
    RecoveryResult,
    VertexCertificate,
    build_recovery_lp,
    extract_certificate,
    recover,
    recovery_error,
)
from .geometry import (
    SignalSetSpec,
    TessellationReport,
    sample_sphere_cap,
    separation_count,
    sign_pattern_cells,
    single_hyperplane_separation_prob,
    tessellate_and_report,
    tessellation_points,
    tessellation_rows,
)
from .harness import (
    SweepRow,
    run_sweep,
    verify_bernoulli_counterexample,
    verify_concentration,
    verify_uniform_concentration,
)

__all__ = [
    "LinearProgram",
    "LpSolution",
    "MeasurementEnsemble",
    "RecoveryError",
    "RecoveryResult",
    "SignalSetSpec",
    "SweepRow",
    "TessellationReport",
    "VertexCertificate",
    "__version__",
    "build_recovery_lp",
    "derive_seed",
    "effective_sparsity",
    "extract_certificate",
    "gen_bernoulli_ensemble",
    "gen_gaussian_ensemble",
    "gen_sparse_signal",
    "mix64",
    "recover",
    "recovery_error",
    "run_sweep",
    "sample_sphere_cap",
    "separation_count",
    "sign_pattern_cells",
    "sign_quantize",
    "single_hyperplane_separation_prob",
    "solve_lp",
    "tessellate_and_report",
    "tessellation_points",
    "tessellation_rows",
    "verify_bernoulli_counterexample",
    "verify_concentration",
    "verify_uniform_concentration",
]
