"""beta-Hermite and fixed-trace beta-Hermite ensembles: sampling, spectral
density estimation, limiting special functions, and exact verification."""

__version__ = "0.1.0"

from .airy import airy_ai, airy_ai_prime, airy_tail, edge_density_closed, has_closed_edge_form
from .density import (
    DensityEstimate,
    Regime,
    bulk_scale,
    bump,
    estimate_density,
    grid_to_lambda,
    sample_density,
    semicircle,
    weak_functional,
)
from .ensemble import (
    EnsembleKind,
    EnsembleParams,
    SampleSeed,
    big_l,
    sample_block,
    trace_sq_rows,
)
from .kontsevich import (
    KontsevichResult,
    edge_prefactor,
    kontsevich_edge_density,
    kontsevich_k,
)
from .moments import (MomentIndex, gaussian_moment_exact, moment_mc, moment_ratio_exact,
                      moment_ratio_sphere, verify_moment_equivalence)
from .tridiag import (
    Spectrum,
    SturmWork,
    eigenvalues_bisect,
    eigenvalues_block,
    sample_spectrum,
    sturm_count,
)

__all__ = [
    "__version__",
    "EnsembleKind", "EnsembleParams", "SampleSeed", "big_l", "sample_block", "trace_sq_rows",
    "Spectrum", "eigenvalues_block", "eigenvalues_bisect", "sturm_count", "SturmWork",
    "sample_spectrum",
    "airy_ai", "airy_ai_prime", "airy_tail", "edge_density_closed", "has_closed_edge_form",
    "KontsevichResult", "kontsevich_k", "edge_prefactor", "kontsevich_edge_density",
    "Regime", "DensityEstimate", "bump", "bulk_scale", "grid_to_lambda",
    "estimate_density", "sample_density", "semicircle", "weak_functional",
    "MomentIndex", "gaussian_moment_exact", "moment_mc", "moment_ratio_exact",
    "moment_ratio_sphere", "verify_moment_equivalence",
]
