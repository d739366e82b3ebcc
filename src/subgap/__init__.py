"""Recovery of bandlimited signals and momentum-limited quantum states
from data with a gap below the time-frequency uncertainty limit.

A signal bandlimited to a band of width W that loses an interval of width
T < 1/W is not lost: the erasure operator (1 - P_T P_W) is invertible and
the gap is filled by a geometric series, a direct solve, or summed
spectral copies of comb samples.  The same algebra recovers a
momentum-limited quantum state whose coordinate dependence was erased by
a projective measurement, with free-evolution tomography supplying the
density matrix in between.

The library works on finite uniform grids with exact FFT-based
projections; every continuum inequality is enforced with a documented
discretization slack.
"""

from .core import (
    FrequencyGrid,
    Interval,
    SampledSignal,
    Spectrum,
    TimeGrid,
    default_grid,
    forward_spectrum,
    inner_product,
    inverse_signal,
    l2_norm,
    make_demo_signal,
)
from .errors import (
    BoundViolationError,
    ConfigError,
    DegenerateDesignError,
    GridMismatchError,
    NonConvergenceError,
    NotBandlimitedError,
    RefusalError,
    SubgapError,
)
from .projections import (
    band_project,
    band_spill_ratio,
    complement_gate,
    concentration_ratio,
    eps_grid,
    operator_norm_sq,
    out_of_band_fraction,
    prolate_eigenvalues,
    prolate_matrix,
    segment_compatibility,
    smear_response,
    time_gate,
)
from .recovery import (
    ErasureModel,
    InvertibilityReport,
    RecoveryReport,
    StabilityRow,
    erase,
    invertibility_report,
    noise_stability_sweep,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
)
from .sampling import (
    BandApproxResult,
    CombSamples,
    SpectralCopyConfig,
    SpectralCopyResult,
    band_approx_first_term,
    band_interpolate,
    comb_sample,
    integral_equation_residual,
    periodized_spectrum,
    sinc_reconstruct,
    spectral_copy_recover,
)
from .quantum import (
    DensityMatrix,
    EvolutionSamples,
    PhaseSpaceWindows,
    TomographyResult,
    WaveFunction,
    build_density,
    evolve_diagonal_series,
    fidelity,
    gate_state,
    landau_pollak_ratio,
    momentum_limit,
    momentum_smooth,
    momentum_spectrum,
    position_gate,
    position_wave,
    rank1_extract,
    recover_state,
    tomography_solve,
    wf_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "TimeGrid",
    "FrequencyGrid",
    "Interval",
    "SampledSignal",
    "Spectrum",
    "default_grid",
    "forward_spectrum",
    "inverse_signal",
    "l2_norm",
    "inner_product",
    "make_demo_signal",
    # errors
    "SubgapError",
    "GridMismatchError",
    "NotBandlimitedError",
    "RefusalError",
    "NonConvergenceError",
    "DegenerateDesignError",
    "BoundViolationError",
    "ConfigError",
    # projections
    "band_project",
    "time_gate",
    "complement_gate",
    "out_of_band_fraction",
    "smear_response",
    "eps_grid",
    "concentration_ratio",
    "prolate_matrix",
    "prolate_eigenvalues",
    "operator_norm_sq",
    "band_spill_ratio",
    "segment_compatibility",
    # recovery
    "ErasureModel",
    "InvertibilityReport",
    "RecoveryReport",
    "StabilityRow",
    "erase",
    "invertibility_report",
    "recover_neumann",
    "recover_band_neumann",
    "recover_direct",
    "noise_stability_sweep",
    # sampling
    "CombSamples",
    "SpectralCopyConfig",
    "SpectralCopyResult",
    "BandApproxResult",
    "comb_sample",
    "sinc_reconstruct",
    "band_interpolate",
    "periodized_spectrum",
    "spectral_copy_recover",
    "band_approx_first_term",
    "integral_equation_residual",
    # quantum
    "WaveFunction",
    "PhaseSpaceWindows",
    "DensityMatrix",
    "EvolutionSamples",
    "TomographyResult",
    "momentum_spectrum",
    "position_wave",
    "wf_norm",
    "fidelity",
    "momentum_limit",
    "position_gate",
    "landau_pollak_ratio",
    "gate_state",
    "momentum_smooth",
    "recover_state",
    "build_density",
    "evolve_diagonal_series",
    "tomography_solve",
    "rank1_extract",
]
