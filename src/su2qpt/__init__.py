"""Thermodynamics and quantum phase transitions of an N-body two-level
model with an SU(2) pairing interaction.

The Hamiltonian is diagonal in the collective-spin basis, so every level
is affine in the coupling; the package exploits that to give exact
spectra, a stable canonical-ensemble engine, and three independent ways
of locating the ground-state level crossings.
"""

from .eigensolver import EigenResult, NonConvergenceError, jacobi_eigenvalues
from .model import (
    CriticalPoint,
    ModelParams,
    Spectrum,
    analytic_spectrum,
    build_hamiltonian,
    critical_couplings,
    ground_level,
    ground_slope,
    ground_state_energy,
)
from .spin_algebra import (
    Multiplet,
    OperatorMatrix,
    build_j2,
    build_jz,
)
from .thermo import (
    N2ClosedForms,
    ThermalObservables,
    ceq_scaled_residual,
    n2_closed_forms,
    observables,
    observables_grid,
    zero_t_c_star_lambda,
)
from .transitions import (
    CSV_HEADER,
    CeqSearchResult,
    JumpPoint,
    PeakEstimate,
    SweepTable,
    TrackedPeak,
    TrackingResult,
    detect_jumps,
    find_peaks,
    phase_diagram,
    qpt_from_ceq,
    track_peaks_to_zero_t,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Multiplet",
    "OperatorMatrix",
    "build_jz",
    "build_j2",
    "ModelParams",
    "Spectrum",
    "CriticalPoint",
    "build_hamiltonian",
    "analytic_spectrum",
    "critical_couplings",
    "ground_state_energy",
    "ground_slope",
    "ground_level",
    "EigenResult",
    "NonConvergenceError",
    "jacobi_eigenvalues",
    "ThermalObservables",
    "N2ClosedForms",
    "observables",
    "observables_grid",
    "zero_t_c_star_lambda",
    "n2_closed_forms",
    "ceq_scaled_residual",
    "PeakEstimate",
    "TrackedPeak",
    "TrackingResult",
    "JumpPoint",
    "CeqSearchResult",
    "SweepTable",
    "CSV_HEADER",
    "find_peaks",
    "track_peaks_to_zero_t",
    "detect_jumps",
    "qpt_from_ceq",
    "phase_diagram",
]
