"""Key rates for measurement-device-independent QKD with trusted mixed
qubit signal states.

The pipeline reconstructs the measurement node's Gram matrix from detection
statistics, optimizes the phase error rates over virtual twisting
operations in closed form (a trace norm per error rate, by Uhlmann's
theorem), and evaluates the six-state key rate formula."""

from . import errors
from .channel import (
    ChannelParams,
    DetectionStats,
    GammaMatrix,
    bell_pass_prob,
    build_gamma,
    detection_stats,
    photon_loss,
    stats_index,
)
from .evegram import EveGram, key_basis_stats, solve_eve
from .keyrate import (
    KeyRateResult,
    ScanConfig,
    ScanRow,
    binary_entropy,
    keyrate_point,
    scan,
    scan_to_csv,
    six_state_rate,
)
from .qmath import (
    eig2_hermitian,
    kron,
    psd_project,
    solve_linear,
    unvec_rowmajor,
    vec_rowmajor,
)
from .states import (
    ModelParams,
    QubitState,
    SignalEnsemble,
    ensemble_from_json,
    ensemble_to_json,
    model_states,
    phase_randomized_coherent,
    single_photon_project,
    stokes,
    tetrahedron_check,
)
from .twist import (
    PhaseErrors,
    TwistProblem,
    ancilla_gram_block,
    naive_phase_errors,
    naive_twist_gram,
    optimize_phase_errors,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "DetectionStats",
    "EveGram",
    "GammaMatrix",
    "KeyRateResult",
    "ModelParams",
    "PhaseErrors",
    "QubitState",
    "ScanConfig",
    "ScanRow",
    "SignalEnsemble",
    "TwistProblem",
    "ancilla_gram_block",
    "bell_pass_prob",
    "binary_entropy",
    "build_gamma",
    "detection_stats",
    "eig2_hermitian",
    "ensemble_from_json",
    "ensemble_to_json",
    "errors",
    "key_basis_stats",
    "keyrate_point",
    "kron",
    "model_states",
    "naive_phase_errors",
    "naive_twist_gram",
    "optimize_phase_errors",
    "phase_randomized_coherent",
    "photon_loss",
    "psd_project",
    "scan",
    "scan_to_csv",
    "single_photon_project",
    "six_state_rate",
    "solve_eve",
    "solve_linear",
    "stats_index",
    "stokes",
    "tetrahedron_check",
    "unvec_rowmajor",
    "vec_rowmajor",
]
