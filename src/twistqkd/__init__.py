"""Key rates for measurement-device-independent QKD with trusted mixed
qubit signal states.

The pipeline reconstructs the measurement node's Gram matrix from detection
statistics, optimizes the phase error rates over virtual twisting
operations in closed form (a trace norm per error rate, by Uhlmann's
theorem), and evaluates the six-state key rate formula.

The package namespace holds the user surface: ensembles and the source
model, the channel and detection statistics, the point and scan entry
points, the tetrahedron check, the single-photon projection and the JSON
round trip.  The stages of the pipeline stay importable from their modules
(``twistqkd.channel``, ``twistqkd.evegram``, ``twistqkd.twist``, ...)."""

from . import errors
from .channel import ChannelParams, DetectionStats, detection_stats
from .keyrate import KeyRateResult, ScanConfig, keyrate_point, scan, scan_to_csv
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

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "DetectionStats",
    "KeyRateResult",
    "ModelParams",
    "QubitState",
    "ScanConfig",
    "SignalEnsemble",
    "detection_stats",
    "ensemble_from_json",
    "ensemble_to_json",
    "errors",
    "keyrate_point",
    "model_states",
    "phase_randomized_coherent",
    "scan",
    "scan_to_csv",
    "single_photon_project",
    "stokes",
    "tetrahedron_check",
]
