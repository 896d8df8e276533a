"""Paired noninterfering Mach-Zehnder interferometers.

Jones-calculus element models, the per-station closed forms, cross-station
correlation functions, a photon-counting Monte Carlo with doubly-bunched-pair
post-selection, and a CSV-emitting command line around them.
"""

from .correlation import (
    CROSS_STATION_PAIRS,
    PRESETS,
    CorrelationRecord,
    JointSettings,
    SweepAxis,
    SweepSpec,
    detector_intensities,
    fringe_factor,
    general_cross_correlation,
    local_basis_sum,
    record_at,
    sweep,
    sweep_settings,
    synchronized_correlation,
    synchronized_settings,
)
from .elements import (
    ALGEBRA_TOL,
    DEFAULT_CONVENTIONS,
    ElementConventions,
    JonesVector,
    TwoModeField,
    beam_splitter_mix,
    half_wave_plate,
    mirror_reflect,
    pbs_split,
    phase_shift,
    polarizer_project,
)
from .montecarlo import (
    CoincidenceCounts,
    EstimatedCorrelation,
    McPointResult,
    SamplingTally,
    SourceParams,
    detection_probabilities,
    estimate_correlation,
    run_experiment,
)
from .station import (
    StationOutputs,
    StationParams,
    closed_form_station,
    composed_station,
    station_outputs_deviation,
    station_outputs_match,
)
from .verify import CheckResult, VerificationReport, run_verification

__all__ = [
    "ALGEBRA_TOL",
    "CROSS_STATION_PAIRS",
    "DEFAULT_CONVENTIONS",
    "PRESETS",
    "CheckResult",
    "CoincidenceCounts",
    "CorrelationRecord",
    "ElementConventions",
    "EstimatedCorrelation",
    "JointSettings",
    "JonesVector",
    "McPointResult",
    "SamplingTally",
    "SourceParams",
    "StationOutputs",
    "StationParams",
    "SweepAxis",
    "SweepSpec",
    "TwoModeField",
    "VerificationReport",
    "beam_splitter_mix",
    "closed_form_station",
    "composed_station",
    "detection_probabilities",
    "detector_intensities",
    "estimate_correlation",
    "fringe_factor",
    "general_cross_correlation",
    "half_wave_plate",
    "local_basis_sum",
    "mirror_reflect",
    "pbs_split",
    "phase_shift",
    "polarizer_project",
    "record_at",
    "run_experiment",
    "run_verification",
    "station_outputs_deviation",
    "station_outputs_match",
    "sweep",
    "sweep_settings",
    "synchronized_correlation",
    "synchronized_settings",
]

__version__ = "0.1.0"
