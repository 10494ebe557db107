"""Event-by-event simulation of two-wing polarization correlation
experiments with local photon-identification thresholds."""

from .experiment import CfdRun, NonCfdRun, run_cfd, run_noncfd
from .kernels import BACKEND
from .oracle import pass_probability, run_all_enumerations
from .params import ModelParams, SettingsQuad
from .selection import select_by_window, to_time, window_size
from .station import (RandomPair, StationOutcome, identify_photon,
                      malus_frequency, station_respond)
from .stats import chsh, quantum_reference
from .sweep import RunConfig, sweep_theta, sweep_threshold

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CfdRun",
    "ModelParams",
    "NonCfdRun",
    "RandomPair",
    "RunConfig",
    "SettingsQuad",
    "StationOutcome",
    "chsh",
    "identify_photon",
    "malus_frequency",
    "pass_probability",
    "quantum_reference",
    "run_all_enumerations",
    "run_cfd",
    "run_noncfd",
    "select_by_window",
    "station_respond",
    "sweep_theta",
    "sweep_threshold",
    "to_time",
    "window_size",
]
