"""Event-by-event simulation of two-wing polarization correlation
experiments with local photon-identification thresholds."""

from .experiment import run_cfd
from .oracle import run_all_enumerations
from .params import ModelParams, SettingsQuad
from .sweep import RunConfig, sweep_theta

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "RunConfig",
    "SettingsQuad",
    "run_all_enumerations",
    "run_cfd",
    "sweep_theta",
]
