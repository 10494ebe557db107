"""Model parameters and measurement-setting geometry.

All angles are radians internally.  Voltage magnitudes are stored as
positive numbers; the signals themselves and the identification
threshold are negative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Default operating point used by the CLI and the acceptance suite.
DEFAULT_D = 4.0
DEFAULT_V_MIN_MAG = 0.5
DEFAULT_V_MAX_MAG = 1.0
DEFAULT_THRESHOLD = -0.995
DEFAULT_N = 100_000
DEFAULT_THETA_STEPS = 40
DEFAULT_SEED = 18


def normalize_angle(angle: float) -> float:
    """Map an angle in radians onto [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    # fmod of tiny negatives can round back up to 2*pi exactly
    if a >= TWO_PI:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class ModelParams:
    """Station model parameters.

    d             slope exponent of the voltage response, >= 0
    v_min_mag     magnitude of the shallowest voltage, 0 <= v_min_mag <= v_max_mag
    v_max_mag     magnitude of the deepest voltage, finite and > 0
    threshold     photon identification threshold, negative,
                  in [-v_max_mag, -v_min_mag]
    """

    d: float = DEFAULT_D
    v_min_mag: float = DEFAULT_V_MIN_MAG
    v_max_mag: float = DEFAULT_V_MAX_MAG
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if not (self.d >= 0.0):
            raise ValueError(f"d must be >= 0, got {self.d}")
        if not (0.0 < self.v_max_mag < math.inf):
            raise ValueError(
                f"v_max_mag must be finite and > 0, got {self.v_max_mag}")
        if not (0.0 <= self.v_min_mag <= self.v_max_mag):
            raise ValueError(
                "v_min_mag must satisfy 0 <= v_min_mag <= v_max_mag, "
                f"got v_min_mag={self.v_min_mag}, v_max_mag={self.v_max_mag}"
            )
        if not (-self.v_max_mag <= self.threshold <= -self.v_min_mag):
            raise ValueError(
                "threshold must lie in [-v_max_mag, -v_min_mag], "
                f"got threshold={self.threshold}"
            )

    @property
    def span(self) -> float:
        return self.v_max_mag - self.v_min_mag

    @property
    def kappa(self) -> float:
        """Threshold depth expressed as a fraction of the voltage span."""
        if self.span == 0.0:
            raise ValueError("kappa is undefined for v_min_mag == v_max_mag")
        return (self.threshold + self.v_max_mag) / self.span


@dataclass(frozen=True)
class SettingsQuad:
    """The four analyzer settings of a run: two per side.

    a1, a1p belong to side 1, a2, a2p to side 2.  Angles are normalized
    to [0, 2*pi) on construction.
    """

    a1: float
    a1p: float
    a2: float
    a2p: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, normalize_angle(getattr(self, f.name)))

    @classmethod
    def for_theta(cls, theta: float) -> "SettingsQuad":
        """Standard geometry: side 1 rotated by theta against fixed side 2."""
        return cls(
            a1=theta + math.pi / 8.0,
            a1p=theta + 3.0 * math.pi / 8.0,
            a2=math.pi / 8.0,
            a2p=3.0 * math.pi / 8.0,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a1p, self.a2, self.a2p)
