"""Single-station response model.

A station receives a polarization angle phi, maps it against its
analyzer setting a, and emits a binary channel outcome x together with
a negative voltage v.  The voltage starts at -v_max_mag when the
incoming polarization is aligned with either analyzer axis and rises
toward -v_min_mag with the 2(a - phi) misalignment, sharpened by the
exponent d.  Photon identification keeps an outcome only when its
voltage is strictly below the threshold.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import ModelParams


class RandomPair(NamedTuple):
    """The two local uniform draws consumed per station per trial."""

    r: float
    r_hat: float


class StationOutcome(NamedTuple):
    x: int
    v: float


def station_respond(setting: float, phi: float, pair: RandomPair,
                    params: ModelParams) -> StationOutcome:
    """The station law with libm's cos, sin and pow, one evaluation at a
    time: the tests' scalar reference, as law.station_response is
    their array one.  The package evaluates law.station_law.

    x follows the cos^2 channel rule with the tie 1 + c - 2r = 0 broken
    toward -1; v = r_hat * |sin 2(a-phi)|^d * (v_max_mag - v_min_mag)
    - v_max_mag.
    """
    arg = 2.0 * (setting - phi)
    c = math.cos(arg)
    s = math.sin(arg)
    x = 1 if 1.0 + c - 2.0 * pair.r > 0.0 else -1
    v = pair.r_hat * abs(s) ** params.d * (params.v_max_mag - params.v_min_mag) \
        - params.v_max_mag
    return StationOutcome(x, v)


def identify_photon(v, threshold):
    """1 when the voltage is strictly below the threshold, else 0.

    v == threshold does not identify a photon.  Accepts scalars or
    arrays; arrays come back as uint8.
    """
    out = np.less(v, threshold)
    if np.isscalar(v):
        return int(out)
    return out.astype(np.uint8)
