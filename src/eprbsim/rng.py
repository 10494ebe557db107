"""Counter-based random streams.

Every uniform draw is a pure function of (global seed, stream id,
counter), so results do not depend on generation order, chunk sizes or
thread scheduling.  Stream ids separate the independent noise sources
of a run; per-point sub-seeds keep sweep grid points independent.
"""
from __future__ import annotations

from . import kernels

_MASK64 = (1 << 64) - 1
_LEAP = 0xD1B54A32D192ED03  # odd constant for sub-seed derivation

# Stream ids.  CFD runs drive four stations; the non-CFD mode reuses the
# first slot of each side as that side's station stream.
SOURCE = 0
R_1 = 1
RHAT_1 = 2
R_1P = 3
RHAT_1P = 4
R_2 = 5
RHAT_2 = 6
R_2P = 7
RHAT_2P = 8
CHOICE_1 = 9
CHOICE_2 = 10

R_STREAMS = (R_1, R_1P, R_2, R_2P)
RHAT_STREAMS = (RHAT_1, RHAT_1P, RHAT_2, RHAT_2P)


def _mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def validate_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed < 1 << 64):
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return seed


def stream_origin(seed: int, stream: int) -> int:
    """Starting state of one stream's counter sequence."""
    return _mix64(_mix64(seed) + kernels.GOLDEN * (stream + 1))


def derive_seed(seed: int, index: int) -> int:
    """Independent sub-seed for grid point `index` of a sweep."""
    return _mix64(_mix64(seed) + _LEAP * (index + 1))


def uniforms(seed: int, stream: int, n: int, start: int = 0):
    """n uniforms in [0, 1) at counters start..start+n-1, a numpy array."""
    return kernels.fill_uniforms(stream_origin(seed, stream), start, n)
