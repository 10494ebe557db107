"""Hot numeric kernels with two interchangeable backends.

The compiled (numba @njit) backend is used when available; setting the
environment variable EPRBSIM_NO_NUMBA to a non-empty value other than
"0" selects the pure-numpy fallback instead.  Both backends implement
the same integer hash, so the random streams are bit-identical either
way; trig results may differ in the last ulp between libm and numpy's
vectorized loops.

Random numbers come from a counter-based generator: draw k of a stream
is a pure function of (stream origin, k), so any chunking or parallel
schedule reproduces the same values.  The mixing function is the
standard 64-bit xorshift-multiply finalizer used by splitmix-style
generators.
"""
from __future__ import annotations

import os

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15  # odd increment of the counter sequence
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53

_GOLDEN_U64 = np.uint64(GOLDEN)
_M1_U64 = np.uint64(_M1)
_M2_U64 = np.uint64(_M2)


def _env_disables_numba() -> bool:
    flag = os.environ.get("EPRBSIM_NO_NUMBA", "")
    return flag not in ("", "0")


# ---------------------------------------------------------------- numpy path

def _mix_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1_U64
    z = (z ^ (z >> np.uint64(27))) * _M2_U64
    return z ^ (z >> np.uint64(31))


def _fill_uniforms_numpy(origin, start, n):
    k = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = _mix_np(np.uint64(origin) + _GOLDEN_U64 * k)
    return (z >> np.uint64(11)).astype(np.float64) * _U53


def _gather_uniforms_numpy(origin, indices):
    k = indices.astype(np.uint64) + np.uint64(1)
    z = _mix_np(np.uint64(origin) + _GOLDEN_U64 * k)
    return (z >> np.uint64(11)).astype(np.float64) * _U53


def _station_numpy(a, phi, r, rhat, d, v_min_mag, v_max_mag):
    arg = 2.0 * (a - phi)
    c = np.cos(arg)
    s = np.sin(arg)
    # +1 where the bool is 1, -1 where it is 0, computed in int8 throughout.
    x = (1.0 + c - 2.0 * r > 0.0).view(np.int8) * np.int8(2) - np.int8(1)
    v = rhat * np.abs(s) ** d * (v_max_mag - v_min_mag) - v_max_mag
    return x, v


# ---------------------------------------------------------------- numba path

_HAVE_NUMBA = False
if not _env_disables_numba():
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # numba is an optional extra
        _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _fill_uniforms_numba(origin, start, n):  # pragma: no cover - compiled
        out = np.empty(n, np.float64)
        for i in range(n):
            z = origin + _GOLDEN_U64 * (np.uint64(start + i) + np.uint64(1))
            z = (z ^ (z >> np.uint64(30))) * _M1_U64
            z = (z ^ (z >> np.uint64(27))) * _M2_U64
            z = z ^ (z >> np.uint64(31))
            out[i] = (z >> np.uint64(11)) * _U53
        return out

    @njit(cache=True, nogil=True)
    def _gather_uniforms_numba(origin, indices):  # pragma: no cover - compiled
        n = indices.shape[0]
        out = np.empty(n, np.float64)
        for i in range(n):
            z = origin + _GOLDEN_U64 * (np.uint64(indices[i]) + np.uint64(1))
            z = (z ^ (z >> np.uint64(30))) * _M1_U64
            z = (z ^ (z >> np.uint64(27))) * _M2_U64
            z = z ^ (z >> np.uint64(31))
            out[i] = (z >> np.uint64(11)) * _U53
        return out

    @njit(cache=True, nogil=True)
    def _station_numba(a, phi, r, rhat, d, v_min_mag, v_max_mag):  # pragma: no cover
        n = phi.shape[0]
        x = np.empty(n, np.int8)
        v = np.empty(n, np.float64)
        span = v_max_mag - v_min_mag
        for i in range(n):
            arg = 2.0 * (a - phi[i])
            c = np.cos(arg)
            s = np.sin(arg)
            if 1.0 + c - 2.0 * r[i] > 0.0:
                x[i] = 1
            else:
                x[i] = -1
            v[i] = rhat[i] * np.abs(s) ** d * span - v_max_mag
        return x, v


# ------------------------------------------------------------------ dispatch

if _HAVE_NUMBA:
    BACKEND = "numba"
    _fill_impl = _fill_uniforms_numba
    _gather_impl = _gather_uniforms_numba
    _station_impl = _station_numba
else:
    BACKEND = "numpy"
    _fill_impl = _fill_uniforms_numpy
    _gather_impl = _gather_uniforms_numpy
    _station_impl = _station_numpy


def fill_uniforms(origin: int, start: int, n: int) -> np.ndarray:
    """Uniforms in [0, 1) for counters start..start+n-1 of one stream."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty(0, np.float64)
    return _fill_impl(np.uint64(origin), start, n)


def gather_uniforms(origin: int, indices: np.ndarray) -> np.ndarray:
    """Uniforms for an explicit array of counter values."""
    idx = np.ascontiguousarray(indices, dtype=np.uint64)
    if idx.size == 0:
        return np.empty(0, np.float64)
    return _gather_impl(np.uint64(origin), idx)


def station_response(a, phi, r, rhat, d, v_min_mag, v_max_mag):
    """Vectorized station response; see station.station_respond for the law."""
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    r = np.ascontiguousarray(r, dtype=np.float64)
    rhat = np.ascontiguousarray(rhat, dtype=np.float64)
    return _station_impl(
        float(a), phi, r, rhat, float(d), float(v_min_mag), float(v_max_mag)
    )
