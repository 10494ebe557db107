"""The station law in numpy: the counter hash, the table trig and power,
numpy's pass, and the law as first written.

numpy_chunk runs a chunk of trials through the law with the compiled
pass's float operations in the same order, so that every state and
every voltage is the same, bit for bit.  NumpyPass, kernels.Compiled's
twin, walks a point through it, a chunk per call, with the compiled
pass's quota cut: it is the pass where no library loads, and the tests'
reference.  The tables are those of kernels, as float64 arrays.
station_response is the law with libm's cos, sin and pow; the tests
compare the two.  kernels names the law's functions too (kernels._LAW),
and imports this module, and numpy with it, at the first use of one:
the compiled pass runs without numpy.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import _EXP_BITS, _LOG_BITS, _U53, _horner, multiply_only

_GOLDEN_U64 = np.uint64(kernels.GOLDEN)
_M1_U64 = np.uint64(kernels._M1)
_M2_U64 = np.uint64(kernels._M2)

_COS_TABLE, _SIN_TABLE, _LOG_TABLE, _INV_TABLE, _EXP_TABLE, _LOG_POLY, \
    _EXP_POLY = (np.array(table) for table in (
        kernels._COS_TABLE, kernels._SIN_TABLE, kernels._LOG_TABLE,
        kernels._INV_TABLE, kernels._EXP_TABLE, kernels._LOG_POLY,
        kernels._EXP_POLY))


def _hash_to_uniforms(z, out=None):
    """Uniforms in [0, 1) from the words z = origin + GOLDEN * counter.

    Mixes z (uint64, overwritten) and scales its top 53 bits into out
    (float64 of z's shape, allocated when None).
    """
    if out is None:
        out = np.empty(z.shape)
    t = out.view(np.uint64)  # scratch until the last step writes out
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _M1_U64
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _M2_U64
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    # z < 2**53 now, so its int64 view converts to the same float as the
    # uint64 itself, and faster: x86 before AVX-512 converts only signed
    # integers to float in one instruction.
    return np.multiply(z.view(np.int64), _U53, out=out)


def fill_uniforms(origin, start: int, n: int, out=None,
                  work=None) -> np.ndarray:
    """Uniforms in [0, 1) for counters start..start+n-1 of one stream.

    origin may also be a (k, 1) array of stream origins, for one row of
    n uniforms per stream.  out (float64) and work (uint64 scratch), of
    the result's shape, let a caller reuse memory from call to call.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    k = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    k *= _GOLDEN_U64
    return _hash_to_uniforms(
        np.add(np.asarray(origin, dtype=np.uint64), k, out=work), out)


def gather_uniforms(origin: int, indices: np.ndarray) -> np.ndarray:
    """Uniforms for an explicit array of counter values.

    The package draws in counter order; the tests' whole-point
    references gather their draws at trial indices with this.
    """
    k = np.ascontiguousarray(indices, dtype=np.uint64) + np.uint64(1)
    k *= _GOLDEN_U64
    k += np.uint64(origin)
    return _hash_to_uniforms(k)


def station_response(a, phi, r, rhat, d, v_min_mag, v_max_mag):
    """The station law with libm's cos, sin and pow, as
    station.station_respond writes it; the tests' reference for
    station_law.

    a is one setting, or an array of settings of phi's shape.  Returns x
    as int8 (+1 or -1) and v as float64.
    """
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    r = np.ascontiguousarray(r, dtype=np.float64)
    rhat = np.ascontiguousarray(rhat, dtype=np.float64)
    v_min_mag, v_max_mag = float(v_min_mag), float(v_max_mag)
    arg = 2.0 * (np.asarray(a, dtype=np.float64) - phi)
    c = np.cos(arg)
    s = np.sin(arg)
    # +1 where the bool is 1, -1 where it is 0, computed in int8 throughout.
    x = (1.0 + c - 2.0 * r > 0.0).view(np.int8) * np.int8(2) - np.int8(1)
    v = rhat * np.abs(s) ** float(d) * (v_max_mag - v_min_mag) - v_max_mag
    return x, v


def trig(u: np.ndarray):
    """(cos 2phi1, sin 2phi1) of phi1 = TWO_PI * u for a float64 array of
    u in [0, 1), from a table: kernels.table_trig, where the arithmetic
    lives, on numpy arrays."""
    return kernels.table_trig(u, lambda v: v.astype(np.intp), _COS_TABLE,
                              _SIN_TABLE)


def abs_power(s: np.ndarray, d: float) -> np.ndarray:
    """|s|**d, d >= 0, by the station law's recipe.

    d = 0 gives exactly 1.  An integer d in [1, 32] takes left-to-right
    binary powering, which multiplies only: s * s first, so that only an
    odd d needs |s|.  Any other d takes 2**y, y = d log2|s|, in two table
    steps, each difference in them exact:
    - log2: frexp gives |s| = m 2**e, m in [1/2, 1).  With the node j =
      rint(m 2**_LOG_BITS) and r = (m 2**_LOG_BITS - j) / j, log2|s| =
      (e + log2(j / 2**_LOG_BITS)) + log2(1 + r), the last a polynomial;
    - exp2: y is held to [-1100, 1100], where 2**y is 0 or infinite
      anyway.  With k = rint(y 2**_EXP_BITS) and g = y 2**_EXP_BITS - k,
      2**y = ldexp(T + T (2**(g / 2**_EXP_BITS) - 1), k >> _EXP_BITS),
      where T = 2**((k & (2**_EXP_BITS - 1)) / 2**_EXP_BITS) and the
      bracket is a polynomial.
    The result is within (8 + 3|y|) 2**-53 of |s|**d, relative
    (CHANGES.md), and _cpass.c's table_power computes the same bits.  The
    arrays are updated in place, so that a chunk's arrays stay few.
    """
    k = multiply_only(d)
    if k:
        if k % 2:  # the last step multiplies by s, so s must be |s|
            s = np.abs(s)
        power = s
        for digit in bin(k)[3:]:  # the binary digits after the leading one
            power = power * power
            if digit == "1":
                power = power * s
        return power
    if d == 0.0:
        return np.ones(np.shape(s))
    m, e = np.frexp(np.abs(s))
    m *= float(1 << _LOG_BITS)
    node = np.rint(m)
    j = node.astype(np.intp)
    m -= node
    m *= _INV_TABLE.take(j)  # r
    y = _LOG_TABLE.take(j)  # then y = d log2|s|
    y += e
    y += _horner(m, _LOG_POLY)
    y *= d
    np.clip(y, -1100.0, 1100.0, out=y)
    y *= float(1 << _EXP_BITS)
    k = np.rint(y)
    i = k.astype(np.int32)
    y -= k  # g
    power = _horner(y, _EXP_POLY)  # then T + T power
    tab = _EXP_TABLE.take(i & ((1 << _EXP_BITS) - 1))
    power *= tab
    power += tab
    return np.ldexp(power, i >> _EXP_BITS)


def station_law(params, trig2, turn, r, rhat):
    """(x == +1, w, v) of stations over a chunk: the station law.

    trig2 = (cos 2phi1, sin 2phi1) of the trials (see trig); turn = (ca,
    sa), such that cos 2(a - phi) = ca cos 2phi1 + sa sin 2phi1 and
    sin 2(a - phi) = sa cos 2phi1 - ca sin 2phi1, per station or per
    trial; r and rhat are the stations' uniforms and params a
    ModelParams.  x = +1 where (1 + c)/2 - r > 0, taken as
    dx = (c ca/2 + s sa/2) - r > -1/2.
    """
    cos2, sin2 = trig2
    ca, sa = turn
    x = (cos2 * (0.5 * ca) + sin2 * (0.5 * sa)) - r > -0.5
    v = (abs_power(cos2 * sa - sin2 * ca, params.d) * rhat) * params.span \
        - params.v_max_mag
    return x, v < params.threshold, v


# Weight of each state bit of a CFD trial: x of the stations in
# experiment.STATION_NAMES order, then their w.
_CFD_WEIGHTS = (1 << np.arange(8, dtype=np.uint8))[:, None]
# Weight of each state bit of a non-CFD trial: x of side 1 and 2, their
# w, then the coins primed1 and primed2, so that a trial's state is
# 16 * pair + its 16-state of pair_statistics, pair = 2 primed1 + primed2.
_NONCFD_WEIGHTS = np.array([1, 2, 4, 8, 32, 16], np.uint8)[:, None]


def numpy_chunk(cfd: bool, params, turns: np.ndarray, u: np.ndarray,
                states=None, volts=None):
    """(each trial's state, the (k, n) voltages of its k stations) of the
    chunk of trials whose uniforms u holds, in numpy: into the arrays
    states (uint8) and volts where given.

    turns holds (ca, sa) of the stations a1, a1p, a2, a2p, a (4, 2)
    array.  A CFD chunk's uniforms are the source, then r of each
    station, then rhat of each; its trials run through all four stations
    and their states are as _CFD_WEIGHTS says.  A non-CFD chunk's are the
    source, each side's coin, r of each side and rhat of each; a trial's
    side runs through the station of its setting, primed where its coin
    is below 1/2, and its state is as _NONCFD_WEIGHTS says.  Stations run
    one at a time: their arrays then stay small enough for the memory
    allocator to hand the same pages back in every chunk.
    """
    trig2 = trig(u[0])
    if cfd:
        stations = [(turns[c], u[1 + c], u[5 + c]) for c in range(4)]
        extra, weights = [], _CFD_WEIGHTS
    else:
        primed = u[1:3] < 0.5
        # ca, sa of each side's station, 2 * side + primed, per trial
        stations = [(turns.T.take(primed[side] + 2 * side, axis=1),
                     u[3 + side], u[5 + side]) for side in (0, 1)]
        extra, weights = [primed], _NONCFD_WEIGHTS
    x, w, v = zip(*[station_law(params, trig2, *station)
                    for station in stations])
    # the sum of the weights of each trial's bits that are set
    bits = np.vstack((x, w, *extra)).view(np.uint8)
    return (np.bitwise_or.reduce(bits * weights, axis=0, out=states),
            np.stack(v, out=volts))


class NumpyPass:
    """One point of numpy's pass, kernels.Compiled's twin: its inputs but
    lib, and its add, hist and held.  Each call of add is one chunk of
    numpy_chunk, which writes codes and volts, where given, through numpy
    views of them, and a quota cuts only a chunk in which some pair drew
    more trials than its room.  Both passes cut only where a pair can
    overflow: the compiled one counts whole each block of its chunk in
    which every pair has room for all the block's trials."""

    def __init__(self, cfd: bool, params, turns, origins, quota: int = 0,
                 capacity: int = 0, codes=None, volts=None):
        self.capacity, self.codes, self.volts = capacity, codes, volts
        if codes is not None:  # their numpy views
            self._codes = np.frombuffer(codes, np.uint8)
            self._volts = np.frombuffer(volts).reshape(-1, capacity)
        self._cfd, self._params, self._quota = cfd, params, quota
        self._turns = np.array(turns)
        self._origins = np.array(origins, np.uint64)[:, None]
        # The uniforms and their hash words are allocated once per point,
        # the other arrays per chunk.  Those must peak below twice the
        # uniforms' size, glibc's trim threshold, or every chunk faults
        # its pages back in: like per-chunk uniforms, that is 2x slower.
        self._u = np.empty((len(origins), capacity))
        self._words = np.empty(self._u.shape, np.uint64)
        self._hist = np.zeros(256 if cfd else 64, np.int64)
        self.held = [0] * 4

    @property
    def hist(self) -> list:
        return self._hist.tolist()

    def add(self, start: int, n: int) -> int:
        """Compiled.add, in numpy."""
        if not 0 < n <= self.capacity:
            raise ValueError(f"chunk of {n} trials, capacity {self.capacity}")
        quota = self._quota
        if quota and min(self.held) == quota:
            return 0
        # kernels' name, which a tracer of the layers may wrap
        u = kernels.fill_uniforms(self._origins, start, n,
                                  out=self._u[:, :n], work=self._words[:, :n])
        states, _ = numpy_chunk(
            self._cfd, self._params, self._turns, u,
            None if self.codes is None else self._codes[:n],
            None if self.codes is None else self._volts[:, :n])
        counts = np.bincount(states, minlength=self._hist.size)
        if quota:
            room = [quota - held for held in self.held]
            drawn = counts.reshape(4, 16).sum(axis=1).tolist()
            if any(d > r for d, r in zip(drawn, room)):
                counts = self._quota_cut(states, room)
            self.held = [min(h + d, quota) for h, d in zip(self.held, drawn)]
            if min(self.held) == quota:  # the last trial kept filled it
                n = int(np.flatnonzero(states < 64)[-1]) + 1
        self._hist += counts
        return n

    def _quota_cut(self, states: np.ndarray, room: list) -> np.ndarray:
        """Cut a non-CFD chunk at its pairs' quotas: pair p keeps its
        first room[p] trials, and each trial past them gets state 64, in
        place.  Returns the 64 state counts of the trials kept."""
        pair = states >> 4
        for p in range(4):
            states[np.flatnonzero(pair == p)[room[p]:]] = 64
        return np.bincount(states, minlength=65)[:64]
