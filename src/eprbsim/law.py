"""The station law in numpy: the counter hash, the table trig and power,
numpy's pass over a chunk of trials, and the law as first written.

numpy_chunk is the compiled pass's twin (kernels.Compiled), with the
same float operations in the same order, so that every state and every
voltage is the same, bit for bit; it is the pass where no library
loads, and the tests' reference.  Its tables are those of kernels, as
float64 arrays.  station_response is the law with libm's cos, sin and
pow; the tests compare the two.  kernels names each function here too,
and imports this module, and numpy with it, at the first use of one:
the compiled pass runs without numpy.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import (_COS_4, _EXP_BITS, _LOG_BITS, _SIN_3, _SIN_5, _STEP,
                      _TABLE_BITS, _U53, _horner, multiply_only)

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
    """(cos 2phi1, sin 2phi1) of phi1 = TWO_PI * u, u in [0, 1), from a
    table.

    2phi1 is 2 pi (j + f) / 2**_TABLE_BITS up to rounding, with j =
    floor(v), f = v - j and v = u * 2**(_TABLE_BITS + 1), all three
    exact.  With x = f * _STEP and the node values T_c[j], T_s[j],
    cos 2phi1 = T_c + (T_c (cos x - 1) - T_s sin x) and sin 2phi1 =
    T_s + (T_s (cos x - 1) + T_c sin x), where short Horner polynomials
    give cos x - 1 and sin x.  Each value is within 59 * 2**-53 of the
    exact one (CHANGES.md gives the argument).
    """
    v = u * 2.0 ** (_TABLE_BITS + 1)
    index = v.astype(np.intp)  # floor, since v >= 0
    x = (v - index) * _STEP
    z = x * x
    cm1 = (z * _COS_4 - 0.5) * z
    sx = (z * _SIN_5 + _SIN_3) * z * x + x
    tc, ts = _COS_TABLE[index], _SIN_TABLE[index]
    return (tc * cm1 - ts * sx) + tc, (ts * cm1 + tc * sx) + ts


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


def numpy_chunk(cfd: bool, params, turns: np.ndarray, u: np.ndarray):
    """(each trial's state, the (k, n) voltages of its k stations) of the
    chunk of trials whose uniforms u holds, in numpy.

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
    return np.bitwise_or.reduce(bits * weights, axis=0), np.array(v)


def integer_column(col: np.ndarray) -> np.ndarray:
    """An integer column of the trial dump as its writers take it: int8
    and int64 as they are, any other integer dtype as int64.

    Raises ValueError where a value does not fit in int64 (a uint64 of
    2**63 or more), so that neither writer prints a wrapped value.
    """
    if col.dtype == np.int8 or col.dtype == np.int64:
        return col
    if not np.can_cast(col.dtype, np.int64) and col.size \
            and col.max() > np.iinfo(np.int64).max:
        raise ValueError(f"a {col.dtype} column holds {col.max()}, "
                         "which does not fit in int64")
    return col.astype(np.int64)
