"""Hot numeric kernels: the counter hash, the station law in numpy and
compiled, and the trial dump's formatter.

Random numbers come from a counter-based generator: draw k of a stream
is a pure function of (stream origin, k), so any chunking or parallel
schedule reproduces the same values.  The mixing function is the
standard 64-bit xorshift-multiply finalizer used by splitmix-style
generators.

The station law is the arithmetic of station_law, with no libm call.
cos 2phi1 and sin 2phi1 come from a table and two short polynomials
(trig), cos 2(a - phi) and sin 2(a - phi) = s from them by angle
addition with each setting's (cos 2a, sin 2a), and |s|**d from binary
powering or a table-driven log2 and exp2 (abs_power).  Then x = +1
where (1 + c)/2 - r > 0, v = (|s|**d * rhat) * span - v_max and w =
[v < threshold].  The tables are computed in decimal arithmetic, and
every other step is one IEEE + - * or an exact operation (frexp, ldexp,
rint, a comparison), so every IEEE host computes the same values.
station_response is the law as first written, with libm's cos, sin and
pow; the tests compare the two.

A chunk of trials runs through the law one of two ways.  numpy_chunk
is plain array expressions; _cpass.c does the same float operations in
the same order (Compiled), a block of trials at a time, in one call per
chunk, so that every state and every voltage is numpy's, bit for bit.
The same library formats the trial dump's records (format_csv), with
the bytes of Python's str and '%.17g'.
load_cpass compiles _cpass.c with the system's cc at first use, for
the host's own CPU (-O3 -march=native), into the package's __pycache__
as _cpass-<interpreter tag>-<cpu>-<key>.so, and later imports load it
from there.  <cpu> is a hash of the CPU features numpy found on the
host, so a checkout shared by two machines keeps a library for each and
neither loads the other's; the key is a hash of the source and the
flags.  Where -march=native does not compile the build takes the
portable flags, under the same name; where the features cannot be read
it takes them under <cpu> "portable".  A build removes the libraries of
the same tag and <cpu> that it replaces, and those named by earlier
builds without a <cpu> or without a tag.
CPASS is the loaded library, or None where there is no compiler, the
build or the load fails, or the library fails its known-answer checks
(a chunk of its pass against numpy_chunk, its formatter against
Python's); BACKEND names the pass in use, "c" or
"numpy", and the passes and the trial dump read it at each call.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import itertools
import math
import operator
import os
from decimal import Decimal, localcontext

import numpy as np

from .params import TWO_PI, ModelParams

try:  # the builtin module: hashlib also loads OpenSSL, about 4 ms
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

GOLDEN = 0x9E3779B97F4A7C15  # odd increment of the counter sequence
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53

_GOLDEN_U64 = np.uint64(GOLDEN)
_M1_U64 = np.uint64(_M1)
_M2_U64 = np.uint64(_M2)


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


# ------------------------------------------------------------ the station law

_PI = Decimal("3.14159265358979323846264338327950288419717")


def _trig_table(bits: int):
    """cos and sin of 2 pi k / 2**bits for k < 2**bits.

    The first quarter turn comes from repeated rotation by 2 pi / 2**bits,
    whose cos and sin are their Taylor series, the other quarters from
    cos(x + pi/2) = -sin x and sin(x + pi/2) = cos x.  Computed to 30
    digits and rounded once, so that every host builds the same table.
    """
    with localcontext() as ctx:
        ctx.prec = 30
        step = 2 * _PI / (1 << bits)
        # step**12 / 12! < 1e-35
        cos_step, sin_step = (sum((-1) ** k * step ** (2 * k + odd)
                                  / math.factorial(2 * k + odd)
                                  for k in range(6)) for odd in (0, 1))
        c, s, quarter = Decimal(1), Decimal(0), []
        for _ in range(1 << (bits - 2)):
            quarter.append((float(c), float(s)))
            c, s = c * cos_step - s * sin_step, s * cos_step + c * sin_step
    c, s = np.array(quarter).T
    return (np.concatenate([c, -s, -c, s]) + 0.0,  # + 0.0: no -0.0
            np.concatenate([s, c, -s, -c]) + 0.0)


# cos and sin of 2 pi k / 2**_TABLE_BITS for k < 2**(_TABLE_BITS + 1):
# the nodes of trig over two turns, since 2 phi1 / 2 pi = 2u lies in
# [0, 2).  The second turn repeats the first.
_TABLE_BITS = 10
_COS_TABLE, _SIN_TABLE = (np.tile(t, 2) for t in _trig_table(_TABLE_BITS))
# Spacing of the nodes, exactly TWO_PI / 2**_TABLE_BITS, and the Taylor
# coefficients of cos x - 1 (to x**4) and sin x (to x**5) for the offset
# 0 <= x < _STEP from a node.
_STEP = TWO_PI * 2.0 ** -_TABLE_BITS
_COS_4 = 1.0 / 24.0
_SIN_3 = -1.0 / 6.0
_SIN_5 = 1.0 / 120.0


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


def multiply_only(d: float) -> int:
    """d, where |s|**d takes binary powering (an integer in [1, 32]);
    else 0."""
    return int(d) if 1.0 <= d <= 32.0 and d == int(d) else 0


# |s|**d at any other d > 0 is 2**y, y = d log2|s|.  log2 of m in [1/2, 1)
# starts from the nearest of the nodes j / 2**_LOG_BITS, exp2 of y from
# the nearest of the nodes k / 2**_EXP_BITS; polynomials cover the rest.
_LOG_BITS, _EXP_BITS = 9, 8


def _horner(x, coeffs):
    """x * (c[0] + x * (c[1] + ... + x * c[-1])), innermost first."""
    acc = x * coeffs[-1]
    for c in coeffs[-2::-1]:
        acc += c
        acc *= x
    return acc


def _power_tables():
    """(log2 of each node j / 2**_LOG_BITS, 1 / j, 2**(i / 2**_EXP_BITS),
    the polynomials of log2(1 + r) and of 2**(g / 2**_EXP_BITS) - 1).

    Node j = 0 stands for s = 0: log2 -inf, and 1 / j taken as 0 so that
    r = 0.  Nodes 1 to 2**(_LOG_BITS - 1) - 1 are never used (nan).
    Computed to 30 digits, as _trig_table is: the logs by ln(j / (j + 1))
    = -2 atanh(1 / (2j + 1)) down from ln 1 = 0, the powers of two as
    integer powers of 2**(1 / 2**_EXP_BITS).
    """
    n = 1 << _LOG_BITS
    unused = [math.nan] * (n // 2 - 1)
    with localcontext() as ctx:
        ctx.prec = 30
        ln2 = Decimal(2).ln()
        odd = [Decimal(1) / k for k in range(3, 13, 2)]
        logs = [Decimal(0)]  # ln(j / n) for j = n down to n / 2
        for j in range(n - 1, n // 2 - 1, -1):
            z = Decimal(1) / (2 * j + 1)  # below 2**-9: z**13 / 13 < 1e-36
            logs.append(logs[-1] - 2 * z * (1 + _horner(z * z, odd)))
        root = Decimal(2) ** (Decimal(1) / (1 << _EXP_BITS))
        tables = ([-math.inf, *unused, *(float(x / ln2) for x in logs[::-1])],
                  [0.0, *unused, *(1.0 / np.arange(n // 2, n + 1))],
                  [float(x) for x in itertools.accumulate(
                      [root] * ((1 << _EXP_BITS) - 1), operator.mul,
                      initial=Decimal(1))],
                  [float((-1) ** (k + 1) / (k * ln2)) for k in range(1, 6)],
                  [float((ln2 / (1 << _EXP_BITS)) ** k / math.factorial(k))
                   for k in range(1, 5)])
    return tuple(np.array(t) for t in tables)


# _cpass.c has the polynomials' lengths, 5 and 4, as constants.
_LOG_TABLE, _INV_TABLE, _EXP_TABLE, _LOG_POLY, _EXP_POLY = _power_tables()


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


_SOURCE = os.path.join(os.path.dirname(__file__), "_cpass.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
# No -ffast-math and no contraction into fused multiply-adds, with either
# flag set: each + - * must round once, as numpy's does.  Functions start
# on 64-byte boundaries, so that code added to the library does not shift
# the passes' loops across cache lines (without it, adding cpass_format
# slowed the passes by 2-3%).  _NATIVE_CFLAGS let cc use every
# instruction of the host's CPU: the counter hash, all integer, then runs
# in the widest vectors, about twice as fast on a CPU with AVX-512, and
# the stations run as many trials at a time as those vectors hold
# (_cpass.c's LANES: 8 with AVX-512, 4 with AVX, else 2).  _CFLAGS are
# the portable ones, where those do not compile or the CPU is not known;
# they run the stations 2 trials at a time.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-falign-functions=64")
_NATIVE_CFLAGS = ("-O3", "-march=native", *_CFLAGS[1:])
_BUILD_TIMEOUT_S = 120
# The interpreter's tag in its libraries' names: its EXT_SUFFIX without
# the dots, e.g. "cpython-311-x86_64-linux-gnu", names its version,
# build and platform.
_TAG = importlib.machinery.EXTENSION_SUFFIXES[0].split(".")[1]


class CPassPoint(ctypes.Structure):
    """struct cpass_point of _cpass.c, field for field: one point's inputs
    and the arrays the compiled pass writes."""

    _fields_ = [
        *[(name, ctypes.c_void_p) for name in (
            "origins", "cos_table", "sin_table", "log_table", "inv_table",
            "exp_table", "log_poly", "exp_poly", "turns")],
        *[(name, ctypes.c_double) for name in (
            "scale", "step", "cos_4", "sin_3", "sin_5", "log_scale",
            "exp_scale", "d", "span", "v_max", "threshold")],
        *[(name, ctypes.c_int64) for name in (
            "exp_bits", "power", "capacity")],
        *[(name, ctypes.c_void_p) for name in ("hist", "codes", "volts")],
    ]


# The fields of CPassPoint that are the same at every point: the tables'
# addresses, read once, and the constants of trig and abs_power.
_POINT_CONSTANTS = {
    **{name: table.ctypes.data for name, table in (
        ("cos_table", _COS_TABLE), ("sin_table", _SIN_TABLE),
        ("log_table", _LOG_TABLE), ("inv_table", _INV_TABLE),
        ("exp_table", _EXP_TABLE), ("log_poly", _LOG_POLY),
        ("exp_poly", _EXP_POLY))},
    "scale": 2.0 ** (_TABLE_BITS + 1), "step": _STEP, "cos_4": _COS_4,
    "sin_3": _SIN_3, "sin_5": _SIN_5, "log_scale": float(1 << _LOG_BITS),
    "exp_scale": float(1 << _EXP_BITS), "exp_bits": _EXP_BITS}


class Compiled:
    """One point of lib's compiled pass, numpy_chunk's counterpart.

    It holds the point's inputs (params, turns and origins as numpy_chunk
    and fill_uniforms take them) and the arrays the pass writes, for
    chunks of up to capacity trials: the chunk's state counts, each
    trial's state and, with trials, each station's voltage.  The struct
    of pointers to them is built once per point, so that a chunk costs
    one foreign call.
    """

    def __init__(self, lib, cfd: bool, params, turns, origins, capacity: int,
                 trials: bool = False):
        self.capacity = capacity
        self.origins = np.ascontiguousarray(origins, np.uint64).ravel()
        if self.origins.size != (9 if cfd else 7):
            raise ValueError("the pass takes one origin per stream")
        self.turns = np.ascontiguousarray(np.hstack([turns, 0.5 * turns]))
        self.hist = np.zeros(256 if cfd else 64, np.int64)
        self.codes = np.empty(capacity, np.uint8)
        self.volts = np.empty((4 if cfd else 2, capacity)) if trials else None
        arrays = {"origins": self.origins, "turns": self.turns,
                  "hist": self.hist, "codes": self.codes,
                  **({"volts": self.volts} if trials else {})}
        self.point = CPassPoint(
            d=params.d, span=params.span, v_max=params.v_max_mag,
            threshold=params.threshold, power=multiply_only(params.d),
            capacity=capacity, **_POINT_CONSTANTS,
            **{name: a.ctypes.data for name, a in arrays.items()})
        self._ref = ctypes.byref(self.point)
        self._run = lib.cpass_cfd if cfd else lib.cpass_noncfd

    def run(self, start: int, n: int):
        """(state counts, each trial's state, the (k, n) voltages or None)
        of trials start..start+n-1, as numpy_chunk gives them.  The
        arrays are overwritten by the next chunk."""
        if not 0 < n <= self.capacity:
            raise ValueError(f"chunk of {n} trials, capacity {self.capacity}")
        self._run(self._ref, start, n)
        return (self.hist, self.codes[:n],
                None if self.volts is None else self.volts[:, :n])


class CPassColumn(ctypes.Structure):
    """struct cpass_column of _cpass.c: one column of format_csv."""

    _fields_ = [("kind", ctypes.c_int64), ("data", ctypes.c_void_p),
                ("stride", ctypes.c_int64), ("length", ctypes.c_int64)]


_TEXT, _INT64, _FLOAT64, _INT8 = 0, 1, 2, 3
# The widest field of each kind: str(-2**63), '%.17g' of
# -2.2250738585072014e-308, and str(-128).
_WIDTH = {_INT64: 20, _FLOAT64: 24, _INT8: 4}


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


def format_csv(lib, columns, buffer=None):
    """The CSV lines of equal-length columns, formatted by lib's
    cpass_format: one line per row, its fields joined by ',' and ended
    by '\\n'.

    A column is bytes (the same text in every row), an integer array
    (written as str writes it; see integer_column: int8 and int64 are
    read in place, strided or not) or a float array ('%.17g').  The lines
    go into buffer, a uint8 array, replaced by a larger one when it is
    too small.  Returns (buffer, the number of bytes written).
    """
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    fields = (CPassColumn * len(columns))()
    keep = []  # the arrays that fields point into
    width = 1
    for field, col in zip(fields, columns):
        if isinstance(col, bytes):
            col = np.frombuffer(col, np.uint8)
            field.kind, field.length = _TEXT, col.size
            width += col.size + 1
        else:
            if len(col) != n:
                raise ValueError("columns of different lengths")
            if np.issubdtype(col.dtype, np.floating):
                field.kind, col = _FLOAT64, np.asarray(col, np.float64)
            else:
                col = integer_column(col)
                field.kind = _INT8 if col.dtype == np.int8 else _INT64
            field.stride = col.strides[0]
            width += _WIDTH[field.kind] + 1
        field.data = col.ctypes.data
        keep.append(col)
    if buffer is None or buffer.size < n * width:
        buffer = np.empty(n * width, np.uint8)
    return buffer, lib.cpass_format(fields, len(columns), n,
                                    buffer.ctypes.data)


def _cpu_key() -> str | None:
    """A hash of the CPU features numpy found on this host (the names of
    those that are present), or None where numpy names none or cannot
    say.  numpy reads them once at its import, so this starts no
    process.  An extension that numpy does not name is not in the hash:
    two CPUs that differ only in one share a library."""
    core = getattr(np, "_core", None) or np.core  # np.core before numpy 2
    features = getattr(getattr(core, "_multiarray_umath", None),
                       "__cpu_features__", None)
    try:
        present = sorted(name for name, on in features.items() if on)
    except (AttributeError, TypeError):
        return None
    return sha256(" ".join(present).encode()).hexdigest()[:8] \
        if present else None


def _compiled(source: str, cache: str) -> str | None:
    """The library of source for this host in cache, compiled there on a
    miss.

    A build tries _NATIVE_CFLAGS, then _CFLAGS; without a CPU key, only
    _CFLAGS.  It writes a temporary file and renames it into place, so
    processes that build at once each load a whole library.  Returns
    None where the build fails.
    """
    with open(source, "rb") as fh:
        text = fh.read()
    cpu = _cpu_key()
    builds = (_CFLAGS,) if cpu is None else (_NATIVE_CFLAGS, _CFLAGS)
    cpu = cpu or "portable"
    key = sha256(b"\0".join([text, *(" ".join(f).encode() for f in builds),
                              _TAG.encode()])).hexdigest()[:16]
    path = os.path.join(cache, f"_cpass-{_TAG}-{cpu}-{key}.so")
    if os.path.exists(path):
        return path
    import subprocess
    import tempfile
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", "_cpass-", cache)
    except OSError:
        return None
    os.close(fd)
    try:
        for flags in builds:
            if subprocess.run(["cc", *flags, "-o", tmp, source, "-lm"],
                              capture_output=True,
                              timeout=_BUILD_TIMEOUT_S).returncode == 0:
                break
        else:
            return None
        os.chmod(tmp, 0o755)  # mkstemp's 0o600 would hide it from others
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    _remove_stale(cache, path, cpu)
    return path


def _remove_stale(cache: str, path: str, cpu: str) -> None:
    """Remove this interpreter's libraries for this cpu in cache other
    than path: those of earlier sources or flags, and those named as
    earlier builds named them, _cpass-<tag>-<key>.so without the cpu and
    _cpass-<key>.so without the tag either.  Other interpreters' and
    other CPUs' libraries stay."""
    import re
    tag, cpu = re.escape(_TAG), re.escape(cpu)
    stale = re.compile(rf"_cpass-(({tag}-{cpu}|{tag})-)?[0-9a-f]{{16}}\.so")
    for name in os.listdir(cache):
        if stale.fullmatch(name) and name != os.path.basename(path):
            try:
                os.remove(os.path.join(cache, name))
            except FileNotFoundError:  # another process removed it
                pass


# The known-answer check of cpass_format: exact ties at 17 digits, whose
# rounding goes to the even digit (1 + 2**-17 down, and in the voltages'
# decade 26215 * 2**-18 up and -26217 * 2**-18 down), the smallest
# subnormal, both ends of fixed notation and values past them, signed
# zeros, infinities and nans, and the ends of int64 and of int8.
_CHECK_FLOATS = np.array([1 + 2.0 ** -17, 26215 * 2.0 ** -18,
                          -26217 * 2.0 ** -18, 5e-324, 1e16, 1e17, 1e-4,
                          1e-5, 0.0, -0.0, math.inf, -math.inf, math.nan,
                          math.copysign(math.nan, -1.0), -0.7071067811865476,
                          123456789.125])
_CHECK_INTS = np.array([-2 ** 63, 2 ** 63 - 1, 0, -1, 7, 10 ** 18] +
                       [0] * (len(_CHECK_FLOATS) - 6), np.int64)
_CHECK_INT8S = np.resize(np.array([-128, 127, -1, 0, 1, 9, 10, -10],
                                  np.int8), len(_CHECK_FLOATS))
_CHECK_CSV = "".join(
    "%.17g,t,%d,%d\n" % row
    for row in zip(_CHECK_FLOATS.tolist(), _CHECK_INTS.tolist(),
                   _CHECK_INT8S.tolist())).encode()


def _pass_agrees(lib) -> bool:
    """Whether lib's CFD pass gives numpy_chunk's states and voltages,
    bit for bit, on a fixed chunk of 200 trials (a block and a part of
    one) whose counters cross 2**40, at d = 3 (binary powering) and at
    d = 0.5 (the table power).

    The span, 0.7, is not a power of two, and at d = 0.5 the power is
    large for most s, so that its last bits reach the printed voltage.
    """
    origins = (np.arange(1, 10, dtype=np.uint64) * _M1_U64)[:, None]
    turns = np.array(trig(np.array([0.05, 0.3, 0.55, 0.8]))).T
    start = 2 ** 40 - 100
    for d in (3.0, 0.5):
        params = ModelParams(d=d, v_min_mag=0.3, threshold=-0.65)
        _, states, volts = Compiled(lib, True, params, turns, origins, 200,
                                    trials=True).run(start, 200)
        want = numpy_chunk(True, params, turns,
                           fill_uniforms(origins, start, 200))
        if not (np.array_equal(states, want[0])
                and np.array_equal(volts, want[1])):
            return False
    return True


def load_cpass(source: str = _SOURCE, cache: str = _CACHE):
    """The compiled pass of source, built into cache at first use.

    None where it cannot be built or loaded, where its pass, counter hash
    included, does not reproduce numpy_chunk (_pass_agrees), or where its
    formatter does not reproduce Python's bytes of _CHECK_FLOATS,
    _CHECK_INTS and _CHECK_INT8S.
    """
    path = _compiled(source, cache)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
        for name in ("cpass_cfd", "cpass_noncfd"):
            fn = getattr(lib, name)
            fn.argtypes = (ctypes.POINTER(CPassPoint), ctypes.c_uint64,
                           ctypes.c_int64)
            fn.restype = None
        lib.cpass_format.argtypes = (ctypes.POINTER(CPassColumn),
                                     ctypes.c_int64, ctypes.c_int64,
                                     ctypes.c_void_p)
        lib.cpass_format.restype = ctypes.c_int64
    except (OSError, AttributeError):
        return None
    if not _pass_agrees(lib):
        return None
    buffer, size = format_csv(lib, [_CHECK_FLOATS, b"t", _CHECK_INTS,
                                    _CHECK_INT8S])
    if buffer[:size].tobytes() != _CHECK_CSV:
        return None
    return lib


CPASS = load_cpass()
BACKEND = "numpy" if CPASS is None else "c"
