"""Hot numeric kernels: the station law's tables, its compiled pass, and
the trial dump's formatter, all without numpy.

Random numbers come from a counter-based generator: draw k of a stream
is a pure function of (stream origin, k), so any chunking or parallel
schedule reproduces the same values.  The mixing function is the
standard 64-bit xorshift-multiply finalizer used by splitmix-style
generators.

The station law is the arithmetic of law.station_law, with no libm
call.  cos 2phi1 and sin 2phi1 come from a table and two short
polynomials (table_trig), cos 2(a - phi) and sin 2(a - phi) = s from them
by angle addition with each setting's turn (cos 2a, sin 2a), which
table_trig gives too, in Python floats, and |s|**d from
binary powering or a table-driven log2 and exp2 (law.abs_power).  Then
x = +1 where (1 + c)/2 - r > 0, v = (|s|**d * rhat) * span - v_max and
w = [v < threshold].  The tables are computed here once, in decimal
arithmetic, as Python floats, and every other step is one IEEE + - * or
an exact operation (frexp, ldexp, rint, a comparison), so every IEEE
host computes the same values.

A point's trials run through the law by one of two passes, with one
interface.  law.NumpyPass runs plain numpy array expressions; Compiled
runs _cpass.c, which does the same float operations in the same order,
a block of trials at a time, in one foreign call per add, so that
every state and every voltage is numpy's, bit for bit.  The same library
formats the trial dump's records (CsvFormat) from the pass's state codes
and voltages (TrialColumn), with the bytes of Python's str and '%.17g'.
This module imports no numpy: its names of law's functions (fill_uniforms
among them) import law, and numpy, at their first use.
load_cpass compiles _cpass.c with the system's cc at first use, for
the host's own CPU (-O3 -march=native), into the package's __pycache__
as _cpass-<interpreter tag>-<cpu>-<key>.so, and later imports load it
from there; where that directory cannot be written, into the per-user
cache ($XDG_CACHE_HOME/eprbsim, else ~/.cache/eprbsim).  <cpu> is a
hash of the CPU's feature flags (_cpu_key), so a checkout shared by two
machines keeps a library for each and neither loads the other's; the
key is a hash of the source and the flags.  Where -march=native does
not compile the build takes the portable flags, under the same name;
where the features cannot be read it takes them under <cpu> "portable".
A build that fails leaves a .failed marker of the same name, and later
imports raise its error without running cc.  A build removes the
libraries and markers of the same tag and <cpu> that it replaces, those
of any <cpu> built from another source or flags, and those named by
earlier builds without a <cpu> or without a tag.
CPASS is the loaded library, or None where there is no compiler, the
build or the load fails, or the library fails its known-answer checks
(a CFD chunk of its pass against numpy_chunk's pinned digests, a
non-CFD chunk with a quota against numpy's pass's, its formatter against
Python's bytes), and NOTE then says which; BACKEND names the
pass in use, "c" or "numpy", and the passes and the trial dump read it
at each call.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import itertools
import math
import operator
import os
from decimal import Decimal, localcontext
from typing import NamedTuple

from .params import TWO_PI, ModelParams

try:  # the builtin module: hashlib also loads OpenSSL, about 4 ms
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

GOLDEN = 0x9E3779B97F4A7C15  # odd increment of the counter sequence
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53

# law's functions, which need numpy: module attributes of this one from
# their first use (__getattr__).
_LAW = frozenset({"fill_uniforms", "gather_uniforms", "station_response",
                  "trig", "abs_power", "station_law", "_hash_to_uniforms"})


def __getattr__(name):
    if name in _LAW:
        from . import law
        value = globals()[name] = getattr(law, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ------------------------------------------------------------ the station law

_PI = Decimal("3.14159265358979323846264338327950288419717")


def _trig_table(bits: int):
    """cos and sin of 2 pi k / 2**bits for k < 2**bits, as lists.

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
    c, s = zip(*quarter)
    minus_c, minus_s = [-x + 0.0 for x in c], [-x + 0.0 for x in s]  # no -0.0
    return [*c, *minus_s, *minus_c, *s], [*s, *c, *minus_s, *minus_c]


# cos and sin of 2 pi k / 2**_TABLE_BITS for k < 2**(_TABLE_BITS + 1):
# the nodes of table_trig over two turns, since 2 phi1 / 2 pi = 2u lies
# in [0, 2).  The second turn repeats the first.
_TABLE_BITS = 10
_COS_TABLE, _SIN_TABLE = (t * 2 for t in _trig_table(_TABLE_BITS))
# Spacing of the nodes, exactly TWO_PI / 2**_TABLE_BITS, and the Taylor
# coefficients of cos x - 1 (to x**4) and sin x (to x**5) for the offset
# 0 <= x < _STEP from a node: table_trig's, and the compiled pass's
# through _POINT_CONSTANTS.
_STEP = TWO_PI * 2.0 ** -_TABLE_BITS
_COS_4 = 1.0 / 24.0
_SIN_3 = -1.0 / 6.0
_SIN_5 = 1.0 / 120.0


def table_trig(u, floor, cos_table, sin_table):
    """(cos 2phi1, sin 2phi1) of phi1 = TWO_PI * u, u in [0, 1), from a
    table: the arithmetic of law.trig and of _cpass.c's trig.

    u is a float, floor int and the tables _COS_TABLE and _SIN_TABLE, for
    a setting's turn; or, in law.trig, u is a float64 array, floor turns
    an array into integers (truncating) and the tables are arrays of
    these.  Each + - * rounds once, in Python as in numpy, so both give
    the same bits.

    2phi1 is 2 pi (j + f) / 2**_TABLE_BITS up to rounding, with j =
    floor(v), f = v - j and v = u * 2**(_TABLE_BITS + 1), all three
    exact.  With x = f * _STEP and the node values T_c[j], T_s[j],
    cos 2phi1 = T_c + (T_c (cos x - 1) - T_s sin x) and sin 2phi1 =
    T_s + (T_s (cos x - 1) + T_c sin x), where short Horner polynomials
    give cos x - 1 and sin x.  Each value is within 59 * 2**-53 of the
    exact one (CHANGES.md gives the argument).
    """
    v = u * 2.0 ** (_TABLE_BITS + 1)
    index = floor(v)  # floor, since v >= 0
    x = (v - index) * _STEP
    z = x * x
    cm1 = (z * _COS_4 - 0.5) * z
    sx = (z * _SIN_5 + _SIN_3) * z * x + x
    tc, ts = cos_table[index], sin_table[index]
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
    the polynomials of log2(1 + r) and of 2**(g / 2**_EXP_BITS) - 1), as
    lists.

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
        return ([-math.inf, *unused, *(float(x / ln2) for x in logs[::-1])],
                [0.0, *unused, *(1.0 / j for j in range(n // 2, n + 1))],
                [float(x) for x in itertools.accumulate(
                    [root] * ((1 << _EXP_BITS) - 1), operator.mul,
                    initial=Decimal(1))],
                [float((-1) ** (k + 1) / (k * ln2)) for k in range(1, 6)],
                [float((ln2 / (1 << _EXP_BITS)) ** k / math.factorial(k))
                 for k in range(1, 5)])


# _cpass.c has the polynomials' lengths, 5 and 4, as constants.
_LOG_TABLE, _INV_TABLE, _EXP_TABLE, _LOG_POLY, _EXP_POLY = _power_tables()


# ------------------------------------------------------- the compiled pass

_SOURCE = os.path.join(os.path.dirname(__file__), "_cpass.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
# No -ffast-math and no contraction into fused multiply-adds, with either
# flag set: each + - * must round once, as numpy's does.  Functions start
# on 64-byte boundaries, so that code added to the library does not shift
# the passes' loops across cache lines (without it, adding cpass_format
# slowed the passes by 2-3%).  _NATIVE_CFLAGS let cc use every
# instruction of the host's CPU, and the stations run as many trials at
# a time as its vectors hold (_cpass.c's LANES: 8 with AVX-512, 4 with
# AVX, else 2).  On x86 they also ask for 512-bit vectors in the loops
# that cc vectorizes itself (the counter hash, the trig, abs_power's):
# gcc 12 picks 256-bit ones there even on a CPU with AVX-512, where the
# hash then takes half of a CFD trial's time, and 512-bit ones run a CFD
# trial about 1.7 times as fast.  Where the target has no AVX-512 the
# flag changes nothing.  gcc >= 8 and clang >= 7 take it; an older cc, or
# one that refuses -march=native, takes _CFLAGS, the portable flags, as
# does a CPU that is not known.  They run the stations 2 trials at a time.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-falign-functions=64")
_X86 = hasattr(os, "uname") and os.uname().machine in (
    "x86_64", "amd64", "i386", "i686")
_NATIVE_CFLAGS = ("-O3", "-march=native",
                  *(("-mprefer-vector-width=512",) if _X86 else ()),
                  *_CFLAGS[1:])
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
            "exp_bits", "power", "capacity", "quota")],
        *[(name, ctypes.c_void_p) for name in (
            "hist", "held", "codes", "volts")],
    ]


def _doubles(values):
    """A ctypes array of the floats values."""
    return (ctypes.c_double * len(values))(*values)


_TABLES = {name: _doubles(table) for name, table in (
    ("cos_table", _COS_TABLE), ("sin_table", _SIN_TABLE),
    ("log_table", _LOG_TABLE), ("inv_table", _INV_TABLE),
    ("exp_table", _EXP_TABLE), ("log_poly", _LOG_POLY),
    ("exp_poly", _EXP_POLY))}
# The fields of CPassPoint that are the same at every point: the tables'
# addresses and the constants of table_trig and abs_power.
_POINT_CONSTANTS = {
    **{name: ctypes.addressof(table) for name, table in _TABLES.items()},
    "scale": 2.0 ** (_TABLE_BITS + 1), "step": _STEP, "cos_4": _COS_4,
    "sin_3": _SIN_3, "sin_5": _SIN_5, "log_scale": float(1 << _LOG_BITS),
    "exp_scale": float(1 << _EXP_BITS), "exp_bits": _EXP_BITS}


class Compiled:
    """One point of lib's compiled pass, law.NumpyPass's twin.

    It holds the point's inputs: params, the stations' turns ((ca, sa)
    of each, as experiment._turns gives them), one origin per stream
    (ints), for non-CFD trials the quota of each setting pair (0: none),
    and the most trials a call takes, capacity.  Each call of add is one
    foreign call, which releases the interpreter lock, and adds the state
    counts of its trials to hist (with a quota, those of the trials the
    quota keeps, held counting them per pair).  codes and volts, where
    given, are writable buffers (uint8, and (k, capacity) float64) that
    get each trial's state and each station's voltages.
    """

    def __init__(self, lib, cfd: bool, params, turns, origins, quota: int = 0,
                 capacity: int = 0, codes=None, volts=None):
        if len(origins) != (9 if cfd else 7) or len(turns) != 4:
            raise ValueError("the pass takes one origin per stream and "
                             "one turn per station")
        self.capacity, self.codes, self.volts = capacity, codes, volts
        self._origins = (ctypes.c_uint64 * len(origins))(*origins)
        self._turns = _doubles([x for ca, sa in turns
                                for x in (ca, sa, 0.5 * ca, 0.5 * sa)])
        self.hist = (ctypes.c_int64 * (256 if cfd else 64))()
        self.held = (ctypes.c_int64 * 4)()
        arrays = {"origins": self._origins, "turns": self._turns,
                  "hist": self.hist, "held": self.held}
        self._point = CPassPoint(
            d=params.d, span=params.span, v_max=params.v_max_mag,
            threshold=params.threshold, power=multiply_only(params.d),
            capacity=capacity, quota=quota, codes=_address(codes),
            volts=_address(volts), **_POINT_CONSTANTS,
            **{name: ctypes.addressof(a) for name, a in arrays.items()})
        self._ref = ctypes.byref(self._point)
        self._run = lib.cpass_cfd if cfd else lib.cpass_noncfd

    def add(self, start: int, n: int) -> int:
        """Run trials start..start+n-1, n <= capacity, and add their state
        counts to hist; returns the trials walked: n, or fewer where a
        quota's last pair filled, 0 once every pair is full.  Their states
        (64 for a trial the quota drops) and voltages overwrite codes and
        volts."""
        if not 0 < n <= self.capacity:
            raise ValueError(f"chunk of {n} trials, capacity {self.capacity}")
        return self._run(self._ref, start, n)


def _address(buffer):
    """The address of a writable buffer's first byte; None for None or an
    empty buffer."""
    return None if buffer is None or not memoryview(buffer).nbytes \
        else ctypes.addressof(ctypes.c_char.from_buffer(buffer))


# ------------------------------------------------------------ the formatter

class CPassColumn(ctypes.Structure):
    """struct cpass_column of _cpass.c: one column of cpass_format."""

    _fields_ = [("kind", ctypes.c_int64), ("data", ctypes.c_void_p),
                ("length", ctypes.c_int64), ("value", ctypes.c_int64)]


TEXT, FLOAT64, INDEX, SIGN, BIT, CHOICE, SKIP = range(7)
# The widest field of each kind: '%.17g' of -2.2250738585072014e-308,
# str(-2**63), "-1" and "0".
_WIDTH = {FLOAT64: 24, INDEX: 20, SIGN: 2, BIT: 1}


class TrialColumn(NamedTuple):
    """A column of CsvFormat, read from a pass's buffers: in row i, of
    the trial of state codes[i], kind INDEX prints start + i; SIGN and
    BIT print bit value of the state as -1 or 1 and as 0 or 1; CHOICE
    prints texts[0] or texts[1] as that bit is clear or set; FLOAT64
    prints the double volts[value + i] ('%.17g').  SKIP prints no field,
    and drops the rows whose state is 64 (the trials a quota dropped)."""

    kind: int
    value: int = 0
    texts: tuple = ()


class CsvFormat:
    """The fields of cpass_format for rows of these columns, each bytes
    (the same text in every row) or a TrialColumn, built once and pointed
    at each set of rows in turn (write)."""

    def __init__(self, columns):
        self._texts = []  # the buffers that the text fields point into
        self._fields = (CPassColumn * len(columns))(*map(self._field,
                                                          columns))
        # the fields each set of rows moves, in place, and their columns
        self._moving = [(self._fields[i], col) for i, col in enumerate(
            columns) if getattr(col, "kind", TEXT) in (INDEX, FLOAT64)]
        # the bytes a row takes, at most
        self.width = 1 + sum(1 + _WIDTH.get(f.kind, f.length)
                             for f in self._fields if f.kind != SKIP)

    def _field(self, col) -> CPassColumn:
        if isinstance(col, bytes):
            text = ctypes.create_string_buffer(col, len(col) or 1)
            self._texts.append(text)
            return CPassColumn(TEXT, ctypes.addressof(text), len(col))
        field = CPassColumn(col.kind, value=col.value)
        if col.kind == CHOICE:
            texts = (CPassColumn * 2)(*map(self._field, col.texts))
            self._texts.append(texts)
            field.data, field.length = ctypes.addressof(texts), max(
                map(len, col.texts))
        return field

    def write(self, lib, rows, buffer=None):
        """The CSV lines of rows = (start, n, codes, volts) by lib's
        cpass_format: n trials from start, of states codes (a writable
        buffer of n bytes or more) and voltages volts (one of doubles),
        one line per row (but a skipped one), its fields joined by ','
        and ended by '\\n'.

        The lines go into buffer, a writable memoryview, replaced by a
        larger one when it is too small.  Returns (buffer, the number of
        bytes written).
        """
        start, n, codes, volts = _checked(rows)
        for field, col in self._moving:
            if col.kind == INDEX:
                field.value = start
            elif 8 * (col.value + n) > memoryview(volts).nbytes:
                raise ValueError(f"fewer voltages than {col.value} + {n}")
            elif n:
                field.data = _address(volts) + 8 * col.value
        if buffer is None or buffer.nbytes < n * self.width:
            buffer = memoryview(bytearray(n * self.width))
        return buffer, lib.cpass_format(self._fields, len(self._fields),
                                        _address(codes), n, _address(buffer))


def _checked(rows):
    """rows = (start, n, codes, volts), where codes holds n states and
    indices start..start+n-1 fit in int64; else ValueError."""
    start, n, codes, _ = rows
    if n > len(codes) or start + n > 2 ** 63:
        raise ValueError(f"indices {start}..{start + n - 1} of {len(codes)}"
                         " states: more rows than states, or past int64")
    return rows


# ------------------------------------------------------------------ loading

_CPUINFO = "/proc/cpuinfo"


def _cpu_flags():
    """The names on the first 'flags' line of _CPUINFO (x86) or its first
    'Features' line (arm64), or None where the host has no such file or
    line."""
    try:
        with open(_CPUINFO, encoding="ascii", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return value.split()
    except OSError:
        pass
    return None


def _numpy_features():
    """The names of the CPU features numpy found on this host, or None
    where it cannot say.  numpy reads them once at its import, so this
    starts no process."""
    import numpy as np
    core = getattr(np, "_core", None) or np.core  # np.core before numpy 2
    features = getattr(getattr(core, "_multiarray_umath", None),
                       "__cpu_features__", None)
    try:
        return [name for name, on in features.items() if on]
    except (AttributeError, TypeError):
        return None


def _cpu_key() -> str | None:
    """A hash of the CPU's features: the flags (arm64: Features) of
    /proc/cpuinfo, or, on a host without them, the features numpy found
    (importing numpy only there).  None where neither names any.  An
    extension that the source of the names does not name is not in the
    hash: two CPUs that differ only in one share a library."""
    names = _cpu_flags()
    if names is None:
        names = _numpy_features()
    return sha256(" ".join(sorted(names)).encode()).hexdigest()[:8] \
        if names else None


def _keys(text: bytes) -> tuple:
    """The keys of the libraries of source text: built with
    _NATIVE_CFLAGS, then _CFLAGS, and built with _CFLAGS alone."""
    return tuple(sha256(b"\0".join([text, *(" ".join(f).encode()
                                            for f in builds),
                                    _TAG.encode()])).hexdigest()[:16]
                 for builds in ((_NATIVE_CFLAGS, _CFLAGS), (_CFLAGS,)))


def _user_cache() -> str:
    """The per-user cache: $XDG_CACHE_HOME/eprbsim, or ~/.cache/eprbsim
    where XDG_CACHE_HOME is not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "eprbsim")


class _Unwritable(OSError):
    """A cache directory that cannot be created or written: its path and
    why."""


def _compiled(source: str, cache: str) -> str:
    """The library of source for this host in cache, compiled there on a
    miss; where cache cannot be written, the same in _user_cache().

    A build tries _NATIVE_CFLAGS, then _CFLAGS; without a CPU key, only
    _CFLAGS.  It writes a temporary file and renames it into place, so
    processes that build at once each load a whole library.  A build
    that fails leaves a marker, the library's name ending in .failed
    instead of .so, that holds its error, and later calls raise that
    error without running cc.  Raises OSError, saying why, where there is
    no cc, the build fails (or failed before) or neither cache can be
    written.
    """
    with open(source, "rb") as fh:
        keys = _keys(fh.read())
    cpu = _cpu_key()
    builds = (_CFLAGS,) if cpu is None else (_NATIVE_CFLAGS, _CFLAGS)
    cpu, key = (cpu, keys[0]) if cpu else ("portable", keys[1])
    name = f"_cpass-{_TAG}-{cpu}-{key}"
    path = os.path.join(cache, name + ".so")
    if os.path.exists(path):
        return path
    try:
        return _build(source, cache, name, builds, cpu, keys)
    except _Unwritable as exc:
        user = _user_cache()
        path = os.path.join(user, name + ".so")
        if os.path.exists(path):
            return path
        try:
            return _build(source, user, name, builds, cpu, keys)
        except _Unwritable as second:
            raise OSError(f"cannot write the cache {exc} or {second}") \
                from None


def _build(source: str, cache: str, name: str, builds, cpu: str,
           keys) -> str:
    """_compiled's build of source into cache as name + ".so", with each
    flag set of builds in turn until one compiles.  Raises _Unwritable
    where cache cannot be written."""
    failed = os.path.join(cache, name + ".failed")
    try:
        with open(failed, encoding="utf-8") as fh:
            error = fh.read()
    except OSError:
        pass
    else:
        raise OSError(f"{error} (remembered in {failed})")
    import subprocess
    import tempfile
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", "_cpass-", cache)
    except OSError as exc:
        raise _Unwritable(f"{cache} ({exc.strerror})") from None
    os.close(fd)
    path = os.path.join(cache, name + ".so")
    try:
        for flags in builds:
            built = subprocess.run(["cc", *flags, "-o", tmp, source, "-lm"],
                                   capture_output=True, text=True,
                                   timeout=_BUILD_TIMEOUT_S)
            if built.returncode == 0:
                break
        else:  # the first line naming an error, or the last
            lines = built.stderr.splitlines() or [""]
            error = f"cc failed to build {source}: " + next(
                (line for line in lines if "error" in line), lines[-1])
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(error)
            os.chmod(tmp, 0o644)
            os.replace(tmp, failed)
            raise OSError(error)
        os.chmod(tmp, 0o755)  # mkstemp's 0o600 would hide it from others
        os.replace(tmp, path)
    except FileNotFoundError:
        raise OSError("no C compiler (cc) on PATH") from None
    except subprocess.SubprocessError as exc:  # a timeout: not remembered
        raise OSError(f"cc failed to build {source}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    _remove_stale(cache, path, cpu, keys)
    return path


def _remove_stale(cache: str, path: str, cpu: str, keys) -> None:
    """Remove this interpreter's libraries and failed-build markers in
    cache other than path that no host loads or reads: this cpu's of any
    key, any CPU's of a key not in keys (an earlier source's or flags',
    stale on every host), and those named as earlier builds named them,
    _cpass-<tag>-<key>.so without the cpu and _cpass-<key>.so without the
    tag either.  Other interpreters' files, and other CPUs' of these
    keys, stay."""
    import re
    stale = re.compile(rf"_cpass-(?:{re.escape(_TAG)}-(?:([0-9a-f]{{8}}"
                       rf"|portable)-)?)?([0-9a-f]{{16}})\.(?:so|failed)")
    for name in os.listdir(cache):
        match = stale.fullmatch(name)
        if match and name != os.path.basename(path) and (
                match[1] in (None, cpu) or match[2] not in keys):
            try:
                os.remove(os.path.join(cache, name))
            except FileNotFoundError:  # another process removed it
                pass


# The known-answer check of cpass_format, rows of each kind of column in
# turn: exact ties at 17 digits, whose rounding goes to the even digit
# (1 + 2**-17 down; 26215 * 2**-18 up and -26217 * 2**-18 down, in a
# binade that holds 0.1; 196611 * 2**-18 up and -196609 * 2**-18 down, in
# the voltages' binade [1/2, 1)), the smallest subnormal, both ends of
# fixed notation and values past them, signed zeros, infinities and nans;
# each bit of the states as a sign and as a bit, and both texts of a
# choice; indices from 0 with rows skipped first, in the middle and last,
# indices on either side of put_int's one-word path (10**8) and up to
# 2**63 - 1.
_CHECK_FLOATS = [1 + 2.0 ** -17, 26215 * 2.0 ** -18, -26217 * 2.0 ** -18,
                 196611 * 2.0 ** -18, -196609 * 2.0 ** -18, 5e-324, 1e16,
                 1e17, 1e-4, 1e-5, 0.0, -0.0, math.inf, -math.inf, math.nan,
                 math.copysign(math.nan, -1.0), -0.7071067811865476,
                 123456789.125]
_CHECK_STATES = [64, 0, 255, 0x5A, 64, 0xA5, 1, 128, 64, 2, 4, 8, 16, 32,
                 0x7F, 0xFE, 0x3C, 64]
_CHECK_CHOICE = (b"0.5", b"-0.78539816339744828")
_CHECK_COLUMNS = [TrialColumn(SKIP), TrialColumn(INDEX),
                  TrialColumn(CHOICE, 5, _CHECK_CHOICE),
                  *(TrialColumn(kind, bit) for kind in (SIGN, BIT)
                    for bit in range(8)), TrialColumn(FLOAT64)]


def _formats(lib) -> bool:
    """Whether lib's cpass_format gives Python's bytes of _CHECK_COLUMNS'
    rows from index 0, and without the SKIP column from either side of
    10**8 and up to 2**63 - 1."""
    n = len(_CHECK_STATES)
    codes = (ctypes.c_uint8 * n)(*_CHECK_STATES)
    volts = _doubles(_CHECK_FLOATS)
    tails = [",".join([_CHECK_CHOICE[s >> 5 & 1].decode(),
                       *(("-1", "1")[s >> b & 1] for b in range(8)),
                       *(str(s >> b & 1) for b in range(8)),
                       "%.17g\n" % _CHECK_FLOATS[i]])
             for i, s in enumerate(_CHECK_STATES)]  # each row past its index
    for start in (0, 10 ** 8 - 5, 2 ** 63 - n):
        want = "".join(f"{start + i},{tail}" for i, (s, tail) in enumerate(
            zip(_CHECK_STATES, tails)) if s != 64 or start)
        buffer, size = CsvFormat(_CHECK_COLUMNS[start > 0:]).write(
            lib, (start, n, codes, volts))
        if buffer[:size] != want.encode():
            return False
    return True


# The known-answer check of the CFD pass: a chunk of 200 trials (a block
# and a part of one) whose counters cross 2**40, with these origins and
# settings (u of their turns), at d = 3 (binary powering) and at d = 0.5
# (the table power).  The span, 0.7, is not a power of two, and at d = 0.5
# the power is large for most s, so that its last bits reach the printed
# voltage.  _PASS_DIGESTS holds the sha256 of numpy_chunk's states and of
# its (4, 200) voltages' bytes for each d; tests/test_cpass.py checks that
# numpy_chunk gives them on every leg of its host matrix.
_CHECK_ORIGINS = [k * _M1 % 2 ** 64 for k in range(1, 10)]
_CHECK_U = [0.05, 0.3, 0.55, 0.8]
_CHECK_START, _CHECK_N = 2 ** 40 - 100, 200
_PASS_DIGESTS = {
    3.0: ("50a47fb6ce0a726730c2849b2846d3dbfcdf5652eead6678a9a303f8d9725892",
          "52967d2262ce226d734fc7564d8776b860e11961be158f85a25f7b3c0cce3a93"),
    0.5: ("f5f5ddb9939ff27299c2dda08b35a5462cfbf09abb5b24fca34d7ee43369697b",
          "f9128cff41b396cf987f93e9d83d1570a45c89ae13d6f40f31c73888b3a4e934"),
}


# The known-answer check of the non-CFD pass: a chunk of 1000 trials from
# _CHECK_START, of the first seven origins, at d = 3 and a quota of 200.
# Its first three blocks keep every trial and the next four take the
# per-trial cut, whose last pair fills at trial 840.  _QUOTA_DIGESTS holds
# the sha256 of its states and of its two stations' voltages, of the
# trials walked, and of repr([hist, held, trials walked]), as numpy's pass
# gives them (_quota_check); tests/test_cpass.py checks that numpy's pass
# gives them on every leg of its host matrix.
_CHECK_QUOTA, _CHECK_QUOTA_N = 200, 1000
_QUOTA_DIGESTS = (
    "9cd9882e39423d98327c7a5fc311ceda185edf052e6d2832c7811d253554e674",
    "76354656931eb34dfca9d58b25d0792ff30a9fe4ddabdb94616ceaacc2dbb433",
    "8169ec773f78dfee1775537a9de650f8031ad287d7f0cb6279d450d3a7abd15d")


def _check_params(d: float) -> ModelParams:
    return ModelParams(d=d, v_min_mag=0.3, threshold=-0.65)


def _check_turns() -> list:
    return [table_trig(u, int, _COS_TABLE, _SIN_TABLE) for u in _CHECK_U]


def _quota_check(make) -> tuple:
    """The digests of _QUOTA_DIGESTS from the pass that make, Compiled's
    signature without lib (law.NumpyPass's), builds for the chunk."""
    n = _CHECK_QUOTA_N
    point = make(False, _check_params(3.0), _check_turns(),
                 _CHECK_ORIGINS[:7], _CHECK_QUOTA, n, bytearray(n),
                 bytearray(16 * n))
    walked = point.add(_CHECK_START, n)
    volts = bytes(point.volts)
    return tuple(sha256(data).hexdigest() for data in (
        bytes(point.codes[:walked]),
        volts[:8 * walked] + volts[8 * n:8 * (n + walked)],
        repr([list(point.hist), list(point.held), walked]).encode()))


def _pass_agrees(lib) -> bool:
    """Whether lib's CFD pass gives the states and voltages of
    _PASS_DIGESTS, and counts its states, and its non-CFD pass gives
    _QUOTA_DIGESTS."""
    turns = _check_turns()
    codes = (ctypes.c_uint8 * _CHECK_N)()
    volts = (ctypes.c_double * (4 * _CHECK_N))()
    for d, digests in _PASS_DIGESTS.items():
        point = Compiled(lib, True, _check_params(d), turns, _CHECK_ORIGINS,
                         capacity=_CHECK_N, codes=codes, volts=volts)
        point.add(_CHECK_START, _CHECK_N)
        counts = [0] * 256
        for state in codes:
            counts[state] += 1
        if (sha256(bytes(codes)).hexdigest(),
                sha256(bytes(volts)).hexdigest()) != digests \
                or point.hist[:] != counts:
            return False
    return _quota_check(lambda *args: Compiled(lib, *args)) \
        == _QUOTA_DIGESTS


def load_cpass(source: str = _SOURCE, cache: str = _CACHE):
    """The compiled pass of source, built into cache at first use.

    None where it cannot be built or loaded, where its pass, counter hash
    and quota cut included, does not reproduce numpy's (_pass_agrees), or
    where its formatter does not reproduce Python's bytes (_formats).
    """
    return _load(source, cache)[0]


def _load(source: str, cache: str):
    """(load_cpass's library, None), or (None, why there is none)."""
    try:
        lib = ctypes.CDLL(_compiled(source, cache))
        for name in ("cpass_cfd", "cpass_noncfd"):
            fn = getattr(lib, name)
            fn.argtypes = (ctypes.POINTER(CPassPoint), ctypes.c_uint64,
                           ctypes.c_int64)
            fn.restype = ctypes.c_int64
        lib.cpass_format.argtypes = (ctypes.POINTER(CPassColumn),
                                     ctypes.c_int64, ctypes.c_void_p,
                                     ctypes.c_int64, ctypes.c_void_p)
        lib.cpass_format.restype = ctypes.c_int64
    except (OSError, AttributeError) as exc:
        return None, str(exc)
    if _pass_agrees(lib) and _formats(lib):
        return lib, None
    return None, f"{lib._name} failed its known-answer check"


CPASS, NOTE = _load(_SOURCE, _CACHE)  # NOTE says why CPASS is None
BACKEND = "numpy" if CPASS is None else "c"
