"""Hot numeric kernels: the station law's tables, its compiled pass, and
the trial dump's formatter, all without numpy.

Random numbers come from a counter-based generator: draw k of a stream
is a pure function of (stream origin, k), so any chunking or parallel
schedule reproduces the same values.  The mixing function is the
standard 64-bit xorshift-multiply finalizer used by splitmix-style
generators.

The station law is the arithmetic of law.station_law, with no libm
call.  cos 2phi1 and sin 2phi1 come from a table and two short
polynomials (law.trig), cos 2(a - phi) and sin 2(a - phi) = s from them
by angle addition with each setting's (cos 2a, sin 2a), and |s|**d from
binary powering or a table-driven log2 and exp2 (law.abs_power).  Then
x = +1 where (1 + c)/2 - r > 0, v = (|s|**d * rhat) * span - v_max and
w = [v < threshold].  The tables are computed here once, in decimal
arithmetic, as Python floats, and every other step is one IEEE + - * or
an exact operation (frexp, ldexp, rint, a comparison), so every IEEE
host computes the same values.

A chunk of trials runs through the law one of two ways.  law.numpy_chunk
is plain numpy array expressions; _cpass.c does the same float
operations in the same order (Compiled), a block of trials at a time, in
one foreign call per span of trials, so that every state and every
voltage is numpy's, bit for bit.  The same library formats the trial
dump's records (format_csv), with the bytes of Python's str and '%.17g'.
This module imports no numpy: its names of law's functions (fill_uniforms
among them) import law, and numpy, at their first use.
load_cpass compiles _cpass.c with the system's cc at first use, for
the host's own CPU (-O3 -march=native), into the package's __pycache__
as _cpass-<interpreter tag>-<cpu>-<key>.so, and later imports load it
from there.  <cpu> is a hash of the CPU's feature flags (_cpu_key), so a
checkout shared by two machines keeps a library for each and neither
loads the other's; the key is a hash of the source and the flags.  Where
-march=native does not compile the build takes the portable flags, under
the same name; where the features cannot be read it takes them under
<cpu> "portable".  A build removes the libraries of the same tag and
<cpu> that it replaces, and those named by earlier builds without a
<cpu> or without a tag.
CPASS is the loaded library, or None where there is no compiler, the
build or the load fails, or the library fails its known-answer checks
(a chunk of its pass against numpy_chunk's pinned digests, its formatter
against Python's bytes); BACKEND names the pass in use, "c" or "numpy",
and the passes and the trial dump read it at each call.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import itertools
import math
import operator
import os
from decimal import Decimal, localcontext

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
                  "trig", "abs_power", "station_law", "numpy_chunk",
                  "integer_column", "_hash_to_uniforms"})


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
# the nodes of trig over two turns, since 2 phi1 / 2 pi = 2u lies in
# [0, 2).  The second turn repeats the first.
_TABLE_BITS = 10
_COS_TABLE, _SIN_TABLE = (t * 2 for t in _trig_table(_TABLE_BITS))
# Spacing of the nodes, exactly TWO_PI / 2**_TABLE_BITS, and the Taylor
# coefficients of cos x - 1 (to x**4) and sin x (to x**5) for the offset
# 0 <= x < _STEP from a node.
_STEP = TWO_PI * 2.0 ** -_TABLE_BITS
_COS_4 = 1.0 / 24.0
_SIN_3 = -1.0 / 6.0
_SIN_5 = 1.0 / 120.0


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
# addresses and the constants of trig and abs_power.
_POINT_CONSTANTS = {
    **{name: ctypes.addressof(table) for name, table in _TABLES.items()},
    "scale": 2.0 ** (_TABLE_BITS + 1), "step": _STEP, "cos_4": _COS_4,
    "sin_3": _SIN_3, "sin_5": _SIN_5, "log_scale": float(1 << _LOG_BITS),
    "exp_scale": float(1 << _EXP_BITS), "exp_bits": _EXP_BITS}
# The constants alone: all that cpass_trig reads.
_CONSTANTS = CPassPoint(**_POINT_CONSTANTS)


class Compiled:
    """One point of lib's compiled pass, numpy_chunk's counterpart.

    It holds the point's inputs: params, the stations' turns ((ca, sa)
    of each, as experiment._turns gives them), one origin per stream
    (ints) and, for non-CFD trials, the quota of each setting pair (0:
    none).  Each call of add is one foreign call, which releases the
    interpreter lock, and adds the state counts of its trials to hist
    (with a quota, those of the trials the quota keeps, held counting
    them per pair).  codes and volts, where given, are the addresses of
    arrays of capacity trials that get each trial's state and each
    station's voltages.
    """

    def __init__(self, lib, cfd: bool, params, turns, origins, quota: int = 0,
                 capacity: int = 0, codes: int = 0, volts: int = 0):
        if len(origins) != (9 if cfd else 7) or len(turns) != 4:
            raise ValueError("the pass takes one origin per stream and "
                             "one turn per station")
        self.capacity = capacity
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
            capacity=capacity, quota=quota, codes=codes or None,
            volts=volts or None, **_POINT_CONSTANTS,
            **{name: ctypes.addressof(a) for name, a in arrays.items()})
        self._ref = ctypes.byref(self._point)
        self._run = lib.cpass_cfd if cfd else lib.cpass_noncfd

    def add(self, start: int, n: int) -> int:
        """Run trials start..start+n-1 and add their state counts to hist;
        returns the trials walked: n, or fewer where a quota's last pair
        filled.  Their states and voltages overwrite codes and volts."""
        if self._point.codes and not 0 < n <= self.capacity:
            raise ValueError(f"chunk of {n} trials, capacity {self.capacity}")
        return self._run(self._ref, start, n)


def _lib_trig(lib, us):
    """(cos 2phi1, sin 2phi1) of phi1 = TWO_PI * u for each u of the list
    us, as lists: lib's cpass_trig, law.trig's twin."""
    n = len(us)
    c, s = (ctypes.c_double * n)(), (ctypes.c_double * n)()
    lib.cpass_trig(ctypes.byref(_CONSTANTS), _doubles(us), n, c, s)
    return c[:], s[:]


def trig_of(us):
    """(cos 2phi1, sin 2phi1) of phi1 = TWO_PI * u for each u of the list
    us, as lists: by CPASS (_lib_trig), or by law.trig where no library
    loaded."""
    if CPASS is not None:
        return _lib_trig(CPASS, us)
    import numpy as np
    from .law import trig
    return tuple(t.tolist() for t in trig(np.array(us)))


# ------------------------------------------------------------ the formatter

class CPassColumn(ctypes.Structure):
    """struct cpass_column of _cpass.c: one column of format_csv."""

    _fields_ = [("kind", ctypes.c_int64), ("data", ctypes.c_void_p),
                ("stride", ctypes.c_int64), ("length", ctypes.c_int64)]


_TEXT, _INT64, _FLOAT64, _INT8 = 0, 1, 2, 3
# The widest field of each kind: str(-2**63), '%.17g' of
# -2.2250738585072014e-308, and str(-128).
_WIDTH = {_INT64: 20, _FLOAT64: 24, _INT8: 4}


class CsvFormat:
    """The columns of cpass_format for rows of columns like these, built
    once and pointed at each set of rows in turn (write).

    A column is bytes (the same text in every row), an integer array
    (written as str writes it; see law.integer_column: int8 and int64 are
    read in place, strided or not) or a float array ('%.17g'); a 2-D
    array stands for its columns, in order.  Each set of columns that
    write takes must have the same texts, dtypes and shapes but the
    rows'.
    """

    def __init__(self, columns):
        self._specs = []  # (first field, fields, kind, text or dtype)
        self._texts = []  # the buffers that the text fields point into
        fields = []
        for col in columns:
            if isinstance(col, bytes):
                text = ctypes.create_string_buffer(col, len(col) or 1)
                self._texts.append(text)
                self._specs.append((len(fields), 1, _TEXT, col))
                fields.append(CPassColumn(_TEXT, ctypes.addressof(text), 0,
                                          len(col)))
            else:
                kind = _FLOAT64 if col.dtype.kind == "f" \
                    else _INT8 if col.dtype.str == "|i1" else _INT64
                count = col.shape[1] if col.ndim == 2 else 1
                self._specs.append((len(fields), count, kind, col.dtype))
                fields += [CPassColumn(kind) for _ in range(count)]
        self._fields = (CPassColumn * len(fields))(*fields)
        self._views = list(self._fields)  # each field, in place
        # the bytes a row takes, at most
        self.width = 1 + sum(1 + (f.length if f.kind == _TEXT
                                  else _WIDTH[f.kind]) for f in fields)

    def write(self, lib, columns, buffer=None):
        """The CSV lines of columns, formatted by lib's cpass_format: one
        line per row, its fields joined by ',' and ended by '\\n'.

        The lines go into buffer, a writable memoryview, replaced by a
        larger one when it is too small.  Returns (buffer, the number of
        bytes written).
        """
        n = next(len(c) for c in columns if not isinstance(c, bytes))
        keep = []  # the arrays that the fields point into
        for (first, count, kind, key), col in zip(self._specs, columns):
            if kind == _TEXT:
                if col != key:
                    raise ValueError("a text column changed")
                continue
            if len(col) != n:
                raise ValueError("columns of different lengths")
            if col.dtype != key or (col.shape[1] if col.ndim == 2
                                    else 1) != count:
                raise ValueError("a column changed its dtype or shape")
            if kind == _FLOAT64 and col.dtype.str != "<f8":
                col = col.astype("float64")
            elif kind == _INT64 and col.dtype.str != "<i8":
                from .law import integer_column
                col = integer_column(col)
            data, stride, step = col.ctypes.data, col.strides[0], \
                col.strides[-1]
            for c, field in enumerate(self._views[first:first + count]):
                field.data, field.stride = data + c * step, stride
            keep.append(col)
        if buffer is None or buffer.nbytes < n * self.width:
            buffer = memoryview(bytearray(n * self.width))
        out = ctypes.addressof(ctypes.c_char.from_buffer(buffer)) \
            if buffer.nbytes else None
        return buffer, lib.cpass_format(self._fields, len(self._fields), n,
                                        out)


def format_csv(lib, columns, buffer=None):
    """CsvFormat(columns).write(lib, columns, buffer): the CSV lines of
    equal-length columns, and the bytes written."""
    return CsvFormat(columns).write(lib, columns, buffer)


# ------------------------------------------------------------------ loading

_CPUINFO = "/proc/cpuinfo"


def _cpu_flags():
    """The names on the first 'flags' line of _CPUINFO, or None where the
    host has no such file or line."""
    try:
        with open(_CPUINFO, encoding="ascii", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "flags":
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
    """A hash of the CPU's features: the flags of /proc/cpuinfo, or, on a
    host without them, the features numpy found (importing numpy only
    there).  None where neither names any.  An extension that the source
    of the names does not name is not in the hash: two CPUs that differ
    only in one share a library."""
    names = _cpu_flags()
    if names is None:
        names = _numpy_features()
    return sha256(" ".join(sorted(names)).encode()).hexdigest()[:8] \
        if names else None


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
# rounding goes to the even digit (1 + 2**-17 down; 26215 * 2**-18 up and
# -26217 * 2**-18 down, in a binade that holds 0.1; 196611 * 2**-18 up
# and -196609 * 2**-18 down, in the voltages' binade [1/2, 1)), the
# smallest subnormal, both ends of fixed notation and values past them,
# signed zeros, infinities and nans; the ends of int64, int64s of 7, 8
# and 9 digits (the last two on either side of put_int's one-word path),
# and the ends of int8.
_CHECK_FLOATS = [1 + 2.0 ** -17, 26215 * 2.0 ** -18, -26217 * 2.0 ** -18,
                 196611 * 2.0 ** -18, -196609 * 2.0 ** -18, 5e-324, 1e16,
                 1e17, 1e-4, 1e-5, 0.0, -0.0, math.inf, -math.inf, math.nan,
                 math.copysign(math.nan, -1.0), -0.7071067811865476,
                 123456789.125]
_CHECK_INTS = [-2 ** 63, 2 ** 63 - 1, 0, -1, 7, 10 ** 18, -1234567, 99999999,
               100000000] + [0] * (len(_CHECK_FLOATS) - 9)
_CHECK_INT8S = ([-128, 127, -1, 0, 1, 9, 10, -10] * 3)[:len(_CHECK_FLOATS)]
_CHECK_CSV = "".join(
    "%.17g,t,%d,%d\n" % row
    for row in zip(_CHECK_FLOATS, _CHECK_INTS, _CHECK_INT8S)).encode()


def _formats(lib) -> bool:
    """Whether lib's cpass_format gives Python's bytes of _CHECK_FLOATS,
    _CHECK_INTS and _CHECK_INT8S, a row each, with a text column."""
    n = len(_CHECK_FLOATS)
    text = ctypes.create_string_buffer(b"t", 1)
    columns = [(_FLOAT64, (ctypes.c_double * n)(*_CHECK_FLOATS)),
               (_TEXT, text),
               (_INT64, (ctypes.c_int64 * n)(*_CHECK_INTS)),
               (_INT8, (ctypes.c_int8 * n)(*_CHECK_INT8S))]
    fields = (CPassColumn * len(columns))(*(
        CPassColumn(kind, ctypes.addressof(data), ctypes.sizeof(data) // n,
                    len(text) if kind == _TEXT else 0)
        for kind, data in columns))
    width = 1 + sum(1 + _WIDTH.get(kind, len(text)) for kind, _ in columns)
    out = ctypes.create_string_buffer(n * width)
    size = lib.cpass_format(fields, len(columns), n, out)
    return out.raw[:size] == _CHECK_CSV


# The known-answer check of the pass: a chunk of 200 CFD trials (a block
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


def _check_params(d: float) -> ModelParams:
    return ModelParams(d=d, v_min_mag=0.3, threshold=-0.65)


def _pass_agrees(lib) -> bool:
    """Whether lib's CFD pass, cpass_trig giving its turns, gives the
    states and voltages of _PASS_DIGESTS, and counts its states."""
    turns = list(zip(*_lib_trig(lib, _CHECK_U)))
    codes = (ctypes.c_uint8 * _CHECK_N)()
    volts = (ctypes.c_double * (4 * _CHECK_N))()
    for d, digests in _PASS_DIGESTS.items():
        point = Compiled(lib, True, _check_params(d), turns, _CHECK_ORIGINS,
                         capacity=_CHECK_N, codes=ctypes.addressof(codes),
                         volts=ctypes.addressof(volts))
        point.add(_CHECK_START, _CHECK_N)
        counts = [0] * 256
        for state in codes:
            counts[state] += 1
        if (sha256(bytes(codes)).hexdigest(),
                sha256(bytes(volts)).hexdigest()) != digests \
                or point.hist[:] != counts:
            return False
    return True


def load_cpass(source: str = _SOURCE, cache: str = _CACHE):
    """The compiled pass of source, built into cache at first use.

    None where it cannot be built or loaded, where its pass, counter hash
    included, does not reproduce numpy_chunk (_pass_agrees), or where its
    formatter does not reproduce Python's bytes (_formats).
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
            fn.restype = ctypes.c_int64
        lib.cpass_trig.argtypes = (ctypes.POINTER(CPassPoint),
                                   ctypes.POINTER(ctypes.c_double),
                                   ctypes.c_int64,
                                   ctypes.POINTER(ctypes.c_double),
                                   ctypes.POINTER(ctypes.c_double))
        lib.cpass_trig.restype = None
        lib.cpass_format.argtypes = (ctypes.POINTER(CPassColumn),
                                     ctypes.c_int64, ctypes.c_int64,
                                     ctypes.c_void_p)
        lib.cpass_format.restype = ctypes.c_int64
    except (OSError, AttributeError):
        return None
    if not (_pass_agrees(lib) and _formats(lib)):
        return None
    return lib


CPASS = load_cpass()
BACKEND = "numpy" if CPASS is None else "c"
