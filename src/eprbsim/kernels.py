"""Hot numeric kernels: numpy, and the compiled chunk pass.

Random numbers come from a counter-based generator: draw k of a stream
is a pure function of (stream origin, k), so any chunking or parallel
schedule reproduces the same values.  The mixing function is the
standard 64-bit xorshift-multiply finalizer used by splitmix-style
generators.

station_response is the exact station law on arrays.  The streaming
passes (experiment.cfd_counts and experiment.noncfd_counts) certify most
flags without it and call it only for the evaluations near a decision
boundary; the trial dump's runs (experiment.run_cfd and
experiment.run_noncfd) call it at every station.

The streaming passes have two implementations of one chunk: numpy's, in
experiment, and _cpass.c, which does the same float operations in the
same order, a block of trials at a time, in one call per chunk, so that
every value and every certified flag is numpy's, bit for bit.  The same
library formats the trial dump's records (format_csv), with the bytes
of Python's str and '%.17g'.
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
(its hash against fill_uniforms, its formatter against Python's);
BACKEND names the pass in use, "c" or "numpy", and the passes and the
trial dump read it at each call.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import math
import os

import numpy as np

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
    """Vectorized station response; see station.station_respond for the law.

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


_SOURCE = os.path.join(os.path.dirname(__file__), "_cpass.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
# No -ffast-math and no contraction into fused multiply-adds, with either
# flag set: each + - * must round once, as numpy's does.  Functions start
# on 64-byte boundaries, so that code added to the library does not shift
# the passes' loops across cache lines (without it, adding cpass_format
# slowed the passes by 2-3%).  _NATIVE_CFLAGS let cc use every
# instruction of the host's CPU: the counter hash, all integer, then runs
# in the widest vectors, about twice as fast on a CPU with AVX-512.
# _CFLAGS are the portable ones, where those do not compile or the CPU
# is not known.
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
            "origins", "cos_table", "sin_table", "turns")],
        *[(name, ctypes.c_double) for name in (
            "scale", "step", "cos_4", "sin_3", "sin_5",
            "x_lo", "x_hi", "q_lo", "q_hi", "d")],
        ("power", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        *[(name, ctypes.c_void_p) for name in (
            "hist", "codes", "pending", "pending_u", "pending_state",
            "pending_unsure")],
    ]


class CPassColumn(ctypes.Structure):
    """struct cpass_column of _cpass.c: one column of format_csv."""

    _fields_ = [("kind", ctypes.c_int64), ("data", ctypes.c_void_p),
                ("stride", ctypes.c_int64), ("length", ctypes.c_int64)]


_TEXT, _INT64, _FLOAT64 = 0, 1, 2
# The widest field of each kind: str(-2**63), and '%.17g' of
# -2.2250738585072014e-308.
_WIDTH = {_INT64: 20, _FLOAT64: 24}


def format_csv(lib, columns, buffer=None):
    """The CSV lines of equal-length columns, formatted by lib's
    cpass_format: one line per row, its fields joined by ',' and ended
    by '\\n'.

    A column is bytes (the same text in every row), an integer array
    (written as str writes it) or a float array ('%.17g').  The lines go
    into buffer, a uint8 array, replaced by a larger one when it is too
    small.  Returns (buffer, the number of bytes written).
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
            floating = np.issubdtype(col.dtype, np.floating)
            field.kind = _FLOAT64 if floating else _INT64
            col = np.asarray(col, np.float64 if floating else np.int64)
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


# The known-answer check of cpass_format: a tie that the fast path
# leaves to the C library (1 + 2**-17), the smallest subnormal, both
# ends of fixed notation and values past them, signed zeros, infinities
# and nans, and the ends of int64.
_CHECK_FLOATS = np.array([1 + 2.0 ** -17, 5e-324, 1e16, 1e17, 1e-4, 1e-5,
                          0.0, -0.0, math.inf, -math.inf, math.nan,
                          math.copysign(math.nan, -1.0), -0.7071067811865476,
                          123456789.125])
_CHECK_INTS = np.array([-2 ** 63, 2 ** 63 - 1, 0, -1, 7, 10 ** 18] +
                       [0] * (len(_CHECK_FLOATS) - 6), np.int64)
_CHECK_CSV = "".join(
    "%.17g,t,%d\n" % row
    for row in zip(_CHECK_FLOATS.tolist(), _CHECK_INTS.tolist())).encode()


def load_cpass(source: str = _SOURCE, cache: str = _CACHE):
    """The compiled pass of source, built into cache at first use.

    None where it cannot be built or loaded, where its hash does not
    reproduce fill_uniforms, or where its formatter does not reproduce
    Python's bytes of _CHECK_FLOATS and _CHECK_INTS.
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
        lib.cpass_uniforms.argtypes = (ctypes.c_uint64, ctypes.c_uint64,
                                       ctypes.c_int64, ctypes.c_void_p)
        lib.cpass_uniforms.restype = None
        lib.cpass_format.argtypes = (ctypes.POINTER(CPassColumn),
                                     ctypes.c_int64, ctypes.c_int64,
                                     ctypes.c_void_p)
        lib.cpass_format.restype = ctypes.c_int64
    except (OSError, AttributeError):
        return None
    start, got = 2 ** 40 - 5, np.empty(16)
    lib.cpass_uniforms(GOLDEN, start, got.size, got.ctypes.data)
    if not np.array_equal(got, fill_uniforms(_GOLDEN_U64, start, got.size)):
        return None
    buffer, size = format_csv(lib, [_CHECK_FLOATS, b"t", _CHECK_INTS])
    if buffer[:size].tobytes() != _CHECK_CSV:
        return None
    return lib


CPASS = load_cpass()
BACKEND = "numpy" if CPASS is None else "c"
