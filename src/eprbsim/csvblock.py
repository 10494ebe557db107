"""Byte-exact CSV formatting of numeric records, a block at a time.

`format_records` turns equal-length columns into the bytes of one CSV
line per row, identical to joining `str(int(value))` for integer columns,
`'%.17g' % value` for float columns and constant text with commas.  Each
field is laid out in a fixed-width slice of one uint8 matrix, with a
keep-mask that drops its padding, so a block of rows costs a few numpy
passes instead of one string per line.

Floats take an exact numpy path when the platform's long double carries
a 64-bit significand (x87 extended precision) and the value prints in
fixed notation.  For e10 = floor(log10|v|) in [-4, 16], the product
|v| * 10**(16 - e10) lies below 10**17 < 2**57: 10**k is exact in long
double for k <= 27, so the product's only rounding error is at most
2**-8.  Its nearest integer D is then the correctly rounded 17-digit
significand that '%.17g' prints, unless the product lies within 2**-7 of
a .5 tie or D falls outside [10**16, 10**17) (e10 misjudged by log10, or
rounding carried into an 18th digit).  Those values, zero, non-finite
values, values that print in exponential notation and every value on a
platform without such a long double are formatted by Python's '%.17g'.
"""
from __future__ import annotations

import numpy as np

# Rows per block: bounds the byte matrices of one call to a few MB.
BLOCK = 1 << 14

# Whether long double products below 2**57 round by at most 2**-8.
LONGDOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63

_DIGITS = 17
_E10_MIN, _E10_MAX = -4, 16
# The longest '%.17g' of a double, e.g. '-2.2250738585072014e-308'.
_FLOAT_WIDTH = 24
# 10**k for k <= 20, exact in float64 and hence in long double.
_POW10_LD = (10.0 ** np.arange(_DIGITS - _E10_MIN)).astype(np.longdouble)
_POW10_U64 = np.array([10 ** k for k in range(20)], np.uint64)
_TIE_MARGIN = 2.0 ** -7

_ZERO, _MINUS, _POINT = ord("0"), ord("-"), ord(".")


def _write_digits(out: np.ndarray, mag: np.ndarray) -> None:
    """ASCII digits of uint64 magnitudes into out's columns, zero padded."""
    ten = np.uint64(10)
    q = mag
    for col in range(out.shape[1] - 1, -1, -1):
        q_next = q // ten
        out[:, col] = q - q_next * ten + np.uint64(_ZERO)
        q = q_next


def _int_width(v: np.ndarray) -> int:
    return 1 + len(str(int(np.abs(v).max())))


def _write_int(chars, keep, v: np.ndarray) -> None:
    """str(int(x)) of each x in v: a sign column, then zero-padded digits."""
    mag = np.abs(v).astype(np.uint64)
    width = chars.shape[1] - 1
    chars[:, 0] = _MINUS
    keep[:, 0] = v < 0
    _write_digits(chars[:, 1:], mag)
    # Digit j is a leading zero unless mag >= 10**(width - 1 - j).
    np.greater_equal(mag[:, None], _POW10_U64[width - 1:0:-1],
                     out=keep[:, 1:-1])
    keep[:, -1] = True


def _significands(a: np.ndarray):
    """(fast, e10, D) of magnitudes a.  Where fast is True, a prints in
    fixed notation with decimal exponent e10 and 17-digit significand D."""
    fast = np.isfinite(a) & (a > 0.0)
    if not LONGDOUBLE_EXACT:
        return np.zeros_like(fast), None, None
    e10 = np.floor(np.log10(np.where(fast, a, 1.0)))
    fast &= (e10 >= _E10_MIN) & (e10 <= _E10_MAX)
    e10 = np.where(fast, e10, 0.0).astype(np.int64)
    scaled = np.where(fast, a, 1.0).astype(np.longdouble) \
        * _POW10_LD[_DIGITS - 1 - e10]
    d = np.rint(scaled)
    fast &= (np.abs(scaled - d) < 0.5 - _TIE_MARGIN) \
        & (d >= _POW10_LD[_DIGITS - 1]) & (d < _POW10_LD[_DIGITS])
    d[~fast] = _POW10_LD[_DIGITS - 1]
    return fast, e10, d.astype(np.uint64)


def _write_float(chars, keep, v: np.ndarray) -> None:
    """'%.17g' % x of each x in v, left aligned after a sign column."""
    n, width = chars.shape
    fast, e10, sig = _significands(np.abs(v))
    chars[:, 0] = _MINUS
    chars[:, 1:] = _ZERO
    if fast.any():
        digits = np.empty((n, _DIGITS), np.uint8)
        _write_digits(digits, sig)
        # Index of the last nonzero digit; the first digit is never zero.
        last_nz = _DIGITS - 1 - np.argmax(digits[:, ::-1] != _ZERO, axis=1)
        # Exponent g >= 0 prints g + 1 integer digits, '.' and the rest;
        # g < 0 prints '0.', -g - 1 zeros and all 17 digits.  Trailing
        # zeros, and a '.' they leave bare, are dropped.
        frac_kept = np.maximum(last_nz - e10, 0)
        last_col = np.where(
            e10 >= 0,
            np.where(frac_kept > 0, e10 + 2 + frac_kept, e10 + 1),
            2 - e10 + last_nz)
        keep[:, 0] = v < 0.0
        np.less_equal(np.arange(1, width), last_col[:, None], out=keep[:, 1:])
        counts = np.bincount(e10[fast] - _E10_MIN,
                             minlength=_E10_MAX - _E10_MIN + 1)
        for g in np.flatnonzero(counts) + _E10_MIN:
            rows = True if counts[g - _E10_MIN] == n else \
                (fast & (e10 == g))[:, None]
            if g >= 0:
                np.copyto(chars[:, 1:g + 2], digits[:, :g + 1], where=rows)
                np.copyto(chars[:, g + 2:g + 3], _POINT, where=rows)
                np.copyto(chars[:, g + 3:_DIGITS + 2], digits[:, g + 1:],
                          where=rows)
            else:
                np.copyto(chars[:, 2:3], _POINT, where=rows)
                np.copyto(chars[:, 2 - g:_DIGITS + 2 - g], digits, where=rows)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [("%.17g" % x).encode() for x in v[slow].tolist()]
        chars[slow] = np.frombuffer(b"".join(t.ljust(width) for t in text),
                                    np.uint8).reshape(-1, width)
        lengths = np.array([len(t) for t in text])
        keep[slow] = np.arange(width) < lengths[:, None]


def format_records(columns) -> bytes:
    """CSV lines of equal-length columns, one per row, each ending in '\\n'.

    A column is bytes (the same text in every row), an integer array or a
    float array.
    """
    # A field is constant text, or (width, writer, array) for an array.
    fields = []
    for i, col in enumerate(columns):
        if i:
            fields.append(b",")
        if isinstance(col, bytes):
            fields.append(col)
            continue
        col = np.asarray(col)
        if np.issubdtype(col.dtype, np.floating):
            fields.append((_FLOAT_WIDTH, _write_float, col))
        else:
            col = col.astype(np.int64)
            fields.append((_int_width(col), _write_int, col))
    fields.append(b"\n")
    n = next(len(f[2]) for f in fields if not isinstance(f, bytes))
    widths = [len(f) if isinstance(f, bytes) else f[0] for f in fields]
    chars = np.empty((n, sum(widths)), np.uint8)
    keep = np.empty(chars.shape, bool)
    start = 0
    for field, width in zip(fields, widths):
        span = slice(start, start + width)
        if isinstance(field, bytes):
            chars[:, span] = np.frombuffer(field, np.uint8)
            keep[:, span] = True
        else:
            _width, write, col = field
            write(chars[:, span], keep[:, span], col)
        start += width
    return chars[keep].tobytes()


def write_records(fh, columns) -> None:
    """Write format_records(columns) to the binary file fh, BLOCK rows at a
    time, so memory beyond the columns does not grow with their length."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    for start in range(0, n, BLOCK):
        rows = slice(start, start + BLOCK)
        fh.write(format_records([c if isinstance(c, bytes) else c[rows]
                                 for c in columns]))
