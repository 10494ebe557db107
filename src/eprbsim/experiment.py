"""Event-by-event experiment runners.

The CFD (counterfactually definite) mode sends the same source pair
through both settings of each side, producing a quadruple of outcomes
per trial.  The non-CFD mode flips a fair coin per side per trial and
records only the chosen pair of settings.  All randomness is drawn from
counter-based streams keyed by trial index, so runs are bit-reproducible
for a given seed regardless of chunking or worker count.

Every statistic a sweep reports depends on a trial only through its
state: the outcome signs and identification flags of its stations.  A
run therefore reduces to integer counts of states (`state_counts`).
`cfd_counts` and `noncfd_counts` stream a point chunk by chunk into
those counts, in counter order and without keeping per-trial arrays.
Both certify each flag from cheaper trig wherever the flag is provably
that of the exact station law (`_station_flags`), and evaluate the
exact law for the rest (`_settle`).  A chunk runs in numpy or, where
kernels.BACKEND is "c", in the compiled pass of _cpass.c (`_Compiled`),
with the same float operations and so the same flags.  `run_cfd` and
`run_noncfd` draw one chunk of the same pass, evaluate the exact law at
every station and keep the chunk's per-trial arrays, for the trial
dump, which sweep._TrialDumper writes a chunk at a time (formatted by
the compiled library where kernels.BACKEND is "c").
"""
from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng, station, stats
from .params import HALF_PI, TWO_PI, ModelParams, SettingsQuad

# Column order of the per-trial station arrays in CFD runs.
STATION_NAMES = ("a1", "a1p", "a2", "a2p")
# (side-1 column, side-2 column) per setting pair, in fixed pair order
# 11=(a1,a2), 12=(a1,a2p), 21=(a1p,a2), 22=(a1p,a2p).
PAIR_COLUMNS = ((0, 2), (0, 3), (1, 2), (1, 3))
PAIR_NAMES = ("11", "12", "21", "22")

# Trials per chunk of the streaming passes: memory per point is O(CHUNK),
# and a chunk's arrays fit a core's 2 MB L2 cache.
CHUNK = 1 << 13

# Streams of one chunk of the streaming CFD pass: the source, then the r
# and the rhat stream of each station in STATION_NAMES order.
_CHUNK_STREAMS = (rng.SOURCE, *rng.R_STREAMS, *rng.RHAT_STREAMS)

# Streams of one chunk of the streaming non-CFD pass: the source, the
# setting coin of each side, then the r and the rhat stream of each side.
_NONCFD_STREAMS = (rng.SOURCE, rng.CHOICE_1, rng.CHOICE_2, rng.R_1, rng.R_2,
                   rng.RHAT_1, rng.RHAT_2)

# Error bound used for every certified cos 2(a - phi) and sin 2(a - phi)
# of the streaming passes; see _flag_bounds.
MARGIN = 2.0 ** -30

# State of a trial over k stations: bit c is set when station c gave
# x = +1, bit k + c when it identified a photon.  A CFD trial (k = 4) has
# 256 states, counts[16 * flag_bits + outcome_bits]; a setting pair
# (k = 2) has the 16 that stats.pair_statistics reads.
# Outcome quadruple (STATION_NAMES order) of each of the 16 outcome_bits.
QUADRUPLES = 2 * ((np.arange(16)[:, None] >> np.arange(4)) & 1) - 1


def _fold_matrix():
    """(4, 256, 16) 0/1 map from CFD states to each pair's states."""
    s = np.arange(256)
    fold = np.zeros((4, 256, 16), np.int64)
    for p, (i, j) in enumerate(PAIR_COLUMNS):
        bits = [(s >> b) & 1 for b in (i, j, 4 + i, 4 + j)]
        fold[p, s, bits[0] | bits[1] << 1 | bits[2] << 2 | bits[3] << 3] = 1
    return fold


_PAIR_FOLD = _fold_matrix()


def _phi1_of(u: np.ndarray) -> np.ndarray:
    """Side-1 polarization angles, uniform on [0, 2 pi), of draws u."""
    return np.multiply(TWO_PI, u)


def _orthogonal(phi1: np.ndarray) -> np.ndarray:
    """Side-2 polarization angles of the pairs whose side-1 angles are phi1."""
    return np.mod(phi1 + HALF_PI, TWO_PI)


def source_phis(seed: int, n: int, start: int = 0):
    """Polarization angles of n source pairs: phi1 uniform, phi2 orthogonal."""
    phi1 = _phi1_of(rng.uniforms(seed, rng.SOURCE, n, start))
    return phi1, _orthogonal(phi1)


@dataclass
class CfdRun:
    """CFD trials start..start+n-1: all four stations observed per trial.

    x, v, w are (n, 4) arrays in STATION_NAMES column order; counts
    holds the 256 state counts of those trials.
    """

    params: ModelParams
    quad: SettingsQuad
    n: int
    seed: int
    phi1: np.ndarray
    phi2: np.ndarray
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    counts: np.ndarray
    start: int = 0


@dataclass
class NonCfdRun:
    """The records of non-CFD trials start..start+n_trials-1: the n
    trials that their setting pair kept (see run_noncfd), in counter
    order.

    k holds their trial indices; a, x, v, w are (n, 2) arrays of the
    settings, outcomes, voltages and flags of side 1 and side 2.  counts
    holds each setting pair's 16 state counts, in PAIR_NAMES order.
    """

    params: ModelParams
    quad: SettingsQuad
    quota: int
    seed: int
    start: int
    n_trials: int
    n: int
    k: np.ndarray
    a: np.ndarray
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    counts: np.ndarray


def _check_quadruple_identities(x: np.ndarray) -> None:
    """Per-trial algebraic identities of +-1 quadruples; hard errors."""
    if not np.all(np.abs(stats.quadruple_s(*x.T)) == 2):
        raise RuntimeError("CFD identity violated: s outside {-2, +2}")
    for b in stats.quadruple_b(*x.T):
        if not np.all((b == -1) | (b == 3)):
            raise RuntimeError("CFD identity violated: b outside {-1, +3}")


def state_counts(x_cols, w_cols) -> np.ndarray:
    """Counts of the 4**k trial states of k stations' outcomes and flags.

    x_cols and w_cols are k same-length columns of outcomes and 0/1
    identification flags.  Every outcome must be -1 or +1, since the
    state keeps only whether it is +1.
    """
    k = len(x_cols)
    state = np.zeros(len(x_cols[0]), np.uint8)
    for c, (xc, wc) in enumerate(zip(x_cols, w_cols)):
        plus = xc == 1
        if not np.all(plus | (xc == -1)):
            raise RuntimeError("outcome outside {-1, +1}")
        state |= plus.view(np.uint8) << c
        state |= np.asarray(wc, np.uint8) << (k + c)
    return np.bincount(state, minlength=4 ** k)


def pair_counts(counts: np.ndarray) -> np.ndarray:
    """Fold 256 CFD state counts into (4, 16) setting-pair state counts."""
    return counts @ _PAIR_FOLD


def _check_identities(counts: np.ndarray) -> None:
    """The quadruple identities over every quadruple the counts hold.

    They depend on the quadruple alone, so checking each distinct one
    that occurs is the per-trial check.
    """
    seen = counts.reshape(16, 16).sum(axis=0) > 0
    _check_quadruple_identities(QUADRUPLES[seen])


def _draws(seed: int, n: int, start: int = 0, origins=None):
    """Source angles and station uniforms of trials start..start+n-1.

    origins is rng.stream_origins(seed, _CHUNK_STREAMS), computed here
    when None.
    """
    if origins is None:
        origins = rng.stream_origins(seed, _CHUNK_STREAMS)
    u = kernels.fill_uniforms(origins, start, n)
    phi1 = _phi1_of(u[0])
    return phi1, _orthogonal(phi1), u[1:5], u[5:9]


def _respond(params: ModelParams, quad: SettingsQuad, phi1, phi2, r_cols,
             rhat_cols):
    """(x, v) of each of the four stations, in STATION_NAMES order."""
    phis = (phi1, phi1, phi2, phi2)
    return [kernels.station_response(a, phi, r, rhat, params.d,
                                     params.v_min_mag, params.v_max_mag)
            for a, phi, r, rhat in zip(quad.as_tuple(), phis, r_cols,
                                       rhat_cols)]


def cfd_from_inputs(params: ModelParams, quad: SettingsQuad, phi1, phi2,
                    r_cols, rhat_cols, n: int | None = None,
                    seed: int = 0, start: int = 0) -> CfdRun:
    """Evaluate a CFD run from explicit inputs (test hook).

    r_cols and rhat_cols are sequences of four arrays in STATION_NAMES
    order; they are the draws of trials start..start+n-1.
    """
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    if n is None:
        n = phi1.shape[0]
    x = np.empty((n, 4), np.int8)
    v = np.empty((n, 4), np.float64)
    for col, (xc, vc) in enumerate(_respond(params, quad, phi1, phi2, r_cols,
                                            rhat_cols)):
        x[:, col] = xc
        v[:, col] = vc
    w = station.identify_photon(v, params.threshold)
    counts = state_counts(x.T, w.T)
    _check_identities(counts)
    return CfdRun(params=params, quad=quad, n=n, seed=seed,
                  phi1=phi1, phi2=phi2, x=x, v=v, w=w, counts=counts,
                  start=start)


def _validate_run(n: int, seed: int) -> None:
    rng.validate_seed(seed)
    if n < 1:
        raise ValueError("n must be >= 1")


def run_cfd(params: ModelParams, quad: SettingsQuad, n: int, seed: int,
            start: int = 0, origins=None) -> CfdRun:
    """Simulate CFD trials start..start+n-1; every station gets fresh
    draws each trial, and the exact station law evaluates each one.

    A caller that runs a point chunk by chunk passes its origins,
    rng.stream_origins(seed, _CHUNK_STREAMS), computed once.
    """
    _validate_run(n, seed)
    return cfd_from_inputs(params, quad, *_draws(seed, n, start, origins),
                           n=n, seed=seed, start=start)


def _flag_bounds(params: ModelParams) -> tuple[float, float, float, float]:
    """Certification bounds of the decision values of _station_flags.

    Returns (x_lo, x_hi, q_lo, q_hi).  x = +1 is certain where
    c/2 - r > x_hi and x = -1 where c/2 - r < x_lo; w = 1 is certain
    where q = rhat * |s|**d < q_lo and w = 0 where q > q_hi.  Here c, s
    are the certified cos and sin of 2(a - phi), each within MARGIN of
    the exact kernel's (within MARGIN / 2**15 in fact; CHANGES.md gives
    the argument).  The float rounding and power errors of q and of the
    kernel's voltage are below 2**-46 of top + (v_max - threshold) / span;
    the bounds allow 2**-40 of it.
    """
    m, d, span = MARGIN, params.d, params.span
    x_lo, x_hi = -0.5 - m, -0.5 + m
    if params.threshold + params.v_max_mag <= 0.0:
        # v >= -v_max_mag = threshold, so no station identifies a photon;
        # this also covers span == 0, where the threshold must be -v_max_mag
        # and kappa is undefined.
        return x_lo, x_hi, -math.inf, -math.inf
    try:
        top = (1.0 + m) ** d  # bounds |s|**d, certified or exact
        if d == 0.0:
            dp = 0.0  # pow(x, 0) is exactly 1
        elif d < 1.0:
            dp = m ** d  # |a**d - b**d| <= |a - b|**d
        else:
            dp = d * (1.0 + m) ** (d - 1.0) * m  # mean value theorem
    except OverflowError:
        return x_lo, x_hi, -math.inf, math.inf
    kappa = params.kappa
    mq = dp + 2.0 ** -40 * (top + (params.v_max_mag - params.threshold)
                            / span)
    return x_lo, x_hi, kappa - mq, kappa + mq


def _turns(quad: SettingsQuad) -> list[tuple[float, float]]:
    """(ca, sa) per station, such that cos 2(a - phi) = ca cos 2phi1 +
    sa sin 2phi1 and sin 2(a - phi) = sa cos 2phi1 - ca sin 2phi1.

    On side 1 they are cos 2a and sin 2a; side 2 negates both, because
    2phi2 = 2phi1 + pi (mod 2pi).
    """
    return [(sign * math.cos(2.0 * a), sign * math.sin(2.0 * a))
            for sign, a in zip((1.0, 1.0, -1.0, -1.0), quad.as_tuple())]


def _chunk_buffers(n: int, streams: int, stations: int, bits: int):
    """Arrays of a streaming pass for chunks of up to n trials.

    They hold the uniforms of the streams and their hash words, the work
    of the stations and the state bits of each trial.  A point allocates
    them once and every chunk reuses them, so the pass does not
    allocate, and page-fault, once per chunk.
    """
    return (np.empty((streams, n)),             # uniforms
            np.empty((streams, n), np.uint64),  # their hash words
            np.empty((2, n)),                   # cos 2phi1, sin 2phi1
            np.empty(n, np.intp),               # their table indices
            np.empty((3, stations, n)),         # float work
            np.empty((2, stations, n), bool),   # bool work
            np.empty((bits, n), bool),          # state bits
            np.empty((bits, n), np.uint8),      # weighted state bits
            np.empty(n, np.uint8))              # states


# cos and sin of 2 pi k / 2**_TABLE_BITS for k < 2**(_TABLE_BITS + 1):
# the nodes of _trig over two turns, since 2 phi1 / 2 pi = 2u lies in
# [0, 2).  The second turn repeats the first.
_TABLE_BITS = 10
_NODES = TWO_PI * (np.arange(1 << _TABLE_BITS) * 2.0 ** -_TABLE_BITS)
_COS_TABLE = np.tile(np.cos(_NODES), 2)
_SIN_TABLE = np.tile(np.sin(_NODES), 2)
# Spacing of the nodes, exactly TWO_PI / 2**_TABLE_BITS, and the Taylor
# coefficients of cos x - 1 (to x**4) and sin x (to x**5) for the offset
# 0 <= x < _STEP from a node.
_STEP = TWO_PI * 2.0 ** -_TABLE_BITS
_COS_4 = 1.0 / 24.0
_SIN_3 = -1.0 / 6.0
_SIN_5 = 1.0 / 120.0


def _trig(u, trig, index, work) -> None:
    """trig = (cos 2phi1, sin 2phi1) of phi1 = _phi1_of(u), from a table.

    2phi1 is 2 pi (j + f) / 2**_TABLE_BITS up to the rounding of phi1,
    with j = floor(v), f = v - j and v = u * 2**(_TABLE_BITS + 1), all
    three exact.  With x = f * _STEP and the node values T_c[j], T_s[j],
    cos 2phi1 = T_c + (T_c (cos x - 1) - T_s sin x) and sin 2phi1 =
    T_s + (T_s (cos x - 1) + T_c sin x), where short Horner polynomials
    give cos x - 1 and sin x.  Each value is within 59 * 2**-53 of the
    exact one (CHANGES.md gives the argument), and there is no libm
    call.  index (intp) and the four float arrays of work are scratch
    of u's shape.
    """
    v, z, cm1, sx = work
    np.multiply(u, 2.0 ** (_TABLE_BITS + 1), out=v)
    np.copyto(index, v, casting="unsafe")  # floor, since v >= 0
    v -= index
    x = np.multiply(v, _STEP, out=v)
    np.multiply(x, x, out=z)
    np.multiply(z, _COS_4, out=cm1)
    cm1 -= 0.5
    cm1 *= z
    np.multiply(z, _SIN_5, out=sx)
    sx += _SIN_3
    sx *= z
    sx *= x
    sx += x
    # index < 2**(_TABLE_BITS + 1), so mode="wrap" never wraps; it skips
    # the buffered bounds check of the default.
    tc = _COS_TABLE.take(index, out=v, mode="wrap")
    ts = _SIN_TABLE.take(index, out=z, mode="wrap")
    cos2, sin2 = trig
    np.multiply(tc, cm1, out=cos2)
    np.multiply(ts, sx, out=sin2)
    cos2 -= sin2
    cos2 += tc
    np.multiply(ts, cm1, out=sin2)
    np.multiply(tc, sx, out=cm1)
    sin2 += cm1
    sin2 += ts


def _states(bits, weights, weighted, out):
    """Each trial's state: the sum of the weights of its set bits."""
    np.multiply(bits.view(np.uint8), weights, out=weighted)
    return np.bitwise_or.reduce(weighted, axis=0, out=out)


def _multiply_only(d: float) -> int:
    """d, where |s|**d takes binary powering (an integer in [1, 32]);
    else 0."""
    return int(d) if 1.0 <= d <= 32.0 and d == int(d) else 0


def _abs_power(s, d: float, spare):
    """|s|**d, in s or in spare (returned); s is overwritten.

    An integer d in [1, 32] takes left-to-right binary powering, which
    multiplies only: s * s first, so that only an odd d needs |s|.  Its
    result is within (d - 1) roundings of |s|**d (CHANGES.md).  Any
    other d takes np.power.
    """
    k = _multiply_only(d)
    if not k:
        np.abs(s, out=s)
        return np.power(s, d, out=s)
    if k % 2:  # the last step multiplies by s, so s must be |s|
        np.abs(s, out=s)
    if k == 1:
        return s
    digits = bin(k)[3:]  # the binary digits after the leading one
    np.multiply(s, s, out=spare)
    if digits[0] == "1":
        spare *= s
    for digit in digits[1:]:
        spare *= spare
        if digit == "1":
            spare *= s
    return spare


def _cfd_stations(quad: SettingsQuad):
    """The four stations of a CFD trial, in STATION_NAMES order, as
    _station_flags takes them."""
    return [(col >= 2, (a,), None) for col, a in enumerate(quad.as_tuple())]


def _noncfd_stations(quad: SettingsQuad, primed):
    """Side 1 and side 2 of non-CFD trials, as _station_flags takes them;
    primed holds each side's coin per trial."""
    return [(False, (quad.a1, quad.a1p), primed[0]),
            (True, (quad.a2, quad.a2p), primed[1])]


def _station_flags(params: ModelParams, bounds, u, trig, turn, r, rhat,
                   stations, flags, work) -> None:
    """Flags x (x = +1) and w (photon identified) of k stations over a chunk.

    Row i of every (k, n) array is station stations[i] = (side2,
    settings, primed): side2 says it sees phi2 = _orthogonal(phi1), and
    its setting is settings[1] where primed (a bool row, or None for a
    single setting) and settings[0] elsewhere.  u holds the source draws
    of the trials and trig = (cos 2phi1, sin 2phi1) (see _trig).  turn =
    (ca, sa, ca / 2, sa / 2) of those settings (see _turns) is (k, 1)
    per station or (k, n) per trial; r and rhat are its uniforms; flags
    = (x, w) are written.  A flag is taken from the angle-addition
    values only where its decision value clears bounds (see
    _flag_bounds); _settle takes the others from the exact law.
    """
    cos2, sin2 = trig
    ca, sa, hca, hsa = turn
    x, w = flags
    (dx, q, tmp), (unsure, btmp) = work
    x_lo, x_hi, q_lo, q_hi = bounds
    # dx = (1 + c - 2r) / 2 - 1/2 with c = cos 2(a - phi)
    np.multiply(cos2, hca, out=dx)
    np.multiply(sin2, hsa, out=tmp)
    dx += tmp
    dx -= r
    # unsure = x_lo <= dx <= x_hi, for now
    np.greater(dx, x_hi, out=x)
    np.greater_equal(dx, x_lo, out=unsure)
    unsure ^= x
    # q = rhat * |s|**d with s = sin 2(a - phi); dx is free scratch now
    np.multiply(cos2, sa, out=q)
    np.multiply(sin2, ca, out=tmp)
    q -= tmp
    q = _abs_power(q, params.d, dx)
    q *= rhat
    # unsure |= not (q < q_lo or q > q_hi), so that a nan q stays unsure
    np.less(q, q_lo, out=w)
    np.greater(q, q_hi, out=btmp)
    btmp |= w
    np.invert(btmp, out=btmp)
    unsure |= btmp
    _settle(params, stations, u, r, rhat, unsure, x, w)


def _settle(params: ModelParams, stations, u, r, rhat, unsure, x,
            w) -> None:
    """x and w where the bool array unsure is set, from the exact law.

    The arrays and stations are those of _station_flags.  The uncertain
    evaluations of each station go through kernels.station_response
    with their own setting, at phi1 = _phi1_of(u) of their trials, and
    station.identify_photon; both passes settle theirs here.
    """
    for row in np.flatnonzero(unsure.any(axis=1)):
        side2, settings, primed = stations[row]
        idx = np.flatnonzero(unsure[row])
        for k, a in enumerate(settings):
            at = idx if primed is None else idx[primed[idx] == k]
            if at.size:
                phi1 = _phi1_of(u[at])
                phi = _orthogonal(phi1) if side2 else phi1
                xe, ve = kernels.station_response(
                    a, phi, r[row, at], rhat[row, at], params.d,
                    params.v_min_mag, params.v_max_mag)
                x[row, at] = xe == 1
                w[row, at] = station.identify_photon(ve, params.threshold)


# Weight of each state bit of a CFD trial: x of the stations in
# STATION_NAMES order, then their w.
_CFD_WEIGHTS = (1 << np.arange(8, dtype=np.uint8))[:, None]


def _chunk_counts(params: ModelParams, turn, stations, bounds, origins,
                  start: int, buffers) -> np.ndarray:
    """The 256 state counts of trials start..start+n-1 (see cfd_counts).

    n is the length of the arrays in buffers (see _chunk_buffers), and
    origins those of _CHUNK_STREAMS.
    """
    u, words, trig, index, work, flag_work, bits, weighted, states = buffers
    n = len(states)
    kernels.fill_uniforms(origins, start, n, out=u, work=words)
    _trig(u[0], trig, index, work[0])
    _station_flags(params, bounds, u[0], trig, turn, u[1:5], u[5:9],
                   stations, (bits[:4], bits[4:]), (work, flag_work))
    return np.bincount(_states(bits, _CFD_WEIGHTS, weighted, states),
                       minlength=256)


# Weight of each state bit of a non-CFD trial: x of side 1 and 2, their
# w, then the coins primed1 and primed2, so that a trial's state is
# 16 * pair + its 16-state of pair_statistics, pair = 2 primed1 + primed2.
_NONCFD_WEIGHTS = np.array([1, 2, 4, 8, 32, 16], np.uint8)[:, None]
# Station (STATION_NAMES index) of each side's plain setting.
_SIDE_STATIONS = np.array([[0], [2]])
# Bit c of a pending trial's mask in the compiled pass: station c (CFD)
# or side c (non-CFD) is uncertain.
_STATION_BITS = (1 << np.arange(4, dtype=np.uint8))[:, None]


class _Compiled:
    """One point of the compiled pass (kernels.CPASS, see _cpass.c).

    It holds the point's inputs, computed here as numpy's pass computes
    them, and the arrays the pass writes, for chunks of up to capacity
    trials.  The struct of pointers to them is built once per point, so
    that a chunk costs one foreign call.
    """

    def __init__(self, cfd: bool, params: ModelParams, quad: SettingsQuad,
                 bounds, origins: np.ndarray, capacity: int):
        self.cfd, self.params, self.quad = cfd, params, quad
        self.capacity = capacity
        ca_sa = np.array(_turns(quad))  # STATION_NAMES rows
        self.origins = np.ascontiguousarray(origins, np.uint64).ravel()
        if self.origins.size != len(_CHUNK_STREAMS if cfd else
                                    _NONCFD_STREAMS):
            raise ValueError("the pass takes one origin per stream")
        self.turns = np.ascontiguousarray(np.hstack([ca_sa, 0.5 * ca_sa]))
        self.hist = np.zeros(256 if cfd else 64, np.int64)
        self.codes = np.empty(0 if cfd else capacity, np.uint8)
        self.pending = np.empty(capacity, np.int64)
        self.pending_u = np.empty((self.origins.size, capacity))
        self.pending_state = np.empty(capacity, np.uint8)
        self.pending_unsure = np.empty(capacity, np.uint8)
        x_lo, x_hi, q_lo, q_hi = bounds
        self.point = kernels.CPassPoint(
            cos_table=_COS_TABLE.ctypes.data,
            sin_table=_SIN_TABLE.ctypes.data,
            scale=2.0 ** (_TABLE_BITS + 1), step=_STEP, cos_4=_COS_4,
            sin_3=_SIN_3, sin_5=_SIN_5, x_lo=x_lo, x_hi=x_hi, q_lo=q_lo,
            q_hi=q_hi, d=params.d, power=_multiply_only(params.d),
            capacity=capacity,
            **{name: getattr(self, name).ctypes.data for name in (
                "origins", "turns", "hist", "codes", "pending", "pending_u",
                "pending_state", "pending_unsure")})
        self._ref = ctypes.byref(self.point)
        lib = kernels.CPASS
        self._run = lib.cpass_cfd if cfd else lib.cpass_noncfd

    def counts(self, start: int, n: int) -> np.ndarray:
        """State counts of trials start..start+n-1: 256 for CFD, 64 (16 *
        pair + state) for non-CFD, where codes[:n] then holds each
        trial's state."""
        if not 0 < n <= self.capacity:
            raise ValueError(f"chunk of {n} trials, capacity {self.capacity}")
        m = self._run(self._ref, start, n)
        if not m:
            return self.hist
        states = self._settled(m)
        if not self.cfd:
            self.codes[self.pending[:m]] = states
        return self.hist + np.bincount(states, minlength=self.hist.size)

    def _settled(self, m: int) -> np.ndarray:
        """States of the chunk's m pending trials, each uncertain station
        settled by _settle, as numpy's pass settles it."""
        u = self.pending_u[:, :m]
        weights = _CFD_WEIGHTS if self.cfd else _NONCFD_WEIGHTS
        k = 4 if self.cfd else 2
        bits = (self.pending_state[:m] & weights) != 0
        unsure = (self.pending_unsure[:m] & _STATION_BITS[:k]) != 0
        if self.cfd:
            stations, r, rhat = _cfd_stations(self.quad), u[1:5], u[5:9]
        else:
            stations = _noncfd_stations(self.quad, bits[4:])
            r, rhat = u[3:5], u[5:7]
        _settle(self.params, stations, u[0], r, rhat, unsure, bits[:k],
                bits[k:2 * k])
        return _states(bits, weights, np.empty(bits.shape, np.uint8),
                       np.empty(m, np.uint8))


def cfd_counts(params: ModelParams, quad: SettingsQuad, n: int,
               seed: int) -> np.ndarray:
    """The 256 state counts of run_cfd(params, quad, n, seed).

    Trials are drawn and counted CHUNK at a time, so memory does not grow
    with n.  The draws are those of run_cfd for any chunking.

    The flags are those of kernels.station_response, with no libm call
    per trial: cos 2phi1 and sin 2phi1 come from a table and two short
    polynomials (_trig), cos 2(a - phi) and sin 2(a - phi) from them by
    angle addition, negated on side 2, where 2phi2 = 2phi1 + pi
    (mod 2pi), and |sin 2(a - phi)|**d from multiplications alone for an
    integer d up to 32 (_abs_power).  A flag is taken from them only
    where its decision value clears the bounds of _flag_bounds; the
    other station evaluations go through the exact kernel (_settle).
    kernels.BACKEND picks who runs a chunk: the compiled pass
    (_Compiled) or numpy (_chunk_counts), with the same operations.
    """
    _validate_run(n, seed)
    bounds = _flag_bounds(params)
    origins = rng.stream_origins(seed, _CHUNK_STREAMS)
    length = min(CHUNK, n)
    if kernels.BACKEND == "c":
        chunk = _Compiled(True, params, quad, bounds, origins, length).counts
    else:
        ca, sa = np.array(_turns(quad)).T[:, :, None]
        turn = (ca, sa, 0.5 * ca, 0.5 * sa)
        stations = _cfd_stations(quad)
        buffers = _chunk_buffers(length, streams=len(_CHUNK_STREAMS),
                                 stations=4, bits=8)

        def chunk(start, size):
            return _chunk_counts(params, turn, stations, bounds, origins,
                                 start, [b[..., :size] for b in buffers])
    counts = np.zeros(256, np.int64)
    for start in range(0, n, CHUNK):
        counts += chunk(start, min(CHUNK, n - start))
    _check_identities(counts)
    return counts


def _validate_quota(quota: int, seed: int) -> None:
    rng.validate_seed(seed)
    if quota < 1:
        raise ValueError("quota must be >= 1")


def _noncfd_chunk(params: ModelParams, quad: SettingsQuad, table, bounds,
                  origins, start: int, buffers) -> np.ndarray:
    """16 * pair + state of trials start..start+n-1 (see noncfd_counts).

    n is the length of the arrays in buffers, and origins those of
    _NONCFD_STREAMS.
    """
    u, words, trig, index, work, flag_work, bits, weighted, states, turn, \
        sel = buffers
    n = len(states)
    kernels.fill_uniforms(origins, start, n, out=u, work=words)
    _trig(u[0], trig, index, (*work[0], *work[1]))
    primed = bits[4:]
    np.less(u[1:3], 0.5, out=primed)
    # Each side's station: 2 * side + primed.  mode="wrap" skips the
    # buffered bounds check of the default; sel is in range.
    np.add(primed, _SIDE_STATIONS, out=sel)
    ca, sa, hca, hsa = turn
    table[0].take(sel, out=ca, mode="wrap")
    table[1].take(sel, out=sa, mode="wrap")
    np.multiply(ca, 0.5, out=hca)
    np.multiply(sa, 0.5, out=hsa)
    _station_flags(params, bounds, u[0], trig, turn, u[3:5], u[5:7],
                   _noncfd_stations(quad, primed), (bits[:2], bits[2:4]),
                   (work, flag_work))
    return _states(bits, _NONCFD_WEIGHTS, weighted, states)


def _noncfd_length(quota: int) -> int:
    """Trials per chunk of the non-CFD pass at this quota.

    A chunk of 2 * CHUNK trials evaluates as many stations as a CFD
    chunk does; no pair can fill before trial 4 * quota.
    """
    return min(2 * CHUNK, 4 * quota)


def _past_quota(pair: np.ndarray, room) -> np.ndarray:
    """Trials of a chunk that fall past their setting pair's quota.

    pair holds the setting pair of each trial of the chunk, in counter
    order, and room[p] how many more trials pair p keeps.  Pair p keeps
    its first room[p] trials; the indices of the others are returned.
    """
    return np.concatenate([np.flatnonzero(pair == p)[room[p]:]
                           for p in range(4)])


def noncfd_counts(params: ModelParams, quad: SettingsQuad, quota: int,
                  seed: int) -> np.ndarray:
    """The (4, 16) pair state counts of the non-CFD pass at this quota.

    Trials are drawn in counter order, a chunk at a time, and go through
    the certified pass of cfd_counts: each side's coin selects the
    (ca, sa) of its setting from _turns(quad) per trial, and the
    uncertain evaluations go through the exact kernel with their own
    setting.  A trial is kept while its pair holds fewer than quota, and
    the pass stops after the chunk that fills the last pair, so memory
    does not grow with quota.  run_noncfd evaluates the same chunks
    with the exact kernel throughout.  kernels.BACKEND picks who runs a
    chunk, as in cfd_counts.
    """
    _validate_quota(quota, seed)
    bounds = _flag_bounds(params)
    origins = rng.stream_origins(seed, _NONCFD_STREAMS)
    n = _noncfd_length(quota)
    if kernels.BACKEND == "c":
        compiled = _Compiled(False, params, quad, bounds, origins, n)

        def chunk(start):
            hist = compiled.counts(start, n)
            return compiled.codes, hist
    else:
        table = np.array(_turns(quad)).T  # rows ca, sa; STATION_NAMES columns
        buffers = (*_chunk_buffers(n, streams=len(_NONCFD_STREAMS),
                                   stations=2, bits=6),
                   np.empty((4, 2, n)),         # per-trial turns
                   np.empty((2, n), np.intp))   # per-trial stations

        def chunk(start):
            return _noncfd_chunk(params, quad, table, bounds, origins, start,
                                 buffers), None
    counts = np.zeros((4, 16), np.int64)
    for start in itertools.count(0, n):
        code, hist = chunk(start)
        room = quota - counts.sum(axis=1)
        if room.min() < n:  # a pair may fill in this chunk
            code[_past_quota(code >> 4, room)] = 64  # dropped
            hist = None
        if hist is None:
            hist = np.bincount(code, minlength=65)[:64]
        counts += hist.reshape(4, 16)
        if counts.sum() >= 4 * quota:
            return counts


def run_noncfd(params: ModelParams, quad: SettingsQuad, quota: int,
               seed: int, start: int, kept, origins=None) -> NonCfdRun:
    """The records of one chunk of the non-CFD pass of noncfd_counts.

    The chunk holds the _noncfd_length(quota) trials from start, drawn
    as noncfd_counts draws them: each side picks its primed setting on a
    fair coin, and a trial is kept while its setting pair holds fewer
    than quota records, kept[p] of them from earlier chunks for pair p.
    Every station of a kept trial goes through the exact kernel.  A
    point's pass runs chunks from start 0 until every pair holds quota
    records; it passes its origins, rng.stream_origins(seed,
    _NONCFD_STREAMS), computed once (here when None).
    """
    _validate_quota(quota, seed)
    if origins is None:
        origins = rng.stream_origins(seed, _NONCFD_STREAMS)
    n = _noncfd_length(quota)
    u = kernels.fill_uniforms(origins, start, n)
    primed = u[1:3] < 0.5
    keep = np.ones(n, bool)
    keep[_past_quota(2 * primed[0] + primed[1],
                     quota - np.asarray(kept))] = False
    u, primed = u[:, keep], primed[:, keep]
    phi1 = _phi1_of(u[0])
    # Row 0 is side 1 and row 1 side 2, each at its own coin's setting.
    a = np.where(primed, [[quad.a1p], [quad.a2p]], [[quad.a1], [quad.a2]])
    x, v = kernels.station_response(
        a, np.stack((phi1, _orthogonal(phi1))), u[3:5], u[5:7], params.d,
        params.v_min_mag, params.v_max_mag)
    w = station.identify_photon(v, params.threshold)
    pair = 2 * primed[0] + primed[1]
    counts = np.stack([state_counts(x[:, pair == p], w[:, pair == p])
                       for p in range(4)])
    return NonCfdRun(params=params, quad=quad, quota=quota, seed=seed,
                     start=start, n_trials=n, n=len(phi1),
                     k=start + np.flatnonzero(keep), a=a.T, x=x.T, v=v.T,
                     w=w.T, counts=counts)
