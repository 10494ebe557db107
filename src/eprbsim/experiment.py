"""Event-by-event experiment runners.

The CFD (counterfactually definite) mode sends the same source pair
through both settings of each side, producing a quadruple of outcomes
per trial.  The non-CFD mode flips a fair coin per side per trial and
records only the chosen pair of settings.  All randomness is drawn from
counter-based streams keyed by trial index, so runs are bit-reproducible
for a given seed regardless of chunking or thread count.

Every statistic a sweep reports depends on a trial only through its
state: the outcome signs and identification flags of its stations.  A
run therefore reduces to integer counts of states (`state_counts`), and
`cfd_counts` streams a CFD point chunk by chunk into those counts
without keeping per-trial arrays.  It certifies each flag from cheaper
trig wherever the flag is provably that of the exact station law, and
evaluates the exact law for the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng, station
from .params import HALF_PI, TWO_PI, ModelParams, SettingsQuad

# Column order of the per-trial station arrays in CFD runs.
STATION_NAMES = ("a1", "a1p", "a2", "a2p")
# (side-1 column, side-2 column) per setting pair, in fixed pair order
# 11=(a1,a2), 12=(a1,a2p), 21=(a1p,a2), 22=(a1p,a2p).
PAIR_COLUMNS = ((0, 2), (0, 3), (1, 2), (1, 3))
PAIR_NAMES = ("11", "12", "21", "22")

# Trials per chunk of the streaming CFD pass: memory per point is O(CHUNK).
CHUNK = 1 << 13

# Streams of one chunk of the streaming CFD pass: the source, then the r
# and the rhat stream of each station in STATION_NAMES order.
_CHUNK_STREAMS = (rng.SOURCE, *rng.R_STREAMS, *rng.RHAT_STREAMS)

# Error bound used for every certified cos 2(a - phi) and sin 2(a - phi)
# of the streaming CFD pass; see _flag_bounds.
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


class SourceEvent(NamedTuple):
    phi1: float
    phi2: float


def _phi1_of(u: np.ndarray, out=None) -> np.ndarray:
    """Side-1 polarization angles, uniform on [0, 2 pi), of draws u."""
    return np.multiply(TWO_PI, u, out=out)


def _orthogonal(phi1: np.ndarray) -> np.ndarray:
    """Side-2 polarization angles of the pairs whose side-1 angles are phi1."""
    return np.mod(phi1 + HALF_PI, TWO_PI)


def source_phis(seed: int, n: int, start: int = 0):
    """Polarization angles of n source pairs: phi1 uniform, phi2 orthogonal."""
    phi1 = _phi1_of(rng.uniforms(seed, rng.SOURCE, n, start))
    return phi1, _orthogonal(phi1)


def generate_source_event(seed: int, k: int) -> SourceEvent:
    """Source pair of trial k; deterministic in (seed, k)."""
    phi1, phi2 = source_phis(seed, 1, start=k)
    return SourceEvent(float(phi1[0]), float(phi2[0]))


@dataclass
class CfdRun:
    """One CFD run: all four stations observed for every trial.

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


@dataclass
class NonCfdPairData:
    """Trials recorded for one chosen setting pair in a non-CFD run."""

    side1_setting: float
    side2_setting: float
    k: np.ndarray
    x1: np.ndarray
    v1: np.ndarray
    w1: np.ndarray
    x2: np.ndarray
    v2: np.ndarray
    w2: np.ndarray


@dataclass
class NonCfdRun:
    """Trials of a non-CFD run; counts holds each setting pair's 16 state
    counts, in PAIR_NAMES order."""

    params: ModelParams
    quad: SettingsQuad
    quota: int
    seed: int
    pairs: tuple
    n_trials: int
    primed_counts: tuple
    counts: np.ndarray


def _check_quadruple_identities(x: np.ndarray) -> None:
    """Per-trial algebraic identities of +-1 quadruples; hard errors."""
    x1, x1p, x2, x2p = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    s = x1 * x2 - x1 * x2p + x1p * x2 + x1p * x2p
    if not np.all(np.abs(s) == 2):
        raise RuntimeError("CFD identity violated: s outside {-2, +2}")
    for b in (
        x1 * x1p + x1 * x2 + x1p * x2,
        x1 * x1p + x1 * x2p + x1p * x2p,
        x1 * x2 + x1 * x2p + x2 * x2p,
        x1p * x2 + x1p * x2p + x2 * x2p,
    ):
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


def _draws(seed: int, n: int, start: int = 0):
    """Source angles and station uniforms of trials start..start+n-1."""
    phi1, phi2 = source_phis(seed, n, start)
    r_cols = [rng.uniforms(seed, s, n, start) for s in rng.R_STREAMS]
    rhat_cols = [rng.uniforms(seed, s, n, start) for s in rng.RHAT_STREAMS]
    return phi1, phi2, r_cols, rhat_cols


def _respond(params: ModelParams, quad: SettingsQuad, phi1, phi2, r_cols,
             rhat_cols):
    """(x, v) of each of the four stations, in STATION_NAMES order."""
    phis = (phi1, phi1, phi2, phi2)
    return [station.station_respond_batch(a, phi, r, rhat, params)
            for a, phi, r, rhat in zip(quad.as_tuple(), phis, r_cols,
                                       rhat_cols)]


def cfd_from_inputs(params: ModelParams, quad: SettingsQuad, phi1, phi2,
                    r_cols, rhat_cols, n: int | None = None,
                    seed: int = 0) -> CfdRun:
    """Evaluate a CFD run from explicit inputs (test hook).

    r_cols and rhat_cols are sequences of four arrays in STATION_NAMES
    order.
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
                  phi1=phi1, phi2=phi2, x=x, v=v, w=w, counts=counts)


def _validate_run(n: int, seed: int) -> None:
    rng.validate_seed(seed)
    if n < 1:
        raise ValueError("n must be >= 1")


def run_cfd(params: ModelParams, quad: SettingsQuad, n: int, seed: int) -> CfdRun:
    """Simulate n CFD trials; every station gets fresh draws each trial."""
    _validate_run(n, seed)
    return cfd_from_inputs(params, quad, *_draws(seed, n), n=n, seed=seed)


def _flag_bounds(params: ModelParams) -> tuple[float, float, float, float]:
    """Certification bounds of the decision values of _chunk_counts.

    Returns (x_lo, x_hi, q_lo, q_hi).  x = +1 is certain where
    c/2 - r > x_hi and x = -1 where c/2 - r < x_lo; w = 1 is certain
    where q = rhat * |s|**d < q_lo and w = 0 where q > q_hi.  Here c, s
    are the certified cos and sin of 2(a - phi), each within MARGIN of
    the exact kernel's (within MARGIN / 2**15 in fact; CHANGES.md gives
    the argument).  The float rounding and pow errors of q and of the
    kernel's voltage are below 2**-46 of top + (v_max - threshold) / span;
    the bounds allow 2**-40 of it.
    """
    m, d, span = MARGIN, params.d, params.span
    x_lo, x_hi = -0.5 - m, -0.5 + m
    if params.threshold + params.v_max_mag <= 0.0:
        # v >= -v_max_mag = threshold, so no station identifies a photon;
        # this also covers span == 0, where the threshold must be -v_max_mag.
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
    kappa = (params.threshold + params.v_max_mag) / span
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


def _chunk_buffers(n: int):
    """Arrays of the streaming CFD pass for chunks of up to n trials.

    A point allocates them once and every chunk reuses them, so the pass
    does not allocate, and page-fault, once per chunk.
    """
    k = len(_CHUNK_STREAMS)
    return (np.empty((k, n)),             # uniforms
            np.empty((k, n), np.uint64),  # their hash words
            np.empty((5, n)),             # float work
            np.empty((4, n), bool),       # flags and work
            np.empty((2, n), np.uint8))   # state and work


def _chunk_counts(params: ModelParams, quad: SettingsQuad, turns, bounds,
                  seed: int, start: int, buffers) -> np.ndarray:
    """The 256 state counts of trials start..start+n-1 (see cfd_counts).

    n is the length of the arrays in buffers (see _chunk_buffers).
    """
    u, words, (cos2, sin2, dx, q, tmp), (x, w, unsure, btmp), \
        (state, stmp) = buffers
    n = len(state)
    rng.uniform_rows(seed, _CHUNK_STREAMS, n, start, out=u, work=words)
    phi1 = _phi1_of(u[0], out=u[0])
    np.multiply(phi1, 2.0, out=tmp)
    np.cos(tmp, out=cos2)
    np.sin(tmp, out=sin2)
    x_lo, x_hi, q_lo, q_hi = bounds
    state.fill(0)
    for col, (ca, sa) in enumerate(turns):
        r, rhat = u[1 + col], u[5 + col]
        # dx = (1 + c - 2r) / 2 - 1/2 with c = cos 2(a - phi)
        np.multiply(cos2, 0.5 * ca, out=dx)
        np.multiply(sin2, 0.5 * sa, out=tmp)
        dx += tmp
        dx -= r
        # q = rhat * |s|**d with s = sin 2(a - phi)
        np.multiply(cos2, sa, out=q)
        np.multiply(sin2, ca, out=tmp)
        q -= tmp
        np.abs(q, out=q)
        np.power(q, params.d, out=q)
        q *= rhat
        # unsure = (x_lo <= dx <= x_hi) | not (q < q_lo or q > q_hi),
        # so that a nan q stays unsure.
        np.greater(dx, x_hi, out=x)
        np.greater_equal(dx, x_lo, out=unsure)
        unsure ^= x
        np.less(q, q_lo, out=w)
        np.greater(q, q_hi, out=btmp)
        btmp |= w
        np.invert(btmp, out=btmp)
        unsure |= btmp
        if unsure.any():
            idx = np.flatnonzero(unsure)
            phi = phi1[idx] if col < 2 else _orthogonal(phi1[idx])
            xe, ve = station.station_respond_batch(
                quad.as_tuple()[col], phi, r[idx], rhat[idx], params)
            x[idx] = xe == 1
            w[idx] = station.identify_photon(ve, params.threshold)
        np.left_shift(x.view(np.uint8), col, out=stmp)
        state |= stmp
        np.left_shift(w.view(np.uint8), 4 + col, out=stmp)
        state |= stmp
    return np.bincount(state, minlength=256)


def cfd_counts(params: ModelParams, quad: SettingsQuad, n: int,
               seed: int) -> np.ndarray:
    """The 256 state counts of run_cfd(params, quad, n, seed).

    Trials are drawn and counted CHUNK at a time, so memory does not grow
    with n.  The draws are those of run_cfd for any chunking.

    The flags are those of kernels.station_response, from two trig calls
    per trial instead of eight: cos 2(a - phi) and sin 2(a - phi) come
    from cos 2phi1 and sin 2phi1 by angle addition, negated on side 2,
    where 2phi2 = 2phi1 + pi (mod 2pi).  A flag is taken from them only
    where its decision value clears the bounds of _flag_bounds; the
    other station evaluations go through the exact kernel.
    """
    _validate_run(n, seed)
    turns = _turns(quad)
    bounds = _flag_bounds(params)
    buffers = _chunk_buffers(min(CHUNK, n))
    counts = np.zeros(256, np.int64)
    for start in range(0, n, CHUNK):
        if n - start < CHUNK:
            buffers = [b[:, :n - start] for b in buffers]
        counts += _chunk_counts(params, quad, turns, bounds, seed, start,
                                buffers)
    _check_identities(counts)
    return counts


def run_noncfd(params: ModelParams, quad: SettingsQuad, quota: int,
               seed: int) -> NonCfdRun:
    """Simulate trials with per-trial random setting choices.

    Each side picks its primed setting on a fair coin.  Trials keep
    arriving until every one of the four setting pairs has quota
    records; a pair that is already full ignores further trials.
    """
    rng.validate_seed(seed)
    if quota < 1:
        raise ValueError("quota must be >= 1")

    counts = [0, 0, 0, 0]
    kept: list[list[np.ndarray]] = [[], [], [], []]
    # Primed choices per side in the chunks before the current one.
    primed_before = [0, 0]
    k0 = 0
    chunk = max(4096, int(1.2 * quota))
    while True:
        primed1 = rng.uniforms(seed, rng.CHOICE_1, chunk, start=k0) < 0.5
        primed2 = rng.uniforms(seed, rng.CHOICE_2, chunk, start=k0) < 0.5
        pair_idx = 2 * primed1.astype(np.int8) + primed2.astype(np.int8)
        for p in range(4):
            need = quota - counts[p]
            if need <= 0:
                continue
            ks = k0 + np.flatnonzero(pair_idx == p)
            take = ks[:need]
            if take.size:
                kept[p].append(take)
                counts[p] += take.size
        if min(counts) >= quota:
            break
        primed_before[0] += int(np.count_nonzero(primed1))
        primed_before[1] += int(np.count_nonzero(primed2))
        k0 += chunk

    pair_settings = (
        (quad.a1, quad.a2), (quad.a1, quad.a2p),
        (quad.a1p, quad.a2), (quad.a1p, quad.a2p),
    )
    pairs = []
    last_k = 0
    for p in range(4):
        ks = np.concatenate(kept[p])
        last_k = max(last_k, int(ks[-1]))
        phi1 = _phi1_of(rng.uniforms_at(seed, rng.SOURCE, ks))
        phi2 = _orthogonal(phi1)
        r1 = rng.uniforms_at(seed, rng.R_1, ks)
        rhat1 = rng.uniforms_at(seed, rng.RHAT_1, ks)
        r2 = rng.uniforms_at(seed, rng.R_2, ks)
        rhat2 = rng.uniforms_at(seed, rng.RHAT_2, ks)
        a1_p, a2_p = pair_settings[p]
        x1, v1 = station.station_respond_batch(a1_p, phi1, r1, rhat1, params)
        x2, v2 = station.station_respond_batch(a2_p, phi2, r2, rhat2, params)
        pairs.append(NonCfdPairData(
            side1_setting=a1_p, side2_setting=a2_p, k=ks,
            x1=x1, v1=v1, w1=station.identify_photon(v1, params.threshold),
            x2=x2, v2=v2, w2=station.identify_photon(v2, params.threshold),
        ))

    # The run stops at the trial that fills the last quota; marginals are
    # counted over exactly that many coin flips.  That trial lies in the
    # last chunk, since a quota was still open before it.
    n_trials = last_k + 1
    n1p = primed_before[0] + int(np.count_nonzero(primed1[:n_trials - k0]))
    n2p = primed_before[1] + int(np.count_nonzero(primed2[:n_trials - k0]))

    counts = np.stack([state_counts((p.x1, p.x2), (p.w1, p.w2))
                       for p in pairs])
    return NonCfdRun(params=params, quad=quad, quota=quota, seed=seed,
                     pairs=tuple(pairs), n_trials=n_trials,
                     primed_counts=(n1p, n2p), counts=counts)
