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
without keeping per-trial arrays.
"""
from __future__ import annotations

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
CHUNK = 1 << 16

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


def source_phis(seed: int, n: int, start: int = 0):
    """Polarization angles of n source pairs: phi1 uniform, phi2 orthogonal."""
    phi1 = TWO_PI * rng.uniforms(seed, rng.SOURCE, n, start)
    phi2 = np.mod(phi1 + HALF_PI, TWO_PI)
    return phi1, phi2


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


def cfd_counts(params: ModelParams, quad: SettingsQuad, n: int,
               seed: int) -> np.ndarray:
    """The 256 state counts of run_cfd(params, quad, n, seed).

    Trials are drawn and counted CHUNK at a time, so memory does not grow
    with n.  The draws are those of run_cfd for any chunking.
    """
    _validate_run(n, seed)
    counts = np.zeros(256, np.int64)
    for start in range(0, n, CHUNK):
        stations = _respond(params, quad, *_draws(seed, min(CHUNK, n - start),
                                                  start))
        counts += state_counts(
            [xc for xc, _vc in stations],
            [station.identify_photon(vc, params.threshold)
             for _xc, vc in stations])
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
        phi1 = TWO_PI * rng.uniforms_at(seed, rng.SOURCE, ks)
        phi2 = np.mod(phi1 + HALF_PI, TWO_PI)
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
