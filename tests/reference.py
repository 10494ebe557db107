"""Independent references of the tests.

Rows come from state counts (`eprbsim.stats`); the per-trial array
estimators compute the same quantities from outcome and flag arrays
without the package's formulas, and `state_counts` counts their states.
`cfd_point` draws a whole CFD point in one piece, and `noncfd_point` a
whole non-CFD point by its own coin loop and quota cut, from gathered
draws, for the package's chunked passes to be compared with.  Both evaluate each station with a station law:
`libm_station`, the law with libm's cos, sin and pow
(`kernels.station_response`), or `package_station`, the package's own
(`kernels.station_law`), whose voltages the trial dump prints.  PASSES
names the chunk passes that a test runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eprbsim import experiment, kernels, rng
from eprbsim.experiment import PAIR_COLUMNS

# The chunk passes kernels.BACKEND selects: numpy's always, and the
# compiled one where it loaded.
PASSES = ("numpy",) if kernels.CPASS is None else ("numpy", "c")


@dataclass(frozen=True)
class PairEstimate:
    """Pair correlation e over n_pass pairs, single-side averages e1/e2
    over n1/n2 trials; None marks an undefined estimate."""

    e: float | None
    e1: float | None
    e2: float | None
    n_pass: int
    n_total: int
    n1: int
    n2: int


def _ratio(num: float, den: int) -> float | None:
    return num / den if den > 0 else None


def pair_estimate(x1, x2, w1=None, w2=None) -> PairEstimate:
    """Averages for one setting pair.

    With w1/w2 omitted this is the detection-event estimate over all
    trials; with flags it is the photon estimate, pair terms weighted by
    w1*w2 and singles by the local flag alone.
    """
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    n_total = int(x1.shape[0])
    prod = (x1.astype(np.int64)) * x2
    if w1 is None and w2 is None:
        e = _ratio(float(prod.sum()), n_total)
        e1 = _ratio(float(x1.sum()), n_total)
        e2 = _ratio(float(x2.sum()), n_total)
        return PairEstimate(e, e1, e2, n_total, n_total, n_total, n_total)
    w1 = np.asarray(w1)
    w2 = np.asarray(w2)
    both = (w1 & w2).astype(np.int64)
    n_pass = int(both.sum())
    n1 = int(np.count_nonzero(w1))
    n2 = int(np.count_nonzero(w2))
    e = _ratio(float((both * prod).sum()), n_pass)
    e1 = _ratio(float((w1 * x1).astype(np.int64).sum()), n1)
    e2 = _ratio(float((w2 * x2).astype(np.int64).sum()), n2)
    return PairEstimate(e, e1, e2, n_pass, n_total, n1, n2)


def single_average(x, w=None) -> tuple[float | None, int]:
    """Single-station average, optionally weighted by its flag."""
    x = np.asarray(x)
    if w is None:
        n = int(x.shape[0])
        return _ratio(float(x.astype(np.int64).sum()), n), n
    w = np.asarray(w)
    n = int(np.count_nonzero(w))
    return _ratio(float((w * x).astype(np.int64).sum()), n), n


def standard_error(e: float, n: int) -> float:
    """Binomial-style standard error of a +-1 average."""
    if n <= 0:
        raise ValueError("n must be positive")
    return math.sqrt(max(0.0, 1.0 - e * e) / n)


def selected_pair_counts(x1, x2, w1, w2) -> dict:
    """Outcome counts among pairs where both identification flags pass.

    Returns n_oo, n_oe, n_eo, n_ee (ordinary = x=+1) plus n_pass.  Trials
    where either flag is 0 contribute to no count at all.
    """
    keep = (np.asarray(w1) == 1) & (np.asarray(w2) == 1)
    o1 = np.asarray(x1) == 1
    o2 = np.asarray(x2) == 1
    return {
        "n_oo": int(np.count_nonzero(keep & o1 & o2)),
        "n_oe": int(np.count_nonzero(keep & o1 & ~o2)),
        "n_eo": int(np.count_nonzero(keep & ~o1 & o2)),
        "n_ee": int(np.count_nonzero(keep & ~o1 & ~o2)),
        "n_pass": int(np.count_nonzero(keep)),
    }


def eberhard_total_selected(records) -> int:
    """Eberhard combination over identified pairs, term by setting pair.

    records maps pair keys '11', '12', '21', '22' (plain/primed side 1
    x side 2) to (x1, x2, w1, w2) arrays; each term is counted among the
    pairs of its own records that both flags identify.
    """
    c = {key: selected_pair_counts(*rec) for key, rec in records.items()}
    return (c["22"]["n_oe"] + c["11"]["n_eo"]
            + c["12"]["n_oo"] - c["21"]["n_oo"])


# ----------------------------------------------- whole-point references

# A stream id of the tests' own, for draws no run makes.
MALUS_STREAM = 11


def malus_frequency(setting: float, phi: float, n: int, seed: int) -> float:
    """Empirical frequency of x = +1 over n fresh trials at fixed phi."""
    r = rng.uniforms(seed, MALUS_STREAM, n)
    c = math.cos(2.0 * (setting - phi))
    return float(np.count_nonzero(1.0 + c - 2.0 * r > 0.0) / n)


def libm_station(params, quad, col, u, r, rhat):
    """(x, v, w) of station col (STATION_NAMES order) for source draws u
    and its draws r and rhat, by kernels.station_response."""
    phi = 2.0 * math.pi * u
    if col >= 2:
        phi = np.mod(phi + 0.5 * math.pi, 2.0 * math.pi)
    x, v = kernels.station_response(quad.as_tuple()[col], phi, r, rhat,
                                    params.d, params.v_min_mag,
                                    params.v_max_mag)
    return x, v, (v < params.threshold).astype(np.uint8)


def package_station(params, quad, col, u, r, rhat):
    """libm_station's (x, v, w) by the package's law, kernels.station_law,
    at (ca, sa) = experiment._turns(quad)[col]."""
    x, w, v = kernels.station_law(params, kernels.trig(u),
                                  experiment._turns(quad)[col], r, rhat)
    return 2 * x.astype(np.int8) - 1, v, w.astype(np.uint8)


def state_counts(x_cols, w_cols) -> np.ndarray:
    """Counts of the 4**k trial states of k stations' outcomes and flags,
    encoded as experiment.QUADRUPLES' comment says.

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


@dataclass
class CfdPoint:
    """CFD trials 0..n-1: (n, 4) outcomes, voltages and flags in
    STATION_NAMES order, and their 256 state counts."""

    quad: object
    n: int
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    counts: np.ndarray


def cfd_point(params, quad, n: int, seed: int,
              station=libm_station) -> CfdPoint:
    """A CFD point's trials, every draw of every stream taken in one
    piece, each station by station()."""
    u = rng.uniforms(seed, rng.SOURCE, n)
    x, v, w = (np.stack(cols, axis=1) for cols in zip(*[
        station(params, quad, col, u, rng.uniforms(seed, r_stream, n),
                rng.uniforms(seed, rhat_stream, n))
        for col, (r_stream, rhat_stream) in enumerate(
            zip(rng.R_STREAMS, rng.RHAT_STREAMS))]))
    return CfdPoint(quad, n, x, v, w, state_counts(x.T, w.T))


@dataclass
class NonCfdPair:
    """The records of one setting pair of a non-CFD point, in trial order."""

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
class NonCfdPoint:
    """A whole non-CFD point: pairs in PAIR_NAMES order and each pair's 16
    state counts."""

    pairs: tuple
    counts: np.ndarray


def noncfd_point(params, quad, quota: int, seed: int,
                 station=libm_station) -> NonCfdPoint:
    """A non-CFD point from the trial indices each pair keeps.

    Coins are drawn in chunks of their own size, each pair keeps the
    first quota trials that chose it, and every kept trial's draws are
    gathered at its index, each station by station().  It shares neither
    chunks nor the quota cut with the package's pass.
    """
    kept = [[], [], [], []]
    counts = [0, 0, 0, 0]
    k0, chunk = 0, max(4096, int(1.2 * quota))
    while min(counts) < quota:
        coins = [kernels.gather_uniforms(rng.stream_origin(seed, s),
                                         np.arange(k0, k0 + chunk)) < 0.5
                 for s in (rng.CHOICE_1, rng.CHOICE_2)]
        pair = 2 * coins[0] + coins[1]
        for p in range(4):
            take = (k0 + np.flatnonzero(pair == p))[:quota - counts[p]]
            kept[p].append(take)
            counts[p] += take.size
        k0 += chunk

    def at(stream, ks):
        return kernels.gather_uniforms(rng.stream_origin(seed, stream), ks)

    pairs = []
    for p, (c1, c2) in enumerate(PAIR_COLUMNS):
        ks = np.concatenate(kept[p])
        u = at(rng.SOURCE, ks)
        side1 = station(params, quad, c1, u, at(rng.R_1, ks),
                        at(rng.RHAT_1, ks))
        side2 = station(params, quad, c2, u, at(rng.R_2, ks),
                        at(rng.RHAT_2, ks))
        pairs.append(NonCfdPair(quad.as_tuple()[c1], quad.as_tuple()[c2], ks,
                                *side1, *side2))
    counts = np.stack([state_counts((p.x1, p.x2), (p.w1, p.w2))
                       for p in pairs])
    return NonCfdPoint(tuple(pairs), counts)
