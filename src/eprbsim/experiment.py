"""Event-by-event experiment runners.

The CFD (counterfactually definite) mode sends the same source pair
through both settings of each side, producing a quadruple of outcomes
per trial.  The non-CFD mode flips a fair coin per side per trial and
records only the chosen pair of settings.  All randomness is drawn from
counter-based streams keyed by trial index, so runs are bit-reproducible
for a given seed regardless of chunking or worker count.

Every statistic a sweep reports depends on a trial only through its
state: the outcome signs and identification flags of its stations (see
QUADRUPLES), so a run reduces to integer counts of states, kept as
lists of Python ints.  `cfd_counts` and `noncfd_counts` count them in
one of two passes, with the same values, bit for bit:
- where kernels.BACKEND is "c", the compiled pass (kernels.Compiled)
  adds a span's counts in one foreign call and applies the non-CFD quota
  cut itself, without numpy;
- otherwise numpy's pass (law.numpy_chunk) runs over one walk,
  `_point_chunks`, which takes a point chunk by chunk in counter order
  and owns its chunk length, its non-CFD quota cut (`_quota_cut`) and
  its stop rule.
A trial dump (sweep._TrialDumper) sums the counts of runs that also hold
each trial's records, numpy arrays from either pass (`_pass`): `run_cfd`
of each CHUNK of CFD trials, all through one pass of the point, or the
chunks of the walk `run_noncfd` yields.  The functions that need numpy
import it when they run.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import kernels, rng, stats
from .params import HALF_PI, TWO_PI, ModelParams, SettingsQuad

if TYPE_CHECKING:  # the records' arrays: numpy is imported where they are
    import numpy as np

# Column order of the per-trial station arrays in CFD runs.
STATION_NAMES = ("a1", "a1p", "a2", "a2p")
# (side-1 column, side-2 column) per setting pair, in fixed pair order
# 11=(a1,a2), 12=(a1,a2p), 21=(a1p,a2), 22=(a1p,a2p).
PAIR_COLUMNS = ((0, 2), (0, 3), (1, 2), (1, 3))
PAIR_NAMES = ("11", "12", "21", "22")

# Trials per chunk of the streaming passes: memory per point is O(CHUNK),
# and a chunk's arrays fit a core's 2 MB L2 cache.
CHUNK = 1 << 13

# Trials per foreign call of the compiled counts, at most: about 2 ms, so
# that a Ctrl-C is seen between calls.
_CALL_TRIALS = 1 << 18

# Streams of one chunk of the streaming CFD pass: the source, then the r
# and the rhat stream of each station in STATION_NAMES order.
_CHUNK_STREAMS = (rng.SOURCE, *rng.R_STREAMS, *rng.RHAT_STREAMS)

# Streams of one chunk of the streaming non-CFD pass: the source, the
# setting coin of each side, then the r and the rhat stream of each side.
_NONCFD_STREAMS = (rng.SOURCE, rng.CHOICE_1, rng.CHOICE_2, rng.R_1, rng.R_2,
                   rng.RHAT_1, rng.RHAT_2)

# State of a trial over k stations: bit c is set when station c gave
# x = +1, bit k + c when it identified a photon.  A CFD trial (k = 4) has
# 256 states, counts[16 * flag_bits + outcome_bits]; a setting pair
# (k = 2) has the 16 that stats.pair_statistics reads.
# Outcome quadruple (STATION_NAMES order) of each of the 16 outcome_bits.
QUADRUPLES = tuple(tuple(2 * (bits >> c & 1) - 1 for c in range(4))
                   for bits in range(16))


def _fold():
    """For each setting pair, a getter of the CFD states that fold into
    each of its 16 states."""
    fold = []
    for i, j in PAIR_COLUMNS:
        sources = [[] for _ in range(16)]
        for s in range(256):
            bits = [(s >> b) & 1 for b in (i, j, 4 + i, 4 + j)]
            sources[bits[0] | bits[1] << 1 | bits[2] << 2
                    | bits[3] << 3].append(s)
        fold.append([operator.itemgetter(*states) for states in sources])
    return fold


_PAIR_FOLD = _fold()
# A getter of the 16 CFD states (one per flag_bits) of each outcome_bits.
_OUTCOME_STATES = [operator.itemgetter(*range(o, 256, 16))
                   for o in range(16)]


def _phi1_of(u: np.ndarray) -> np.ndarray:
    """Side-1 polarization angles, uniform on [0, 2 pi), of draws u."""
    import numpy as np
    return np.multiply(TWO_PI, u)


def _orthogonal(phi1: np.ndarray) -> np.ndarray:
    """Side-2 polarization angles of the pairs whose side-1 angles are phi1."""
    import numpy as np
    return np.mod(phi1 + HALF_PI, TWO_PI)


def source_phis(seed: int, n: int, start: int = 0):
    """Polarization angles of n source pairs: phi1 uniform, phi2 orthogonal."""
    phi1 = _phi1_of(rng.uniforms(seed, rng.SOURCE, n, start))
    return phi1, _orthogonal(phi1)


@dataclass
class CfdRun:
    """CFD trials start..start+n-1: all four stations observed per trial.

    x, v, w are (n, 4) arrays in STATION_NAMES column order; counts
    holds the 256 state counts of those trials.  phi1 and phi2, the
    trials' polarization angles (source_phis), are computed at the first
    access: the trial dump does not print them.
    """

    params: ModelParams
    quad: SettingsQuad
    n: int
    seed: int
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    counts: np.ndarray
    start: int = 0

    @functools.cached_property
    def _phis(self):
        return source_phis(self.seed, self.n, self.start)

    @property
    def phi1(self) -> np.ndarray:
        return self._phis[0]

    @property
    def phi2(self) -> np.ndarray:
        return self._phis[1]


@dataclass
class NonCfdRun:
    """The records of non-CFD trials start..start+n_trials-1: the n
    trials that their setting pair kept (see _point_chunks), in counter
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


class InvariantError(RuntimeError):
    """A runtime check of the model's invariants failed: the quadruple
    identities here, or a row's |S_hat| <= 2, J >= 0 or |S| <= bound."""


def _check_quadruple_identities(quadruples) -> None:
    """Per-trial algebraic identities of +-1 quadruples; hard errors."""
    if any(abs(stats.quadruple_s(*q)) != 2 for q in quadruples):
        raise InvariantError("CFD identity violated: s outside {-2, +2}")
    if any(b not in (-1, 3) for q in quadruples
           for b in stats.quadruple_b(*q)):
        raise InvariantError("CFD identity violated: b outside {-1, +3}")


def pair_counts(counts) -> list:
    """Fold 256 CFD state counts into each setting pair's 16, a (4, 16)
    list of ints."""
    return [[sum(states(counts)) for states in pair] for pair in _PAIR_FOLD]


def outcome_counts(counts) -> list:
    """The trials of each of the 16 outcome quadruples (QUADRUPLES), from
    256 CFD state counts."""
    return [sum(states(counts)) for states in _OUTCOME_STATES]


def _check_identities(counts) -> None:
    """The quadruple identities over every quadruple the counts hold.

    They depend on the quadruple alone, so checking each distinct one
    that occurs is the per-trial check.
    """
    _check_quadruple_identities([q for q, seen in zip(
        QUADRUPLES, outcome_counts(counts)) if seen])


def _validate_run(n: int, seed: int, name: str = "n") -> None:
    rng.validate_seed(seed)
    if n < 1:
        raise ValueError(f"{name} must be >= 1")


def _turns(quad: SettingsQuad):
    """(ca, sa) per station, in STATION_NAMES order, such that
    cos 2(a - phi) = ca cos 2phi1 + sa sin 2phi1 and sin 2(a - phi) =
    sa cos 2phi1 - ca sin 2phi1.

    On side 1 they are cos 2a and sin 2a, from law.trig (by its compiled
    twin, kernels.trig_of) at u = a / TWO_PI; side 2 negates both,
    because 2phi2 = 2phi1 + pi (mod 2pi).
    """
    cos2a, sin2a = kernels.trig_of([a / TWO_PI for a in quad.as_tuple()])
    return tuple((c * sign, s * sign) for c, s, sign
                 in zip(cos2a, sin2a, (1.0, 1.0, -1.0, -1.0)))


def _origins(cfd: bool, seed: int) -> list:
    """The origins of this seed's streams _CHUNK_STREAMS (CFD) or
    _NONCFD_STREAMS, the pass's draws."""
    return [rng.stream_origin(seed, s)
            for s in (_CHUNK_STREAMS if cfd else _NONCFD_STREAMS)]


def _compiled(cfd: bool, params: ModelParams, quad: SettingsQuad, seed: int,
              quota: int = 0) -> kernels.Compiled:
    """The compiled pass of a point, counts only."""
    return kernels.Compiled(kernels.CPASS, cfd, params, _turns(quad),
                            _origins(cfd, seed), quota)


def _pass(cfd: bool, params: ModelParams, quad: SettingsQuad, seed: int,
          capacity: int, trials: bool = False):
    """chunk(start, n) -> (state counts, each trial's state, the (k, n)
    voltages), numpy arrays, of chunks of up to capacity trials of a
    point's pass, compiled or numpy's as kernels.BACKEND says.

    The voltages come only with trials, and the compiled pass's arrays
    are overwritten by the next chunk.
    """
    import numpy as np
    origins, turns = _origins(cfd, seed), _turns(quad)
    if kernels.BACKEND == "c":
        codes = np.empty(capacity, np.uint8)
        volts = np.empty((4 if cfd else 2, capacity)) if trials else None
        point = kernels.Compiled(
            kernels.CPASS, cfd, params, turns, origins, capacity=capacity,
            codes=codes.ctypes.data, volts=volts.ctypes.data if trials else 0)
        counts = np.frombuffer(point.hist, np.int64)

        def compiled(start, n):
            counts[:] = 0
            point.add(start, n)
            return counts, codes[:n], volts[:, :n] if trials else None
        return compiled
    turns = np.array(turns)
    origins = np.array(origins, np.uint64)[:, None]
    # The uniforms and their hash words are allocated once per point, the
    # other arrays per chunk.  Those must peak below twice the uniforms'
    # size, glibc's trim threshold, or every chunk faults its pages back
    # in: like per-chunk uniforms, that is 2x slower.
    u = np.empty((len(origins), capacity))
    words = np.empty(u.shape, np.uint64)

    def chunk(start, n):
        u_n = kernels.fill_uniforms(origins, start, n, out=u[:, :n],
                                    work=words[:, :n])
        states, v = kernels.numpy_chunk(cfd, params, turns, u_n)
        return np.bincount(states, minlength=256 if cfd else 64), states, v
    return chunk


def _quota_cut(states: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Cut a non-CFD chunk at its pairs' quotas: pair p keeps its first
    room[p] trials, and each trial past them gets state 64, in place.
    Returns the 64 state counts of the trials kept.  The compiled pass
    cuts its counts itself (kernels.Compiled)."""
    import numpy as np
    pair = states >> 4
    for p in range(4):
        states[np.flatnonzero(pair == p)[room[p]:]] = 64
    return np.bincount(states, minlength=65)[:64]


def _point_chunks(cfd: bool, params: ModelParams, quad: SettingsQuad, n: int,
                  seed: int, trials: bool = False, span=None):
    """(start, counts, states, volts) of each chunk of a point's pass, in
    counter order: the walk of the trial dump, and of numpy's pass.

    A CFD point is trials 0..n-1, CHUNK at a time; span = (lo, hi) walks
    trials lo..hi-1 alone, CHUNK at a time from lo, as a CFD trial
    depends on its index alone.  A non-CFD point runs
    chunks of up to 2 * CHUNK trials, which evaluate as many stations as
    a CFD chunk does, and keeps a trial while its setting pair holds
    fewer than n (the quota); a trial past that gets state 64 and is left
    out of the counts (_quota_cut, only in a chunk where some pair drew
    more trials than its room).  The walk ends with the chunk whose
    counts bring every pair to n, so memory does not grow with n.

    counts are the chunk's 256 (CFD) or 64 state counts, states each
    trial's state and volts, with trials, the voltages of its stations,
    as _pass gives them: the compiled pass overwrites them in the next
    chunk.
    """
    import numpy as np
    _validate_run(n, seed, "n" if cfd else "quota")
    # Every pair holds n at the earliest after 4 * n non-CFD trials.
    length = min(CHUNK, n) if cfd else min(2 * CHUNK, 4 * n)
    lo, hi = span or (0, n)
    chunk = _pass(cfd, params, quad, seed, length, trials)
    held = np.zeros(4, np.int64)  # kept trials per setting pair
    for start in range(lo, hi, length) if cfd else itertools.count(0, length):
        counts, states, volts = chunk(start, min(length, hi - start) if cfd
                                      else length)
        if not cfd:
            room, drawn = n - held, counts.reshape(4, 16).sum(axis=1)
            if np.any(drawn > room):  # a pair passes its quota here
                counts = _quota_cut(states, room)
            held += np.minimum(drawn, room)
        yield start, counts, states, volts
        if not cfd and held.min() == n:
            return


def cfd_counts(params: ModelParams, quad: SettingsQuad, n: int,
               seed: int, span=None) -> list:
    """The 256 state counts of CFD trials 0..n-1 of this seed, a list of
    ints: every station gets fresh draws each trial.

    The compiled pass adds them up in calls of up to _CALL_TRIALS trials,
    numpy's over _point_chunks, so memory does not grow with n; the
    counts do not depend on the chunking.  With span = (lo, hi) they are
    the counts of trials lo..hi-1 alone, whose quadruples the caller
    checks on the point's sum (_check_identities); a point's are checked
    here.
    """
    if kernels.BACKEND == "c":
        _validate_run(n, seed)
        point = _compiled(True, params, quad, seed)
        lo, hi = span or (0, n)
        for start in range(lo, hi, _CALL_TRIALS):
            point.add(start, min(_CALL_TRIALS, hi - start))
        counts = point.hist[:]
    else:
        counts = sum(c for _, c, _, _ in _point_chunks(
            True, params, quad, n, seed, span=span)).tolist()
    if span is None:
        _check_identities(counts)
    return counts


def _bits(states: np.ndarray, count: int) -> np.ndarray:
    """Bits 0..count-1 of each trial's uint8 state, as (n, count) int8."""
    import numpy as np
    return np.unpackbits(states[:, None], axis=1, count=count,
                         bitorder="little").view(np.int8)


def run_cfd(params: ModelParams, quad: SettingsQuad, n: int, seed: int,
            start: int = 0, chunk=None) -> CfdRun:
    """CFD trials start..start+n-1 of cfd_counts' pass, with each trial's
    outcomes, voltages and flags.  A CFD trial depends on its index
    alone, so any range of a point stands on its own.

    chunk is the point's pass, _pass(True, params, quad, seed, capacity,
    trials=True) with capacity >= n, or None for a pass of this run
    alone.  Handed the point's pass, the run's v and counts are its
    arrays, overwritten by the pass's next chunk, and the quadruple
    identities are left to the caller, who checks them on the point's
    summed counts (_check_identities, as sweep._cfd_row does); otherwise
    they are checked here.
    """
    _validate_run(n, seed)
    if chunk is None:
        counts, states, v = _pass(True, params, quad, seed, n,
                                  trials=True)(start, n)
        _check_identities(counts)
    else:
        counts, states, v = chunk(start, n)
    bits = _bits(states, 8)  # x then w of each station
    return CfdRun(params=params, quad=quad, n=n, seed=seed,
                  x=2 * bits[:, :4] - 1, v=v.T, w=bits[:, 4:], counts=counts,
                  start=start)


def noncfd_counts(params: ModelParams, quad: SettingsQuad, quota: int,
                  seed: int) -> list:
    """The (4, 16) pair state counts of the non-CFD pass at this quota,
    lists of ints: those of each pair's first quota trials.

    Trials are drawn in counter order, and each side's coin selects the
    (ca, sa) of its setting per trial.  The compiled pass cuts them at
    the quota itself, in calls of up to _CALL_TRIALS trials until every
    pair holds it; numpy's sums them over _point_chunks.
    """
    if kernels.BACKEND == "c":
        _validate_run(quota, seed, "quota")
        point = _compiled(False, params, quad, seed, quota)
        start = 0
        while min(point.held) < quota:
            start += point.add(start, _CALL_TRIALS)
        counts = point.hist[:]
    else:
        counts = sum(c for _, c, _, _ in _point_chunks(
            False, params, quad, quota, seed)).tolist()
    return [counts[16 * p:16 * p + 16] for p in range(4)]


def run_noncfd(params: ModelParams, quad: SettingsQuad, quota: int,
               seed: int):
    """The records of noncfd_counts' pass, one NonCfdRun per chunk of
    _point_chunks, in counter order.  A chunk's records depend on the
    chunks before it, through the quota; each run owns its arrays.
    """
    import numpy as np
    for start, counts, code, v in _point_chunks(False, params, quad, quota,
                                                seed, trials=True):
        keep = code < 64
        code, v = code[keep], v[:, keep]
        bits = _bits(code, 6)  # x1, x2, w1, w2, primed2, primed1
        a = np.where(bits[:, [5, 4]], [quad.a1p, quad.a2p],
                     [quad.a1, quad.a2])
        yield NonCfdRun(params=params, quad=quad, quota=quota, seed=seed,
                        start=start, n_trials=len(keep), n=len(code),
                        k=start + np.flatnonzero(keep), a=a,
                        x=2 * bits[:, :2] - 1, v=v.T, w=bits[:, 2:4],
                        counts=counts.reshape(4, 16).copy())
