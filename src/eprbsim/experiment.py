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
lists of Python ints.  Each point walks once through one pass
(`_point`): the compiled one (kernels.Compiled) where kernels.BACKEND is
"c", else numpy's (law.NumpyPass), with the same interface and values.
Its add(start, n) adds the state counts of trials start..start+n-1 to
its hist; on non-CFD trials it makes the quota cut, in trial order, and
stops at the trial that fills the last pair.  `cfd_counts` and
`noncfd_counts` read the counts alone.  A trial dump (sweep._TrialDumper)
also reads each trial's state and voltages from the pass's buffers,
plain bytearrays, through `run_cfd` over each CHUNK of CFD trials, or
the calls that `run_noncfd` yields; the compiled pass's dump imports no
numpy.  The records' numpy arrays (x, v, w and the like) are computed
from those buffers at their first access.
"""
from __future__ import annotations

import functools
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


class _Records:
    """The numpy arrays of a run's records, computed at their first
    access from its buffers codes and volts, laid out as _point's: x, v
    and w, (records, stations) arrays of the outcomes, voltages and
    flags of its stations (the trial dump reads the buffers)."""

    @functools.cached_property
    def _states(self):
        import numpy as np
        return np.frombuffer(self.codes, np.uint8)[self._rows]

    @functools.cached_property
    def _bits(self):  # the stations' x, then their w, then any coins
        import numpy as np
        return np.unpackbits(self._states[:, None], axis=1,
                             bitorder="little").view(np.int8)

    x = functools.cached_property(
        lambda self: 2 * self._bits[:, :self._stations] - 1)
    w = functools.cached_property(
        lambda self: self._bits[:, self._stations:2 * self._stations])

    @functools.cached_property
    def v(self):
        import numpy as np
        return np.frombuffer(self.volts).reshape(self._stations,
                                                 -1)[:, self._rows].T


@dataclass
class CfdRun(_Records):
    """CFD trials start..start+n-1: all four stations observed per trial.

    codes holds each trial's state and volts its stations' voltages, and
    counts the 256 state counts of those trials (None for a run of a
    point's pass: see run_cfd).  x, v and w are (n, 4), in
    STATION_NAMES column order; phi1 and phi2, the trials' polarization
    angles (source_phis), are computed at their first access too.
    """

    params: ModelParams
    quad: SettingsQuad
    n: int
    seed: int
    codes: bytearray
    volts: bytearray
    counts: np.ndarray | None
    start: int = 0
    _stations = 4
    _rows = property(lambda self: slice(self.n))

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
class NonCfdRun(_Records):
    """The records of non-CFD trials start..start+n_trials-1: the n
    trials that their setting pair kept (see noncfd_counts), in counter
    order.

    codes and volts hold the states (64 for a trial the quota dropped)
    and voltages of all n_trials.  k holds the records' trial indices;
    a, x, v, w are (n, 2) arrays of the settings, outcomes, voltages and
    flags of side 1 and side 2; counts holds each setting pair's 16
    state counts, in PAIR_NAMES order.
    """

    params: ModelParams
    quad: SettingsQuad
    quota: int
    seed: int
    start: int
    n_trials: int
    n: int
    codes: bytearray
    volts: bytearray
    _stations = 2

    @functools.cached_property
    def _rows(self):  # of the kept trials
        import numpy as np
        return np.flatnonzero(np.frombuffer(self.codes, np.uint8,
                                            self.n_trials) < 64)

    k = functools.cached_property(lambda self: self.start + self._rows)

    @functools.cached_property
    def a(self):  # the coins: primed1 is bit 5, primed2 bit 4
        import numpy as np
        quad = self.quad
        return np.where(self._bits[:, [5, 4]], [quad.a1p, quad.a2p],
                        [quad.a1, quad.a2])

    @functools.cached_property
    def counts(self):
        import numpy as np
        return np.bincount(self._states, minlength=64).reshape(4, 16)


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

    On side 1 they are cos 2a and sin 2a, from kernels.table_trig in
    Python floats at u = a / TWO_PI, the same bits as law.trig's; side 2
    negates both, because 2phi2 = 2phi1 + pi (mod 2pi).
    """
    return tuple((c * sign, s * sign) for (c, s), sign in zip(
        (kernels.table_trig(a / TWO_PI, int, kernels._COS_TABLE,
                            kernels._SIN_TABLE) for a in quad.as_tuple()),
        (1.0, 1.0, -1.0, -1.0)))


def _origins(cfd: bool, seed: int) -> list:
    """The origins of this seed's streams _CHUNK_STREAMS (CFD) or
    _NONCFD_STREAMS, the pass's draws."""
    return [rng.stream_origin(seed, s)
            for s in (_CHUNK_STREAMS if cfd else _NONCFD_STREAMS)]


def _point(cfd: bool, params: ModelParams, quad: SettingsQuad, seed: int,
           quota: int, capacity: int, trials: bool = False):
    """One point's pass, compiled or numpy's as kernels.BACKEND says.

    Its add takes up to point.capacity trials a call: capacity, but
    _CALL_TRIALS for the compiled pass's counts alone.  With trials, each
    call writes its trials' states and voltages into point.codes and
    point.volts, bytearrays of capacity trials: a uint8 each, and a
    float64 per station and trial, station s's from trial s * capacity.
    """
    turns, origins = _turns(quad), _origins(cfd, seed)
    codes = volts = None
    if trials:
        codes = bytearray(capacity)
        volts = bytearray(8 * (4 if cfd else 2) * capacity)
    if kernels.BACKEND == "c":
        return kernels.Compiled(kernels.CPASS, cfd, params, turns, origins,
                                quota, capacity if trials else _CALL_TRIALS,
                                codes, volts)
    from .law import NumpyPass
    return NumpyPass(cfd, params, turns, origins, quota, capacity, codes,
                     volts)


def _noncfd_point(params: ModelParams, quad: SettingsQuad, quota: int,
                  seed: int, trials: bool = False):
    """A non-CFD point's pass, of calls of 2 * CHUNK trials (as many
    stations as a CFD chunk), or 4 * quota, when every pair can fill."""
    return _point(False, params, quad, seed, quota,
                  min(2 * CHUNK, 4 * quota), trials)


def cfd_counts(params: ModelParams, quad: SettingsQuad, n: int,
               seed: int, span=None) -> list:
    """The 256 state counts of CFD trials 0..n-1 of this seed, a list of
    ints: every station gets fresh draws each trial.

    The point's pass adds them up a call at a time, so memory does not
    grow with n; the counts do not depend on the calls' lengths.  With
    span = (lo, hi) they are the counts of trials lo..hi-1 alone, whose
    quadruples the caller checks on the point's sum (_check_identities);
    a point's are checked here.
    """
    _validate_run(n, seed)
    point = _point(True, params, quad, seed, 0, min(CHUNK, n))
    lo, hi = span or (0, n)
    for start in range(lo, hi, point.capacity):
        point.add(start, min(point.capacity, hi - start))
    counts = point.hist[:]
    if span is None:
        _check_identities(counts)
    return counts


def run_cfd(params: ModelParams, quad: SettingsQuad, n: int, seed: int,
            start: int = 0, point=None) -> CfdRun:
    """CFD trials start..start+n-1 of cfd_counts' pass, with each trial's
    state and voltages.  A CFD trial depends on its index alone, so any
    range of a point stands on its own.

    point is the point's pass, _point(True, params, quad, seed, 0, c,
    trials=True) with c >= n, or None for a pass of this run alone.
    Handed the point's pass, the run adds its counts to the pass's hist
    (its own counts are None), its buffers are the pass's, overwritten by
    the next run, and the quadruple identities are left to the caller,
    who checks them on the point's counts (_check_identities, as
    sweep._cfd_row does); otherwise they are checked here.
    """
    _validate_run(n, seed)
    own = point is None
    if own:
        point = _point(True, params, quad, seed, 0, n, trials=True)
    point.add(start, n)
    counts = None
    if own:
        import numpy as np
        counts = np.array(point.hist)
        _check_identities(counts)
    return CfdRun(params=params, quad=quad, n=n, seed=seed,
                  codes=point.codes, volts=point.volts, counts=counts,
                  start=start)


def noncfd_counts(params: ModelParams, quad: SettingsQuad, quota: int,
                  seed: int) -> list:
    """The (4, 16) pair state counts of the non-CFD pass at this quota,
    lists of ints: those of each pair's first quota trials.

    Trials are drawn in counter order, and each side's coin selects the
    (ca, sa) of its setting per trial.  The pass cuts them at the quota
    until every pair holds it.
    """
    _validate_run(quota, seed, "quota")
    point = _noncfd_point(params, quad, quota, seed)
    start = 0
    while walked := point.add(start, point.capacity):
        start += walked
    return _by_pair(point.hist)


def _by_pair(hist) -> list:
    """The 64 state counts of a non-CFD pass as each pair's 16."""
    return [hist[16 * p:16 * p + 16] for p in range(4)]


def run_noncfd(params: ModelParams, quad: SettingsQuad, quota: int,
               seed: int, point=None):
    """The records of noncfd_counts' pass, one NonCfdRun per call of its
    add, in counter order.  A call's records depend on the calls before
    it, through the quota.

    point is the point's pass, _noncfd_point(params, quad, quota, seed,
    trials=True), or None for a pass of these runs alone.  Handed the
    point's pass, each run's buffers are the pass's, overwritten by the
    next run; otherwise each run owns a copy of them.
    """
    _validate_run(quota, seed, "quota")
    own = point is None
    if own:
        point = _noncfd_point(params, quad, quota, seed, trials=True)
    start = 0
    while walked := point.add(start, point.capacity):
        codes, volts = point.codes, point.volts
        if own:
            codes, volts = bytearray(codes), bytearray(volts)
        yield NonCfdRun(params=params, quad=quad, quota=quota, seed=seed,
                        start=start, n_trials=walked,
                        n=walked - codes.count(64, 0, walked), codes=codes,
                        volts=volts)
        start += walked
