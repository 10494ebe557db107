"""Per-trial array estimators, the tests' independent reference for rows.

Rows come from state counts (`eprbsim.stats`); these compute the same
quantities from outcome and flag arrays without the package's formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
