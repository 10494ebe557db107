"""The estimators of a sweep row, computed from state counts.

Correlations come in two flavours: detection-event averages over all
trials, and photon averages restricted by the identification flags.
Undefined estimates (empty denominators) are carried as None, never as
silent zeros or NaNs.
"""
from __future__ import annotations

import math

import numpy as np

SQRT8 = 2.0 * math.sqrt(2.0)


def _ratio(num: float, den: int) -> float | None:
    return num / den if den > 0 else None


def chsh(e11, e12, e21, e22) -> float | None:
    """S = E11 - E12 + E21 + E22; None if any input is undefined."""
    if None in (e11, e12, e21, e22):
        return None
    return e11 - e12 + e21 + e22


def quantum_reference(theta: float) -> tuple[float, float]:
    """Singlet-state references: E(a1, a2) and S on the standard geometry."""
    e_ref = -math.cos(2.0 * theta)
    s_ref = -SQRT8 * math.cos(2.0 * theta + math.pi / 4.0)
    return e_ref, s_ref


# ------------------------------------------------------------- +-1 algebra

def quadruple_s(x1, x1p, x2, x2p):
    """CHSH combination of one outcome quadruple; +-2 for any signs."""
    return x1 * x2 - x1 * x2p + x1p * x2 + x1p * x2p


def quadruple_b(x1, x1p, x2, x2p):
    """The four three-product sums of a quadruple; each in {-1, +3}."""
    b1 = x1 * x1p + x1 * x2 + x1p * x2
    b2 = x1 * x1p + x1 * x2p + x1p * x2p
    b3 = x1 * x2 + x1 * x2p + x2 * x2p
    b4 = x1p * x2 + x1p * x2p + x2 * x2p
    return b1, b2, b3, b4


# ------------------------------------------------------------------- fates

def eberhard_j_terms(f_1, f_1p, f_2, f_2p):
    """Per-trial Eberhard-style count combination.

    Arguments are fates at the four stations (side-1 plain and primed,
    side-2 plain and primed).  The combination pairs the primed side-1
    setting with the primed side-2 setting in the 'wasted pair' terms
    and is non-negative for every fate assignment.  On 0/1 detection
    indicators it is the CH combination.
    """
    o1 = (np.asarray(f_1) == 1).astype(np.int64)
    o1p = (np.asarray(f_1p) == 1).astype(np.int64)
    o2 = (np.asarray(f_2) == 1).astype(np.int64)
    o2p = (np.asarray(f_2p) == 1).astype(np.int64)
    return o1p * (1 - o2p) + (1 - o1) * o2 + o1 * o2p - o1p * o2


def eberhard_selected(n_oo, n_oe, n_eo) -> int:
    """Eberhard combination over identified pairs from per-pair counts.

    Each argument holds one count per setting pair in the order 11, 12,
    21, 22; each term is counted in the records of its own setting pair.
    Counting extraordinary outcomes as undetected makes it the CH
    combination too.
    """
    return int(n_oe[3] + n_eo[0] + n_oo[1] - n_oo[2])


# ------------------------------------------------------------ state counts
#
# A setting pair's trials reduce to counts of 16 states, encoded as the
# comment on experiment.QUADRUPLES says: bit 0 set for x1 = +1, bit 1 for
# x2 = +1, bit 2 for w1, bit 3 for w2.  Every sum an estimator needs is
# an integer linear function of those counts.

_STATE = np.arange(16)
_O1, _O2, _W1, _W2 = ((_STATE >> bit) & 1 for bit in range(4))
_X1, _X2 = 2 * _O1 - 1, 2 * _O2 - 1
_BOTH = _W1 * _W2
_PAIR_SUMS = {
    "n": np.ones(16, np.int64),
    "xx": _X1 * _X2,                  # detection-event product sum
    "n_pass": _BOTH,                  # pairs both flags identify
    "xx_pass": _BOTH * _X1 * _X2,     # product sum over those pairs
    "n1": _W1, "x1": _W1 * _X1,       # side-1 identified count and sum
    "n2": _W2, "x2": _W2 * _X2,       # side-2 identified count and sum
    "n_oo": _BOTH * _O1 * _O2,
    "n_oe": _BOTH * _O1 * (1 - _O2),
    "n_eo": _BOTH * (1 - _O1) * _O2,
}


def _pair_sums(pair_counts) -> dict:
    """Integer sums over each setting pair's trials.

    pair_counts is a (P, 16) array of state counts.  Returns a dict
    mapping each sum's name ('n', 'xx', 'n_pass', 'xx_pass', 'n1', 'x1',
    'n2', 'x2', 'n_oo', 'n_oe', 'n_eo') to a list of P ints.
    """
    pc = np.asarray(pair_counts, np.int64)
    return {name: [int(v) for v in pc @ weight]
            for name, weight in _PAIR_SUMS.items()}


def pair_statistics(pair_counts) -> dict:
    """The estimator columns of a sweep row from setting-pair state counts.

    pair_counts is (4, 16), pairs in the order 11, 12, 21, 22.  Each
    setting's single average merges the two pairs that use the setting.
    In a CFD run both pairs hold the same station, which doubles the
    numerator and the denominator alike and leaves the float unchanged.
    """
    t = _pair_sums(pair_counts)
    photon = [_ratio(float(a), b) for a, b in zip(t["xx_pass"], t["n_pass"])]
    detect = [_ratio(float(a), b) for a, b in zip(t["xx"], t["n"])]

    def single(side, p, q):
        x, n = t["x" + side], t["n" + side]
        return _ratio(float(x[p] + x[q]), n[p] + n[q])

    j = eberhard_selected(t["n_oo"], t["n_oe"], t["n_eo"])
    return {
        "E11": photon[0], "E12": photon[1], "E21": photon[2], "E22": photon[3],
        "E1_1": single("1", 0, 1), "E1_2": single("1", 2, 3),
        "E2_1": single("2", 0, 2), "E2_2": single("2", 1, 3),
        "S": chsh(*photon), "S_hat": chsh(*detect),
        "J_eberhard": j, "J_ch": j,
        "n_pass_11": t["n_pass"][0], "n_pass_12": t["n_pass"][1],
        "n_pass_21": t["n_pass"][2], "n_pass_22": t["n_pass"][3],
        "pass_fraction": (sum(t["n1"]) + sum(t["n2"])) / (2 * sum(t["n"])),
    }


# ------------------------------------------------------------------- delta

def delta_ratio(n_prime: int, n_passes, denominator: str = "max-pair",
                per_setting_total: int | None = None):
    """Pair-selection fraction delta and the CHSH bound 4 - 2*delta.

    n_prime counts trials whose four flags all pass; n_passes holds the
    per-pair contributing counts.  denominator 'max-pair' divides by the
    largest per-pair count, 'setting-quota' by the per-setting trial
    total.  Returns (delta, bound), or (None, None) when the chosen
    denominator is zero.
    """
    if denominator == "max-pair":
        n_max = max(n_passes)
    elif denominator == "setting-quota":
        if per_setting_total is None:
            raise ValueError("setting-quota denominator needs per_setting_total")
        n_max = per_setting_total
    else:
        raise ValueError(f"unknown delta denominator {denominator!r}")
    if n_max <= 0:
        return None, None
    d = n_prime / n_max
    return d, 4.0 - 2.0 * d
