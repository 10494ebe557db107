"""Checks of eprbsim's CSV rows and trial dump against independent references.

Statistical columns must lie within Z_MAX standard errors of the exact
finite-window expectations (exact.py); the standard errors used are exact or
larger.  Everything else is checked exactly: the grid, the invariants the
simulator promises, and, for a trial dump, every record and every count the
rows were computed from.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from exact import PAIRS, settings_for_theta

# |z| above this fails a comparison.  A sound simulator exceeds 6 with odds
# of 2e-9 per comparison, a few in a million per seed over the ~1,400
# comparisons of the four workloads; a wrong formula or a mixed-up column
# lands far beyond it, and the pooled comparisons catch a bias of one
# standard error per row on a 40-point grid.
Z_MAX = 6.0
_TOL = 1e-9

COLUMNS = [
    "theta", "E11", "E12", "E21", "E22", "E1_1", "E1_2", "E2_1", "E2_2",
    "S", "S_ref", "E_ref", "S_hat", "J_eberhard", "J_ch", "delta", "bound",
    "n_pass_11", "n_pass_12", "n_pass_21", "n_pass_22", "pass_fraction",
    "N", "seed",
]
_E = ("E11", "E12", "E21", "E22")
_SINGLES = ("E1_1", "E1_2", "E2_1", "E2_2")
_N_PASS = ("n_pass_11", "n_pass_12", "n_pass_21", "n_pass_22")
DUMP_HEADER = "k,a1,a1p,a2,a2p,x1,x1p,x2,x2p,v1,v1p,v2,v2p,w1,w1p,w2,w2p"


class Report:
    """Problems found, with the worst |z| over all statistical comparisons."""

    def __init__(self):
        self.problems: list[str] = []
        self.worst_z = 0.0
        self.comparisons = 0
        self._signed: dict[str, list] = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def z(self, at: str, column: str, value, expected: float, se: float) -> None:
        if value is None:
            self.problems.append(f"{at} {column}: undefined, expected {expected:.6g}")
            return
        z = (value - expected) / se
        self._signed.setdefault(column, []).append(z)
        self._judge(f"{at} {column}", z, f"{value:.6g} is {z:+.1f} standard "
                                         f"errors from the exact {expected:.6g}")

    def pool(self) -> None:
        """One more comparison per column: grid points are independent, so
        sum(z) / sqrt(n) is again within one standard error of 0, and a
        bias too small to show in one row adds up over the grid."""
        for column, zs in self._signed.items():
            if len(zs) > 1:
                z = sum(zs) / math.sqrt(len(zs))
                self._judge(f"{column} pooled over {len(zs)} points", z,
                            f"mean offset is {z:+.1f} standard errors")

    def _judge(self, label: str, z: float, detail: str) -> None:
        self.comparisons += 1
        self.worst_z = max(self.worst_z, abs(z))
        self.require(abs(z) <= Z_MAX, f"{label}: {detail}")


def _cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_rows(text: str):
    """(header, rows) of CSV text; empty cells become None."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, map(_cell, rec))) for rec in reader]


def check_rows(text: str, grid, wl, seed: int, refs) -> Report:
    """Check the CSV output of a sweep.

    grid holds (theta, threshold) per expected row, wl the workload (mode,
    n, threshold_sweep), seed the simulator seed and refs the exact
    reference of each grid point.
    """
    rep = Report()
    header, rows = parse_rows(text)
    sweep_threshold = wl.threshold_sweep is not None
    want = (["threshold"] if sweep_threshold else []) + COLUMNS
    rep.require(header == want, f"header {header} != {want}")
    rep.require(len(rows) == len(grid), f"{len(rows)} rows, expected {len(grid)}")
    if rep.problems:
        return rep
    cfd = wl.mode == "cfd"
    # Trials behind each pair and each station.
    pair_trials = wl.n
    station_trials = wl.n if cfd else 2 * wl.n
    flags_indep = wl.n if cfd else 4 * wl.n
    for i, (row, (theta, thr), ref) in enumerate(zip(rows, grid, refs)):
        at = f"row {i}"
        rep.require(row["theta"] == theta, f"{at}: theta {row['theta']!r} != {theta!r}")
        if sweep_threshold:
            rep.require(row["threshold"] == thr,
                        f"{at}: threshold {row['threshold']!r} != {thr!r}")
        rep.require(row["N"] == wl.n and row["seed"] == seed,
                    f"{at}: N={row['N']} seed={row['seed']}")
        e_ref = -math.cos(2.0 * theta)
        s_ref = -2.0 * math.sqrt(2.0) * math.cos(2.0 * theta + math.pi / 4.0)
        rep.require(abs(row["E_ref"] - e_ref) < 1e-12
                    and abs(row["S_ref"] - s_ref) < 1e-12,
                    f"{at}: E_ref/S_ref {row['E_ref']}/{row['S_ref']}")
        rep.require(row["J_eberhard"] == row["J_ch"],
                    f"{at}: J_eberhard {row['J_eberhard']} != J_ch {row['J_ch']}")
        rep.require(abs(row["S_hat"]) <= 2.0 + _TOL, f"{at}: |S_hat| > 2")
        if cfd:
            rep.require(abs(row["bound"] - (4.0 - 2.0 * row["delta"])) < 1e-12,
                        f"{at}: bound != 4 - 2 delta")
            rep.require(abs(row["S"]) <= row["bound"] + _TOL, f"{at}: |S| > bound")
        else:
            rep.require(row["delta"] is None and row["bound"] is None,
                        f"{at}: noncfd row carries delta/bound")

        se_e = []
        for col, npass_col, e, pp in zip(_E, _N_PASS, ref.e, ref.pair_pass):
            n_pass = row[npass_col]
            rep.z(at, npass_col, n_pass, pair_trials * pp,
                  math.sqrt(pair_trials * pp * (1.0 - pp)))
            se_e.append(math.sqrt((1.0 - e * e) / max(n_pass, 1)))
            rep.z(at, col, row[col], e, se_e[-1])
        rep.z(at, "S", row["S"], ref.s, sum(se_e))
        rep.z(at, "S_hat", row["S_hat"], ref.s_hat,
              sum(math.sqrt((1.0 - e * e) / pair_trials) for e in ref.e_det))
        p = ref.pass_prob
        for col, e in zip(_SINGLES, ref.singles):
            rep.z(at, col, row[col], e,
                  math.sqrt((1.0 - e * e) / (station_trials * p)))
        # The flags of one trial (CFD) or record (noncfd) are correlated;
        # treating them as one draw bounds the variance from above.
        rep.z(at, "pass_fraction", row["pass_fraction"], p,
              math.sqrt(p * (1.0 - p) / flags_indep))
    rep.pool()
    return rep


def check_dump(path: str, rows_text: str, grid, wl) -> Report:
    """Check a CFD trial dump record by record and recount each row from it."""
    rep = Report()
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    rep.require(header == DUMP_HEADER, f"dump header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = wl.n
    rep.require(data.shape == (n * len(grid), 17),
                f"dump holds {data.shape}, expected {(n * len(grid), 17)}")
    if rep.problems:
        return rep
    _, rows = parse_rows(rows_text)
    for i, ((theta, thr), row) in enumerate(zip(grid, rows)):
        at = f"dump point {i}"
        block = data[i * n:(i + 1) * n]
        k, settings = block[:, 0], block[:, 1:5]
        x, v, w = block[:, 5:9], block[:, 9:13], block[:, 13:17]
        rep.require(np.array_equal(k, np.arange(n)), f"{at}: k is not 0..n-1")
        want = [a % (2.0 * math.pi) for a in settings_for_theta(theta)]
        rep.require(np.allclose(settings, want, rtol=0.0, atol=1e-12),
                    f"{at}: analyzer settings differ from {want}")
        rep.require(bool(np.all(np.abs(x) == 1)), f"{at}: x outside {{-1, +1}}")
        rep.require(np.array_equal(w, (v < thr).astype(float)),
                    f"{at}: w != [v < threshold]")
        xi, wi = x.astype(np.int64), w.astype(np.int64)
        for (a, b), npass_col, e_col in zip(PAIRS, _N_PASS, _E):
            both = wi[:, a] * wi[:, b]
            n_pass = int(both.sum())
            e = float(int((both * xi[:, a] * xi[:, b]).sum())) / n_pass \
                if n_pass else None
            rep.require(n_pass == row[npass_col] and e == row[e_col],
                        f"{at}: recount {npass_col}={n_pass} {e_col}={e!r}, "
                        f"row has {row[npass_col]} {row[e_col]!r}")
    return rep
