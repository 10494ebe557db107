"""Acceptance checks for the shipped operating points.

One test per criterion.  Each test prints a single summary line,
``criterion N: PASS - ...`` or ``criterion N: FAIL - ...``, before
asserting, so a plain ``pytest -s`` run yields a readable scorecard.
Expensive sweeps are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from eprbsim import selection, station
from eprbsim.experiment import run_cfd
from eprbsim.oracle import pass_probability, run_all_enumerations
from eprbsim.params import DEFAULT_SEED, ModelParams, SettingsQuad
from eprbsim.sweep import RunConfig, rows_to_csv, sweep_theta

SQRT8 = 2.0 * math.sqrt(2.0)
THETA_38 = 3.0 * math.pi / 8.0

SINGLES_KEYS = ("E1_1", "E1_2", "E2_1", "E2_2")
PAIR_E_KEYS = ("E11", "E12", "E21", "E22")


def _col(rows, key) -> np.ndarray:
    return np.array([row[key] for row in rows], dtype=float)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _max_singles(rows) -> float:
    return max(np.abs(_col(rows, key)).max() for key in SINGLES_KEYS)


@pytest.fixture(scope="module")
def default_rows():
    """Default CFD grid: d=4, Vmin=0.5, Vmax=1, threshold=-0.995, N=1e5."""
    _, rows = sweep_theta(RunConfig())
    return rows


@pytest.fixture(scope="module")
def theta38_row():
    # 3pi/8 is not a node of the 40-point grid; run it as its own point.
    cfg = RunConfig(theta_start=THETA_38, theta_end=THETA_38, theta_steps=1)
    _, rows = sweep_theta(cfg)
    return rows[0]


@pytest.fixture(scope="module")
def tight_rows():
    """Tight-threshold grid: threshold=-0.999, N=1e6."""
    _, rows = sweep_theta(RunConfig(threshold=-0.999, n=1_000_000))
    return rows


@pytest.fixture(scope="module")
def tight38_row():
    cfg = RunConfig(
        threshold=-0.999,
        n=1_000_000,
        theta_start=THETA_38,
        theta_end=THETA_38,
        theta_steps=1,
    )
    _, rows = sweep_theta(cfg)
    return rows[0]


@pytest.fixture(scope="module")
def sign_pattern_rows(default_rows):
    """Grids for the count-combination sign check, both sampling modes.

    threshold=-v_min_mag makes the window cover the whole time range, so
    every flag is 1 and the selected counts reduce to raw detection counts.
    """
    out = {
        ("cfd", "threshold"): default_rows,
        ("cfd", "all-pass"): sweep_theta(RunConfig(threshold=-0.5))[1],
    }
    for label, thr in (("threshold", -0.995), ("all-pass", -0.5)):
        out["noncfd", label] = sweep_theta(
            RunConfig(mode="noncfd", threshold=thr)
        )[1]
    return out


@pytest.fixture(scope="module")
def flat_rows():
    """Flat-response point: d=0, Vmin=0.95, Vmax=1, threshold=-0.995."""
    _, rows = sweep_theta(RunConfig(d=0.0, v_min_mag=0.95))
    return rows


@pytest.fixture(scope="module")
def million_run():
    return run_cfd(ModelParams(), SettingsQuad.for_theta(0.0), 1_000_000, DEFAULT_SEED)


def test_criterion_1_singlet_correlation(default_rows):
    theta = _col(default_rows, "theta")
    dev = np.abs(_col(default_rows, "E11") + np.cos(2.0 * theta)).max()
    singles = _max_singles(default_rows)
    ok = dev <= 0.10 and singles <= 0.05
    line = _report(
        1,
        ok,
        f"max|E+cos2theta|={dev:.4f} (<=0.10), max singles |E_i|={singles:.4f} (<=0.05)",
    )
    assert ok, line


def test_criterion_2_chsh_curve(default_rows, theta38_row):
    dev = np.abs(_col(default_rows, "S") - _col(default_rows, "S_ref")).max()
    s38 = theta38_row["S"]
    ok = dev <= 0.15 and s38 >= 2.5
    line = _report(
        2,
        ok,
        f"max|S-S_ref|={dev:.4f} (<=0.15), S(3pi/8)={s38:.4f} (>=2.5)",
    )
    assert ok, line


def test_criterion_3_tight_threshold(tight_rows, tight38_row):
    theta = _col(tight_rows, "theta")
    dev = np.abs(_col(tight_rows, "E11") + np.cos(2.0 * theta)).max()
    singles = _max_singles(tight_rows)
    s_dev = abs(tight38_row["S"] - SQRT8)
    ok = dev <= 0.04 and singles <= 0.05 and s_dev <= 0.06
    line = _report(
        3,
        ok,
        f"max|E+cos2theta|={dev:.4f} (<=0.04), singles={singles:.4f} (<=0.05), "
        f"|S(3pi/8)-2sqrt2|={s_dev:.4f} (<=0.06)",
    )
    assert ok, line


def test_criterion_4_count_combination_sign(sign_pattern_rows):
    mins = {}
    neg = {}
    for key, rows in sign_pattern_rows.items():
        j_eb = _col(rows, "J_eberhard")
        j_ch = _col(rows, "J_ch")
        assert np.array_equal(j_eb, j_ch), key
        mins[key] = j_eb.min()
        neg[key] = _col(rows, "theta")[j_eb < 0]

    all_pass_ok = all(mins[m, "all-pass"] >= 0 for m in ("cfd", "noncfd"))
    thr_neg_ok = all(neg[m, "threshold"].size > 0 for m in ("cfd", "noncfd"))
    cfd_neg = neg["cfd", "threshold"]
    same_pattern = np.array_equal(cfd_neg, neg["noncfd", "threshold"])
    ok = all_pass_ok and thr_neg_ok and same_pattern
    span = (
        f"[{cfd_neg.min() / math.pi:.3f}, {cfd_neg.max() / math.pi:.3f}]pi"
        if cfd_neg.size
        else "empty"
    )
    line = _report(
        4,
        ok,
        f"all flags up: min J={min(mins['cfd', 'all-pass'], mins['noncfd', 'all-pass']):.0f} (>=0); "
        f"with threshold: J<0 on {span}, "
        f"min J cfd={mins['cfd', 'threshold']:.0f} noncfd={mins['noncfd', 'threshold']:.0f}, "
        f"sign pattern {'matches' if same_pattern else 'differs'} across modes",
    )
    assert ok, line


def test_criterion_5_selection_bound(default_rows, tight_rows, flat_rows):
    worst_delta = 0.0
    worst_margin = math.inf
    for rows in (default_rows, tight_rows, flat_rows):
        delta = _col(rows, "delta")
        margin = (_col(rows, "bound") - np.abs(_col(rows, "S"))).min()
        worst_delta = max(worst_delta, delta.max())
        worst_margin = min(worst_margin, margin)
    ok = worst_delta < 0.8 and worst_margin >= -1e-9
    line = _report(
        5,
        ok,
        f"max delta={worst_delta:.4f} (<0.8), min (4-2delta)-|S|={worst_margin:.4f} (>=0)",
    )
    assert ok, line


def test_criterion_6_flat_response(flat_rows):
    theta = _col(flat_rows, "theta")
    dev = np.abs(_col(flat_rows, "E11") + 0.5 * np.cos(2.0 * theta)).max()
    s_max = np.abs(_col(flat_rows, "S")).max()
    ok = dev <= 0.10 and s_max <= 2.1
    line = _report(
        6,
        ok,
        f"max|E+cos(2theta)/2|={dev:.4f} (<=0.10), max|S|={s_max:.4f} (<=2.1)",
    )
    assert ok, line


def test_criterion_7_enumerations():
    reports = run_all_enumerations()
    cases = [r.cases for r in reports]
    violations = sum(len(r.violations) for r in reports)
    ok = cases == [16, 256, 81, 16] and violations == 0
    line = _report(
        7,
        ok,
        f"{'+'.join(str(c) for c in cases)} cases, {violations} violations",
    )
    assert ok, line


def test_criterion_8_threshold_window_equivalence():
    params = ModelParams()
    rng = np.random.default_rng(2026)
    n = 1_000_000

    v = -params.v_max_mag + (params.v_max_mag - params.v_min_mag) * rng.random(n)
    thr = -params.v_max_mag + (params.v_max_mag - params.v_min_mag) * rng.random(n)
    by_threshold = station.identify_photon(v, thr).astype(bool)
    by_window = selection.to_time(v, params) < selection.window_size(thr, params)
    mismatches = int(np.count_nonzero(by_threshold != by_window))

    # Passing pairs: draw arrival times strictly inside the window.
    w = selection.window_size(params.threshold, params)
    t1 = w * rng.random(n)
    t2 = w * rng.random(n)
    span = params.v_max_mag - params.v_min_mag
    for t in (t1, t2):
        flags = station.identify_photon(-params.v_max_mag + span * t, params.threshold)
        assert int(flags.min()) == 1
    res = selection.select_by_window(t1, t2, w)
    late = int(np.count_nonzero(~res.coincident))

    ok = mismatches == 0 and late == 0
    line = _report(
        8,
        ok,
        f"{n} random (v, threshold): {mismatches} threshold/window mismatches; "
        f"{n} passing pairs: {late} outside |t1-t2|<=W",
    )
    assert ok, line


def test_criterion_9_pass_fraction(million_run):
    params = ModelParams()
    n = million_run.w.shape[0]
    predicted = pass_probability(params)
    per_station = float(million_run.w[:, 0].mean())
    sigma = math.sqrt(predicted * (1.0 - predicted) / n)
    n_sigma = abs(per_station - predicted) / sigma

    # Three ways to book "fraction identified" against the nominal 0.23.
    per_pair = float((million_run.w[:, 0] & million_run.w[:, 2]).mean())
    per_quadruple = float(million_run.w.all(axis=1).mean())
    nominal = 0.23
    flagged = all(
        abs(f - nominal) > 0.08 for f in (per_station, per_pair, per_quadruple)
    )

    ok = n_sigma <= 4.0
    line = _report(
        9,
        ok,
        f"station fraction {per_station:.5f} vs predicted {predicted:.5f} "
        f"({n_sigma:.2f} sigma, <=4); accountings vs 0.23: "
        f"station {per_station:.3f}, pair {per_pair:.3f}, quadruple {per_quadruple:.4f}"
        f"{' [FLAGGED: all differ by >0.08]' if flagged else ''}",
    )
    assert ok, line


def test_criterion_10_byte_identical_output():
    def csv_bytes(**kwargs) -> bytes:
        cfg = RunConfig(n=20_000, theta_steps=8, **kwargs)
        columns, rows = sweep_theta(cfg)
        return rows_to_csv(columns, rows).encode("utf-8")

    first = csv_bytes()
    second = csv_bytes()
    threaded = csv_bytes(threads=4)
    ok = first == second == threaded
    line = _report(
        10,
        ok,
        f"{len(first)} bytes, repeat {'identical' if first == second else 'differs'}, "
        f"threads=4 {'identical' if first == threaded else 'differs'}",
    )
    assert ok, line
