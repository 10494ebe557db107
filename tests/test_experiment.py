"""End-to-end runners: locality, reproducibility, and agreement with the
exactly integrable infinite-sample limits of the model.

The frozen expectations below come from 1-D quadrature over the source
angle: conditioned on the misalignment u, the pass probability of one
station is h(u) = min(1, kappa / |sin u|^d) and the outcome mean is
cos u, so the kept-pair correlation is
    E(delta) = -<h(u) h(u-2*delta) cos u cos(u-2*delta)> / <h h>,
with u uniform on [0, 2*pi).  Evaluated once and frozen.
"""
import math

import numpy as np
import pytest
from scipy import stats as sps

import reference
from eprbsim import kernels, rng, station, stats
from eprbsim.experiment import PAIR_COLUMNS, run_cfd, run_noncfd, source_phis
from eprbsim.params import ModelParams, SettingsQuad

P = ModelParams()  # d=4, Vmin=0.5, Vmax=1, threshold=-0.995

# E(delta) at kappa = 0.01 from the quadrature above.
EXACT_E_ALIGNED = -0.95187        # delta = 0
EXACT_E_MAX_VIOLATION = 0.78129   # delta = 3*pi/8
EXACT_S_MAX = 3.12515             # S at theta = 3*pi/8
EXACT_PAIR_PASS_ALIGNED = 0.23591

# Per-trial identified-pairs Eberhard rate at theta = pi/4, same quadrature
# (term probabilities <h h' (x-indicator products)> per setting pair).
EXACT_J_RATE_QUARTER = -0.10900


def _pair_estimates(run):
    x, w = run.x, run.w
    return [reference.pair_estimate(x[:, i], x[:, j], w[:, i], w[:, j])
            for i, j in PAIR_COLUMNS]


def test_source_pair_orthogonality():
    phi1, phi2 = source_phis(7, 10_000)
    assert np.all((phi1 >= 0) & (phi1 < 2 * math.pi))
    assert np.all((phi2 >= 0) & (phi2 < 2 * math.pi))
    diff = np.mod(phi2 - phi1, 2 * math.pi)
    np.testing.assert_allclose(diff, math.pi / 2, atol=1e-12)


def test_source_angle_uniformity():
    phi1, _ = source_phis(11, 100_000)
    assert sps.kstest(phi1 / (2 * math.pi), "uniform").pvalue > 1e-3


def test_cfd_run_is_deterministic():
    q = SettingsQuad.for_theta(0.3)
    a = run_cfd(P, q, 5000, 99)
    b = run_cfd(P, q, 5000, 99)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.w, b.w)


def test_cfd_flags_match_threshold_rule():
    run = run_cfd(P, SettingsQuad.for_theta(1.0), 20_000, 5)
    assert np.array_equal(run.w, (run.v < P.threshold).astype(run.w.dtype))
    assert set(np.unique(run.x)) <= {-1, 1}
    assert run.x.shape == run.v.shape == run.w.shape == (20_000, 4)


def test_forced_inputs_reproduce_scalar_station_law():
    # The package's law (kernels.station_law) against the scalar one with
    # libm's cos, sin and pow: equal outcomes away from their boundary,
    # and voltages within the law's few units of 1e-15.
    u = np.array([0.0, 0.3, 2.0]) / (2 * math.pi)
    r, rhat = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.6, 0.8])
    q = SettingsQuad.for_theta(0.7)
    phi1 = 2 * math.pi * u
    phi2 = np.mod(phi1 + math.pi / 2, 2 * math.pi)
    for col in range(4):
        x, v, w = reference.package_station(P, q, col, u, r, rhat)
        for k in range(3):
            ref = station.station_respond(
                q.as_tuple()[col], (phi1 if col < 2 else phi2)[k],
                station.RandomPair(r[k], rhat[k]), P)
            assert x[k] == ref.x
            assert v[k] == pytest.approx(ref.v, abs=1e-14)
            assert w[k] == (v[k] < P.threshold)


def test_changing_far_setting_leaves_near_side_untouched():
    n = 30_000
    base = SettingsQuad.for_theta(0.9)
    moved = SettingsQuad(a1=base.a1, a1p=base.a1p, a2=base.a2 + 0.5,
                         a2p=base.a2p)
    a = run_cfd(P, base, n, 123)
    b = run_cfd(P, moved, n, 123)
    # side 1 columns are bit-identical, side 2's plain column is not
    assert np.array_equal(a.x[:, :2], b.x[:, :2])
    assert np.array_equal(a.v[:, :2], b.v[:, :2])
    assert not np.array_equal(a.x[:, 2], b.x[:, 2])
    assert np.array_equal(a.x[:, 3], b.x[:, 3])


def test_correlation_matches_quadrature_when_aligned():
    n = 200_000
    run = run_cfd(P, SettingsQuad.for_theta(0.0), n, 2024)
    est = _pair_estimates(run)[0]
    se = reference.standard_error(est.e, est.n_pass)
    assert abs(est.e - EXACT_E_ALIGNED) <= 4 * se
    frac = est.n_pass / n
    sigma = math.sqrt(EXACT_PAIR_PASS_ALIGNED * (1 - EXACT_PAIR_PASS_ALIGNED) / n)
    assert abs(frac - EXACT_PAIR_PASS_ALIGNED) <= 4 * sigma


def test_correlation_and_chsh_match_quadrature_at_peak():
    n = 200_000
    run = run_cfd(P, SettingsQuad.for_theta(3 * math.pi / 8), n, 2025)
    ests = _pair_estimates(run)
    e11 = ests[0]
    se = reference.standard_error(e11.e, e11.n_pass)
    assert abs(e11.e - EXACT_E_MAX_VIOLATION) <= 4 * se
    s = stats.chsh(*(e.e for e in ests))
    se_s = math.sqrt(sum(reference.standard_error(e.e, e.n_pass) ** 2
                         for e in ests))
    assert abs(s - EXACT_S_MAX) <= 4 * se_s
    assert s > 2.0  # the point of the construction


def test_detection_correlation_has_half_amplitude():
    n = 200_000
    run = run_cfd(P, SettingsQuad.for_theta(0.0), n, 77)
    det = reference.pair_estimate(run.x[:, 0], run.x[:, 2])
    assert abs(det.e - (-0.5)) <= 4 / math.sqrt(n)


def test_photon_singles_are_centered():
    run = run_cfd(P, SettingsQuad.for_theta(0.6), 100_000, 31)
    for c in range(4):
        avg, n = reference.single_average(run.x[:, c], run.w[:, c])
        assert n > 20_000
        assert abs(avg) <= 4 / math.sqrt(n)


def _noncfd_records(quad, quota, seed):
    """(k, a, x, v, w) of a whole non-CFD point, joined from its chunks."""
    runs = list(run_noncfd(P, quad, quota, seed))
    return tuple(np.concatenate([getattr(run, name) for run in runs])
                 for name in ("k", "a", "x", "v", "w"))


def _pairs_of(quad, a):
    """The setting pair (PAIR_NAMES index) of each record's settings."""
    assert quad.a1 != quad.a1p and quad.a2 != quad.a2p
    return 2 * (a[:, 0] == quad.a1p) + (a[:, 1] == quad.a2p)


def test_cfd_runs_chunk_by_chunk_equal_one_run():
    q = SettingsQuad.for_theta(0.7)
    whole = run_cfd(P, q, 1000, 12)
    parts = [run_cfd(P, q, 300, 12), run_cfd(P, q, 700, 12, start=300)]
    assert [p.start for p in parts] == [0, 300]
    for name in ("phi1", "phi2", "x", "v", "w"):
        assert np.array_equal(getattr(whole, name),
                              np.concatenate([getattr(p, name)
                                              for p in parts]))
    assert np.array_equal(whole.counts, parts[0].counts + parts[1].counts)


def test_noncfd_quota_is_exact():
    quad = SettingsQuad.for_theta(0.8)
    k, a, x, v, w = _noncfd_records(quad, 4000, 15)
    assert k.shape == (4 * 4000,)
    assert a.shape == x.shape == v.shape == w.shape == (4 * 4000, 2)
    # a trial index can feed only one pair subset, and records come in
    # trial order
    assert np.all(np.diff(k) > 0)
    assert np.bincount(_pairs_of(quad, a)).tolist() == [4000] * 4


def test_noncfd_records_reproducible_from_trial_index():
    # Every kept record must equal a direct recomputation at its original
    # trial index, so chunk boundaries cannot leak into the data.
    quad = SettingsQuad.for_theta(0.8)
    k, a, x, v, w = _noncfd_records(quad, 500, 16)

    def at(stream):
        return kernels.gather_uniforms(rng.stream_origin(16, stream), k)

    u = at(rng.SOURCE)
    for side, (choice, r, rhat) in enumerate((
            (rng.CHOICE_1, rng.R_1, rng.RHAT_1),
            (rng.CHOICE_2, rng.R_2, rng.RHAT_2))):
        primed = at(choice) < 0.5
        assert np.array_equal(a[:, side], np.where(
            primed, quad.as_tuple()[2 * side + 1], quad.as_tuple()[2 * side]))
        plain, prime = (reference.package_station(P, quad, 2 * side + p, u,
                                                  at(r), at(rhat))
                        for p in (0, 1))
        for got, want_plain, want_prime in zip(
                (x[:, side], v[:, side], w[:, side]), plain, prime):
            assert np.array_equal(got, np.where(primed, want_prime,
                                                want_plain))


def test_noncfd_choice_marginals_are_fair():
    k = _noncfd_records(SettingsQuad.for_theta(0.4), 20_000, 18)[0]
    n = int(k[-1]) + 1
    sigma = math.sqrt(0.25 * n)
    for stream in (rng.CHOICE_1, rng.CHOICE_2):
        primed = np.count_nonzero(rng.uniforms(18, stream, n) < 0.5)
        assert abs(primed - n / 2) <= 4 * sigma


def test_noncfd_station_output_ignores_far_dial():
    base = SettingsQuad.for_theta(0.9)
    moved = SettingsQuad(a1=base.a1, a1p=base.a1p, a2=base.a2 + 0.4,
                         a2p=base.a2p)
    ka, _, xa, va, _ = _noncfd_records(base, 2000, 21)
    kb, _, xb, vb, _ = _noncfd_records(moved, 2000, 21)
    assert np.array_equal(ka, kb)  # coins do not see settings
    assert np.array_equal(xa[:, 0], xb[:, 0])
    assert np.array_equal(va[:, 0], vb[:, 0])


def test_modes_estimate_the_same_correlations():
    theta = 0.55
    quad = SettingsQuad.for_theta(theta)
    cfd = run_cfd(P, quad, 100_000, 40)
    _, a, x, _, w = _noncfd_records(quad, 25_000, 41)
    pairs = _pairs_of(quad, a)
    cfd_ests = _pair_estimates(cfd)
    non_ests = [reference.pair_estimate(*x[pairs == p].T, *w[pairs == p].T)
                for p in range(4)]
    for ec, en in zip(cfd_ests, non_ests):
        se = math.hypot(reference.standard_error(ec.e, ec.n_pass),
                        reference.standard_error(en.e, en.n_pass))
        assert abs(ec.e - en.e) <= 4 * se


def test_identified_pairs_combination_matches_quadrature():
    # The column accounting: count each term among that pair's identified
    # records.  Per-trial contributions are observable in quadruple mode,
    # which gives a principled standard error for the 4-sigma gate.
    n = 50_000
    run = run_cfd(P, SettingsQuad.for_theta(math.pi / 4), n, 23)
    x, w = run.x, run.w
    keep = [((w[:, i] == 1) & (w[:, j] == 1)) for i, j in PAIR_COLUMNS]
    o = [x[:, c] == 1 for c in range(4)]
    t = (
        (keep[3] & o[1] & ~o[3]).astype(np.int64)    # n_oe at (a1p, a2p)
        + (keep[0] & ~o[0] & o[2])                   # n_eo at (a1, a2)
        + (keep[1] & o[0] & o[3])                    # n_oo at (a1, a2p)
        - (keep[2] & o[1] & o[2])                    # n_oo at (a1p, a2)
    )
    records = {name: (x[:, i], x[:, j], w[:, i], w[:, j])
               for name, (i, j) in zip(("11", "12", "21", "22"), PAIR_COLUMNS)}
    assert reference.eberhard_total_selected(records) == int(t.sum())
    se = float(t.std(ddof=1)) / math.sqrt(n)
    assert abs(float(t.mean()) - EXACT_J_RATE_QUARTER) <= 4 * se
    assert int(t.sum()) < 0


def test_identified_pairs_combination_no_threshold_rate():
    # With every flag passing the accounting reduces to the fate sum and
    # its detection-event mean is (2 + sqrt(2) cos(2 theta + pi/4)) / 4.
    n = 30_000
    theta = 3 * math.pi / 8
    params = ModelParams(threshold=-P.v_min_mag)
    run = run_cfd(params, SettingsQuad.for_theta(theta), n, 29)
    assert np.all(run.w == 1)
    records = {name: (run.x[:, i], run.x[:, j], run.w[:, i], run.w[:, j])
               for name, (i, j) in zip(("11", "12", "21", "22"), PAIR_COLUMNS)}
    j = reference.eberhard_total_selected(records)
    assert j == stats.eberhard_j_terms(*run.x.T).sum()
    ref = (2.0 + math.sqrt(2.0) * math.cos(2.0 * theta + math.pi / 4.0)) / 4.0
    assert abs(j / n - ref) <= 4 * math.sqrt(0.5 / n)
    assert j >= 0


def test_run_rejects_bad_arguments():
    q = SettingsQuad.for_theta(0.0)
    with pytest.raises(ValueError):
        run_cfd(P, q, 0, 1)
    with pytest.raises(ValueError):
        list(run_noncfd(P, q, 0, 1))
    with pytest.raises(ValueError):
        run_cfd(P, q, 10, -3)
