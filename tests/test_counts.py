"""State counts: the streaming passes and rows computed from counts.

Rows are computed from integer counts of per-trial states.  The
references here recompute each row from the per-trial arrays with the
array estimators of `reference`, the way rows were computed before
counts.
"""
import math
import tracemalloc

import numpy as np
import pytest

import reference
from eprbsim import experiment, stats, sweep
from eprbsim.experiment import (PAIR_COLUMNS, PAIR_NAMES, cfd_counts,
                                noncfd_counts, pair_counts, run_cfd,
                                run_noncfd, state_counts)
from eprbsim.params import ModelParams, SettingsQuad
from eprbsim.sweep import (RunConfig, _cfd_row, _noncfd_row, rows_to_csv,
                           sweep_theta)

THETA_38 = 3.0 * math.pi / 8.0
PARAMS = [
    ModelParams(),                   # threshold -0.995
    ModelParams(threshold=-0.5),     # every flag passes
    ModelParams(threshold=-1.0),     # no flag passes: photon columns empty
]
IDS = ["window", "all-pass", "none-pass"]


def _reference_row(theta, x1, x2, w1, w2, w_all, n, seed):
    """Row columns from per-pair arrays (four of each, pair order 11..22)."""
    photon = [reference.pair_estimate(*a) for a in zip(x1, x2, w1, w2)]
    detect = [reference.pair_estimate(a, b) for a, b in zip(x1, x2)]

    def single(xs, ws):
        return reference.single_average(np.concatenate(xs),
                                        np.concatenate(ws))[0]

    records = dict(zip(PAIR_NAMES, zip(x1, x2, w1, w2)))
    j = reference.eberhard_total_selected(records)
    e_ref, s_ref = stats.quantum_reference(theta)
    return {
        "theta": theta,
        "E11": photon[0].e, "E12": photon[1].e,
        "E21": photon[2].e, "E22": photon[3].e,
        "E1_1": single(x1[:2], w1[:2]), "E1_2": single(x1[2:], w1[2:]),
        "E2_1": single(x2[::2], w2[::2]), "E2_2": single(x2[1::2], w2[1::2]),
        "S": stats.chsh(*(p.e for p in photon)), "S_ref": s_ref,
        "E_ref": e_ref, "S_hat": stats.chsh(*(d.e for d in detect)),
        "J_eberhard": j, "J_ch": j,
        "n_pass_11": photon[0].n_pass, "n_pass_12": photon[1].n_pass,
        "n_pass_21": photon[2].n_pass, "n_pass_22": photon[3].n_pass,
        "pass_fraction": float(np.concatenate(w_all).mean()),
        "N": n, "seed": seed,
    }


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_cfd_row_from_counts_equals_row_from_arrays(params, monkeypatch):
    monkeypatch.setattr(experiment, "CHUNK", 4096)
    n, seed = 10_000, 77
    streamed, none = _cfd_row(params, THETA_38, n, seed, 5, "max-pair")
    from_run, run = _cfd_row(params, THETA_38, n, seed, 5, "max-pair",
                             keep_run=True)
    assert none is None
    assert streamed == from_run
    assert np.array_equal(cfd_counts(params, run.quad, n, seed), run.counts)

    x, w = run.x, run.w
    side1, side2 = zip(*PAIR_COLUMNS)
    ref = _reference_row(THETA_38, [x[:, i] for i in side1],
                         [x[:, j] for j in side2], [w[:, i] for i in side1],
                         [w[:, j] for j in side2], [w.ravel()], n, 5)
    for c, key in enumerate(("E1_1", "E1_2", "E2_1", "E2_2")):
        ref[key] = reference.single_average(x[:, c], w[:, c])[0]
    assert stats.eberhard_j_terms(*x.T).sum() >= 0
    n_prime = int(np.count_nonzero(np.all(w == 1, axis=1)))
    ref["delta"], ref["bound"] = stats.delta_ratio(
        n_prime, tuple(ref[f"n_pass_{p}"] for p in PAIR_NAMES))
    assert streamed == ref
    for p, (i, j) in enumerate(PAIR_COLUMNS):
        direct = state_counts((x[:, i], x[:, j]), (w[:, i], w[:, j]))
        assert np.array_equal(pair_counts(run.counts)[p], direct)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_noncfd_row_from_counts_equals_row_from_arrays(params):
    row, none = _noncfd_row(params, 0.7, 3000, 41, 5)
    from_run, run = _noncfd_row(params, 0.7, 3000, 41, 5, keep_run=True)
    assert none is None
    assert row == from_run
    pairs = run.pairs
    ref = _reference_row(0.7, [p.x1 for p in pairs], [p.x2 for p in pairs],
                         [p.w1 for p in pairs], [p.w2 for p in pairs],
                         [np.concatenate([p.w1, p.w2]) for p in pairs],
                         3000, 5)
    ref["delta"] = ref["bound"] = None
    assert row == ref


@pytest.mark.parametrize("chunk", [1, 7, 4096, 9000, 10**6])
def test_rows_do_not_depend_on_chunk_size(chunk, monkeypatch):
    cfgs = [RunConfig(mode=mode, n=n, theta_steps=1, theta_start=THETA_38,
                      theta_end=THETA_38)
            for mode, n in (("cfd", 9000), ("noncfd", 2500))]
    expected = [rows_to_csv(*sweep_theta(cfg)) for cfg in cfgs]
    monkeypatch.setattr(experiment, "CHUNK", chunk)
    assert [rows_to_csv(*sweep_theta(cfg)) for cfg in cfgs] == expected


def test_only_concurrent_cfd_points_take_the_concurrent_chunk(monkeypatch):
    chunks = []

    def spy(params, quad, n, seed, chunk=None):
        chunks.append(chunk)
        return cfd_counts(params, quad, n, seed, chunk)

    monkeypatch.setattr(sweep, "cfd_counts", spy)
    n = 2 * experiment.CONCURRENT_CHUNK + 5
    expected = rows_to_csv(*sweep_theta(RunConfig(n=n, theta_steps=2)))
    assert chunks == [None, None]
    for threads, steps, chunk in ((2, 1, None),
                                  (2, 2, experiment.CONCURRENT_CHUNK)):
        chunks.clear()
        got = rows_to_csv(*sweep_theta(RunConfig(n=n, theta_steps=steps,
                                                 threads=threads)))
        assert chunks == [chunk] * steps
        if steps == 2:
            assert got == expected


def _traced_peak(point) -> int:
    tracemalloc.start()
    try:
        point()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_point_memory_stays_bounded():
    assert _traced_peak(lambda: _cfd_row(
        ModelParams(threshold=-0.999), THETA_38, 1_000_000, 3, 3,
        "max-pair")) < 32 * 2**20


def test_streamed_noncfd_point_memory_stays_bounded():
    # 4e6 kept trials of about 4.1e6 drawn; run_noncfd peaks at ~220 MB.
    assert _traced_peak(lambda: _noncfd_row(
        ModelParams(threshold=-0.999), THETA_38, 1_000_000, 3,
        3)) < 32 * 2**20


def test_state_counts_reject_outcomes_outside_signs():
    flags = np.ones(3, np.uint8)
    with pytest.raises(RuntimeError, match="outside"):
        state_counts([np.array([1, 0, -1], np.int8)], [flags])
    counts = state_counts([np.array([1, -1, -1], np.int8)], [flags])
    assert counts.tolist() == [0, 0, 2, 1]


def test_noncfd_counts_hold_every_record():
    quad = SettingsQuad.for_theta(0.2)
    run = run_noncfd(ModelParams(), quad, 700, 9)
    assert run.counts.shape == (4, 16)
    assert run.counts.sum(axis=1).tolist() == [700] * 4
    assert np.array_equal(noncfd_counts(ModelParams(), quad, 700, 9),
                          run.counts)


def test_cfd_counts_validate_arguments():
    q = SettingsQuad.for_theta(0.0)
    with pytest.raises(ValueError):
        cfd_counts(ModelParams(), q, 0, 1)
    with pytest.raises(ValueError):
        cfd_counts(ModelParams(), q, 10, -3)
    assert run_cfd(ModelParams(), q, 1, 0).counts.sum() == 1
    for quota, seed in ((0, 1), (10, -3)):
        with pytest.raises(ValueError):
            noncfd_counts(ModelParams(), q, quota, seed)
        with pytest.raises(ValueError):
            run_noncfd(ModelParams(), q, quota, seed)
