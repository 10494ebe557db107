"""Certified flags of the streaming passes (experiment.cfd_counts and
experiment.noncfd_counts).

The streaming passes take most outcome and identification flags from
angle-addition values and send the evaluations near a decision boundary
to the exact kernel.  Their counts must equal those of run_cfd and
run_noncfd, which evaluate every station with the exact kernel,
whichever path each flag took.
"""
import math

import numpy as np
import pytest

from eprbsim import experiment, kernels
from eprbsim.experiment import (cfd_counts, noncfd_counts, run_cfd,
                                run_noncfd, source_phis)
from eprbsim.params import ModelParams, SettingsQuad

THETAS = (0.0, 3.0 * math.pi / 8.0, math.pi)
SEEDS = (1, 22, 333)


@pytest.fixture
def exact_evals(monkeypatch):
    """(setting, evaluations) of each call into the exact kernel."""
    calls = []
    exact = kernels.station_response

    def counted(*args):
        out = exact(*args)
        calls.append((args[0], out[1].size))
        return out

    monkeypatch.setattr(kernels, "station_response", counted)
    return calls


def _params_cases():
    for d in (0.0, 0.5, 4.0, 7.3, 1e12):  # 1e12: the bound overflows
        # -v_max, a tight window, a wide one, -v_min
        for threshold in (-1.0, -0.995, -0.75, -0.5):
            yield pytest.param(ModelParams(d=d, threshold=threshold),
                               id=f"d={d},threshold={threshold}")
    yield pytest.param(ModelParams(v_min_mag=1.0, threshold=-1.0),
                       id="v_min=v_max")


def _widen_margin_and_skew(monkeypatch, skew):
    """A wide margin sends a large share of the evaluations to the exact
    kernel; the counts must not change.  Skewing every setting of the
    certified values by `skew` moves cos and sin 2(a - phi) by up to
    2 * skew, still inside the margin: flags certified from them must
    still be exact, and the ones they get wrong must all be sent back."""
    monkeypatch.setattr(experiment, "MARGIN", 0.05)
    turns = experiment._turns
    monkeypatch.setattr(experiment, "_turns", lambda quad: turns(
        SettingsQuad(*(a + skew for a in quad.as_tuple()))))


@pytest.mark.parametrize("skew", [0.0, 0.02])
@pytest.mark.parametrize("params", _params_cases())
def test_fallback_gives_the_exact_counts(params, skew, monkeypatch,
                                         exact_evals):
    _widen_margin_and_skew(monkeypatch, skew)
    n, fallback = 3000, 0
    for theta in THETAS:
        quad = SettingsQuad.for_theta(theta)
        for seed in SEEDS:
            exact_evals.clear()
            streamed = cfd_counts(params, quad, n, seed)
            fallback += sum(e for _, e in exact_evals)
            assert np.array_equal(streamed, run_cfd(params, quad, n, seed).counts)
    assert fallback > 5000  # of 108,000 station evaluations


@pytest.mark.parametrize("skew", [0.0, 0.02])
@pytest.mark.parametrize("params", _params_cases())
def test_noncfd_fallback_gives_the_exact_counts(params, skew, monkeypatch,
                                                exact_evals):
    _widen_margin_and_skew(monkeypatch, skew)
    quota = 750
    for theta in THETAS:
        quad = SettingsQuad.for_theta(theta)
        exact_evals.clear()
        streamed = [noncfd_counts(params, quad, quota, seed) for seed in SEEDS]
        # Every setting of each side sent evaluations to the exact kernel
        # (at theta = 0, a1 = a2 and a1p = a2p).
        assert {a for a, _ in exact_evals} == set(quad.as_tuple())
        for seed, counts in zip(SEEDS, streamed):
            assert np.array_equal(counts,
                                  run_noncfd(params, quad, quota, seed).counts)


@pytest.mark.parametrize("quota", [
    1, 2, experiment.CHUNK // 2 - 1, experiment.CHUNK // 2,
    experiment.CHUNK // 2 + 1, experiment.CHUNK - 1, experiment.CHUNK,
    experiment.CHUNK + 1])
def test_noncfd_counts_at_quota_edges(quota):
    # A non-CFD chunk holds min(2 * CHUNK, 4 * quota) trials.
    for params in (ModelParams(), ModelParams(threshold=-0.5)):
        quad = SettingsQuad.for_theta(0.4)
        for seed in SEEDS:
            assert np.array_equal(noncfd_counts(params, quad, quota, seed),
                                  run_noncfd(params, quad, quota, seed).counts)


def test_noncfd_counts_when_pairs_fill_in_different_chunks(monkeypatch):
    monkeypatch.setattr(experiment, "CHUNK", 32)  # 64-trial chunks
    quad, quota = SettingsQuad.for_theta(1.1), 300
    spread = 0
    for seed in range(1, 6):
        run = run_noncfd(ModelParams(), quad, quota, seed)
        fill_chunks = {int(p.k[-1]) // 64 for p in run.pairs}
        spread += len(fill_chunks) > 1
        assert np.array_equal(noncfd_counts(ModelParams(), quad, quota, seed),
                              run.counts)
    assert spread >= 2  # seeds where a pair fills a chunk before the last


def test_default_point_rarely_needs_the_exact_kernel(exact_evals):
    cfd_counts(ModelParams(), SettingsQuad.for_theta(0.3), 200_000, 5)
    noncfd_counts(ModelParams(), SettingsQuad.for_theta(0.3), 50_000, 5)
    assert sum(e for _, e in exact_evals) <= 20


def test_angle_addition_error_is_far_below_the_margin():
    """The certified cos and sin against numpy's on the exact kernel's
    float argument 2 * (a - phi), over 1.2e6 trials of the real streams."""
    worst_c = worst_s = 0.0
    for seed, theta in zip(SEEDS, (0.1, 3.0 * math.pi / 8.0, 2.9)):
        quad = SettingsQuad.for_theta(theta)
        phi1, phi2 = source_phis(seed, 400_000)
        cos2, sin2 = np.cos(2.0 * phi1), np.sin(2.0 * phi1)
        for (ca, sa), a, phi in zip(experiment._turns(quad), quad.as_tuple(),
                                    (phi1, phi1, phi2, phi2)):
            arg = 2.0 * (a - phi)
            worst_c = max(worst_c, np.abs(ca * cos2 + sa * sin2
                                          - np.cos(arg)).max())
            worst_s = max(worst_s, np.abs(sa * cos2 - ca * sin2
                                          - np.sin(arg)).max())
    assert max(worst_c, worst_s) <= experiment.MARGIN * 2.0 ** -8
