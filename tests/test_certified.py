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

from eprbsim import experiment, kernels, rng
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
    # 1, 2, 3, 4 and 32 take the multiply-only power, 33 is past its cap;
    # at 1e12 the bound overflows.
    for d in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.3, 32.0, 33.0, 1e12):
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
    for d in (4.0, 3.0):  # the power by multiplications, even and odd
        exact_evals.clear()
        cfd_counts(ModelParams(d=d), SettingsQuad.for_theta(0.3), 200_000, 5)
        noncfd_counts(ModelParams(d=d), SettingsQuad.for_theta(0.3), 50_000,
                      5)
        assert sum(e for _, e in exact_evals) <= 20


def _trig(u):
    """experiment._trig of the draws u: (cos 2phi1, sin 2phi1)."""
    u = np.asarray(u, dtype=np.float64)
    trig = np.empty((2, u.size))
    experiment._trig(u, trig, np.empty(u.size, np.intp), np.empty((4, u.size)))
    return trig


# Step (1) of the error argument in CHANGES.md: |C - cos 2phi1| and
# |S - sin 2phi1| are at most (2K + 27) * 2**-53, with K = 16 the ulps
# allowed to each libm result.
TRIG_BOUND = 59 * 2.0 ** -53


def _trig_error(u):
    """Largest error of _trig(u) against math.cos and math.sin of 2phi1."""
    cos2, sin2 = _trig(u)
    two_phi1 = 2.0 * experiment._phi1_of(np.asarray(u, dtype=np.float64))
    return max(max(abs(c - math.cos(t)), abs(s - math.sin(t)))
               for c, s, t in zip(cos2.tolist(), sin2.tolist(),
                                  two_phi1.tolist()))


def test_trig_error_at_the_table_nodes_and_the_ends():
    # Every node u = k / 2**(B + 1) of the table, the float on each side
    # of it, the neighbouring draws (multiples of 2**-53), 0 and the
    # largest draw 1 - 2**-53.
    nodes = np.arange(2 << experiment._TABLE_BITS) \
        * 2.0 ** -(experiment._TABLE_BITS + 1)
    below = np.nextafter(nodes, -1.0)[1:]
    above = np.nextafter(nodes, 2.0)
    u = np.concatenate([nodes, below, above, nodes[1:] - 2.0 ** -53,
                        nodes + 2.0 ** -53, [1.0 - 2.0 ** -53]])
    assert u.min() == 0.0 and u.max() == 1.0 - 2.0 ** -53
    assert _trig_error(u) <= TRIG_BOUND


def test_trig_error_over_real_draws():
    u = np.concatenate([rng.uniforms(seed, rng.SOURCE, 250_000)
                        for seed in (1, 22, 333, 4444)])
    assert _trig_error(u) <= TRIG_BOUND


def test_angle_addition_error_is_far_below_the_margin():
    """The certified cos and sin, from experiment._trig, against numpy's
    on the exact kernel's float argument 2 * (a - phi), over 1.2e6
    trials of the real streams.  Steps (2) to (4) of the error argument
    bound them by MARGIN * 2**-15."""
    worst_c = worst_s = 0.0
    for seed, theta in zip(SEEDS, (0.1, 3.0 * math.pi / 8.0, 2.9)):
        quad = SettingsQuad.for_theta(theta)
        u = rng.uniforms(seed, rng.SOURCE, 400_000)
        phi1, phi2 = source_phis(seed, 400_000)
        cos2, sin2 = _trig(u)
        for (ca, sa), a, phi in zip(experiment._turns(quad), quad.as_tuple(),
                                    (phi1, phi1, phi2, phi2)):
            arg = 2.0 * (a - phi)
            worst_c = max(worst_c, np.abs(ca * cos2 + sa * sin2
                                          - np.cos(arg)).max())
            worst_s = max(worst_s, np.abs(sa * cos2 - ca * sin2
                                          - np.sin(arg)).max())
    assert max(worst_c, worst_s) <= experiment.MARGIN * 2.0 ** -15


@pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 4.0, 5.0, 31.0, 32.0, 33.0,
                               0.5, 7.3])
def test_abs_power_matches_numpy(d):
    """The multiply-only power (integer d up to 32) is within (d - 1)
    roundings of |s|**d; any other d is np.power itself."""
    s = np.concatenate([rng.uniforms(3, rng.R_1, 100_000) * 2.0 - 1.0,
                        [0.0, -0.0, 1.0, -1.0, 1.0 + 2.0 ** -30, 1e-300]])
    expected = np.abs(s) ** d
    got = experiment._abs_power(s.copy(), d, np.empty_like(s))
    if d in (0.5, 7.3, 33.0):
        assert np.array_equal(got, expected)
    else:
        assert np.all(got >= 0.0)
        tol = (d + 1.0) * 2.0 ** -53  # and an ulp of numpy's own pow
        assert np.all(np.abs(got - expected) <= tol * expected + 1e-300)
