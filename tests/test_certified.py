"""Certified flags of the streaming passes (experiment.cfd_counts and
experiment.noncfd_counts).

The streaming passes take most outcome and identification flags from
angle-addition values and send the evaluations near a decision boundary
to the exact kernel.  Their counts must equal those of run_cfd and of
the whole-point non-CFD reference (`reference.noncfd_point`), which
evaluate every station with the exact kernel, whichever path each flag
took.  Both passes run here: numpy's and, where it was built, the
compiled one (kernels.CPASS); they must give the same counts, and for a
multiply-only power the same evaluations of the exact kernel.
"""
import math

import numpy as np
import pytest

import reference
from eprbsim import experiment, kernels, rng
from eprbsim.experiment import (cfd_counts, noncfd_counts, run_cfd,
                                source_phis)
from eprbsim.params import ModelParams, SettingsQuad
from reference import PASSES

THETAS = (0.0, 3.0 * math.pi / 8.0, math.pi)
SEEDS = (1, 22, 333)


@pytest.fixture
def exact_evals(monkeypatch):
    """(setting, evaluations, their inputs as bytes) of each call into
    the exact kernel."""
    calls = []
    exact = kernels.station_response

    def counted(a, phi, r, rhat, *args):
        out = exact(a, phi, r, rhat, *args)
        calls.append((a, out[1].size,
                      np.concatenate([phi, r, rhat]).tobytes()))
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


def _same_evaluations(params, evals):
    """The passes' exact-kernel evaluations are the same, call for call,
    where the power multiplies only: then both compute every certified
    value with the same float operations."""
    if experiment._multiply_only(params.d):
        assert all(e == evals["numpy"] for e in evals.values())


@pytest.mark.parametrize("skew", [0.0, 0.02])
@pytest.mark.parametrize("params", _params_cases())
def test_fallback_gives_the_exact_counts(params, skew, monkeypatch,
                                         exact_evals):
    _widen_margin_and_skew(monkeypatch, skew)
    n, evals = 3000, {}
    for theta in THETAS:
        quad = SettingsQuad.for_theta(theta)
        for seed in SEEDS:
            exact = run_cfd(params, quad, n, seed).counts
            for backend in PASSES:
                monkeypatch.setattr(kernels, "BACKEND", backend)
                exact_evals.clear()
                assert np.array_equal(cfd_counts(params, quad, n, seed), exact)
                evals.setdefault(backend, []).extend(exact_evals)
    for backend in PASSES:  # of 108,000 station evaluations
        assert sum(e for _, e, _ in evals[backend]) > 5000
    _same_evaluations(params, evals)


@pytest.mark.parametrize("skew", [0.0, 0.02])
@pytest.mark.parametrize("params", _params_cases())
def test_noncfd_fallback_gives_the_exact_counts(params, skew, monkeypatch,
                                                exact_evals):
    _widen_margin_and_skew(monkeypatch, skew)
    quota, evals = 750, {}
    for theta in THETAS:
        quad = SettingsQuad.for_theta(theta)
        points = [reference.noncfd_point(params, quad, quota, seed).counts
                  for seed in SEEDS]
        for backend in PASSES:
            monkeypatch.setattr(kernels, "BACKEND", backend)
            exact_evals.clear()
            for seed, counts in zip(SEEDS, points):
                assert np.array_equal(
                    noncfd_counts(params, quad, quota, seed), counts)
            # Every setting of each side sent evaluations to the exact
            # kernel (at theta = 0, a1 = a2 and a1p = a2p).
            assert {a for a, _, _ in exact_evals} == set(quad.as_tuple())
            evals.setdefault(backend, []).extend(exact_evals)
    _same_evaluations(params, evals)


def _certified_flags(params, quad, u, r, rhat):
    """(x == +1, w) of experiment._station_flags at the four CFD stations,
    as (n, 4) arrays, for source draws u and (4, n) station draws r and
    rhat."""
    turn = np.array(experiment._turns(quad)).T[:, :, None]
    stations = [(col >= 2, (a,), None)
                for col, a in enumerate(quad.as_tuple())]
    x, w = experiment._station_flags(
        params, experiment._flag_bounds(params), u, experiment._trig(u),
        turn, r, rhat, stations)
    return x.T, w.T


@pytest.mark.parametrize("params", [
    ModelParams(), ModelParams(d=3.0, threshold=-0.75),
    ModelParams(d=0.5, threshold=-0.75)], ids=["default", "d=3", "d=0.5"])
def test_fallback_flags_match_run_cfd_trial_by_trial(params, monkeypatch,
                                                     exact_evals):
    """Every flag of every trial, not only the counts, is run_cfd's.

    The run's own draws come first.  Then half the trials get an r on the
    exact kernel's outcome boundary (1 + c - 2r = 0, or the float below
    it) and a quarter an rhat on its identification boundary (v at the
    threshold), so that an error of 1e-9 rad in the fallback's angles
    flips about half of their flags.
    """
    _widen_margin_and_skew(monkeypatch, 0.0)
    quad, n, seed = SettingsQuad.for_theta(0.4), 4000, 7
    run = run_cfd(params, quad, n, seed)
    u = rng.uniforms(seed, rng.SOURCE, n)
    phi1, phi2, r_cols, rhat_cols = experiment._draws(seed, n)
    r, rhat = np.array(r_cols), np.array(rhat_cols)
    x, w = _certified_flags(params, quad, u, r, rhat)
    assert np.array_equal(x, run.x == 1) and np.array_equal(w, run.w == 1)
    assert sum(e for _, e, _ in exact_evals) > 2000

    for c, (a, phi) in enumerate(zip(quad.as_tuple(),
                                     (phi1, phi1, phi2, phi2))):
        arg = 2.0 * (a - phi)
        on_x = 0.5 * (1.0 + np.cos(arg))
        r[c, 0::4] = on_x[0::4]
        r[c, 2::4] = np.nextafter(on_x, 0.0)[2::4]
        power = np.abs(np.sin(arg)) ** params.d
        on_w = (params.threshold + params.v_max_mag) / (power * params.span)
        at = np.flatnonzero(power > 1e-3)[1::2]
        rhat[c, at] = on_w[at]
    exact_evals.clear()
    x, w = _certified_flags(params, quad, u, r, rhat)
    near = experiment.cfd_from_inputs(params, quad, phi1, phi2, r, rhat)
    assert np.array_equal(x, near.x == 1) and np.array_equal(w, near.w == 1)
    assert sum(e for _, e, _ in exact_evals) >= 2 * n


@pytest.mark.parametrize("quota", [
    1, 2, experiment.CHUNK // 2 - 1, experiment.CHUNK // 2,
    experiment.CHUNK // 2 + 1, experiment.CHUNK - 1, experiment.CHUNK,
    experiment.CHUNK + 1])
def test_noncfd_counts_at_quota_edges(quota, monkeypatch):
    # A non-CFD chunk holds min(2 * CHUNK, 4 * quota) trials.
    for params in (ModelParams(), ModelParams(threshold=-0.5)):
        quad = SettingsQuad.for_theta(0.4)
        for seed in SEEDS:
            point = reference.noncfd_point(params, quad, quota, seed)
            for backend in PASSES:
                monkeypatch.setattr(kernels, "BACKEND", backend)
                assert np.array_equal(
                    noncfd_counts(params, quad, quota, seed), point.counts)


def test_noncfd_counts_when_pairs_fill_in_different_chunks(monkeypatch):
    monkeypatch.setattr(experiment, "CHUNK", 32)  # 64-trial chunks
    quad, quota = SettingsQuad.for_theta(1.1), 300
    spread = 0
    for seed in range(1, 6):
        point = reference.noncfd_point(ModelParams(), quad, quota, seed)
        fill_chunks = {int(p.k[-1]) // 64 for p in point.pairs}
        spread += len(fill_chunks) > 1
        for backend in PASSES:
            monkeypatch.setattr(kernels, "BACKEND", backend)
            assert np.array_equal(
                noncfd_counts(ModelParams(), quad, quota, seed), point.counts)
    assert spread >= 2  # seeds where a pair fills a chunk before the last


def test_default_point_rarely_needs_the_exact_kernel(exact_evals,
                                                     monkeypatch):
    for backend in PASSES:
        monkeypatch.setattr(kernels, "BACKEND", backend)
        for d in (4.0, 3.0):  # the power by multiplications, even and odd
            exact_evals.clear()
            cfd_counts(ModelParams(d=d), SettingsQuad.for_theta(0.3), 200_000,
                       5)
            noncfd_counts(ModelParams(d=d), SettingsQuad.for_theta(0.3),
                          50_000, 5)
            assert sum(e for _, e, _ in exact_evals) <= 20


def _trig(u):
    """experiment._trig of the draws u: (cos 2phi1, sin 2phi1)."""
    return experiment._trig(np.asarray(u, dtype=np.float64))


def _decision_values(cfd, params, quad, u, power=None):
    """(dx, q) of experiment._station_flags, (k, n) arrays of each
    station's decision values, computed here with the same numpy
    operations, for the uniforms u of a chunk of either pass.  power(s,
    d) takes |s|**d, experiment._abs_power where None."""
    cos2, sin2 = _trig(u[0])
    turns = np.array(experiment._turns(quad))  # rows ca, sa per station
    if cfd:
        station, r, rhat = np.arange(4)[:, None], u[1:5], u[5:9]
    else:  # each side's station: 2 * side + primed
        station, r, rhat = np.array([[0], [2]]) + (u[1:3] < 0.5), u[3:5], \
            u[5:7]
    ca, sa = turns[station, 0], turns[station, 1]
    dx = cos2 * (0.5 * ca) + sin2 * (0.5 * sa) - r
    s = cos2 * sa - sin2 * ca
    q = (power or experiment._abs_power)(s, params.d) * rhat
    return dx, q


# The decision-value checks: the first chunk of seed 7, of 1000 trials.
DECISION_SEED, DECISION_N = 7, 1000


def closed_bounds(cfd, params, quad, power=None):
    """Bounds that close on one decision value v, for 24 values v of the
    reference (_decision_values, with power), each with the (station,
    trial) of the evaluations whose value equals v: the ones the bounds
    leave uncertain.  Half close the outcome's bounds on a dx, half the
    identification's on a q."""
    streams = experiment._CHUNK_STREAMS if cfd else \
        experiment._NONCFD_STREAMS
    origins = rng.stream_origins(DECISION_SEED, streams)
    values = _decision_values(cfd, params, quad,
                              kernels.fill_uniforms(origins, 0, DECISION_N),
                              power)
    gen = np.random.default_rng(1)
    inf = math.inf
    for which, bounds_at in ((0, lambda v: (v, v, -inf, -inf)),
                             (1, lambda v: (-inf, -inf, v, v))):
        value = values[which]
        for station, trial in zip(gen.integers(0, len(value), 12),
                                  gen.integers(0, DECISION_N, 12)):
            v = value[station, trial]
            yield bounds_at(v), set(zip(*np.nonzero(value == v)))


DECISION_CASES = pytest.mark.parametrize(
    "cfd,d", [(cfd, d) for d in (4.0, 3.0, 1.0) for cfd in (True, False)],
    ids=[f"{d}-{mode}" for d in (4.0, 3.0, 1.0)
         for mode in ("cfd", "noncfd")])


@DECISION_CASES
def test_numpy_decision_values_are_the_references_bit_for_bit(cfd, d,
                                                              monkeypatch):
    """Bounds that close on one value v mark uncertain exactly the
    evaluations whose decision value equals v.  numpy's pass, given
    such bounds, must send _settle exactly the reference's matches of
    v: its values are the reference's, bit for bit.  (Values that stay
    inside the margin give the same flags and counts, so no count
    would see a reordered dx or q.)"""
    params, quad = ModelParams(d=d, threshold=-0.75), \
        SettingsQuad.for_theta(0.4)
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    settle, first = experiment._settle, []

    def spy(params, stations, u, r, rhat, unsure, x, w):
        if not first:  # the first chunk's
            first.append(set(zip(*np.nonzero(unsure))))
        settle(params, stations, u, r, rhat, unsure, x, w)

    monkeypatch.setattr(experiment, "_settle", spy)
    for bounds, expected in closed_bounds(cfd, params, quad):
        monkeypatch.setattr(experiment, "_flag_bounds",
                            lambda params: bounds)
        first.clear()
        if cfd:
            cfd_counts(params, quad, DECISION_N, DECISION_SEED)
        else:  # a chunk of 4 * quota trials
            noncfd_counts(params, quad, DECISION_N // 4, DECISION_SEED)
        assert first == [expected]


@pytest.mark.skipif(kernels.CPASS is None,
                    reason="no compiled pass: no C compiler, or its build "
                    "or load failed")
@DECISION_CASES
def test_compiled_decision_values_are_numpys_bit_for_bit(cfd, d):
    """As for numpy's pass above: with v taken from the reference's
    values, the compiled pass's uncertain evaluations must be the
    reference's matches of v."""
    params, quad = ModelParams(d=d, threshold=-0.75), \
        SettingsQuad.for_theta(0.4)
    for bounds, expected in closed_bounds(cfd, params, quad):
        assert compiled_uncertain(cfd, params, quad, bounds) == expected


def compiled_uncertain(cfd, params, quad, bounds):
    """The (station, trial) evaluations that kernels.CPASS leaves
    uncertain under bounds, in the first chunk of seed DECISION_SEED."""
    streams = experiment._CHUNK_STREAMS if cfd else \
        experiment._NONCFD_STREAMS
    origins = rng.stream_origins(DECISION_SEED, streams)
    compiled = experiment._Compiled(cfd, params, quad, bounds, origins,
                                    DECISION_N)
    m = compiled._run(compiled._ref, 0, DECISION_N)
    return {(c, int(t)) for t, mask in zip(compiled.pending[:m],
                                           compiled.pending_unsure[:m])
            for c in range(4 if cfd else 2) if mask >> c & 1}


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
    got = experiment._abs_power(s, d)
    if d in (0.5, 7.3, 33.0):
        assert np.array_equal(got, expected)
    else:
        assert np.all(got >= 0.0)
        tol = (d + 1.0) * 2.0 ** -53  # and an ulp of numpy's own pow
        assert np.all(np.abs(got - expected) <= tol * expected + 1e-300)
