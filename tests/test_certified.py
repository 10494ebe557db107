"""The station law of the streaming passes (experiment.cfd_counts and
experiment.noncfd_counts), against libm and between its two passes.

The passes evaluate the law of kernels.station_law: table trig, angle
addition and a multiply-only or table-driven power, with no libm call.
Its values differ from those of the law written with libm's cos, sin
and pow (kernels.station_response) in their last digits only
(test_law_is_within_its_bounds_of_libm), so a flag can differ only where
its decision value lies within about 1e-14 of its boundary.  No flag
does in the cases here: the passes' counts equal those of the libm
references, `reference.cfd_point` and `reference.noncfd_point`.  Both
passes run: numpy's and, where it was built, the compiled one
(kernels.CPASS).  Their per-trial states and voltages are the same, bit
for bit, and numpy's are those of this module's own recomputation of the
law.
"""
import math

import numpy as np
import pytest

import reference
from eprbsim import cli, experiment, kernels, rng, sweep
from eprbsim.experiment import cfd_counts, noncfd_counts
from eprbsim.params import TWO_PI, ModelParams, SettingsQuad
from reference import PASSES

THETAS = (0.0, 3.0 * math.pi / 8.0, math.pi)
SEEDS = (1, 22, 333)
EPS = 2.0 ** -53


def _params_cases():
    # 1, 2, 3, 4 and 32 take the multiply-only power, 33 is past its cap;
    # 0 is exactly 1, and 1e12 is steep enough that only |s| within 1e-9
    # of 1 gives a power above 0.
    for d in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.3, 32.0, 33.0, 1e12):
        # -v_max, a tight window, a wide one, -v_min
        for threshold in (-1.0, -0.995, -0.75, -0.5):
            yield pytest.param(ModelParams(d=d, threshold=threshold),
                               id=f"d={d},threshold={threshold}")
    yield pytest.param(ModelParams(v_min_mag=1.0, threshold=-1.0),
                       id="v_min=v_max")


def _skewed(quad, skew):
    """quad with every setting turned by skew: off the pi/8 grid, where
    no setting's cos 2a or sin 2a is a node of the table."""
    return SettingsQuad(*(a + skew for a in quad.as_tuple()))


# The names of the three tests below date from when the passes sent
# flags near a decision boundary to the libm law; they now compare every
# count, and every flag, with it.
@pytest.mark.parametrize("skew", [0.0, 0.02])
@pytest.mark.parametrize("params", _params_cases())
def test_fallback_gives_the_exact_counts(params, skew, monkeypatch):
    """Both passes' CFD counts are those of the libm law."""
    n = 3000
    for theta in THETAS:
        quad = _skewed(SettingsQuad.for_theta(theta), skew)
        for seed in SEEDS:
            libm = reference.cfd_point(params, quad, n, seed).counts
            for backend in PASSES:
                monkeypatch.setattr(kernels, "BACKEND", backend)
                assert np.array_equal(cfd_counts(params, quad, n, seed), libm)


@pytest.mark.parametrize("skew", [0.0, 0.02])
@pytest.mark.parametrize("params", _params_cases())
def test_noncfd_fallback_gives_the_exact_counts(params, skew, monkeypatch):
    """Both passes' non-CFD counts are those of the libm law."""
    quota = 750
    for theta in THETAS:
        quad = _skewed(SettingsQuad.for_theta(theta), skew)
        for seed in SEEDS:
            libm = reference.noncfd_point(params, quad, quota, seed).counts
            for backend in PASSES:
                monkeypatch.setattr(kernels, "BACKEND", backend)
                assert np.array_equal(
                    noncfd_counts(params, quad, quota, seed), libm)


@pytest.mark.parametrize("params", [
    ModelParams(), ModelParams(d=3.0, threshold=-0.75),
    ModelParams(d=0.5, threshold=-0.75)], ids=["default", "d=3", "d=0.5"])
def test_fallback_flags_match_run_cfd_trial_by_trial(params, monkeypatch):
    """Every flag of every trial that run_cfd hands the dump, not only the
    counts, is the libm law's, and every voltage is within 1e-13 of
    it (at d = 0.5, |s|**d magnifies the error of s near 0)."""
    quad, n, seed = SettingsQuad.for_theta(0.4), 4000, 7
    libm = reference.cfd_point(params, quad, n, seed)
    for backend in PASSES:
        monkeypatch.setattr(kernels, "BACKEND", backend)
        run = experiment.run_cfd(params, quad, n, seed)
        assert np.array_equal(run.x, libm.x)
        assert np.array_equal(run.w, libm.w)
        assert np.all(np.abs(run.v - libm.v) <= 1e-13)


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


# The per-trial checks: the first chunk of seed 7, of 1000 trials, with
# a span (0.7) that is not a power of two, so that every product in the
# voltage rounds.
DECISION_SEED, DECISION_N = 7, 1000


def decision_params(d):
    return ModelParams(d=d, v_min_mag=0.3, threshold=-0.65)


def _origins(cfd):
    """The pass's stream origins, as a column for kernels.fill_uniforms."""
    return np.array(experiment._origins(cfd, DECISION_SEED),
                    np.uint64)[:, None]


def chunk_values(cfd, params, quad, n=DECISION_N):
    """(each trial's state, the (k, n) voltages) of a first chunk of n
    trials of seed DECISION_SEED, by the pass kernels.BACKEND picks."""
    point = experiment._point(cfd, params, quad, DECISION_SEED, 0, n,
                              trials=True)
    point.add(0, n)  # its buffers hold these n trials
    return (np.frombuffer(point.codes, np.uint8).copy(),
            np.frombuffer(point.volts).reshape(-1, n).copy())


def _recomputed(cfd, params, quad):
    """chunk_values, by this module's own array expressions for the law
    from kernels.trig and kernels.abs_power on."""
    u = kernels.fill_uniforms(_origins(cfd), 0, DECISION_N)
    cos2, sin2 = kernels.trig(u[0])
    turns = np.array(experiment._turns(quad))  # rows ca, sa per station
    if cfd:
        station, r, rhat = np.arange(4)[:, None], u[1:5], u[5:9]
        extra, weights = [], [1, 2, 4, 8, 16, 32, 64, 128]
    else:  # each side's station: 2 * side + primed
        primed = u[1:3] < 0.5
        station, r, rhat = np.array([[0], [2]]) + primed, u[3:5], u[5:7]
        extra, weights = list(primed), [1, 2, 4, 8, 32, 16]
    ca, sa = turns[station, 0], turns[station, 1]
    dx = cos2 * (0.5 * ca) + sin2 * (0.5 * sa) - r
    v = kernels.abs_power(cos2 * sa - sin2 * ca, params.d) * rhat \
        * params.span - params.v_max_mag
    bits = [*(dx > -0.5), *(v < params.threshold), *extra]
    states = sum(b.astype(np.int64) * wt for b, wt in zip(bits, weights))
    return states.astype(np.uint8), v


DECISION_CASES = pytest.mark.parametrize(
    "cfd,d", [(cfd, d) for d in (4.0, 3.0, 1.0) for cfd in (True, False)],
    ids=[f"{d}-{mode}" for d in (4.0, 3.0, 1.0)
         for mode in ("cfd", "noncfd")])


@DECISION_CASES
def test_numpy_decision_values_are_the_references_bit_for_bit(cfd, d,
                                                              monkeypatch):
    """numpy's pass gives the recomputation's states and voltages, bit
    for bit: a reordered dx or v there fails here, even where no count
    would see it."""
    params, quad = decision_params(d), SettingsQuad.for_theta(0.4)
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    states, v = chunk_values(cfd, params, quad)
    want_states, want_v = _recomputed(cfd, params, quad)
    assert np.array_equal(states, want_states)
    assert np.array_equal(v, want_v)


@pytest.mark.skipif(kernels.CPASS is None,
                    reason="no compiled pass: no C compiler, or its build "
                    "or load failed")
@DECISION_CASES
def test_compiled_decision_values_are_numpys_bit_for_bit(cfd, d,
                                                         monkeypatch):
    params, quad = decision_params(d), SettingsQuad.for_theta(0.4)
    got = []
    for backend in ("numpy", "c"):
        monkeypatch.setattr(kernels, "BACKEND", backend)
        got.append(chunk_values(cfd, params, quad))
    assert np.array_equal(got[0][0], got[1][0])
    assert np.array_equal(got[0][1], got[1][1])


# Step (1) of the error argument in CHANGES.md: |C - cos 2phi1| and
# |S - sin 2phi1| are at most (2K + 27) * 2**-53, with K = 16 the ulps
# allowed to each libm result.
TRIG_BOUND = 59 * EPS


def _trig_error(u):
    """Largest error of kernels.trig(u) against math.cos and math.sin of
    2phi1."""
    u = np.asarray(u, dtype=np.float64)
    cos2, sin2 = kernels.trig(u)
    two_phi1 = 2.0 * experiment._phi1_of(u)
    return max(max(abs(c - math.cos(t)), abs(s - math.sin(t)))
               for c, s, t in zip(cos2.tolist(), sin2.tolist(),
                                  two_phi1.tolist()))


def test_trig_error_at_the_table_nodes_and_the_ends():
    # Every node u = k / 2**(B + 1) of the table, the float on each side
    # of it, the neighbouring draws (multiples of 2**-53), 0 and the
    # largest draw 1 - 2**-53.
    nodes = np.arange(2 << kernels._TABLE_BITS) \
        * 2.0 ** -(kernels._TABLE_BITS + 1)
    below = np.nextafter(nodes, -1.0)[1:]
    above = np.nextafter(nodes, 2.0)
    u = np.concatenate([nodes, below, above, nodes[1:] - EPS, nodes + EPS,
                        [1.0 - EPS]])
    assert u.min() == 0.0 and u.max() == 1.0 - EPS
    assert _trig_error(u) <= TRIG_BOUND


def test_trig_error_over_real_draws():
    u = np.concatenate([rng.uniforms(seed, rng.SOURCE, 250_000)
                        for seed in (1, 22, 333, 4444)])
    assert _trig_error(u) <= TRIG_BOUND


def _table_nodes_and_neighbours():
    nodes = [j * 2.0 ** -(kernels._TABLE_BITS + 1)
             for j in range(2 << kernels._TABLE_BITS)]
    return [x for u in nodes for x in (math.nextafter(u, -1.0), u,
                                       math.nextafter(u, 2.0))]


def _settings():
    """u = a / TWO_PI of every setting of the default theta grid's points
    and of the threshold sweep's point, side 2's pi/8 and 3pi/8 among
    them."""
    cfg = cli.config_from_args(cli.build_parser().parse_args([]))
    return [a / TWO_PI for theta in [*sweep.theta_grid(cfg),
                                     sweep.THRESHOLD_SWEEP_THETA]
            for a in SettingsQuad.for_theta(theta).as_tuple()]


@pytest.mark.parametrize("us", [
    pytest.param(_table_nodes_and_neighbours(), id="table-nodes"),
    pytest.param(_settings(), id="settings"),
    pytest.param(rng.uniforms(29, rng.SOURCE, 10_000).tolist(), id="draws"),
])
def test_the_turns_in_python_floats_are_law_trigs_bit_for_bit(us):
    """kernels.table_trig over Python floats, as experiment._turns calls
    it, gives law.trig's bits."""
    scalar = np.array([kernels.table_trig(u, int, kernels._COS_TABLE,
                                          kernels._SIN_TABLE) for u in us])
    assert np.array_equal(scalar.view(np.uint64), np.stack(
        kernels.trig(np.array(us)), axis=1).view(np.uint64))


# The power's bound (abs_power's docstring, CHANGES.md): relative error
# (8 + 3|y|) 2**-53, y = d log2|s|, and a subnormal's spacing on top.
def _power_bound(s, d, libm):
    y = d * np.log2(np.abs(s), where=s != 0, out=np.zeros_like(s))
    return (8.0 + 3.0 * np.abs(y)) * EPS * libm + 5e-324


@pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 4.0, 5.0, 31.0, 32.0, 33.0,
                               0.5, 7.3])
def test_abs_power_matches_numpy(d):
    """The multiply-only power (integer d up to 32) is within (d - 1)
    roundings of numpy's |s|**d, and any other d within the table
    power's bound plus an ulp of numpy's."""
    s = np.concatenate([rng.uniforms(3, rng.R_1, 100_000) * 2.0 - 1.0,
                        [0.0, -0.0, 1.0, -1.0, 1.0 + 2.0 ** -30, 1e-300]])
    expected = np.abs(s) ** d
    got = kernels.abs_power(s, d)
    assert np.all(got >= 0.0)
    if kernels.multiply_only(d):
        tol = (d + 1.0) * EPS  # and an ulp of numpy's own pow
        assert np.all(np.abs(got - expected) <= tol * expected + 1e-300)
    else:
        assert np.all(np.abs(got - expected)
                      <= _power_bound(s, d, expected) + EPS * expected)


SUBNORMAL = 2.2250738585072014e-308 / 3


@pytest.mark.parametrize("d", [0.0, 0.5, 1.0, 4.0, 7.3, 33.0, 1e12])
def test_law_is_within_its_bounds_of_libm(d):
    """cos 2(a - phi), sin 2(a - phi) and |s|**d of the law against libm,
    over real draws at several settings, at the ends of s and near 1."""
    worst = 0.0
    for seed, theta in zip(SEEDS, (0.1, 3.0 * math.pi / 8.0, 2.9)):
        quad = SettingsQuad.for_theta(theta)
        u = rng.uniforms(seed, rng.SOURCE, 50_000)
        cos2, sin2 = kernels.trig(u)
        phi1 = experiment._phi1_of(u)
        for (ca, sa), a, phi in zip(experiment._turns(quad), quad.as_tuple(),
                                    (phi1, phi1) + 2 * (
                                        experiment._orthogonal(phi1),)):
            arg = (2.0 * (a - phi)).tolist()
            c, s = ca * cos2 + sa * sin2, sa * cos2 - ca * sin2
            worst = max(worst, max(abs(x - math.cos(t)) for x, t in
                                   zip(c.tolist(), arg)),
                        max(abs(x - math.sin(t)) for x, t in
                            zip(s.tolist(), arg)))
    assert worst <= 64 * EPS
    s = np.concatenate([s, [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, SUBNORMAL,
                            5e-324, 1.0 - EPS, -(1.0 - 1e-12), 0.5, 0.25]])
    got = kernels.abs_power(s, d)
    libm = np.array([math.pow(abs(x), d) for x in s.tolist()])
    if d == 0.0:
        assert np.all(got == 1.0)
    assert np.all(np.abs(got - libm) <= _power_bound(s, d, libm))
    # Exact where libm is: 0 at s = 0 (d > 0), 1 at |s| = 1.
    assert got[-12:-10].tolist() == [float(d == 0.0)] * 2
    assert got[-10:-8].tolist() == [1.0, 1.0]
