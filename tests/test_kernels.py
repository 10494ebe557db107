"""Kernels against scalar references."""
import numpy as np

from eprbsim import kernels, rng
from eprbsim.params import ModelParams
from eprbsim.station import RandomPair, station_respond

GOLDEN = 0x9E3779B97F4A7C15


def _scalar_uniform(origin, counter):
    """Draw `counter` of the stream at `origin`, in Python integers."""
    return (rng._mix64(int(origin) + GOLDEN * (counter + 1)) >> 11) * 2.0 ** -53


def test_backend_flag_reports_something_sensible():
    # "c" when the compiled pass loaded, else "numpy".
    assert kernels.BACKEND == ("numpy" if kernels.CPASS is None else "c")


def test_uniform_fill_matches_numpy_reference():
    origin = np.uint64(0xDEADBEEF12345678)
    a = kernels.fill_uniforms(origin, 0, 4096)
    b = [_scalar_uniform(origin, k) for k in range(4096)]
    assert a.tolist() == b


def test_uniform_gather_matches_numpy_reference():
    origin = np.uint64(0x0123456789ABCDEF)
    idx = np.array([0, 1, 17, 65535, 2**40], dtype=np.uint64)
    a = kernels.gather_uniforms(origin, idx)
    assert a.tolist() == [_scalar_uniform(origin, int(k)) for k in idx]


def _unshift_xor(y, shift):
    """x such that x ^ (x >> shift) == y, for 64-bit x."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unmix64(word):
    """The 64-bit z whose rng._mix64(z) is word."""
    z = _unshift_xor(word, 31)
    z = z * pow(kernels._M2, -1, 2**64) % 2**64
    z = _unshift_xor(z, 27)
    z = z * pow(kernels._M1, -1, 2**64) % 2**64
    return _unshift_xor(z, 30)


def _uniforms_via_uint64(z):
    """The uniforms of the words z, mixed as in kernels._hash_to_uniforms
    but with the top 53 bits converted to float64 from uint64."""
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(kernels._M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(kernels._M2)
    z ^= z >> np.uint64(31)
    return np.multiply(z >> np.uint64(11), 2.0 ** -53)


def test_uniform_conversion_matches_the_uint64_path_bit_for_bit():
    # Mixed words 0 and 2**64 - 1, and words whose top 53 bits lie next to
    # 2**53 (their largest value) and next to 2**52, with the 11 dropped
    # bits all clear or all set.
    tops = [2**53 - 1, 2**53 - 2, 2**52 + 1, 2**52, 2**52 - 1, 1]
    mixed = [0, 2**64 - 1] + [top << 11 | low for top in tops
                              for low in (0, 2**11 - 1)]
    words = [_unmix64(w) for w in mixed]
    assert [rng._mix64(z) for z in words] == mixed
    z = np.concatenate([
        np.array(words, np.uint64),
        np.random.default_rng(7).integers(0, 2**64, 10**5, np.uint64,
                                          endpoint=False)])
    expected = _uniforms_via_uint64(z)
    got = kernels._hash_to_uniforms(z.copy())
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert got[0] == 0.0 and got[1] == 1.0 - 2.0 ** -53


def test_gather_agrees_with_fill_at_same_counters():
    origin = np.uint64(42)
    filled = kernels.fill_uniforms(origin, 100, 50)
    idx = np.arange(100, 150, dtype=np.uint64)
    assert np.array_equal(kernels.gather_uniforms(origin, idx), filled)


def test_stream_rows_reuse_buffers_and_match_single_streams():
    streams = (0, 3, 8)
    out = np.full((3, 300), np.nan)
    work = np.zeros((3, 300), np.uint64)
    origins = np.array([[rng.stream_origin(5, s)] for s in streams],
                       np.uint64)
    for start in (0, 300, 2**33):
        rows = kernels.fill_uniforms(origins, start, 300, out=out, work=work)
        assert rows is out
        for row, s in zip(rows, streams):
            assert np.array_equal(row, rng.uniforms(5, s, 300, start))


def test_station_kernel_matches_numpy_reference():
    n = 20_000
    rs = np.random.default_rng(1).random(n)
    rhats = np.random.default_rng(2).random(n)
    phis = np.random.default_rng(3).random(n) * 2 * np.pi
    params = ModelParams(d=4.0, v_min_mag=0.5, v_max_mag=1.0)
    xa, va = kernels.station_response(0.7, phis, rs, rhats, 4.0, 0.5, 1.0)
    refs = [station_respond(0.7, phi, RandomPair(r, rhat), params)
            for phi, r, rhat in zip(phis, rs, rhats)]
    xb = np.array([ref.x for ref in refs], np.int8)
    vb = np.array([ref.v for ref in refs])
    # trig may differ by an ulp between libm and numpy's loops; the sign
    # outcome may only flip where the decision variable is itself at
    # rounding scale
    np.testing.assert_allclose(va, vb, rtol=0, atol=1e-12)
    disagree = np.flatnonzero(xa != xb)
    if disagree.size:
        c = np.cos(2.0 * (0.7 - phis[disagree]))
        assert np.all(np.abs(1.0 + c - 2.0 * rs[disagree]) < 1e-12)


def test_station_kernel_takes_a_setting_per_trial():
    # An array of settings gives, bit for bit, each setting's own call:
    # the non-CFD runs evaluate both sides and both coins in one call.
    gen = np.random.default_rng(4)
    phis, rs, rhats = gen.random((3, 2, 5000))
    phis *= 2 * np.pi
    settings = np.array([0.0, 0.4, 1.3, 2.2])[gen.integers(0, 4, (2, 5000))]
    x, v = kernels.station_response(settings, phis, rs, rhats, 4.0, 0.5, 1.0)
    assert x.shape == v.shape == (2, 5000)
    for a in np.unique(settings):
        at = settings == a
        xa, va = kernels.station_response(a, phis[at], rs[at], rhats[at],
                                          4.0, 0.5, 1.0)
        assert np.array_equal(x[at], xa)
        assert np.array_equal(v[at], va)
