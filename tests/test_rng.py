"""Counter-based random streams: determinism, random access, uniformity."""
import numpy as np
import pytest
from scipy import stats as sps

from eprbsim import kernels, rng


def test_repeat_call_is_identical():
    a = rng.uniforms(12345, rng.SOURCE, 4096)
    b = rng.uniforms(12345, rng.SOURCE, 4096)
    assert np.array_equal(a, b)


def test_chunked_generation_matches_single_call():
    whole = rng.uniforms(99, rng.R_1, 1000)
    parts = np.concatenate([
        rng.uniforms(99, rng.R_1, 300),
        rng.uniforms(99, rng.R_1, 700, start=300),
    ])
    assert np.array_equal(whole, parts)


def test_gather_matches_sequential_values():
    whole = rng.uniforms(7, rng.RHAT_2, 2048)
    idx = np.array([0, 5, 17, 999, 2047, 17])
    gathered = kernels.gather_uniforms(rng.stream_origin(7, rng.RHAT_2), idx)
    assert np.array_equal(gathered, whole[idx])


def test_streams_are_distinct():
    draws = [rng.uniforms(4, s, 256)
             for s in (rng.SOURCE, rng.R_1, rng.RHAT_1, rng.CHOICE_1)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_seeds_are_distinct():
    a = rng.uniforms(1, rng.SOURCE, 256)
    b = rng.uniforms(2, rng.SOURCE, 256)
    assert not np.array_equal(a, b)


def test_values_live_in_unit_interval():
    u = rng.uniforms(31337, rng.CHOICE_2, 100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_derived_seeds_are_distinct_and_in_range():
    seeds = {rng.derive_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    # Derivation is a pure function.
    assert rng.derive_seed(123, 7) == rng.derive_seed(123, 7)


def test_seed_validation():
    rng.validate_seed(0)
    rng.validate_seed(2**64 - 1)
    with pytest.raises(ValueError):
        rng.validate_seed(-1)
    with pytest.raises(ValueError):
        rng.validate_seed(2**64)
    with pytest.raises(ValueError):
        rng.validate_seed(1.5)


@pytest.mark.parametrize("stream", [rng.SOURCE, rng.R_1P, rng.CHOICE_2])
def test_uniformity_kolmogorov_smirnov(stream):
    u = rng.uniforms(2026, stream, 100_000)
    assert sps.kstest(u, "uniform").pvalue > 1e-3


def test_lagged_pairs_are_uncorrelated():
    u = rng.uniforms(555, rng.SOURCE, 100_000)
    for lag in (1, 2, 64):
        r = np.corrcoef(u[:-lag], u[lag:])[0, 1]
        assert abs(r) < 4 / np.sqrt(u.size - lag)


def test_cross_stream_pairs_are_uncorrelated():
    a = rng.uniforms(555, rng.R_1, 100_000)
    b = rng.uniforms(555, rng.RHAT_1, 100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(a.size)
