"""Station response law: sign outcome, voltage trace, photon predicate."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbsim import kernels
from eprbsim.params import ModelParams
from eprbsim.station import RandomPair, identify_photon, station_respond
from reference import malus_frequency

P_DEFAULT = ModelParams()  # d=4, Vmin=0.5, Vmax=1, threshold=-0.995


def test_aligned_analyzer_pins_voltage_to_bottom():
    # s = sin(0) = 0 exactly, so the trace sits at -Vmax regardless of r_hat.
    out = station_respond(0.0, 0.0, RandomPair(0.3, 0.7), P_DEFAULT)
    assert out.x == 1
    assert out.v == -1.0


def test_quarter_wave_example():
    out = station_respond(math.pi / 4, 0.0, RandomPair(0.75, 0.5), P_DEFAULT)
    assert out.x == -1
    assert out.v == -0.75


def test_eighth_wave_example():
    out = station_respond(math.pi / 8, 0.0, RandomPair(0.9, 0.2), P_DEFAULT)
    assert out.x == -1
    assert out.v == pytest.approx(-0.975, abs=1e-12)


def test_sign_outcome_is_plus_one_iff_strictly_positive_argument():
    # 1 + c - 2r = 0 at r = (1+c)/2; the tie goes to -1.
    a = 0.0
    phi = 0.0  # c = 1
    assert station_respond(a, phi, RandomPair(1.0 - 1e-12, 0.5), P_DEFAULT).x == 1
    out = station_respond(a, math.pi / 2, RandomPair(0.0, 0.5), P_DEFAULT)
    assert out.x == -1  # c = -1 makes the argument exactly -2r = 0


def test_identify_photon_boundaries():
    assert identify_photon(-1.0, -0.995) == 1
    assert identify_photon(-0.5, -0.995) == 0
    # Equality at the threshold does not count as a photon.
    assert identify_photon(-0.995, -0.995) == 0


def test_identify_photon_array_form():
    v = np.array([-1.0, -0.995, -0.9951, -0.5])
    w = identify_photon(v, -0.995)
    assert w.tolist() == [1, 0, 1, 0]


def test_malus_exact_endpoints():
    assert malus_frequency(0.3, 0.3, 1000, seed=5) == 1.0
    assert malus_frequency(0.3, 0.3 + math.pi / 2, 1000, seed=5) == 0.0


def test_malus_half_intensity_within_four_sigma():
    n = 100_000
    freq = malus_frequency(math.pi / 4, 0.0, n, seed=11)
    sigma = math.sqrt(0.25 / n)
    assert abs(freq - 0.5) <= 4 * sigma


def test_malus_general_angle_within_four_sigma():
    n = 100_000
    a, phi = 0.9, 0.2
    expect = math.cos(a - phi) ** 2
    freq = malus_frequency(a, phi, n, seed=13)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(freq - expect) <= 4 * sigma


@given(
    a=st.floats(-10, 10, allow_nan=False),
    phi=st.floats(-10, 10, allow_nan=False),
    r=st.floats(0, 1, exclude_max=True),
    rhat=st.floats(0, 1, exclude_max=True),
)
@settings(max_examples=200)
def test_voltage_always_inside_range(a, phi, r, rhat):
    out = station_respond(a, phi, RandomPair(r, rhat), P_DEFAULT)
    assert -P_DEFAULT.v_max_mag <= out.v <= -P_DEFAULT.v_min_mag
    assert out.x in (-1, 1)


@given(phi=st.floats(-10, 10, allow_nan=False),
       rhat=st.floats(0, 1, exclude_max=True))
@settings(max_examples=100)
def test_parallel_polarization_forces_bottom_voltage(phi, rhat):
    out = station_respond(phi, phi, RandomPair(0.5, rhat), P_DEFAULT)
    assert out.v == -P_DEFAULT.v_max_mag


def test_flat_exponent_removes_angle_dependence_of_voltage():
    p = ModelParams(d=0.0, v_min_mag=0.95)
    rhat = 0.37
    vs = {station_respond(a, phi, RandomPair(0.1, rhat), p).v
          for a in (0.0, 0.3, 1.1) for phi in (0.0, 0.7, 2.9)}
    assert len(vs) == 1  # bitwise identical across angles
    (v,) = vs
    assert v == pytest.approx(rhat * 0.05 - 1.0)


@given(a=st.floats(-4, 4), phi=st.floats(-4, 4),
       rhat=st.floats(0, 1, exclude_max=True))
@settings(max_examples=150)
def test_quarter_turn_of_polarization_leaves_voltage_law_unchanged(a, phi, rhat):
    # |sin 2(a-phi)| is invariant under phi -> phi + pi/2 up to rounding
    # of the shifted argument, so the traces agree to ~1 ulp, not bitwise.
    v0 = station_respond(a, phi, RandomPair(0.5, rhat), P_DEFAULT).v
    v1 = station_respond(a, phi + math.pi / 2, RandomPair(0.5, rhat), P_DEFAULT).v
    assert v1 == pytest.approx(v0, abs=1e-12)


def test_quarter_turn_of_polarization_flips_sign_frequencies():
    n = 100_000
    a, phi = 0.9, 0.2
    f0 = malus_frequency(a, phi, n, seed=21)
    f1 = malus_frequency(a, phi + math.pi / 2, n, seed=21)
    sigma = math.sqrt(0.25 / n)
    assert abs((f0 + f1) - 1.0) <= 8 * sigma


def test_batch_matches_scalar_reference():
    rs = np.linspace(0.0, 0.999, 97)
    rhats = np.linspace(0.001, 0.998, 97)
    a, phi = 1.234, 0.456
    x, v = kernels.station_response(a, np.full(97, phi), rs, rhats,
                                    P_DEFAULT.d, P_DEFAULT.v_min_mag,
                                    P_DEFAULT.v_max_mag)
    for i in range(97):
        ref = station_respond(a, phi, RandomPair(rs[i], rhats[i]), P_DEFAULT)
        assert x[i] == ref.x
        assert v[i] == pytest.approx(ref.v, abs=5e-16)


def test_model_params_validation_messages():
    with pytest.raises(ValueError, match="v_min_mag"):
        ModelParams(v_min_mag=-0.1)
    with pytest.raises(ValueError, match="v_max_mag"):
        ModelParams(v_min_mag=0.8, v_max_mag=0.5)
    with pytest.raises(ValueError, match="threshold"):
        ModelParams(threshold=-0.2)  # above -v_min_mag
    with pytest.raises(ValueError, match="threshold"):
        ModelParams(threshold=-1.5)  # below -v_max_mag
    with pytest.raises(ValueError, match="d"):
        ModelParams(d=-1.0)
