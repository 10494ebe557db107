"""Exhaustive enumerations and the pass-probability quadrature."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eprbsim
from eprbsim import experiment, kernels, rng, stats
from eprbsim.oracle import (enumerate_ch, enumerate_eberhard,
                            enumerate_noncfd_constraint,
                            enumerate_quadruple_identities, pass_probability,
                            run_all_enumerations)
from eprbsim.params import ModelParams, SettingsQuad
from eprbsim.station import identify_photon


def test_quadruple_identity_enumeration():
    rep = enumerate_quadruple_identities()
    assert rep.cases == 16
    assert rep.violations == []


def test_forcing_enumeration_over_all_extensions():
    rep = enumerate_noncfd_constraint()
    assert rep.cases == 256
    assert rep.violations == []


def test_fate_combination_enumeration():
    rep = enumerate_eberhard()
    assert rep.cases == 81
    assert rep.violations == []


def test_detected_combination_enumeration():
    rep = enumerate_ch()
    assert rep.cases == 16
    assert rep.violations == []


def test_run_all_collects_four_reports():
    reports = run_all_enumerations()
    assert [r.cases for r in reports] == [16, 256, 81, 16]
    assert all(not r.violations for r in reports)


def test_runtime_check_and_enumeration_share_the_quadruple_algebra(
        monkeypatch):
    # A sign error in the one s formula must reach both the proof over
    # all quadruples and the check each CFD point runs.
    monkeypatch.setattr(stats, "quadruple_s",
                        lambda x1, x1p, x2, x2p:
                        x1 * x2 + x1 * x2p + x1p * x2 + x1p * x2p)
    assert enumerate_quadruple_identities().violations
    with pytest.raises(RuntimeError, match="identity violated"):
        experiment.cfd_counts(ModelParams(), SettingsQuad.for_theta(0.3),
                              100, 1)


def test_both_count_enumerations_prove_the_one_formula(monkeypatch):
    def broken(f_1, f_1p, f_2, f_2p):
        o1, o1p, o2, o2p = ((np.asarray(f) == 1).astype(np.int64)
                            for f in (f_1, f_1p, f_2, f_2p))
        return o1p * (1 - o2p) - (1 - o1) * o2 + o1 * o2p - o1p * o2

    monkeypatch.setattr(stats, "eberhard_j_terms", broken)
    assert enumerate_eberhard().violations
    assert enumerate_ch().violations


def test_pass_probability_flat_exponent_is_window_fraction():
    p = ModelParams(d=0.0, v_min_mag=0.95, threshold=-0.995)
    # kappa = 0.005 / 0.05
    assert pass_probability(p) == pytest.approx(0.1, abs=1e-12)


def test_pass_probability_extreme_thresholds():
    assert pass_probability(ModelParams(threshold=-0.5)) == 1.0
    assert pass_probability(ModelParams(threshold=-1.0)) == 0.0


def test_pass_probability_default_frozen_value():
    # Hand-derived closed form at kappa = 0.01, d = 4: the tail integral
    # of sin^-4 is cot(u*) + cot(u*)^3 / 3 with cot(u*) = sqrt(0.9/0.1) = 3,
    # so P = (2/pi) * (asin(0.01**0.25) + 0.01 * 12) = 0.2812271...
    closed = (2.0 / math.pi) * (math.asin(0.01 ** 0.25) + 0.12)
    assert closed == pytest.approx(0.2812271373832433, abs=1e-12)
    assert pass_probability(ModelParams()) == pytest.approx(closed, abs=1e-9)


def test_pass_probability_monotone_in_threshold():
    values = [pass_probability(ModelParams(threshold=t))
              for t in np.linspace(-1.0, -0.5, 26)]
    assert values == sorted(values)


def test_pass_probability_monotone_in_exponent():
    # A larger exponent shrinks |s|^d, making the pass condition easier.
    values = [pass_probability(ModelParams(d=d)) for d in (0.0, 1.0, 2.0, 4.0, 8.0)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.01, abs=1e-12)


@pytest.mark.parametrize("d,v_min,thr", [
    (4.0, 0.5, -0.995),
    (4.0, 0.5, -0.9),
    (2.0, 0.5, -0.8),
    (1.0, 0.25, -0.6),
    (6.0, 0.75, -0.95),
    (0.0, 0.95, -0.97),
])
def test_pass_probability_matches_simulation(d, v_min, thr):
    p = ModelParams(d=d, v_min_mag=v_min, threshold=thr)
    n = 200_000
    phi = 2.0 * math.pi * rng.uniforms(2718, rng.SOURCE, n)
    r = rng.uniforms(2718, rng.R_1, n)
    rhat = rng.uniforms(2718, rng.RHAT_1, n)
    _x, v = kernels.station_response(0.0, phi, r, rhat, p.d, p.v_min_mag,
                                     p.v_max_mag)
    frac = identify_photon(v, thr).mean()
    expect = pass_probability(p)
    sigma = math.sqrt(max(expect * (1 - expect), 1e-12) / n)
    assert abs(frac - expect) <= 4 * sigma


def test_pass_probability_independent_of_setting():
    # The station angle shifts the misalignment distribution, which is
    # uniform, so the pass fraction cannot depend on the setting.
    p = ModelParams()
    n = 200_000
    phi = 2.0 * math.pi * rng.uniforms(31415, rng.SOURCE, n)
    r = rng.uniforms(31415, rng.R_1, n)
    rhat = rng.uniforms(31415, rng.RHAT_1, n)
    fracs = []
    for a in (0.0, 0.4, 1.3):
        _x, v = kernels.station_response(a, phi, r, rhat, p.d,
                                         p.v_min_mag, p.v_max_mag)
        fracs.append(identify_photon(v, p.threshold).mean())
    sigma = math.sqrt(0.28 * 0.72 / n)
    assert max(fracs) - min(fracs) <= 6 * sigma


def test_every_public_name_resolves():
    assert [n for n in eprbsim.__all__ if not hasattr(eprbsim, n)] == []


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this eprbsim."""
    src = str(Path(eprbsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_package_import_leaves_scipy_unloaded():
    # scipy is imported by pass_probability alone, on first use.
    proc = _run_python("import sys, eprbsim, eprbsim.cli; "
                       "sys.exit('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_oracle_mode_runs_without_scipy():
    # The spot checks of --mode oracles reach only the closed forms of
    # pass_probability, so they must run where scipy cannot be imported.
    proc = _run_python(
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from eprbsim import cli\n"
        "sys.exit(cli.main(['--mode', 'oracles']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "quadrature spot checks: 0 failures" in proc.stdout
