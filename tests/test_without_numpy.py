"""The compiled CLI without numpy.

Where the compiled library loads, a run without a trial dump never
imports numpy: the pass, its counts, the rows and the oracles are plain
Python over ctypes.  Each run here is a fresh interpreter in which numpy
cannot be imported at all, and must print the bytes of the same run with
numpy importable and of the same run under numpy's pass.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eprbsim import kernels, sweep

ROOT = Path(__file__).resolve().parents[1]

needs_cpass = pytest.mark.skipif(
    kernels.CPASS is None,
    reason="no compiled library: no C compiler, or its build or load failed")

# Runs the CLI on argv with numpy unimportable ("blocked"), importable
# ("free") or as the pass ("numpy"), and checks which modules it loaded.
CLI = """
import sys
how, argv = sys.argv[1], sys.argv[2:]
if how == "blocked":
    sys.modules["numpy"] = None  # import numpy raises ImportError
from eprbsim import cli, kernels
if how == "numpy":
    kernels.BACKEND = "numpy"
rc = cli.main(argv)
if how != "numpy":
    assert kernels.BACKEND == "c", kernels.BACKEND
    assert sys.modules.get("numpy") is None, "numpy was imported"
sys.exit(rc)
"""

RUNS = {
    "default": [],
    "threshold-sweep": ["--threshold-sweep=-0.9995:-0.99:3", "--n",
                        "600000", "--threads", "2"],
    "noncfd": ["--mode", "noncfd", "--n", "20000", "--theta-steps", "5"],
    "oracles": ["--mode", "oracles"],
}


def _run(how, argv, out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CLI, how, *argv,
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@needs_cpass
@pytest.mark.parametrize("name", list(RUNS))
def test_a_run_without_numpy_prints_the_bytes_of_one_with_it(name, tmp_path):
    argv = RUNS[name]
    got = {how: _run(how, argv, tmp_path / how)
           for how in ("blocked", "free", "numpy")}
    assert got["blocked"]
    assert got["blocked"] == got["free"] == got["numpy"]


@needs_cpass
def test_a_trial_dump_imports_numpy_while_it_starts(tmp_path):
    # Before cli.config_from_args returns, as every run once did.
    code = ("import sys; from eprbsim import cli\n"
            "cfg = cli.config_from_args(cli.build_parser().parse_args(\n"
            "    sys.argv[1:]))\n"
            "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    seen = [subprocess.run(
        [sys.executable, "-c", code, "--out", str(tmp_path / "rows"), *extra],
        env=env, capture_output=True, text=True, check=True,
        timeout=300).stdout.split() for extra in (
            [], ["--dump-trials", str(tmp_path / "trials")],
            ["--mode", "oracles"])]
    assert seen == [["False"], ["True"], ["False"]]


def _grids():
    yield 0.0, math.pi, 40
    for steps in (1, 2, 3, 7, 40, 1000):
        for start, stop in ((0.0, math.pi), (-0.9999, -0.999), (0.3, 0.3),
                            (1.0, -2.5), (-0.0, 0.0), (0.0, -0.0),
                            (-1e-300, 1e-300), (5e-324, 1.5e-323),
                            (0.0, 5e-324),
                            (0.1, 0.7), (-3.7, 1e10), (2.0, 2.0000000001)):
            yield start, stop, steps
    g = np.random.default_rng(5)
    for _ in range(300):
        start, stop = g.uniform(-10, 10, 2) * 10.0 ** g.integers(-8, 8, 2)
        yield float(start), float(stop), int(g.integers(1, 100))


def test_the_grid_is_numpys_linspace_bit_for_bit():
    for start, stop, steps in _grids():
        want = np.linspace(start, stop, steps).tolist()
        got = sweep._linspace(start, stop, steps)
        assert [math.copysign(1.0, x) for x in got] == \
            [math.copysign(1.0, x) for x in want], (start, stop, steps)
        assert got == want, (start, stop, steps)
        assert all(type(x) is float for x in got)
