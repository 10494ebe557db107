"""Traced CLI runs of the bench's layer map (perfbench/layers.py).

The bench wraps package functions by the names its layer map looks up,
and a name that moves breaks a traced run.  Each shape here is a tiny
run of one benchmark workload's arguments through perfbench/child.py
--trace, in a fresh interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SHAPES = {
    "theta-cfd": ["--n", "200", "--theta-steps", "2"],
    "tight-sweep": ["--n", "200", "--threshold-sweep=-0.9999:-0.999:2",
                    "--threads", "2"],
    "theta-noncfd": ["--mode", "noncfd", "--n", "100", "--theta-steps", "2",
                     "--threads", "2"],
    "dump-cfd": ["--n", "200", "--theta-steps", "2",
                 "--dump-trials", "trials.csv"],
}


@pytest.mark.parametrize("shape", SHAPES)
def test_traced_run_records_its_layers(shape, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "report.json",
         "--trace", "--", *SHAPES[shape], "--out", "out.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    names = {span["name"] for span in report["spans"]}
    assert "sweep.row" in names
    if shape == "dump-cfd":
        assert {"experiment.run_cfd", "sweep.dump"} <= names
