"""CLI behavior: flags, exit codes, output schema, byte determinism."""
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from eprbsim import cli, oracle
from eprbsim.oracle import EnumerationReport
from eprbsim.sweep import THETA_COLUMNS, THRESHOLD_COLUMNS

FAST = ["--n", "2000", "--theta-steps", "5"]


def run_main(tmp_path, *extra):
    out = tmp_path / "rows.csv"
    rc = cli.main([*FAST, "--out", str(out), *extra])
    return rc, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--threshold" in capsys.readouterr().out


def test_unknown_flag_is_config_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--frobnicate"])
    assert exc.value.code == 1
    assert "config error" in capsys.readouterr().err


def test_bad_mode_is_config_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--mode", "bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["--n", "0"],
    ["--theta-steps", "0"],
    ["--vmin", "0.8", "--vmax", "0.5"],
    ["--threshold", "-0.2"],
    ["--threads", "0"],
    ["--threshold-sweep", "nonsense"],
    ["--threshold-sweep=-0.9:-0.99"],
    ["--seed", "-4"],
    # non-finite angles, voltages and sweep ends, and a sweep end outside
    # the window
    ["--theta-start", "nan"],
    ["--theta-end", "inf"],
    ["--vmax", "inf", "--threshold", "-2"],
    ["--threshold-sweep=nan:-0.99:2"],
    ["--threshold-sweep=-0.99:inf:2"],
    ["--threshold-sweep=-2:-0.99:2"],
])
def test_invalid_values_exit_one(argv, capsys):
    # some errors surface as a return code, argparse's own as SystemExit
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_csv_schema_and_row_count(tmp_path):
    rc, out = run_main(tmp_path)
    assert rc == 0
    text = out.read_text()
    header = text.splitlines()[0]
    assert header == ",".join(THETA_COLUMNS)
    rows = read_rows(out)
    assert len(rows) == 5
    first = rows[0]
    assert float(first["theta"]) == 0.0
    assert int(first["N"]) == 2000
    # references come straight from the closed forms
    assert float(first["E_ref"]) == pytest.approx(-1.0)
    assert float(first["S_ref"]) == pytest.approx(-2.0)


def test_json_format_round_trips(tmp_path):
    out = tmp_path / "rows.json"
    rc = cli.main([*FAST, "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    assert list(rows[0].keys()) == THETA_COLUMNS
    assert rows[0]["n_pass_11"] >= 0


def test_identical_invocations_are_byte_identical(tmp_path):
    _, a = run_main(tmp_path, "--seed", "9")
    b = tmp_path / "again.csv"
    cli.main([*FAST, "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_does_not_change_bytes(tmp_path):
    _, a = run_main(tmp_path, "--seed", "9")
    b = tmp_path / "threaded.csv"
    cli.main([*FAST, "--seed", "9", "--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_degree_angles_give_identical_bytes(tmp_path):
    _, a = run_main(tmp_path, "--theta-start", "0",
                    "--theta-end", str(math.pi))
    b = tmp_path / "deg.csv"
    cli.main([*FAST, "--angle-unit", "deg", "--theta-start", "0",
              "--theta-end", "180", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_numpy_backend_subprocess_gives_identical_bytes(tmp_path):
    _, a = run_main(tmp_path, "--seed", "33")
    b = tmp_path / "subprocess.csv"
    subprocess.run(
        [sys.executable, "-m", "eprbsim.cli", *FAST, "--seed", "33",
         "--out", str(b)],
        check=True, capture_output=True)
    assert a.read_bytes() == b.read_bytes()


def test_noncfd_thread_count_does_not_change_bytes(tmp_path):
    outs = []
    for threads in ("1", "2"):
        rc, out = run_main(tmp_path, "--mode", "noncfd", "--n", "800",
                           "--seed", "9", "--threads", threads)
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_noncfd_rows_leave_delta_empty(tmp_path):
    rc, out = run_main(tmp_path, "--mode", "noncfd", "--n", "500")
    assert rc == 0
    rows = read_rows(out)
    assert all(r["delta"] == "" and r["bound"] == "" for r in rows)
    assert all(int(r["n_pass_11"]) >= 0 for r in rows)


def test_threshold_sweep_schema(tmp_path):
    out = tmp_path / "thr.csv"
    rc = cli.main(["--n", "2000", "--threshold-sweep=-0.9:-0.99:4",
                   "--out", str(out)])
    assert rc == 0
    text = out.read_text().splitlines()
    assert text[0] == ",".join(THRESHOLD_COLUMNS)
    rows = read_rows(out)
    assert len(rows) == 4
    thresholds = [float(r["threshold"]) for r in rows]
    np.testing.assert_allclose(thresholds, np.linspace(-0.9, -0.99, 4))
    # fixed working point at the maximal-violation angle
    assert all(float(r["theta"]) == pytest.approx(3 * math.pi / 8)
               for r in rows)


def test_trial_dump_cfd(tmp_path):
    dump = tmp_path / "trials.csv"
    rc, _ = run_main(tmp_path, "--theta-steps", "2", "--n", "100",
                     "--dump-trials", str(dump))
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("k,a1,a1p,a2,a2p,x1,")
    assert len(lines) == 1 + 2 * 100  # header + per-trial rows per point
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[5] in ("-1", "1")


def test_threshold_sweep_thread_count_does_not_change_bytes(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"thr{threads}.csv"
        rc = cli.main(["--n", "3000", "--threshold-sweep=-0.999:-0.99:4",
                       "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_trial_dump_threshold_sweep(tmp_path):
    dump = tmp_path / "trials.csv"
    out = tmp_path / "thr.csv"
    rc = cli.main(["--n", "150", "--threshold-sweep=-0.999:-0.99:3",
                   "--dump-trials", str(dump), "--out", str(out)])
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == ("k,a1,a1p,a2,a2p,x1,x1p,x2,x2p,"
                        "v1,v1p,v2,v2p,w1,w1p,w2,w2p")
    assert len(lines) == 1 + 3 * 150
    assert [line.split(",")[0] for line in lines[1::150]] == ["0"] * 3


def test_trial_dump_noncfd_ordered_by_trial(tmp_path):
    dump = tmp_path / "trials.csv"
    rc, _ = run_main(tmp_path, "--mode", "noncfd", "--theta-steps", "1",
                     "--n", "50", "--dump-trials", str(dump))
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "k,setting1,setting2,x1,x2,v1,v2,w1,w2"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == sorted(ks)
    assert len(set(ks)) == len(ks)


def test_oracle_mode_reports_and_exits_zero(capsys):
    assert cli.main(["--mode", "oracles"]) == 0
    out = capsys.readouterr().out
    assert "16+256+81+16 cases, 0 violations" in out


def test_oracle_mode_flags_violations(monkeypatch, capsys):
    def broken():
        return EnumerationReport(name="quadruple identities", cases=16,
                                 violations=[(1, 1, 1, 1)])

    monkeypatch.setattr(oracle, "enumerate_quadruple_identities", broken)
    assert cli.main(["--mode", "oracles"]) == 2
    out = capsys.readouterr().out
    assert "counterexample" in out
