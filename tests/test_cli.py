"""CLI behavior: flags, exit codes, output schema, byte determinism."""
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eprbsim import cli, oracle, stats, sweep
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
    ["--d", "inf"],
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
    # The child imports the package this test imported.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "eprbsim.cli", *FAST, "--seed", "33",
         "--out", str(b)],
        check=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": path})
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


def test_threshold_sweep_ignores_the_unused_threshold(tmp_path):
    # The default threshold, -0.995, lies outside this window; the sweep's
    # ends replace it.
    out = tmp_path / "thr.csv"
    rc = cli.main(["--n", "10", "--vmin", "0.999",
                   "--threshold-sweep=-0.9999:-0.9995:2", "--out", str(out)])
    assert rc == 0
    assert [float(r["threshold"]) for r in read_rows(out)] == [-0.9999,
                                                                -0.9995]


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


def test_out_and_dump_naming_one_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "same.csv"
    (tmp_path / "link").symlink_to(tmp_path)
    rc = cli.main(["--theta-steps", "2", "--n", "5", "--out", str(path),
                   "--dump-trials", str(tmp_path / "link" / "same.csv")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not path.exists()


def test_a_dump_to_a_hard_link_of_out_is_config_error(tmp_path, capsys):
    rows, link = tmp_path / "a.csv", tmp_path / "b.csv"
    rows.write_text("kept\n")
    os.link(rows, link)
    rc = cli.main(["--theta-steps", "1", "--n", "5", "--out", str(rows),
                   "--dump-trials", str(link)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert rows.read_text() == "kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
def test_a_dump_to_the_rows_stdout_is_config_error(tmp_path):
    # The rows go to stdout, here a file, and the dump to /dev/stdout:
    # the dump would truncate the file and write over the rows.
    rows = tmp_path / "F"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open(rows, "wb") as fh:
        out = subprocess.run(
            [sys.executable, "-m", "eprbsim.cli", "--n", "5",
             "--theta-steps", "1", "--dump-trials", "/dev/stdout"],
            stdout=fh, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 1
    assert "config error" in out.stderr
    assert rows.read_bytes() == b""


@pytest.mark.parametrize("flag", ["--out", "--dump-trials"])
def test_output_that_cannot_be_opened_fails_before_any_point(
        flag, tmp_path, monkeypatch, capsys):
    def no_point(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(sweep, "_point_counts", no_point)
    path = tmp_path / "missing" / "x.csv"
    rc = cli.main(["--theta-steps", "2", "--n", "5", flag, str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("eprbsim: ")
    assert err.count("\n") == 1
    assert str(path) in err


def test_oracle_mode_reports_and_exits_zero(capsys):
    assert cli.main(["--mode", "oracles"]) == 0
    out = capsys.readouterr().out
    assert "16+256+81+16 cases, 0 violations" in out


def test_oracle_mode_writes_its_report_to_out(tmp_path, capsys):
    out = tmp_path / "o.txt"
    assert cli.main(["--mode", "oracles", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "16+256+81+16 cases, 0 violations" in out.read_text()


def test_oracle_mode_with_a_trial_dump_is_config_error(tmp_path, capsys):
    dump = tmp_path / "d.csv"
    rc = cli.main(["--mode", "oracles", "--out", str(tmp_path / "o.txt"),
                   "--dump-trials", str(dump)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not dump.exists() and not (tmp_path / "o.txt").exists()


def test_oracle_mode_flags_violations(monkeypatch, capsys):
    def broken():
        return EnumerationReport(name="quadruple identities", cases=16,
                                 violations=[(1, 1, 1, 1)])

    monkeypatch.setattr(oracle, "enumerate_quadruple_identities", broken)
    assert cli.main(["--mode", "oracles"]) == 2
    out = capsys.readouterr().out
    assert "counterexample" in out


def _s_without_its_minus(x1, x1p, x2, x2p):
    """stats.quadruple_s with a sign error, as test_oracle makes one."""
    return x1 * x2 + x1 * x2p + x1p * x2 + x1p * x2p


@pytest.mark.parametrize("dump", [False, True], ids=["rows", "dump"])
@pytest.mark.parametrize("broken,message", [
    ((stats, "quadruple_s", _s_without_its_minus),
     "CFD identity violated: s outside {-2, +2}"),
    ((sweep, "_TOL", -3.0), "detection-event |S| exceeded 2: "),
], ids=["identity", "row"])
def test_an_invariant_failure_exits_two_with_one_line(broken, message, dump,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(*broken)
    extra = ["--dump-trials", str(tmp_path / "d.csv")] if dump else []
    rc, _ = run_main(tmp_path, *extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("eprbsim: " + message)
    assert err.count("\n") == 1


def test_other_errors_keep_their_traceback(tmp_path, monkeypatch):
    def fails(*args):
        raise RuntimeError("not an invariant")

    monkeypatch.setattr(sweep, "_cfd_row", fails)
    with pytest.raises(RuntimeError, match="not an invariant"):
        run_main(tmp_path)
