"""Benchmark of the eprbsim command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload theta-cfd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 1            # every workload, one seed
    python3 perfbench/run.py --repeat 10            # run-to-run spread, 10 seeds

With --workload, the run repeats one CLI invocation of that workload, each
in a fresh interpreter, until --seconds have passed (at least three times),
checks every output, and prints as its last line one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of traced runs
(--trace 1).  Without --workload it runs itself once per workload and seed
and prints each metric's median and spread.  Run from the repository root;
eprbsim is imported from src/.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import exact
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Model parameters the CLI defaults to; every workload keeps them.
D, V_MIN_MAG, V_MAX_MAG = 4.0, 0.5, 1.0
THRESHOLD_SWEEP_THETA = 3.0 * math.pi / 8.0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str = "cfd"
    n: int = 100_000
    theta_steps: int = 40
    threshold: float = -0.995
    threshold_sweep: tuple | None = None
    threads: int = 1
    dump: bool = False

    def argv(self, seed: int, out: Path, dump: Path, threads: int) -> list:
        args = ["--mode", self.mode, "--n", str(self.n), "--seed", str(seed),
                "--threads", str(threads), "--out", str(out)]
        if self.threshold_sweep is None:
            args += ["--theta-steps", str(self.theta_steps),
                     "--threshold", repr(self.threshold)]
        else:
            args.append("--threshold-sweep=%r:%r:%d" % self.threshold_sweep)
        if self.dump:
            args += ["--dump-trials", str(dump)]
        return args

    def grid(self) -> list:
        """(theta, threshold) of every row, in output order."""
        if self.threshold_sweep is None:
            return [(float(t), self.threshold)
                    for t in np.linspace(0.0, math.pi, self.theta_steps)]
        return [(THRESHOLD_SWEEP_THETA, float(t))
                for t in np.linspace(*self.threshold_sweep)]

    def trials(self) -> int:
        """A CFD trial is one source pair at four stations; a non-CFD trial
        is one recorded trial, 4 x quota per point."""
        per_point = self.n if self.mode == "cfd" else 4 * self.n
        return per_point * len(self.grid())


# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("theta-cfd"),
    Workload("tight-sweep", n=1_000_000, threshold_sweep=(-0.9999, -0.999, 4),
             threads=2),
    Workload("theta-noncfd", mode="noncfd", threads=2),
    Workload("dump-cfd", n=50_000, theta_steps=4, dump=True),
)}

def sim_seed(workload: str, seed: int) -> int:
    """The simulator's 64-bit seed for one workload and benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def references(wl: Workload) -> list:
    return [exact.point_reference(exact.settings_for_theta(theta),
                                  exact.kappa_of(thr, V_MIN_MAG, V_MAX_MAG), D)
            for theta, thr in wl.grid()]


def sha256_file(path: Path) -> str:
    """Hash of the file, flushed to disk first so that its write-back does
    not overlap the next invocation."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Invocation:
    rc: int
    setup_s: float = 0.0
    run_s: float = 0.0
    rss_mb: float = 0.0
    out: bytes = b""
    dump_sha: str = ""
    report: dict | None = None
    stderr: str = ""


def invoke(wl: Workload, seed: int, work: Path, threads: int,
           traced: bool = False) -> Invocation:
    """Run the CLI once in a fresh interpreter and collect its output."""
    out, dump, report = work / "out.csv", work / "trials.csv", work / "report.json"
    for path in (out, dump, report):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(report)]
    cmd += ["--trace"] if traced else []
    cmd += ["--"] + wl.argv(seed, out, dump, threads)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=work, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return Invocation(rc=-9, stderr=f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not report.exists():
        return Invocation(rc=proc.returncode or 1, stderr=proc.stderr[-2000:])
    rep = json.loads(report.read_text())
    return Invocation(
        rc=rep["rc"],
        setup_s=(rep["config_ns"] - spawn_ns) / 1e9,
        run_s=(rep["end_ns"] - rep["config_ns"]) / 1e9,
        rss_mb=rep["maxrss_kb"] / 1024.0,
        out=out.read_bytes(),
        dump_sha=sha256_file(dump) if wl.dump else "",
        report=rep)


class Operations:
    """The operations of one run: invocations, their checks and the tallies."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.grid = wl.grid()
        self.refs = references(wl)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first: Invocation | None = None
        self.worst_z = 0.0
        self.comparisons = 0

    def run(self, threads: int | None = None, traced: bool = False):
        """One operation: a CLI invocation and the checks of its output."""
        self.attempted += 1
        inv = invoke(self.wl, self.seed, self.work,
                     self.wl.threads if threads is None else threads, traced)
        if inv.rc != 0:
            self.failed += 1
            print(f"operation failed (exit {inv.rc}): {inv.stderr}",
                  file=sys.stderr)
            return None
        if self.first is None:
            self.first = inv
            self._check_fully(inv)
        elif (inv.out, inv.dump_sha) != (self.first.out, self.first.dump_sha):
            label = f"--threads {threads}" if threads else "a repetition"
            self.problems.append(
                f"output of {label}{' (traced)' if traced else ''} differs "
                "from the first repetition")
        return inv

    def _check_fully(self, inv: Invocation) -> None:
        text = inv.out.decode()
        reports = [checks.check_rows(text, self.grid, self.wl, self.seed,
                                     self.refs)]
        if self.wl.dump:
            reports.append(checks.check_dump(str(self.work / "trials.csv"),
                                             text, self.grid, self.wl))
        for rep in reports:
            self.problems += rep.problems
            self.worst_z = max(self.worst_z, rep.worst_z)
            self.comparisons += rep.comparisons

    def check_thread_invariance(self) -> None:
        """Outside the timed loop: --threads 1 must give the same bytes."""
        if self.wl.threads > 1:
            self.run(threads=1)

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def run_end_to_end(ops: Operations, seconds: float) -> dict:
    samples = []
    deadline = time.monotonic() + seconds
    while ops.attempted < MIN_REPS or time.monotonic() < deadline:
        inv = ops.run()
        if inv is not None:
            samples.append(inv)
    ops.check_thread_invariance()
    if not samples:
        return {}
    trials = ops.wl.trials()
    values = {
        "setup_s": statistics.median(s.setup_s for s in samples),
        "trials_per_s": statistics.median(trials / s.run_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    print(f"{len(samples)} repetitions, medians:")
    return values


def run_traced(ops: Operations, seconds: float) -> dict:
    """Alternate untraced and traced invocations; per-layer medians."""
    layer_runs, overheads = [], []
    deadline = time.monotonic() + seconds
    while ops.attempted == 0 or time.monotonic() < deadline:
        plain = ops.run()
        traced = ops.run(traced=True)
        if plain is None or traced is None:
            continue
        rep = traced.report
        layer_runs.append(layers.metrics(rep["spans"], ops.wl.threads,
                                         rep["setup"]))
        overheads.append(traced.run_s - plain.run_s)
    ops.check_thread_invariance()
    if not layer_runs:
        return {}
    values = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    print(f"{len(layer_runs)} traced repetitions, medians:")
    return values


def run_workload(args) -> int:
    if not (SRC / "eprbsim" / "cli.py").is_file():
        print(f"perfbench: no eprbsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from eprbsim import ModelParams, oracle

    def pass_probability(kappa, d):
        return oracle.pass_probability(ModelParams(
            d=d, v_min_mag=V_MIN_MAG, v_max_mag=V_MAX_MAG,
            threshold=kappa * (V_MAX_MAG - V_MIN_MAG) - V_MAX_MAG))

    failures = exact.self_check(pass_probability)
    if failures:
        print("perfbench: exact reference failed its self-check:\n  "
              + "\n  ".join(failures), file=sys.stderr)
        return 3

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    wl = WORKLOADS[args.workload]
    seed = sim_seed(wl.name, args.seed)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".perfbench_work"))
    try:
        ops = Operations(wl, seed, work)
        print(f"workload {wl.name}: seed {args.seed} -> simulator seed {seed}, "
              f"{wl.trials()} trials per invocation")
        if args.trace:
            values = run_traced(ops, args.seconds)
        else:
            values = run_end_to_end(ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if ops.first is not None:
        print(f"backend {ops.first.report['backend']}")
        print(f"output sha256 {hashlib.sha256(ops.first.out).hexdigest()}"
              + (f"  dump sha256 {ops.first.dump_sha}" if wl.dump else ""))
    print(f"checks: {ops.comparisons} comparisons with the exact reference, "
          f"worst |z| {ops.worst_z:.2f} (limit {checks.Z_MAX})")
    for problem in ops.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"operations attempted {ops.attempted}, failed {ops.failed}")
    print(json.dumps(ops.result(metrics)))
    return 0


def run_suite(args) -> int:
    """Run each workload once per seed in a child and summarise each metric.

    The spread is (q3 - q1) / median over the seeds, as
    statistics.quantiles(values, n=4) gives the quartiles.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        values, attempted, failed, incorrect = {}, [], [], 0
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  stdin=subprocess.DEVNULL, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            for line in lines[:-1]:
                if "sha256" in line or "CHECK FAILED" in line:
                    print(f"{name} seed {seed}: {line}")
            result = json.loads(lines[-1])
            incorrect += not result["correct"]
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        print(f"{name}: {len(attempted)} runs, {incorrect} incorrect, "
              f"failed/attempted {sum(failed)}/{sum(attempted)}")
        ok = ok and incorrect == 0
        for metric, vals in values.items():
            med = statistics.median(vals)
            line = f"  {metric:<44} median {med:>12.6g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                line += f"  q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {spread:6.2%}"
                bound = bounds.get(metric)
                if bound is not None:
                    line += f"  bound/3 {bound / 3:6.2%}"
                    line += "" if spread < bound / 3 else "  WIDE"
            print(line)
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS), default=None,
                   help="run one workload; omitted, run the suite")
    p.add_argument("--seed", type=int, default=1,
                   help="benchmark seed (the first seed in suite mode)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced invocations")
    p.add_argument("--repeat", type=int, default=1,
                   help="suite mode: seeds per workload, to show the spread")
    args = p.parse_args()
    if args.workload is not None and args.repeat == 1:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
