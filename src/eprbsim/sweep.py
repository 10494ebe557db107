"""Sweep orchestration and result serialization.

A sweep evaluates one row per grid point (theta, or threshold at fixed
theta).  Rows are emitted in grid order and all randomness is derived
per point from the configured seed, so identical configurations yield
byte-identical output files at any number of threads (see _sweep).  A
run with a trial dump (_TrialDumper) walks each point once, in the
calling thread, one chunk's records at a time, and its rows are the
counts of the dumped trials.  The dump is formatted from the pass's
buffers of states and voltages by the compiled library
(kernels.CsvFormat) or, where kernels.BACKEND is "numpy", line by line
(_csv_lines), with the same bytes.  Rows are built from state counts in
Python ints; only numpy's pass imports numpy.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass

from . import experiment, kernels, rng, stats
from .experiment import (PAIR_NAMES, QUADRUPLES, CfdRun, InvariantError,
                         cfd_counts, noncfd_counts, pair_counts, run_cfd,
                         run_noncfd)
from .params import (DEFAULT_N, DEFAULT_SEED, DEFAULT_THETA_STEPS,
                     DEFAULT_THRESHOLD, DEFAULT_V_MAX_MAG, DEFAULT_V_MIN_MAG,
                     DEFAULT_D, ModelParams, SettingsQuad)

THETA_COLUMNS = [
    "theta",
    "E11", "E12", "E21", "E22",
    "E1_1", "E1_2", "E2_1", "E2_2",
    "S", "S_ref", "E_ref", "S_hat",
    "J_eberhard", "J_ch",
    "delta", "bound",
    "n_pass_11", "n_pass_12", "n_pass_21", "n_pass_22",
    "pass_fraction", "N", "seed",
]
THRESHOLD_COLUMNS = ["threshold"] + THETA_COLUMNS

THRESHOLD_SWEEP_THETA = 3.0 * math.pi / 8.0

_TOL = 1e-9

# CHUNKs of CFD trials per task of a sweep's pool (see _sweep): 2^18
# trials.  Each task builds its own pass, which costs about as much as
# 5,000 trials of it; blocks of 8 or 16 CHUNKs ran tight sweeps slower.
BLOCK_CHUNKS = 32


@dataclass
class RunConfig:
    """Everything a CLI invocation needs; all angles in radians."""

    mode: str = "cfd"
    n: int = DEFAULT_N
    d: float = DEFAULT_D
    v_min_mag: float = DEFAULT_V_MIN_MAG
    v_max_mag: float = DEFAULT_V_MAX_MAG
    threshold: float = DEFAULT_THRESHOLD
    theta_start: float = 0.0
    theta_end: float = math.pi
    theta_steps: int = DEFAULT_THETA_STEPS
    seed: int = DEFAULT_SEED
    out: str | None = None
    format: str = "csv"
    dump_trials: str | None = None
    threshold_sweep: tuple[float, float, int] | None = None
    threads: int = 1
    delta_denominator: str = "max-pair"

    def validate(self) -> None:
        if self.mode not in ("cfd", "noncfd", "oracles"):
            raise ValueError(f"mode must be cfd, noncfd or oracles, got {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.theta_steps < 1:
            raise ValueError(f"theta-steps must be >= 1, got {self.theta_steps}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.delta_denominator not in ("max-pair", "setting-quota"):
            raise ValueError(
                "delta-denominator must be max-pair or setting-quota, "
                f"got {self.delta_denominator!r}"
            )
        rng.validate_seed(self.seed)
        if self.mode == "oracles" and self.dump_trials is not None:
            raise ValueError("dump-trials: mode oracles runs no trials")
        if self.mode == "oracles" and self.format != "csv":
            raise ValueError("format: mode oracles prints a text report")
        if self.dump_trials == "":
            raise ValueError("dump-trials must name a file")
        if self.dump_trials is not None and _same_file(self.out,
                                                        self.dump_trials):
            raise ValueError("dump-trials names the rows' file: "
                             f"{self.dump_trials!r}")
        if self.threshold_sweep is not None and self.threshold_sweep[2] < 1:
            raise ValueError(
                f"threshold-sweep steps must be >= 1, got {self.threshold_sweep[2]}"
            )
        for name, value in (("theta-start", self.theta_start),
                            ("theta-end", self.theta_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # Each raises with a message naming the offending field; that
        # rejects a threshold outside the finite window, nan included.  A
        # threshold sweep's ends take the place of the threshold.
        if self.threshold_sweep is None:
            self.model_params()
        else:
            self.model_params(self.threshold_sweep[0])
            self.model_params(self.threshold_sweep[1])

    def model_params(self, threshold: float | None = None) -> ModelParams:
        return ModelParams(
            d=self.d,
            v_min_mag=self.v_min_mag,
            v_max_mag=self.v_max_mag,
            threshold=self.threshold if threshold is None else threshold,
        )


def _same_file(out: str | None, dump: str) -> bool:
    """Whether the path dump names the file the rows go to: out, or
    stdout where out is None.  Files that both exist are compared by
    device and inode, which sees hard links, /dev/stdout and the like;
    otherwise two paths are compared by their real paths."""
    try:
        rows = os.fstat(sys.stdout.fileno()) if out is None else os.stat(out)
        return os.path.samestat(rows, os.stat(dump))
    except (OSError, ValueError, AttributeError):  # no such file or fd
        return out is not None \
            and os.path.realpath(out) == os.path.realpath(dump)


# ----------------------------------------------------------- row assembly

def _row(theta: float, pair_counts, n: int, cfg_seed: int) -> dict:
    """A row without delta and bound, from (4, 16) pair state counts."""
    e_ref, s_ref = stats.quantum_reference(theta)
    return {"theta": theta, **stats.pair_statistics(pair_counts),
            "S_ref": s_ref, "E_ref": e_ref, "N": n, "seed": cfg_seed}


def _point_counts(mode: str, params: ModelParams, theta: float, n: int,
                  point_seed: int, span=None) -> list:
    """State counts of one point: cfd_counts for mode "cfd", of trials
    lo..hi-1 alone where span = (lo, hi) is given, else noncfd_counts of
    the whole point, whatever span is.  One task of a sweep's pool."""
    quad = SettingsQuad.for_theta(theta)
    if mode == "cfd":
        return cfd_counts(params, quad, n, point_seed, span)
    return noncfd_counts(params, quad, n, point_seed)


def _cfd_row(theta: float, counts, n: int, cfg_seed: int,
             delta_denominator: str) -> dict:
    """The row of one CFD point, from its 256 state counts."""
    experiment._check_identities(counts)
    row = _row(theta, pair_counts(counts), n, cfg_seed)
    s, s_hat = row["S"], row["S_hat"]
    if s_hat is None or abs(s_hat) > 2.0 + _TOL:
        raise InvariantError(f"detection-event |S| exceeded 2: {s_hat}")

    j_det = int(sum(count * stats.eberhard_j_terms(*q) for q, count in
                    zip(QUADRUPLES, experiment.outcome_counts(counts))))
    if j_det < 0:
        raise InvariantError(
            f"detection-event count combination went negative: J={j_det}")

    n_prime = int(sum(counts[240:]))  # all four flags set
    n_passes = tuple(row[f"n_pass_{name}"] for name in PAIR_NAMES)
    delta, bound = stats.delta_ratio(n_prime, n_passes, delta_denominator,
                                     per_setting_total=n)
    if s is not None and bound is not None and abs(s) > bound + _TOL:
        raise InvariantError(f"photon |S|={abs(s)} exceeded bound {bound}")
    row.update(delta=delta, bound=bound)
    return row


def _noncfd_row(theta: float, counts, quota: int, cfg_seed: int) -> dict:
    """The row of one non-CFD point, from its (4, 16) pair state counts."""
    row = _row(theta, counts, quota, cfg_seed)
    # Pair selection accounting does not apply without quadruples.
    row.update(delta=None, bound=None)
    return row


def _linspace(start: float, stop: float, num: int) -> list:
    """num floats evenly spaced from start to stop, both included: those
    of np.linspace(start, stop, num), bit for bit, step by step as it
    computes them."""
    div, delta = num - 1, stop - start
    if div <= 0:  # one point, or none
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0:  # numpy's special case of a subnormal step
        grid = [i / div * delta + start for i in range(div)]
    else:
        grid = [i * step + start for i in range(div)]
    return grid + [stop]


def theta_grid(cfg: RunConfig) -> list:
    return _linspace(cfg.theta_start, cfg.theta_end, cfg.theta_steps)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _pool_cpus(workers: int) -> list:
    """A CPU for each of workers threads, distinct, from this process's
    affinity; [] where there are fewer or the platform cannot pin."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return []
    return cpus[:workers] if workers > 1 and len(cpus) >= workers else []


def _pin(cpu: int) -> None:
    """Run the calling thread on this CPU alone, where the host lets it."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpu})


def _pool_map(tasks, workers: int) -> None:
    """Run each task() of the iterable tasks, for its effect, on up to
    workers threads: the calling thread and workers - 1 started here.

    Each thread takes the next task in order until none is left.  Once a
    task raises, on any thread, no task starts; every thread is joined,
    and then the first exception raises here as it was raised.  A
    KeyboardInterrupt in the calling thread stops the pool the same way,
    between tasks or while it waits for the others.

    For the pool's life each thread runs on a CPU of its own
    (_pool_cpus): a started thread otherwise stays on its parent's CPU
    where the host does not balance its threads across CPUs.  The
    calling thread's CPUs are restored when the pool ends, however it
    ends.
    """
    errors, pending, lock = [], iter(tasks), threading.Lock()
    ended = threading.Semaphore(0)  # released by each started thread
    cpus = _pool_cpus(workers)

    def stop(exc):
        with lock:
            errors.append(exc)

    def take():
        with lock:
            return None if errors else next(pending, None)

    def work():
        for task in iter(take, None):
            try:
                task()
            except BaseException as exc:
                stop(exc)

    def started(cpu):
        try:
            if cpu is not None:
                _pin(cpu)
            work()
        finally:
            ended.release()

    threads, caller = [], cpus and os.sched_getaffinity(0)
    try:
        if cpus:
            _pin(cpus[0])
        for k in range(1, workers):
            thread = threading.Thread(target=started,
                                      args=(cpus[k] if cpus else None,))
            thread.start()
            threads.append(thread)
        work()
    except BaseException as exc:  # outside a task: a Ctrl-C
        stop(exc)
    try:
        # Not Thread.join: interrupted, it can mark a running thread as
        # ended (Python before 3.13).
        for _ in threads:
            while True:
                try:
                    ended.acquire()
                    break
                except BaseException as exc:  # a Ctrl-C while waiting
                    stop(exc)
        for thread in threads:
            thread.join()
    finally:
        if caller:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, caller)
    if errors:
        raise errors[0]


def _sweep(cfg: RunConfig, points) -> list:
    """Rows of the (params, theta) points, in order; writes the trial dump.

    Point i draws from its own sub-seed, so its counts do not depend on
    which thread computes them.  With a trial dump, this thread walks
    each point once, in order, and its counts are those of the runs the
    dump writes (_TrialDumper.write_point).  Otherwise the tasks, CFD
    blocks of BLOCK_CHUNKS CHUNKs of a point's trials, or whole non-CFD
    points, whose quota cut takes their trials in order, run on
    min(--threads, usable CPUs, tasks) threads, the calling one among
    them (_pool_map): the compiled pass drops the interpreter lock for
    each foreign call, a block's trials at most.  Each task adds its
    integer counts to its point's as it ends, in any order, and no task
    or block's counts outlive it.  This thread builds every row from the
    points' counts in grid order.
    """
    seeds = [rng.derive_seed(cfg.seed, i) for i in range(len(points))]
    params, thetas = zip(*points)
    if cfg.dump_trials is not None:
        dump = _TrialDumper(cfg.dump_trials, cfg.mode)
        try:
            counts = [dump.write_point(*point, cfg.n, seed)
                      for point, seed in zip(points, seeds)]
        finally:
            dump.close()
    else:
        counts, lock = [None] * len(points), threading.Lock()
        block = BLOCK_CHUNKS * experiment.CHUNK if cfg.mode == "cfd" else cfg.n
        starts = range(0, cfg.n, block)

        def add(i, lo):
            c = _point_counts(cfg.mode, params[i], thetas[i], cfg.n, seeds[i],
                              (lo, min(lo + block, cfg.n)))
            with lock:  # a non-CFD point is one task: its counts stand
                counts[i] = c if counts[i] is None \
                    else [a + b for a, b in zip(counts[i], c)]

        _pool_map((functools.partial(add, i, lo)
                   for i in range(len(points)) for lo in starts),
                  min(cfg.threads, _usable_cpus(), len(points) * len(starts)))
    if cfg.mode == "cfd":
        return [_cfd_row(theta, c, cfg.n, cfg.seed, cfg.delta_denominator)
                for theta, c in zip(thetas, counts)]
    return [_noncfd_row(theta, c, cfg.n, cfg.seed)
            for theta, c in zip(thetas, counts)]


def sweep_theta(cfg: RunConfig):
    """One row per theta grid point.  Returns (columns, rows)."""
    params = cfg.model_params()
    points = [(params, theta) for theta in theta_grid(cfg)]
    return THETA_COLUMNS, _sweep(cfg, points)


def sweep_threshold(cfg: RunConfig):
    """One row per threshold at fixed theta; documents S -> S_ref convergence."""
    thresholds = _linspace(*cfg.threshold_sweep)
    points = [(cfg.model_params(threshold=thr), THRESHOLD_SWEEP_THETA)
              for thr in thresholds]
    rows = _sweep(cfg, points)
    return THRESHOLD_COLUMNS, [{"threshold": thr, **row}
                               for thr, row in zip(thresholds, rows)]


# ------------------------------------------------------------ serialization

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def rows_to_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def rows_to_json(columns, rows) -> str:
    ordered = [{c: row[c] for c in columns} for row in rows]
    return json.dumps(ordered, indent=2) + "\n"


def write_rows(cfg: RunConfig, columns, rows, fh) -> None:
    """Write the rows to fh in cfg.format, and flush it."""
    fh.write(rows_to_csv(columns, rows) if cfg.format == "csv"
             else rows_to_json(columns, rows))
    fh.flush()


class _TrialDumper:
    """Raw per-trial record writer (comma separated, one line per record).

    A run's records are formatted from the pass's buffers in one call of
    the compiled library where kernels.BACKEND is "c", through a
    kernels.CsvFormat of the point's columns, built once per point, and
    one line at a time by _csv_lines otherwise, with the same bytes.
    """

    CFD_HEADER = ("k,a1,a1p,a2,a2p,x1,x1p,x2,x2p,"
                  "v1,v1p,v2,v2p,w1,w1p,w2,w2p")
    NONCFD_HEADER = "k,setting1,setting2,x1,x2,v1,v2,w1,w2"

    def __init__(self, path: str, mode: str):
        self.fh = open(path, "wb")
        self.mode = mode
        self.buffer = None  # CsvFormat.write's, reused from run to run
        self.columns = self.format = None  # the point's, at its first run
        self.fh.write((self.CFD_HEADER if mode == "cfd"
                       else self.NONCFD_HEADER).encode() + b"\n")

    def write_point(self, params: ModelParams, theta: float, n: int,
                    seed: int) -> list:
        """Write a point's records a run at a time, in counter order, and
        return the state counts of the trials written, as lists of ints:
        run_cfd over each CHUNK of trials, all through one pass of the
        point, whose counts the row checks (_cfd_row), or the runs of
        run_noncfd, whose quota ties each chunk to the chunks before it."""
        quad, self.columns = SettingsQuad.for_theta(theta), None
        if self.mode == "cfd":
            point = experiment._point(True, params, quad, seed, 0,
                                      min(experiment.CHUNK, n), trials=True)
            for start in range(0, n, point.capacity):
                self.write_run(run_cfd(params, quad,
                                       min(point.capacity, n - start), seed,
                                       start, point))
            return point.hist[:]
        point = experiment._noncfd_point(params, quad, n, seed, trials=True)
        for run in run_noncfd(params, quad, n, seed, point):
            self.write_run(run)
        return experiment._by_pair(point.hist)

    def write_run(self, run) -> None:
        """Write the records of a CfdRun or a NonCfdRun, in counter order."""
        cfd = isinstance(run, CfdRun)
        rows = (run.start, run.n if cfd else run.n_trials, run.codes,
                run.volts)
        if self.columns is None:
            self.columns = _dump_columns(run.quad, cfd, len(run.codes))
            self.format = kernels.CsvFormat(self.columns)
        if kernels.BACKEND == "c":
            self.buffer, size = self.format.write(kernels.CPASS, rows,
                                                  self.buffer)
            self.fh.write(self.buffer[:size])
        else:
            self.fh.write(_csv_lines(self.columns, rows))

    def close(self) -> None:
        self.fh.close()


def _dump_columns(quad: SettingsQuad, cfd: bool, capacity: int) -> list:
    """The trial dump's columns of a point's pass of this capacity: a
    trial's index, the settings (a non-CFD side's by its coin, state bit 5
    or 4), then each station's outcome, voltage and flag (state bits s and
    k + s of station s of k); non-CFD trials the quota dropped skipped."""
    col, k = kernels.TrialColumn, 4 if cfd else 2
    texts = [b"%.17g" % a for a in quad.as_tuple()]  # a1, a1p, a2, a2p
    if cfd:
        head = [col(kernels.INDEX), b",".join(texts)]
    else:
        head = [col(kernels.SKIP), col(kernels.INDEX),
                col(kernels.CHOICE, 5, (texts[0], texts[1])),
                col(kernels.CHOICE, 4, (texts[2], texts[3]))]
    return [*head, *(col(kernels.SIGN, s) for s in range(k)),
            *(col(kernels.FLOAT64, s * capacity) for s in range(k)),
            *(col(kernels.BIT, k + s) for s in range(k))]


def _csv_lines(columns, rows) -> bytes:
    """The lines of kernels.CsvFormat's columns and rows, formatted line
    by line through numpy: '%d' of each integer, '%.17g' of each double
    and the text of each choice."""
    import numpy as np
    start, n, codes, volts = kernels._checked(rows)
    states, kept, fields = np.frombuffer(codes, np.uint8, n), slice(None), []
    for col in columns:
        kind = col.kind if isinstance(col, kernels.TrialColumn) else None
        if kind == kernels.SKIP:
            kept = states != 64
        elif kind == kernels.INDEX:
            fields.append(np.arange(start, start + n, dtype=np.int64))
        elif kind == kernels.FLOAT64:
            fields.append(np.frombuffer(volts, np.float64, n, 8 * col.value))
        elif kind is not None:  # a bit of the state
            bit = states >> col.value & 1
            fields.append(2 * bit.astype(np.int8) - 1 if kind == kernels.SIGN
                          else bit if kind == kernels.BIT
                          else np.array([t.decode() for t in col.texts])[bit])
        else:
            fields.append(col)
    line = ",".join(
        c.decode().replace("%", "%%") if isinstance(c, bytes)
        else "%.17g" if c.dtype.kind == "f"
        else "%s" if c.dtype.kind == "U" else "%d"
        for c in fields) + "\n"
    values = zip(*[c[kept].tolist() for c in fields
                   if not isinstance(c, bytes)])
    return "".join(line % row for row in values).encode()
