"""Sweep orchestration and result serialization.

A sweep evaluates one row per grid point (theta, or threshold at fixed
theta).  Rows are emitted in grid order and all randomness is derived
per point from the configured seed, so identical configurations yield
byte-identical output files at any number of worker processes.  The
trial dump (_TrialDumper) is written in this process, one chunk's
records at a time, from the same walk of each point's chunks that its
row's counts come from (experiment._point_chunks).  It is formatted by
the compiled library (kernels.format_csv) or, where kernels.BACKEND is
"numpy", line by line (_csv_lines), with the same bytes.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import experiment, kernels, rng, stats
from .experiment import (PAIR_NAMES, QUADRUPLES, CfdRun, cfd_counts,
                         noncfd_counts, pair_counts, run_cfd, run_noncfd)
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
                  point_seed: int) -> np.ndarray:
    """State counts of one point: cfd_counts for mode "cfd", else
    noncfd_counts.  Module-level, so that a worker process can run it."""
    quad = SettingsQuad.for_theta(theta)
    if mode == "cfd":
        return cfd_counts(params, quad, n, point_seed)
    return noncfd_counts(params, quad, n, point_seed)


def _cfd_row(theta: float, counts: np.ndarray, n: int, cfg_seed: int,
             delta_denominator: str) -> dict:
    """The row of one CFD point, from its 256 state counts."""
    row = _row(theta, pair_counts(counts), n, cfg_seed)
    s, s_hat = row["S"], row["S_hat"]
    if s_hat is None or abs(s_hat) > 2.0 + _TOL:
        raise RuntimeError(f"detection-event |S| exceeded 2: {s_hat}")

    by_flags = counts.reshape(16, 16)  # [flag bits, outcome bits]
    outcomes = by_flags.sum(axis=0)
    j_det = int(outcomes @ stats.eberhard_j_terms(*QUADRUPLES.T))
    if j_det < 0:
        raise RuntimeError(
            f"detection-event count combination went negative: J={j_det}")

    n_prime = int(by_flags[15].sum())
    n_passes = tuple(row[f"n_pass_{name}"] for name in PAIR_NAMES)
    delta, bound = stats.delta_ratio(n_prime, n_passes, delta_denominator,
                                     per_setting_total=n)
    if s is not None and bound is not None and abs(s) > bound + _TOL:
        raise RuntimeError(f"photon |S|={abs(s)} exceeded bound {bound}")
    row.update(delta=delta, bound=bound)
    return row


def _noncfd_row(theta: float, counts: np.ndarray, quota: int,
                cfg_seed: int) -> dict:
    """The row of one non-CFD point, from its (4, 16) pair state counts."""
    row = _row(theta, counts, quota, cfg_seed)
    # Pair selection accounting does not apply without quadruples.
    row.update(delta=None, bound=None)
    return row


def theta_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.theta_start, cfg.theta_end, cfg.theta_steps)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _worker_count(threads: int, points: int, cpus: int) -> int:
    """Worker processes of a sweep: no more than requested, than points to
    evaluate, or than CPUs to run them on."""
    return max(1, min(threads, points, cpus))


def _process_pool(workers: int):
    """A pool of worker processes, forked where the platform can fork.

    Forked workers start with the modules this process has imported.
    The fork happens before the pool starts its own thread, and a sweep
    starts no other.  The pool modules are imported here, so that a run
    without a pool does not import them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    context = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods() else None)
    return ProcessPoolExecutor(workers, mp_context=context)


def _sweep(cfg: RunConfig, points) -> list:
    """Rows of the (params, theta) points, in order; writes the trial dump.

    Point i draws from its own sub-seed, so its counts do not depend on
    which process computes them.  The points' state counts come from
    _point_counts, on worker processes when there is more than one worker
    (see _worker_count) and here otherwise, and this process builds every
    row from them in grid order.  A trial dump, opened before any point
    runs, then walks each point's chunks again here, in point order, and
    writes each chunk's records as it comes: run_cfd over each CHUNK of
    trials, which stands alone, or the runs run_noncfd yields, since a
    non-CFD chunk's records depend on the chunks before it.  The summed
    counts of the dumped runs must equal the streamed counts; if they do
    not, the sweep stops, and a dump that can seek is first cut back to
    the end of the previous point (a pipe or FIFO keeps what was
    written).
    """
    dump = _TrialDumper(cfg.dump_trials, cfg.mode) if cfg.dump_trials else None
    try:
        seeds = [rng.derive_seed(cfg.seed, index)
                 for index in range(len(points))]
        params, thetas = zip(*points)
        args = ([cfg.mode] * len(points), params, thetas,
                [cfg.n] * len(points), seeds)
        workers = _worker_count(cfg.threads, len(points), _usable_cpus())
        if workers > 1:
            pool = _process_pool(workers)
            try:
                counts = list(pool.map(_point_counts, *args))
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            counts = list(map(_point_counts, *args))
        if cfg.mode == "cfd":
            rows = [_cfd_row(theta, c, cfg.n, cfg.seed, cfg.delta_denominator)
                    for theta, c in zip(thetas, counts)]
        else:
            rows = [_noncfd_row(theta, c, cfg.n, cfg.seed)
                    for theta, c in zip(thetas, counts)]
        if dump is not None:
            for index, (p, theta, seed, c) in enumerate(
                    zip(params, thetas, seeds, counts)):
                point_start = dump.fh.tell() if dump.fh.seekable() else None
                quad, chunk = SettingsQuad.for_theta(theta), experiment.CHUNK
                if cfg.mode == "cfd":
                    runs = (run_cfd(p, quad, min(chunk, cfg.n - start), seed,
                                    start) for start in range(0, cfg.n, chunk))
                else:
                    runs = run_noncfd(p, quad, cfg.n, seed)
                total = np.zeros_like(c)
                for run in runs:
                    dump.write_run(run)
                    total += run.counts
                if not np.array_equal(total, c):
                    if point_start is not None:
                        dump.fh.truncate(point_start)
                    raise RuntimeError(
                        f"trial dump, point {index} (theta={theta!r}, "
                        f"threshold={p.threshold!r}): the dumped trials' "
                        "counts differ from the streamed counts")
    finally:
        if dump is not None:
            dump.close()
    return rows


def sweep_theta(cfg: RunConfig):
    """One row per theta grid point.  Returns (columns, rows)."""
    params = cfg.model_params()
    points = [(params, float(theta)) for theta in theta_grid(cfg)]
    return THETA_COLUMNS, _sweep(cfg, points)


def sweep_threshold(cfg: RunConfig):
    """One row per threshold at fixed theta; documents S -> S_ref convergence."""
    start, stop, steps = cfg.threshold_sweep
    thresholds = [float(thr) for thr in np.linspace(start, stop, steps)]
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

    A run's records are formatted in one call of the compiled library
    (kernels.format_csv) where kernels.BACKEND is "c", and one line at a
    time by _csv_lines otherwise, with the same bytes.
    """

    CFD_HEADER = ("k,a1,a1p,a2,a2p,x1,x1p,x2,x2p,"
                  "v1,v1p,v2,v2p,w1,w1p,w2,w2p")
    NONCFD_HEADER = "k,setting1,setting2,x1,x2,v1,v2,w1,w2"

    def __init__(self, path: str, mode: str):
        self.fh = open(path, "wb")
        self.mode = mode
        self.buffer = None  # format_csv's, reused from run to run
        self.fh.write((self.CFD_HEADER if mode == "cfd"
                       else self.NONCFD_HEADER).encode() + b"\n")

    def write_run(self, run) -> None:
        """Write the records of a CfdRun or a NonCfdRun, in counter order."""
        if isinstance(run, CfdRun):
            settings = ",".join("%.17g" % ai for ai in run.quad.as_tuple())
            head = [np.arange(run.start, run.start + run.n), settings.encode()]
        else:
            head = [run.k, *run.a.T]
        columns = [*head, *run.x.T, *run.v.T, *run.w.T]
        if kernels.BACKEND == "c":
            self.buffer, size = kernels.format_csv(kernels.CPASS, columns,
                                                   self.buffer)
            self.fh.write(memoryview(self.buffer)[:size])
        else:
            self.fh.write(_csv_lines(columns))

    def close(self) -> None:
        self.fh.close()


def _csv_lines(columns) -> bytes:
    """The records of kernels.format_csv's columns, formatted line by line:
    '%d' of each integer and '%.17g' of each float.  An integer column
    with a value outside int64 raises ValueError, as it does there."""
    line = ",".join(
        c.decode().replace("%", "%%") if isinstance(c, bytes)
        else "%.17g" if np.issubdtype(c.dtype, np.floating) else "%d"
        for c in columns) + "\n"
    rows = zip(*[(c if np.issubdtype(c.dtype, np.floating)
                  else kernels.integer_column(c)).tolist()
                 for c in columns if not isinstance(c, bytes)])
    return "".join(line % row for row in rows).encode()
