"""Sweep orchestration and result serialization.

A sweep evaluates one row per grid point (theta, or threshold at fixed
theta).  Rows are emitted in grid order and all randomness is derived
per point from the configured seed, so identical configurations yield
byte-identical output files at any thread count.
"""
from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import csvblock, rng, stats
from .experiment import (CONCURRENT_CHUNK, PAIR_NAMES, QUADRUPLES, CfdRun,
                         NonCfdRun, cfd_counts, noncfd_counts, pair_counts,
                         run_cfd, run_noncfd)
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
    angle_unit: str = "rad"
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
        if self.angle_unit not in ("rad", "deg"):
            raise ValueError(f"angle-unit must be rad or deg, got {self.angle_unit!r}")
        if self.delta_denominator not in ("max-pair", "setting-quota"):
            raise ValueError(
                "delta-denominator must be max-pair or setting-quota, "
                f"got {self.delta_denominator!r}"
            )
        rng.validate_seed(self.seed)
        if self.threshold_sweep is not None and self.threshold_sweep[2] < 1:
            raise ValueError(
                f"threshold-sweep steps must be >= 1, got {self.threshold_sweep[2]}"
            )
        for name, value in (("theta-start", self.theta_start),
                            ("theta-end", self.theta_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # Each raises with a message naming the offending field; that
        # rejects a threshold outside the finite window, nan included.
        self.model_params()
        if self.threshold_sweep is not None:
            self.model_params(self.threshold_sweep[0])
            self.model_params(self.threshold_sweep[1])

    def model_params(self, threshold: float | None = None) -> ModelParams:
        return ModelParams(
            d=self.d,
            v_min_mag=self.v_min_mag,
            v_max_mag=self.v_max_mag,
            threshold=self.threshold if threshold is None else threshold,
        )


# ----------------------------------------------------------- row assembly

def _row(theta: float, pair_counts, n: int, cfg_seed: int) -> dict:
    """A row without delta and bound, from (4, 16) pair state counts."""
    e_ref, s_ref = stats.quantum_reference(theta)
    return {"theta": theta, **stats.pair_statistics(pair_counts),
            "S_ref": s_ref, "E_ref": e_ref, "N": n, "seed": cfg_seed}


def _cfd_row(params: ModelParams, theta: float, n: int, point_seed: int,
             cfg_seed: int, delta_denominator: str, keep_run: bool = False,
             chunk: int | None = None):
    """One CFD point: (row, CfdRun if keep_run else None).

    Without keep_run the trials are streamed into state counts, chunk
    (see cfd_counts) at a time, and no per-trial array outlives a chunk.
    """
    quad = SettingsQuad.for_theta(theta)
    if keep_run:
        run = run_cfd(params, quad, n, point_seed)
        counts = run.counts
    else:
        run, counts = None, cfd_counts(params, quad, n, point_seed, chunk)
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
    return row, run


def _noncfd_row(params: ModelParams, theta: float, quota: int, point_seed: int,
                cfg_seed: int, keep_run: bool = False):
    """One non-CFD point: (row, NonCfdRun if keep_run else None).

    Without keep_run the trials are streamed into pair state counts and
    no per-trial array outlives a chunk.
    """
    quad = SettingsQuad.for_theta(theta)
    if keep_run:
        run = run_noncfd(params, quad, quota, point_seed)
        counts = run.counts
    else:
        run, counts = None, noncfd_counts(params, quad, quota, point_seed)
    row = _row(theta, counts, quota, cfg_seed)
    # Pair selection accounting does not apply without quadruples.
    row.update(delta=None, bound=None)
    return row, run


def theta_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.theta_start, cfg.theta_end, cfg.theta_steps)


def _sweep(cfg: RunConfig, points) -> list:
    """Rows of the (params, theta) points, in order; writes the trial dump.

    Point i draws from its own sub-seed, so rows do not depend on which
    thread evaluates them.  A trial dump is written in point order from
    one thread.  CFD points that run on several threads at once take
    chunks of CONCURRENT_CHUNK trials.
    """
    dump = _TrialDumper(cfg.dump_trials, cfg.mode) if cfg.dump_trials else None
    threaded = cfg.threads > 1 and dump is None
    chunk = CONCURRENT_CHUNK if threaded and len(points) > 1 else None

    def job(item):
        index, (params, theta) = item
        point_seed = rng.derive_seed(cfg.seed, index)
        keep_run = dump is not None
        if cfg.mode == "cfd":
            return _cfd_row(params, theta, cfg.n, point_seed, cfg.seed,
                            cfg.delta_denominator, keep_run=keep_run,
                            chunk=chunk)
        return _noncfd_row(params, theta, cfg.n, point_seed, cfg.seed,
                           keep_run=keep_run)

    if threaded:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return [row for row, _run in pool.map(job, enumerate(points))]
    rows = []
    try:
        for item in enumerate(points):
            row, run = job(item)
            rows.append(row)
            if dump is not None:
                dump.write_run(run)
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


def write_rows(cfg: RunConfig, columns, rows) -> None:
    text = rows_to_csv(columns, rows) if cfg.format == "csv" \
        else rows_to_json(columns, rows)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


class _TrialDumper:
    """Raw per-trial record writer (comma separated, one line per record)."""

    CFD_HEADER = ("k,a1,a1p,a2,a2p,x1,x1p,x2,x2p,"
                  "v1,v1p,v2,v2p,w1,w1p,w2,w2p")
    NONCFD_HEADER = "k,setting1,setting2,x1,x2,v1,v2,w1,w2"

    def __init__(self, path: str, mode: str):
        self.fh = open(path, "wb")
        self.mode = mode
        self.fh.write((self.CFD_HEADER if mode == "cfd"
                       else self.NONCFD_HEADER).encode() + b"\n")

    def write_run(self, run) -> None:
        if isinstance(run, CfdRun):
            self._write_cfd(run)
        else:
            self._write_noncfd(run)

    def _write_cfd(self, run: CfdRun) -> None:
        settings = ",".join("%.17g" % ai for ai in run.quad.as_tuple())
        csvblock.write_records(self.fh, [np.arange(run.n), settings.encode(),
                                         *run.x.T, *run.v.T, *run.w.T])

    def _write_noncfd(self, run: NonCfdRun) -> None:
        pairs = run.pairs
        sizes = [p.k.size for p in pairs]

        def joined(name):
            return np.concatenate([getattr(p, name) for p in pairs])

        columns = [joined("k"),
                   np.repeat([p.side1_setting for p in pairs], sizes),
                   np.repeat([p.side2_setting for p in pairs], sizes),
                   *map(joined, ("x1", "x2", "v1", "v2", "w1", "w2"))]
        order = np.argsort(columns[0], kind="stable")
        csvblock.write_records(self.fh, [col[order] for col in columns])

    def close(self) -> None:
        self.fh.close()
