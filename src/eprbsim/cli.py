"""Command line interface.

Exit codes: 0 success, 1 configuration error or an output that cannot be
written, 2 an oracle's violation or a sweep's failed invariant check
(experiment.InvariantError).
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import experiment, kernels, oracle, sweep
from .params import (DEFAULT_N, DEFAULT_SEED, DEFAULT_THETA_STEPS,
                     DEFAULT_THRESHOLD, DEFAULT_V_MAX_MAG, DEFAULT_V_MIN_MAG,
                     DEFAULT_D, ModelParams)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose own errors use the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: config error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="eprbsim",
        description=(
            "Event-by-event simulator of a two-wing polarization "
            "correlation experiment with local photon-identification "
            "thresholds."
        ),
    )
    p.add_argument("--mode", choices=("cfd", "noncfd", "oracles"),
                   default="cfd",
                   help="cfd records all four settings per trial, noncfd "
                        "flips per-trial setting coins, oracles runs the "
                        "exhaustive cross-checks")
    p.add_argument("--n", type=int, default=DEFAULT_N,
                   help="trials per grid point (noncfd: records per setting "
                        "pair)")
    p.add_argument("--d", type=float, default=DEFAULT_D,
                   help="voltage response exponent, >= 0")
    p.add_argument("--vmin", type=float, default=DEFAULT_V_MIN_MAG,
                   dest="vmin", help="magnitude of the shallowest voltage")
    p.add_argument("--vmax", type=float, default=DEFAULT_V_MAX_MAG,
                   dest="vmax", help="magnitude of the deepest voltage")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="photon identification threshold (negative)")
    p.add_argument("--theta-start", type=float, default=0.0)
    p.add_argument("--theta-end", type=float, default=None,
                   help="default: pi (or 180 with --angle-unit deg)")
    p.add_argument("--theta-steps", type=int, default=DEFAULT_THETA_STEPS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="64-bit run seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--angle-unit", choices=("rad", "deg"), default="rad")
    p.add_argument("--dump-trials", default=None, metavar="PATH",
                   help="also write one raw record per trial to PATH")
    p.add_argument("--threshold-sweep", default=None, metavar="START:STOP:STEPS",
                   help="sweep the threshold at fixed theta = 3*pi/8 "
                        "instead of sweeping theta; values are negative, so "
                        "use the --threshold-sweep=START:STOP:STEPS form")
    p.add_argument("--threads", type=int, default=1,
                   help="up to this many threads, the calling one "
                        "included, over grid points and blocks of a CFD "
                        "point's trials, no more than the usable CPUs; a "
                        "--dump-trials run walks its points in the calling "
                        "thread (results are identical for any value)")
    p.add_argument("--delta-denominator", choices=("max-pair", "setting-quota"),
                   default="max-pair",
                   help="denominator convention for the pair-selection "
                        "fraction delta")
    return p


def _parse_threshold_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"threshold-sweep must look like START:STOP:STEPS, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"threshold-sweep: {exc}") from None


def config_from_args(args) -> sweep.RunConfig:
    to_rad = math.pi / 180.0 if args.angle_unit == "deg" else 1.0
    theta_end = args.theta_end
    if theta_end is None:
        theta_end = 180.0 if args.angle_unit == "deg" else math.pi
    threshold_sweep = None
    if args.threshold_sweep is not None:
        threshold_sweep = _parse_threshold_sweep(args.threshold_sweep)
    cfg = sweep.RunConfig(
        mode=args.mode,
        n=args.n,
        d=args.d,
        v_min_mag=args.vmin,
        v_max_mag=args.vmax,
        threshold=args.threshold,
        theta_start=args.theta_start * to_rad,
        theta_end=theta_end * to_rad,
        theta_steps=args.theta_steps,
        seed=args.seed,
        out=args.out,
        format=args.format,
        dump_trials=args.dump_trials,
        threshold_sweep=threshold_sweep,
        threads=args.threads,
        delta_denominator=args.delta_denominator,
    )
    cfg.validate()
    if cfg.mode != "oracles" and (cfg.dump_trials is not None
                                  or kernels.BACKEND != "c"):
        # numpy's pass, or a trial dump's records: numpy is imported here,
        # while the run starts up, and not within its first point.
        from . import law  # noqa: F401
    return cfg


def _run_oracles(out) -> int:
    """Write the oracles' report to out; 2 where one found a violation."""
    reports = oracle.run_all_enumerations()
    violations = 0
    for rep in reports:
        print(f"{rep.name}: {rep.cases} cases, "
              f"{len(rep.violations)} violations", file=out)
        for item in rep.violations:
            print(f"  counterexample: {item}", file=out)
        violations += len(rep.violations)

    # Closed-form quadrature spot checks.
    spot_failures = []
    flat = ModelParams(d=0.0, v_min_mag=0.95, v_max_mag=1.0, threshold=-0.975)
    if abs(oracle.pass_probability(flat) - 0.5) > 1e-12:
        spot_failures.append("d=0 pass probability != kappa")
    open_window = ModelParams(d=4.0, v_min_mag=0.5, v_max_mag=1.0,
                              threshold=-0.5)
    if oracle.pass_probability(open_window) != 1.0:
        spot_failures.append("threshold at -v_min_mag should pass everything")
    closed = ModelParams(d=4.0, v_min_mag=0.5, v_max_mag=1.0, threshold=-1.0)
    if oracle.pass_probability(closed) != 0.0:
        spot_failures.append("threshold at -v_max_mag should pass nothing")
    print(f"quadrature spot checks: {len(spot_failures)} failures", file=out)
    for msg in spot_failures:
        print(f"  {msg}", file=out)
    violations += len(spot_failures)

    total = "+".join(str(rep.cases) for rep in reports)
    print(f"{total} cases, {violations} violations", file=out)
    return 0 if violations == 0 else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"eprbsim: config error: {exc}", file=sys.stderr)
        return 1

    run = sweep.sweep_theta if cfg.threshold_sweep is None \
        else sweep.sweep_threshold
    try:
        # Opened before any point runs, as the trial dump is.
        with (contextlib.nullcontext(sys.stdout) if cfg.out is None
              else open(cfg.out, "w", newline="")) as out:
            if cfg.mode == "oracles":
                return _run_oracles(out)
            columns, rows = run(cfg)
            sweep.write_rows(cfg, columns, rows, out)
    except (OSError, experiment.InvariantError) as exc:
        print(f"eprbsim: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
