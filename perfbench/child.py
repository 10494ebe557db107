"""One eprbsim CLI invocation in a fresh interpreter, with timestamps.

    python3 child.py REPORT_JSON [--trace] -- CLI_ARGS...

Runs eprbsim.cli.main(CLI_ARGS) and writes REPORT_JSON with time.monotonic_ns
stamps (a clock shared by every process of the machine) taken when the
RunConfig is validated and when main returns, the exit code and the peak
resident memory.  With --trace it first times the imports, wraps every layer
(see layers.py) and adds the spans.  The parent stamps the spawn, so set-up
time counts interpreter start-up too.
"""
import json
import resource
import sys
import time


def main() -> int:
    report_path = sys.argv[1]
    sep = sys.argv.index("--")
    traced = "--trace" in sys.argv[2:sep]
    argv = sys.argv[sep + 1:]
    report = {}
    if traced:
        import numpy  # noqa: F401  (not counted in either import timing)
        t0 = time.perf_counter_ns()
        import scipy.integrate  # noqa: F401  (eprbsim.oracle imports it)
        t1 = time.perf_counter_ns()
    from eprbsim import cli, kernels
    if traced:
        t2 = time.perf_counter_ns()
        report["setup"] = {"import_scipy_s": (t1 - t0) / 1e9,
                           "import_eprbsim_s": (t2 - t1) / 1e9}
        from spans import Tracer
        import layers
        tracer = Tracer()
        layers.install(tracer)

    config_from_args = cli.config_from_args

    def stamped(args):
        cfg = config_from_args(args)
        report["config_ns"] = time.monotonic_ns()
        return cfg

    cli.config_from_args = stamped
    rc = cli.main(argv)
    report["end_ns"] = time.monotonic_ns()
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["backend"] = kernels.BACKEND
    if traced:
        report["spans"] = tracer.spans
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
