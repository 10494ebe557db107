"""Per-layer tracing of eprbsim: where the spans go and what they yield.

install() wraps functions at the module attributes their callers look up,
so a traced CLI run records a span per call into each layer.  metrics()
turns the spans of one run into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import inspect
import os
import statistics

from spans import duration, self_times

# stats functions that compute the Eberhard and CH count totals.
_COUNT_FUNCS = ("eberhard_total_selected", "ch_total_selected",
                "eberhard_total", "ch_total")


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def install(tracer) -> None:
    """Wrap every layer of the CLI path with spans and counts."""
    from eprbsim import cli, experiment, kernels, station, stats, sweep
    w = tracer.wrap
    w(cli, "config_from_args", "cli.config")
    w(kernels, "fill_uniforms", "kernels.fill_uniforms",
      lambda a, kw, out: {"draws": int(out.size)})
    w(kernels, "gather_uniforms", "kernels.gather_uniforms",
      lambda a, kw, out: {"draws": int(out.size)})
    w(kernels, "station_response", "kernels.station_response",
      lambda a, kw, out: {"evals": int(out[1].size),
                          "bytes": _nbytes(*a[1:4], *out)})
    w(station, "identify_photon", "station.identify_photon",
      lambda a, kw, out: {"flags": int(out.size),
                          "passed": int(out.sum(dtype="int64"))})
    w(experiment, "source_phis", "experiment.source_phis")
    w(experiment, "_check_quadruple_identities", "experiment.check_identities")
    # sweep imported the runners by name, so wrap them where sweep looks.
    w(sweep, "run_cfd", "experiment.run_cfd",
      lambda a, kw, out: {"trials": out.n,
                          "bytes": _nbytes(out.phi1, out.phi2, out.x,
                                           out.v, out.w)})
    w(sweep, "run_noncfd", "experiment.run_noncfd",
      lambda a, kw, out: {"recorded": 4 * out.quota, "drawn": out.n_trials})
    for name, fn in inspect.getmembers(stats, inspect.isfunction):
        if fn.__module__ == stats.__name__ and not name.startswith("_"):
            w(stats, name, f"stats.{name}")
    w(sweep, "_cfd_row", "sweep.row")
    w(sweep, "_noncfd_row", "sweep.row")
    w(sweep, "sweep_theta", "sweep.sweep")
    w(sweep, "sweep_threshold", "sweep.sweep")
    w(sweep, "write_rows", "sweep.write_rows",
      lambda a, kw, out: {"bytes": os.path.getsize(a[0].out)})
    w(sweep._TrialDumper, "write_run", "sweep.dump",
      lambda a, kw, out: {"lines": a[1].n if hasattr(a[1], "n")
                          else sum(p.k.size for p in a[1].pairs)})
    w(sweep._TrialDumper, "close", "sweep.dump",
      lambda a, kw, out: {"bytes": os.path.getsize(a[0].fh.name)})


def metrics(spans, threads: int, setup: dict) -> dict:
    """Per-layer metrics of one traced run.

    setup holds the import timings the traced process took before any
    span: import_scipy_s and import_eprbsim_s.
    """
    self_ns = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def secs(name):
        return sum(duration(s) for s in named(name)) / 1e9

    def self_secs(name):
        return sum(self_ns[s["id"]] for s in named(name)) / 1e9

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    stats_top = [s for s in spans if s["name"].startswith("stats.")
                 and not (s["parent"] is not None
                          and by_id[s["parent"]]["name"].startswith("stats."))]
    counts_s = sum(duration(s) for s in stats_top
                   if s["name"][len("stats."):] in _COUNT_FUNCS) / 1e9
    points = [duration(s) / 1e9 for s in named("sweep.row")]
    sweep_wall = secs("sweep.sweep")
    evals = total("kernels.station_response", "evals")
    station_s = secs("kernels.station_response")
    dump_s = secs("sweep.dump")
    dump_lines = total("sweep.dump", "lines") + (1 if named("sweep.dump") else 0)
    cfd_trials = total("experiment.run_cfd", "trials")
    return {
        "kernels.fill_uniforms.s": secs("kernels.fill_uniforms"),
        "kernels.fill_uniforms.draws": total("kernels.fill_uniforms", "draws"),
        "kernels.station_response.s": station_s,
        "kernels.station_response.evals": evals,
        "kernels.station_response.ns_per_eval": ratio(station_s * 1e9, evals),
        "kernels.station_response.bytes_computed":
            total("kernels.station_response", "bytes"),
        "kernels.gather_uniforms.s": secs("kernels.gather_uniforms"),
        "kernels.gather_uniforms.draws": total("kernels.gather_uniforms", "draws"),
        "station.identify_photon.s": secs("station.identify_photon"),
        "station.identify_photon.pass_ratio":
            ratio(total("station.identify_photon", "passed"),
                  total("station.identify_photon", "flags")),
        "experiment.source_phis.s": secs("experiment.source_phis"),
        "experiment.check_identities.s": secs("experiment.check_identities"),
        "experiment.run_cfd.self_s": self_secs("experiment.run_cfd"),
        "experiment.run_cfd.bytes_per_trial":
            ratio(total("experiment.run_cfd", "bytes"), cfd_trials),
        "experiment.run_noncfd.self_s": self_secs("experiment.run_noncfd"),
        "experiment.run_noncfd.recorded_per_drawn":
            ratio(total("experiment.run_noncfd", "recorded"),
                  total("experiment.run_noncfd", "drawn")),
        "stats.s": sum(duration(s) for s in stats_top) / 1e9,
        "stats.calls_per_point": ratio(len(stats_top), len(points)),
        "stats.pair_estimate.s": secs("stats.pair_estimate"),
        "stats.counts.s": counts_s,
        "sweep.point_s.median": statistics.median(points),
        "sweep.point_s.max": max(points),
        "sweep.row.self_s": self_secs("sweep.row"),
        "sweep.pool.efficiency": ratio(sum(points), sweep_wall * threads),
        "sweep.write_rows.s": secs("sweep.write_rows"),
        "sweep.write_rows.bytes": total("sweep.write_rows", "bytes"),
        "sweep.dump.s": dump_s,
        "sweep.dump.lines": dump_lines,
        "sweep.dump.bytes": total("sweep.dump", "bytes"),
        "sweep.dump.lines_per_s": ratio(dump_lines, dump_s),
        "cli.config.s": secs("cli.config"),
        "setup.import_scipy_s": setup["import_scipy_s"],
        "setup.import_eprbsim_s": setup["import_eprbsim_s"],
    }
