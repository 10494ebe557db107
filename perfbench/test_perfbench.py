"""Tests of the benchmark's own arithmetic: span self time and quadrature.

    python3 -m pytest perfbench/test_perfbench.py
"""
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import exact  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "thread": 1}


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert covered(0, 100, []) == 0
    assert covered(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert covered(0, 100, [(-5, 5), (40, 60), (45, 55)]) == 25


def test_self_time_subtracts_direct_children_only():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 50), span(3, 2, 20, 40),
             span(4, 1, 60, 70)]
    assert self_times(spans) == {1: 50, 2: 20, 3: 20, 4: 10}


def test_tracer_records_nesting_and_closes_spans_on_error():
    mod = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) + 1
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", lambda a, kw, out: {"seen": a[0]})
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(2) == 3
    with pytest.raises(ValueError):
        mod.outer(-1)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    assert len(by_name["outer"]) == len(by_name["inner"]) == 2
    for outer, inner in zip(by_name["outer"], by_name["inner"]):
        assert inner["parent"] == outer["id"]
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert by_name["inner"][0]["seen"] == 2
    assert all(s["parent"] is None for s in by_name["outer"])


def test_layer_metrics_from_spans():
    spans = [
        span(1, None, 0, 1000, "sweep.sweep"),
        span(2, None, 0, 600, "sweep.row"),
        span(3, 2, 100, 400, "experiment.run_cfd"),
        span(4, 2, 450, 550, "stats.eberhard_total_selected"),
        span(5, 4, 460, 500, "stats.selected_pair_counts"),
        span(6, None, 500, 1000, "sweep.row"),
    ]
    spans[2].update(trials=10, bytes=560)
    m = layers.metrics(spans, threads=2, setup={"import_scipy_s": 0.5,
                                                "import_eprbsim_s": 0.1})
    assert m["sweep.pool.efficiency"] == pytest.approx(1100 / (1000 * 2))
    assert m["sweep.row.self_s"] == pytest.approx((200 + 500) / 1e9)
    assert m["stats.calls_per_point"] == 0.5
    assert m["stats.counts.s"] == pytest.approx(100 / 1e9)
    assert m["experiment.run_cfd.bytes_per_trial"] == 56
    assert m["sweep.dump.lines"] == 0


@pytest.mark.parametrize("theta,kappa,d", [(0.37, 2e-4, 4.0), (1.1, 0.01, 4.0),
                                           (2.0, 0.3, 2.0)])
def test_quadrature_matches_adaptive_integration(theta, kappa, d):
    from scipy.integrate import quad
    settings = exact.settings_for_theta(theta)
    offset = (0.0, 0.0, math.pi / 2, math.pi / 2)

    def p(c, phi):
        s = abs(math.sin(2.0 * (settings[c] - phi - offset[c])))
        return 1.0 if s == 0.0 else min(1.0, kappa / s ** d)

    def e(c, phi):
        return math.cos(2.0 * (settings[c] - phi - offset[c]))

    pts = exact._breakpoints(settings, kappa, d)
    ref = exact.point_reference(settings, kappa, d)

    def mean(f):
        return quad(f, 0.0, math.pi, points=pts, limit=500, epsabs=0.0,
                    epsrel=1e-12)[0] / math.pi

    for k, (i, j) in enumerate(exact.PAIRS):
        both = mean(lambda f: p(i, f) * p(j, f))
        corr = mean(lambda f: e(i, f) * e(j, f) * p(i, f) * p(j, f)) / both
        assert ref.pair_pass[k] == pytest.approx(both, rel=1e-10)
        assert ref.e[k] == pytest.approx(corr, rel=1e-10, abs=1e-13)
    assert abs(ref.singles[0]) < 1e-12  # odd in cos 2(a - phi)


def test_reference_passes_its_self_check():
    from eprbsim import ModelParams, oracle

    def pass_probability(kappa, d):
        return oracle.pass_probability(ModelParams(
            d=d, v_min_mag=0.5, v_max_mag=1.0, threshold=0.5 * kappa - 1.0))

    assert exact.self_check(pass_probability) == []
