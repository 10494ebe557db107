"""Trial dump bytes: the chunked dump against a per-line reference.

The reference writer below formats one record per line with f-strings
and '%.17g', as the dump was first written, from the tests' whole-point
references `reference.cfd_point` and `reference.noncfd_point`, which
draw their trials their own way and evaluate each station with the
package's law (`reference.package_station`).  The dump, written chunk
by chunk by `sweep._TrialDumper` from the streaming pass, must produce
the same bytes, whether the compiled library formats it
(`kernels.format_csv`) or the per-line fallback does.  The compiled
formatter is checked against Python's '%.17g' and str on its own, too.
"""
import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eprbsim import cli, experiment, kernels, rng, sweep
from eprbsim.params import ModelParams, SettingsQuad

# ------------------------------------------------------- per-line reference


def _reference_cfd(fh, run):
    a = run.quad.as_tuple()
    settings = ",".join("%.17g" % ai for ai in a)
    x, v, w = run.x, run.v, run.w
    for k in range(run.n):
        fh.write(
            f"{k},{settings},"
            f"{x[k, 0]},{x[k, 1]},{x[k, 2]},{x[k, 3]},"
            f"{'%.17g' % v[k, 0]},{'%.17g' % v[k, 1]},"
            f"{'%.17g' % v[k, 2]},{'%.17g' % v[k, 3]},"
            f"{w[k, 0]},{w[k, 1]},{w[k, 2]},{w[k, 3]}\n"
        )


def _reference_noncfd(fh, run):
    ks = np.concatenate([p.k for p in run.pairs])
    order = np.argsort(ks, kind="stable")
    pair_of = np.concatenate([np.full(p.k.shape[0], i, np.int8)
                              for i, p in enumerate(run.pairs)])
    offs = np.concatenate([np.arange(p.k.shape[0]) for p in run.pairs])
    for idx in order:
        p = run.pairs[pair_of[idx]]
        i = offs[idx]
        fh.write(
            f"{int(p.k[i])},{'%.17g' % p.side1_setting},"
            f"{'%.17g' % p.side2_setting},"
            f"{p.x1[i]},{p.x2[i]},"
            f"{'%.17g' % p.v1[i]},{'%.17g' % p.v2[i]},"
            f"{p.w1[i]},{p.w2[i]}\n"
        )


def _points(cfg):
    """(params, theta) of each point of the configured sweep, in order."""
    if cfg.threshold_sweep is None:
        return [(cfg.model_params(), float(theta))
                for theta in np.linspace(cfg.theta_start, cfg.theta_end,
                                         cfg.theta_steps)]
    return [(cfg.model_params(float(threshold)), 3.0 * math.pi / 8.0)
            for threshold in np.linspace(*cfg.threshold_sweep)]


def _reference_dump(cfg):
    """The per-line writer's dump of the configured sweep, from whole-point
    reference runs."""
    fh = io.StringIO(newline="")
    fh.write((sweep._TrialDumper.CFD_HEADER if cfg.mode == "cfd"
              else sweep._TrialDumper.NONCFD_HEADER) + "\n")
    for index, (params, theta) in enumerate(_points(cfg)):
        quad = SettingsQuad.for_theta(theta)
        seed = rng.derive_seed(cfg.seed, index)
        if cfg.mode == "cfd":
            _reference_cfd(fh, reference.cfd_point(
                params, quad, cfg.n, seed, reference.package_station))
        else:
            _reference_noncfd(fh, reference.noncfd_point(
                params, quad, cfg.n, seed, reference.package_station))
    return fh.getvalue().encode()


def _dump_and_reference(tmp_path, monkeypatch, *args):
    """(dump bytes of a CLI run, the reference writer's bytes of its
    points, the number of chunks the dump was written in)."""
    chunks = []
    write_run = sweep._TrialDumper.write_run

    def counted(self, run):
        chunks.append(run.n)
        write_run(self, run)

    monkeypatch.setattr(sweep._TrialDumper, "write_run", counted)
    path = tmp_path / "trials.csv"
    argv = [*args, "--dump-trials", str(path),
            "--out", str(tmp_path / "rows.csv")]
    assert cli.main(argv) == 0
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    return path.read_bytes(), _reference_dump(cfg), len(chunks)


@pytest.mark.parametrize("args", [
    ("--theta-steps", "3", "--n", "700", "--seed", "1"),
    ("--theta-steps", "2", "--n", "500", "--seed", "2"),
    ("--theta-steps", "2", "--n", "500", "--seed", "77"),
    ("--threshold-sweep=-0.999:-0.9:3", "--n", "400", "--seed", "3"),
    ("--theta-steps", "2", "--n", "600", "--d", "0", "--vmin", "0.95"),
    ("--theta-steps", "1", "--n", "1"),
    ("--theta-steps", "1", "--n", str(experiment.CHUNK - 1), "--seed", "4"),
    ("--theta-steps", "2", "--n", str(experiment.CHUNK + 1), "--seed", "5"),
    ("--mode", "noncfd", "--theta-steps", "2", "--n", "300", "--seed", "6"),
    ("--mode", "noncfd", "--theta-steps", "1", "--n", "1", "--seed", "8"),
    ("--mode", "noncfd", "--theta-steps", "1", "--n", "5000", "--d", "0",
     "--vmin", "0.95", "--seed", "9"),
])
def test_dump_bytes_match_per_line_writer(tmp_path, monkeypatch, args):
    got, want, _ = _dump_and_reference(tmp_path, monkeypatch, *args)
    assert got == want


@pytest.mark.parametrize("args", [
    ("--theta-steps", "2", "--n", "700", "--seed", "11"),
    ("--threshold-sweep=-0.999:-0.9:2", "--n", "650", "--seed", "12"),
    ("--mode", "noncfd", "--theta-steps", "2", "--n", "300", "--seed", "13"),
    ("--mode", "noncfd", "--theta-steps", "1", "--n", "1", "--seed", "14"),
    ("--mode", "noncfd", "--theta-steps", "1", "--n", "200", "--d", "0",
     "--vmin", "0.95", "--seed", "15"),
])
def test_dump_over_many_chunks_matches_per_line_writer(tmp_path, monkeypatch,
                                                       args):
    # 64-trial CFD chunks, 128-trial non-CFD ones.
    monkeypatch.setattr(experiment, "CHUNK", 64)
    got, want, chunks = _dump_and_reference(tmp_path, monkeypatch, *args)
    assert got == want
    assert chunks >= 2


def test_dump_when_pairs_fill_in_different_chunks(tmp_path, monkeypatch):
    # With 64-trial chunks, the pairs of these seeds fill their quotas of
    # 300 in different chunks: the dump must keep each pair's first 300
    # trials and no trial past them.
    monkeypatch.setattr(experiment, "CHUNK", 32)
    quad, spread = SettingsQuad.for_theta(1.1), 0
    for seed in range(1, 4):
        point = reference.noncfd_point(ModelParams(), quad, 300,
                                       rng.derive_seed(seed, 0))
        spread += len({int(p.k[-1]) // 64 for p in point.pairs}) > 1
        got, want, _ = _dump_and_reference(
            tmp_path, monkeypatch, "--mode", "noncfd", "--theta-steps", "1",
            "--theta-start", "1.1", "--theta-end", "1.1", "--n", "300",
            "--seed", str(seed))
        assert got == want
    assert spread >= 2


def test_dump_bytes_without_the_compiled_formatter(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    for args in (("--theta-steps", "2", "--n", "300", "--seed", "10"),
                 ("--mode", "noncfd", "--theta-steps", "1", "--n", "100")):
        got, want, _ = _dump_and_reference(tmp_path, monkeypatch, *args)
        assert got == want


# ------------------------------------------------------------ the formatter

needs_cpass = pytest.mark.skipif(
    kernels.CPASS is None,
    reason="no compiled library: no C compiler, or its build or load failed")


def _format(columns) -> bytes:
    buffer, size = kernels.format_csv(kernels.CPASS, columns)
    return buffer[:size].tobytes()


def _formatted(values):
    return _format([np.asarray(values, np.float64)])


def _expected(values):
    return "".join("%.17g\n" % v for v in values).encode()


def _near_ties(rng, count):
    """Doubles whose 17-digit scaled value lies within 2**-5 of a .5 tie,
    on both sides of the formatter's 2**-7 fallback margin."""
    out = []
    while len(out) < count:
        v = float(rng.uniform(1e-4, 1e16) ** rng.choice([0.25, 0.5, 1.0]))
        e10 = math.floor(math.log10(v))
        scaled = Fraction(v) * Fraction(10) ** (16 - e10)
        if abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 32):
            out.append(v)
    return out


EDGE = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 0.3, -0.995, 2.0 / 3.0,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    -2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
    math.copysign(math.nan, -1.0),
    1e-4, 9.9999999999999991e-05, 1e-5, 1.5e17, 1e17, 1e16, -1e16,
    9.9999999999999984e16, 1.2345678901234567e16, 123456789.125,
    1 + 2.0 ** -17, 0.5 + 2.0 ** -18, 2.0 ** 53, 2.0 ** 53 + 2.0,
    *(10.0 ** k for k in range(-10, 25)),
    *(-(10.0 ** k) for k in range(-6, 18)),
    *(math.nextafter(10.0 ** k, 0.0) for k in range(-6, 18)),
    *(math.nextafter(10.0 ** k, math.inf) for k in range(-6, 18)),
]


@needs_cpass
def test_float_edge_cases_match_percent_g():
    assert _formatted(EDGE) == _expected(EDGE)


@needs_cpass
def test_nan_with_its_sign_bit_set_prints_as_python_does():
    # The C library prints "-nan"; Python prints "nan".
    assert _formatted([math.copysign(math.nan, -1.0), -0.0]) == b"nan\n-0\n"


@needs_cpass
def test_float_near_ties_match_percent_g():
    values = _near_ties(np.random.default_rng(0), 300)
    assert _formatted(values) == _expected(values)


@needs_cpass
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_column_matches_percent_g(values):
    assert _formatted(values) == _expected(values)


@needs_cpass
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-5, max_value=1e17)
                | st.floats(min_value=-1.0, max_value=-0.5),
                min_size=1, max_size=40))
def test_fixed_notation_floats_match_percent_g(values):
    assert _formatted(values) == _expected(values)


@needs_cpass
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                max_size=40))
def test_int_column_matches_str(values):
    got = _format([np.array(values, np.int64), b"c,d"])
    assert got == "".join(f"{v},c,d\n" for v in values).encode()


@needs_cpass
def test_int64_ends_match_str():
    values = [-2 ** 63, 2 ** 63 - 1, -2 ** 63 + 1, 0, -1]
    assert _format([np.array(values, np.int64)]) == \
        "".join(f"{v}\n" for v in values).encode()


@needs_cpass
def test_mixed_and_strided_columns():
    # Columns of a (rows, 2) array are strided; int8 and uint8 columns
    # print as integers.
    v = np.array([[-0.5, 0.25], [1e-7, -3.0]])
    x = np.array([[1, -1], [-1, 1]], np.int8)
    w = np.array([[0, 1], [1, 0]], np.uint8)
    got = _format([np.array([7, 8]), b"s", *v.T, *x.T, *w.T])
    assert got == b"7,s,-0.5,0.25,1,-1,0,1\n8,s,9.9999999999999995e-08,-3,-1,1,1,0\n"


@needs_cpass
def test_zero_rows():
    buffer, size = kernels.format_csv(
        kernels.CPASS, [np.empty(0, np.int64), b"t", np.empty(0)])
    assert size == 0
