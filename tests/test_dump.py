"""Trial dump bytes: the chunked dump against a per-line reference.

The reference writer below formats one record per line with f-strings
and '%.17g', as the dump was first written, from the tests' whole-point
references `reference.cfd_point` and `reference.noncfd_point`, which
draw their trials their own way and evaluate each station with the
package's law (`reference.package_station`).  The dump, written chunk
by chunk by `sweep._TrialDumper` from the streaming pass, must produce
the same bytes, whether the compiled library formats it
(`kernels.CsvFormat`) or the per-line fallback does.  The compiled
formatter is checked against Python's '%.17g' and str on its own, too.
"""
import io
import math
import random
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
    # quotas whose pairs fill inside a block of the compiled pass's quota
    # cut, and inside a chunk of the dump
    *(("--mode", "noncfd", "--theta-steps", "2", "--n", str(quota),
       "--seed", str(quota))
      for quota in (1, 127, 129, experiment.CHUNK // 2 - 1,
                    experiment.CHUNK // 2 + 1)),
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


def test_a_dumped_cfd_point_runs_one_pass_and_one_identity_check(
        tmp_path, monkeypatch):
    # Its runs, one a CHUNK, share the point's pass, and the row checks
    # the quadruples of the pass's counts.
    passes, checks = [], []
    make_pass, check = experiment._point, experiment._check_identities
    monkeypatch.setattr(experiment, "_point", lambda *args, **kwargs:
                        passes.append(args[5]) or make_pass(*args, **kwargs))
    monkeypatch.setattr(experiment, "_check_identities", lambda counts:
                        checks.append(sum(counts)) or check(counts))
    n = 2 * experiment.CHUNK + 5
    got, want, chunks = _dump_and_reference(
        tmp_path, monkeypatch, "--theta-steps", "2", "--n", str(n))
    assert got == want and chunks == 6
    assert passes == [experiment.CHUNK] * 2 and checks == [n, n]


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


Col = kernels.TrialColumn
INDEX, FLOAT = Col(kernels.INDEX), Col(kernels.FLOAT64)


def _rows(n, start=0, states=None, volts=()):
    """rows of CsvFormat.write: n trials from start, of these states (0
    where None) and doubles."""
    return (start, n, bytearray(states or n),
            bytearray(np.array(volts, np.float64).tobytes()))


def _format(columns, rows) -> bytes:
    buffer, size = kernels.CsvFormat(columns).write(kernels.CPASS, rows)
    return buffer[:size].tobytes()


def _write(compiled, columns, rows) -> bytes:
    """The lines of the compiled formatter or of the line by line one."""
    return _format(columns, rows) if compiled \
        else sweep._csv_lines(columns, rows)


def _formatted(values):
    return _format([FLOAT], _rows(len(values), volts=values))


def _indices(values, *texts):
    """An index column of each of values, one row each, and texts."""
    return b"".join(_format([INDEX, *texts], _rows(1, v)) for v in values)


def _expected(values):
    return "".join("%.17g\n" % v for v in values).encode()


def _near_ties(rng, count):
    """Doubles whose 17-digit scaled value lies within 2**-5 of a .5 tie."""
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


def _binades_in_one_decade():
    """(e2, e10) of each binade [2**e2, 2**(e2 + 1)) of fixed notation's
    [1e-4, 1e17) that lies inside one decade [10**e10, 10**(e10 + 1)).
    put_fixed takes those of e2 in [-9, 51] on its one-word path."""
    out = []
    for e2 in range(-14, 57):
        low, high = Fraction(2) ** e2, Fraction(2) ** (e2 + 1)
        e10 = 0
        while Fraction(10) ** e10 > low:
            e10 -= 1
        while Fraction(10) ** (e10 + 1) <= low:
            e10 += 1
        if low >= Fraction(1, 10 ** 4) and high <= Fraction(10) ** 17 \
                and high <= Fraction(10) ** (e10 + 1):
            out.append((e2, e10))
    return out


def _binade_edges(e2, e10):
    """Both ends of the binade and, where doubles reach them, two exact
    17-digit ties in it: j * 2**-(17 - e10) with j odd is a tie, which
    '%.17g' rounds down (to even) where j = 1 (mod 4) and up where j = 3
    (mod 4) (see _ties)."""
    out = [2.0 ** e2, math.nextafter(2.0 ** (e2 + 1), 0.0)]
    t = 17 - e10
    if e2 + t < 53:  # j < 2**53
        mid = 3 << (e2 + t - 1)  # the binade's middle, a multiple of 4
        for j in (mid + 1, mid + 3):
            x = j * 2.0 ** -t
            scaled = Fraction(x) * Fraction(10) ** (16 - e10)
            assert scaled - math.floor(scaled) == Fraction(1, 2)
            assert math.floor(scaled) % 2 == (j % 4 == 3)
            out.append(x)
    return out


# Doubles of each binade inside one decade (both ends, and ties rounding
# down and up), with both signs, and the ends of the voltages' range;
# int64s at the ends of each decimal length (put_int writes 2 to 8 digits
# in one word), either side of 10**8 and at -2**63.
FAST_EDGE = [sign * x for e2, e10 in _binades_in_one_decade()
             for x in _binade_edges(e2, e10) for sign in (1.0, -1.0)] \
    + [-0.5, -1.0, math.nextafter(1.0, 0.0)]
INT_EDGE = [sign * (10 ** k + d) for k in range(1, 19) for d in (-1, 0)
            for sign in (1, -1)] + [10 ** 8 - 1, 10 ** 8, -2 ** 63]


def test_the_binades_inside_one_decade():
    # 50 of fixed notation's 70 binades: [1/2, 1), the default voltages'
    # binade, and [1, 2) among them, not [2**-10, 2**-9), which holds
    # 10**-3.  Doubles reach ties in each but the last four.
    binades = _binades_in_one_decade()
    assert len(binades) == 50
    assert (-1, -1) in binades and (0, 0) in binades
    assert -10 not in dict(binades)
    assert [len(_binade_edges(*b)) for b in binades] == [4] * 46 + [2] * 4


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["format_csv", "csv_lines"])
def test_both_writers_print_the_one_word_paths_edges_as_python(compiled):
    if compiled and kernels.CPASS is None:
        pytest.skip("no compiled library")
    got = _write(compiled, [FLOAT], _rows(len(FAST_EDGE), volts=FAST_EDGE))
    assert got == "".join("%.17g\n" % v for v in FAST_EDGE).encode()
    got = b"".join(_write(compiled, [INDEX, b"t"], _rows(1, v))
                   for v in INT_EDGE)
    assert got == "".join(f"{v},t\n" for v in INT_EDGE).encode()


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


def _ties(e10, rng):
    """Doubles in [10**e10, 10**(e10 + 1)) exactly halfway between two
    17-digit decimals, for e10 <= 15, two that '%.17g' rounds down and
    two that it rounds up.

    j * 2**-(17 - e10), j odd, has 18 significant digits, the last a 5:
    scaled by 10**(16 - e10) it is j * 5**(16 - e10) / 2, whose integer
    part is even where j = 1 (mod 4) and odd where j = 3 (mod 4).
    """
    t = 17 - e10
    low = math.ceil(Fraction(10) ** e10 * 2 ** t)
    high = min(math.ceil(Fraction(10) ** (e10 + 1) * 2 ** t), 2 ** 53)
    out = []
    for _ in range(2):
        j = rng.randrange(low, high - 8) // 4 * 4 + 5  # 1 (mod 4)
        out += [j * 2.0 ** -t, (j + 2) * 2.0 ** -t]
    for x in out:
        scaled = Fraction(x) * Fraction(10) ** (16 - e10)
        assert scaled - math.floor(scaled) == Fraction(1, 2)
    return out


@needs_cpass
@pytest.mark.parametrize("e10", range(-4, 17))
def test_exact_rounding_at_each_decimal_exponent(e10):
    """Ties round half to even, in both directions and with both signs
    (none exist at e10 = 16, where doubles are even integers), and the
    two neighbours of 10**e10 print as '%.17g' prints them."""
    ten = float(10 ** e10) if e10 >= 0 else 10.0 ** e10
    values = [math.nextafter(ten, 0.0), ten, math.nextafter(ten, math.inf)]
    if e10 <= 15:
        values += _ties(e10, random.Random(e10))
    values += [-v for v in values]
    assert _formatted(values) == _expected(values)


@needs_cpass
def test_roundings_that_carry_to_the_next_power_of_ten():
    """The largest double below each power of ten that doubles reach.
    For some, the 17-digit rounding carries into an 18th digit, so that
    '%.17g' prints the power itself; none of those lies in fixed
    notation's [1e-4, 1e17), where the formatter's digits come from
    integer arithmetic, so its check on the carry only guards."""
    below = []
    for k in range(-307, 309):
        x = float(Fraction(10) ** k)
        below.append(x if Fraction(x) < Fraction(10) ** k
                     else math.nextafter(x, 0.0))
    carried = [x for x in below if ("%.17g" % x).startswith("1")]
    assert carried and not any(1e-4 <= x < 1e17 for x in carried)
    assert _formatted(below) == _expected(below)


@needs_cpass
def test_small_integers_match_str_and_percent_g():
    values = list(range(-10, 11))
    assert _formatted(values) == _expected(values)
    assert _format([INDEX], _rows(21, -10)) == \
        "".join(f"{v}\n" for v in values).encode()


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["format_csv", "csv_lines"])
def test_both_writers_refuse_integers_past_int64(compiled):
    """Indices past 2**63 - 1 have no int64 value: neither writer prints
    them wrapped, nor reads more states than the buffer holds."""
    if compiled and kernels.CPASS is None:
        pytest.skip("no compiled library")
    assert _write(compiled, [INDEX], _rows(1, 2 ** 63 - 1)) == \
        b"9223372036854775807\n"
    for rows in (_rows(2, 2 ** 63 - 1), (0, 3, bytearray(2), bytearray())):
        with pytest.raises(ValueError, match="past int64"):
            _write(compiled, [INDEX], rows)


@needs_cpass
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                max_size=40))
def test_int_column_matches_str(values):
    assert _indices(values, b"c,d") == \
        "".join(f"{v},c,d\n" for v in values).encode()


@needs_cpass
def test_int64_ends_match_str():
    values = [-2 ** 63, 2 ** 63 - 1, -2 ** 63 + 1, 0, -1]
    assert _indices(values) == "".join(f"{v}\n" for v in values).encode()


def test_mixed_and_strided_columns():
    """Both writers print every kind of column, the second station's
    voltages read from its offset in the buffer, a row skipped in the
    middle."""
    columns = [Col(kernels.SKIP), INDEX, Col(kernels.CHOICE, 5, (b"a", b"bc")),
               b"s", Col(kernels.SIGN, 0), Col(kernels.SIGN, 1),
               Col(kernels.FLOAT64, 0), Col(kernels.FLOAT64, 3),
               Col(kernels.BIT, 2), Col(kernels.BIT, 3)]
    rows = _rows(3, 7, [0b100001, 64, 0b011110],
                 [-0.5, 2.0, 1e-7, 0.25, 9.0, -3.0])
    for compiled in [False] + [True] * (kernels.CPASS is not None):
        assert _write(compiled, columns, rows) == (
            b"7,bc,s,1,-1,-0.5,0.25,0,0\n"
            b"9,a,s,-1,1,9.9999999999999995e-08,-3,1,1\n")
        assert _write(compiled, columns[1:], rows).splitlines()[1] == \
            b"8,a,s,-1,-1,2,9,0,0"


@needs_cpass
def test_zero_rows():
    buffer, size = kernels.CsvFormat([INDEX, b"t", FLOAT]).write(
        kernels.CPASS, _rows(0))
    assert size == 0
