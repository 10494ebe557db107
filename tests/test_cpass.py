"""Building and loading the compiled chunk pass (kernels.load_cpass).

The pass is compiled at first use for the host's CPU into the package's
__pycache__ (or, where that cannot be written, the per-user cache),
under a name keyed by the CPU's features, and loaded from there
afterwards; where that build fails it is compiled with portable flags,
and where that fails too, the failure is remembered.  Every build,
whatever the width of its vectors, gives the same values, counts and
bytes.  Wherever it cannot be built, loaded or
checked, the package runs numpy's pass, with the same bytes.  Most cases
here run the CLI in a fresh interpreter on a copy of the package, whose
__pycache__ is a cache of its own.
"""
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from eprbsim import cli, experiment, kernels, sweep
from eprbsim.experiment import cfd_counts, noncfd_counts
from eprbsim.params import ModelParams, SettingsQuad
from test_certified import DECISION_N, chunk_values, decision_params
from test_dump import EDGE, FAST_EDGE, INT_EDGE
from test_output_bytes import RUNS

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")

PACKAGE = os.path.dirname(kernels.__file__)
# Prints the pass in use after a CLI run with the arguments given.
CLI = ("import sys; from eprbsim import cli, kernels; "
       "rc = cli.main(sys.argv[1:]); print(kernels.BACKEND); sys.exit(rc)")


def _copy_package(tmp_path):
    """A copy of the package under tmp_path, without its __pycache__."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "eprbsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run_cli(root, tmp_path, path=None) -> str:
    """BACKEND of a pinned CLI run of the package at root, in a fresh
    interpreter whose per-user cache is under tmp_path / "home"; its rows
    must have the pinned bytes."""
    argv, rows_sha, _ = RUNS["cfd"]
    rows = tmp_path / "rows"
    env = {**os.environ, "PYTHONPATH": str(root),
           "XDG_CACHE_HOME": str(tmp_path / "home")}
    if path is not None:
        env["PATH"] = path
    out = subprocess.run([sys.executable, "-c", CLI, *argv, "--out",
                          str(rows)], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == rows_sha
    return out.stdout.strip()


def _cached(root):
    cache = root / "eprbsim" / "__pycache__"
    return sorted(p.name for p in cache.glob("_cpass*"))


def _cc_calls(monkeypatch):
    """The flags of each cc run that load_cpass starts from now on."""
    calls, run = [], subprocess.run

    def logged(args, **kwargs):
        calls.append(tuple(args[1:-4]))  # cc, flags, -o, out, source, -lm
        return run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", logged)
    return calls


def _cc_on_path(tmp_path, refuse_native):
    """A PATH whose cc logs its flags, one run a line, to the file
    returned with it and runs the system's cc; with refuse_native, a
    run with -march=native exits 1 instead, as a compiler without that
    flag would."""
    bin_dir, log = tmp_path / "wrapped", tmp_path / "cc.log"
    bin_dir.mkdir()
    refuse = 'case " $* " in *" -march=native "*) exit 1;; esac\n'
    (bin_dir / "cc").write_text(
        f'#!/bin/sh\necho "$*" >> "{log}"\n'
        f'{refuse if refuse_native else ""}exec "{shutil.which("cc")}" "$@"\n')
    (bin_dir / "cc").chmod(0o755)
    return f"{bin_dir}{os.pathsep}{os.environ['PATH']}", log


def test_no_compiler_on_path(tmp_path):
    root = _copy_package(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    assert _run_cli(root, tmp_path, path=str(empty)) == "numpy"
    assert _cached(root) == []


@needs_cc
def test_a_source_that_fails_to_compile(tmp_path):
    """Run twice, it runs cc once per flag set: the first run leaves a
    marker of its failure, and no temporary file, and the second reads
    the marker."""
    root = _copy_package(tmp_path)
    with open(root / "eprbsim" / "_cpass.c", "a") as fh:
        fh.write("\n#error this source does not compile\n")
    path, log = _cc_on_path(tmp_path, refuse_native=False)
    for _ in range(2):
        assert _run_cli(root, tmp_path, path=path) == "numpy"
    assert [line.split(" -o ")[0] for line in log.read_text().splitlines()] \
        == [" ".join(flags) for flags in (kernels._NATIVE_CFLAGS,
                                          kernels._CFLAGS)]
    [marker] = _cached(root)
    assert marker.endswith(".failed")


@needs_cc
def test_a_failed_build_is_remembered_until_the_source_changes(
        tmp_path, monkeypatch):
    source, cache = tmp_path / "_cpass.c", tmp_path / "cache"
    text = pathlib.Path(kernels._SOURCE).read_text()
    source.write_text(text + "\n#error this source does not compile\n")
    calls = _cc_calls(monkeypatch)
    notes = [kernels._load(str(source), str(cache))[1] for _ in range(2)]
    assert calls == [kernels._NATIVE_CFLAGS, kernels._CFLAGS]
    [marker] = os.listdir(cache)
    assert marker.endswith(".failed")
    assert notes[0].startswith(f"cc failed to build {source}: {source}:")
    assert notes[0].endswith("error: #error this source does not compile")
    assert notes[1] == f"{notes[0]} (remembered in {cache / marker})"
    # A new source builds, and its library replaces the stale marker.
    source.write_text(text)
    assert kernels.load_cpass(str(source), str(cache)) is not None
    assert [name.endswith(".so") for name in os.listdir(cache)] == [True]


def test_a_build_that_times_out_is_not_remembered(tmp_path, monkeypatch):
    def timed_out(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", timed_out)
    cache = tmp_path / "cache"
    lib, note = kernels._load(kernels._SOURCE, str(cache))
    assert lib is None and note.startswith("cc failed to build ")
    assert "timed out" in note
    assert os.listdir(cache) == []


@needs_cc
def test_a_library_that_fails_its_known_answer_check(tmp_path):
    root = _copy_package(tmp_path)
    source = root / "eprbsim" / "_cpass.c"
    text = source.read_text()
    assert "#define M1 0xBF58476D1CE4E5B9ULL" in text
    source.write_text(text.replace("#define M1 0xBF58476D1CE4E5B9ULL",
                                   "#define M1 0xBF58476D1CE4E5BBULL"))
    assert _run_cli(root, tmp_path) == "numpy"


@needs_cc
def test_a_truncated_cached_library(tmp_path):
    root = _copy_package(tmp_path)
    assert _run_cli(root, tmp_path) == "c"
    [name] = _cached(root)
    library = root / "eprbsim" / "__pycache__" / name
    library.write_bytes(library.read_bytes()[:100])
    assert _run_cli(root, tmp_path) == "numpy"


def test_an_unwritable_cache_directory(tmp_path):
    # A file where each cache directory should be, the package's and the
    # per-user one: no one can write there, root included.
    root = _copy_package(tmp_path)
    (root / "eprbsim" / "__pycache__").write_text("")
    (tmp_path / "home").write_text("")
    assert _run_cli(root, tmp_path) == "numpy"


@needs_cc
def test_an_unwritable_package_cache_builds_in_the_user_cache(tmp_path):
    """Where the package's __pycache__ cannot be written the library is
    built in $XDG_CACHE_HOME/eprbsim, and a later run loads it from
    there without a compiler."""
    root = _copy_package(tmp_path)
    (root / "eprbsim" / "__pycache__").write_text("")
    assert _run_cli(root, tmp_path) == "c"
    [name] = os.listdir(tmp_path / "home" / "eprbsim")
    empty = tmp_path / "bin"
    empty.mkdir()
    assert _run_cli(root, tmp_path, path=str(empty)) == "c"
    assert os.listdir(tmp_path / "home" / "eprbsim") == [name]


@needs_cc
def test_a_cache_under_a_file_falls_back_to_the_user_cache(tmp_path,
                                                          monkeypatch):
    (tmp_path / "file").write_text("")
    cache, user = tmp_path / "file" / "cache", tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(user))
    calls = _cc_calls(monkeypatch)
    lib = kernels.load_cpass(kernels._SOURCE, str(cache))
    assert lib is not None and len(calls) == 1
    assert os.path.dirname(lib._name) == str(user / "eprbsim")
    assert kernels.load_cpass(kernels._SOURCE, str(cache))._name \
        == lib._name
    assert len(calls) == 1


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"],
                         ids=["unset", "empty", "relative"])
def test_the_user_cache_without_an_absolute_xdg_cache_home(
        tmp_path, monkeypatch, xdg):
    monkeypatch.setenv("HOME", str(tmp_path))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    assert kernels._user_cache() == str(tmp_path / ".cache" / "eprbsim")


@needs_cc
def test_a_cold_cache_builds_once_and_a_warm_one_runs_no_subprocess(
        tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    calls = []
    run = subprocess.run

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a warm cache started a subprocess")

    # a writable cache never looks for the per-user one
    monkeypatch.setattr(kernels, "_user_cache", refused)
    monkeypatch.setattr(subprocess, "run", counted)
    assert kernels.load_cpass(kernels._SOURCE, str(cache)) is not None
    assert len(calls) == 1
    [name] = os.listdir(cache)
    monkeypatch.setattr(subprocess, "run", refused)
    assert kernels.load_cpass(kernels._SOURCE, str(cache)) is not None
    assert os.listdir(cache) == [name]


@needs_cc
def test_two_processes_that_build_at_once_both_load(tmp_path):
    cache = tmp_path / "cache"
    code = ("import sys; from eprbsim import kernels; "
            "print(kernels.load_cpass(kernels._SOURCE, sys.argv[1]) "
            "is not None)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}
    procs = [subprocess.Popen([sys.executable, "-c", code, str(cache)],
                              env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert outs == ["True", "True"]
    assert [p.returncode for p in procs] == [0, 0]
    assert len(os.listdir(cache)) == 1  # one library, no temporary files


@needs_cc
def test_a_new_build_removes_this_interpreters_stale_libraries(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    tag = kernels._TAG
    first = tmp_path / "first.c"
    second = tmp_path / "second.c"
    text = pathlib.Path(kernels._SOURCE).read_text()
    first.write_text(text)
    second.write_text(text + "\n/* another source */\n")
    native, portable = kernels._keys(second.read_bytes())
    kept = [cache / name for name in (
        # another interpreter's, named before and after the CPU key
        "_cpass-cpython-399-other-platform-0123456789abcdef.so",
        "_cpass-cpython-399-other-platform-0f0f0f0f-0123456789abcdef.so",
        # this interpreter's builds of the second source for another CPU,
        # and for a host whose CPU features numpy could not read
        f"_cpass-{tag}-0f0f0f0f-{native}.so",
        f"_cpass-{tag}-portable-{portable}.so")]
    # named as builds named their libraries before the CPU key, and
    # before the interpreter tag, and an earlier source's, for another
    # CPU and for a host without CPU features
    removed = [cache / f"_cpass-{tag}-97719a62751a7c21.so",
               cache / "_cpass-97719a62751a7c21.so",
               cache / f"_cpass-{tag}-0f0f0f0f-0123456789abcdef.so",
               cache / f"_cpass-{tag}-portable-0123456789abcdef.so"]
    # the second source replaces the first
    assert kernels.load_cpass(str(first), str(cache)) is not None
    for library in kept + removed:
        library.write_bytes(b"a library that this build does not replace")
    assert kernels.load_cpass(str(second), str(cache)) is not None
    ours = [p for p in os.listdir(cache)
            if p.startswith(f"_cpass-{tag}-{kernels._cpu_key()}-")]
    assert len(ours) == 1
    assert kernels._compiled(str(second), str(cache)) == str(cache / ours[0])
    assert all(library.exists() for library in kept)
    assert not any(library.exists() for library in removed)


def test_stale_libraries_of_every_cpu_key_are_removed(tmp_path):
    """Libraries and failed-build markers of an earlier source are stale
    on every host: those of CPU keys that this host no longer computes
    (numpy's features once keyed them), of another CPU and of the
    portable build go, while every CPU's build of the current source's
    two keys stays, and so does its marker."""
    cache, tag = tmp_path, kernels._TAG
    native, portable = kernels._keys(b"the current source")
    ours = f"_cpass-{tag}-86d9ce9c-{native}.so"
    kept = [ours, f"_cpass-{tag}-1a35e27c-{native}.so",
            f"_cpass-{tag}-1a35e27c-{native}.failed",
            f"_cpass-{tag}-portable-{portable}.so",
            f"_cpass-cpython-399-other-1a35e27c-{'0' * 16}.so", "_cpass.c"]
    removed = [f"_cpass-{tag}-{cpu}-{key}.{ext}" for cpu, key, ext in (
        ("1a35e27c", "a4696f8042748aec", "so"),
        ("95875b97", "5c6da4a3112aee2c", "so"),
        ("95875b97", "5c6da4a3112aee2c", "failed"),
        ("portable", "0" * 16, "so"), ("86d9ce9c", portable, "so"),
        ("86d9ce9c", native, "failed"))]
    for name in kept + removed:
        (cache / name).write_bytes(b"")
    kernels._remove_stale(str(cache), str(cache / ours), "86d9ce9c",
                          (native, portable))
    assert sorted(os.listdir(cache)) == sorted(kept)


@needs_cc
def test_a_library_for_other_cpu_features_is_neither_loaded_nor_removed(
        tmp_path):
    cache = tmp_path / "cache"
    ours = kernels._compiled(kernels._SOURCE, str(cache))
    name, cpu = os.path.basename(ours), kernels._cpu_key()
    # Another host's build of this source: not a library at all, so that
    # loading it would fail.  Its build of an earlier source is stale on
    # every host, and goes.
    other_cpu = cache / name.replace(f"-{cpu}-", "-0f0f0f0f-")
    earlier = cache / f"_cpass-{kernels._TAG}-0f0f0f0f-0123456789abcdef.so"
    for library in (other_cpu, earlier):
        library.write_bytes(b"a library for another CPU")
    os.remove(ours)
    lib = kernels.load_cpass(kernels._SOURCE, str(cache))
    assert lib is not None and lib._name == ours
    assert sorted(os.listdir(cache)) == sorted([name, other_cpu.name])
    assert other_cpu.read_bytes() == b"a library for another CPU"


def test_a_run_without_the_library_says_why_on_stderr(tmp_path, monkeypatch,
                                                      capsys):
    """Built into a cache that cannot be created (a path under a regular
    file), with a per-user cache that cannot be either, no library
    loads, and a CLI run says so in one line on stderr, while its rows
    are those of the compiled pass.  An oracles run, which runs no pass,
    says nothing."""
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    lib, note = kernels._load(kernels._SOURCE, str(cache))
    assert lib is None
    monkeypatch.setattr(kernels, "CPASS", lib)
    monkeypatch.setattr(kernels, "NOTE", note)
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    argv, rows_sha, _ = RUNS["cfd"]
    assert cli.main([*argv, "--out", str(tmp_path / "rows")]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"eprbsim: note: no compiled pass (cannot write the cache "
                   f"{cache} (Not a directory) or {tmp_path}/file/eprbsim "
                   "(Not a directory)); running numpy's, with the same "
                   "output\n")
    assert hashlib.sha256((tmp_path / "rows").read_bytes()).hexdigest() \
        == rows_sha
    oracles = tmp_path / "oracles"
    assert cli.main(["--mode", "oracles", "--out", str(oracles)]) == 0
    assert capsys.readouterr() == ("", "")


def _cpuinfo(tmp_path, monkeypatch, text):
    """kernels._CPUINFO of this text, or of no file where text is None."""
    path = tmp_path / "cpuinfo"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(kernels, "_CPUINFO", str(path))


def _key(names):
    return hashlib.sha256(" ".join(sorted(names)).encode()).hexdigest()[:8]


# Two processors' lines, as /proc/cpuinfo has them on x86, and as it has
# them on arm64 Linux, which names the features on a Features line.
CPUINFO = ("processor\t: 0\nvendor_id\t: GenuineIntel\n"
           "flags\t\t: {}\nbugs\t\t: spectre_v1\n\n"
           "processor\t: 1\nflags\t\t: fpu\n")
ARM64_CPUINFO = ("processor\t: 0\nBogoMIPS\t: 50.00\n"
                 "Features\t: fp asimd aes atomics\nCPU part\t: 0xd0c\n\n"
                 "processor\t: 1\nFeatures\t: fp\n")


@pytest.mark.parametrize("text,names", [
    (CPUINFO.format("fpu sse2 avx2"), ["avx2", "fpu", "sse2"]),
    (CPUINFO.format("sse2 fpu"), ["fpu", "sse2"])], ids=["avx2", "sse2"])
def test_the_cpu_key_is_the_first_flags_line_of_cpuinfo(tmp_path, monkeypatch,
                                                         text, names):
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    monkeypatch.delattr(umath, "__cpu_features__")  # not read
    _cpuinfo(tmp_path, monkeypatch, text)
    assert kernels._cpu_key() == _key(names)


def test_an_arm64_cpuinfo_keys_the_library_without_numpy(tmp_path):
    """The key is the first Features line of an arm64 cpuinfo, and taking
    it leaves numpy unloaded, in a fresh interpreter."""
    (tmp_path / "cpuinfo").write_text(ARM64_CPUINFO)
    code = ("import sys\nfrom eprbsim import kernels\n"
            "before = 'numpy' in sys.modules\n"
            "kernels._CPUINFO = sys.argv[1]\n"
            "print(kernels._cpu_key(), before, 'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}
    out = subprocess.run([sys.executable, "-c", code,
                          str(tmp_path / "cpuinfo")], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout.split()
    if out[1] == "True":
        pytest.skip("this host's own cpuinfo names no features, so the "
                    "package's import loaded numpy")
    assert out == [_key(["aes", "asimd", "atomics", "fp"]), "False", "False"]


# The second file has neither a flags nor a Features line.
@pytest.mark.parametrize("text", [
    None, "processor\t: 0\nBogoMIPS\t: 50.00\n"],
    ids=["no-file", "no-flags-line"])
def test_a_host_without_cpuinfo_flags_keys_by_numpys_features(
        tmp_path, monkeypatch, text):
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    monkeypatch.setattr(umath, "__cpu_features__",
                        {"AVX2": True, "SSE2": True, "AVX512F": False})
    _cpuinfo(tmp_path, monkeypatch, text)
    assert kernels._cpu_key() == _key(["AVX2", "SSE2"])


@needs_cc
def test_two_flag_sets_build_two_libraries(tmp_path, monkeypatch):
    """Hosts whose CPUs differ in a flag each build and load a library of
    their own from one cache, and neither removes the other's."""
    cache, paths = tmp_path / "cache", []
    for flags in ("fpu sse2 avx2", "fpu sse2"):
        _cpuinfo(tmp_path, monkeypatch, CPUINFO.format(flags))
        lib = kernels.load_cpass(kernels._SOURCE, str(cache))
        assert lib is not None
        paths.append(lib._name)
    names = [os.path.basename(p) for p in paths]
    # _cpass-<tag>-<cpu>-<key>.so
    assert [name.split("-")[-2] for name in names] == [
        _key(["avx2", "fpu", "sse2"]), _key(["fpu", "sse2"])]
    assert sorted(os.listdir(cache)) == sorted(names)


@needs_cc
@pytest.mark.parametrize("features", [None, {"AVX2": False}],
                         ids=["absent", "none-present"])
def test_an_unreadable_feature_set_builds_with_the_portable_flags(
        tmp_path, monkeypatch, features):
    # No /proc/cpuinfo, and numpy names no feature either.
    _cpuinfo(tmp_path, monkeypatch, None)
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    if features is None:
        monkeypatch.delattr(umath, "__cpu_features__")
    else:
        monkeypatch.setattr(umath, "__cpu_features__", features)
    calls = _cc_calls(monkeypatch)
    cache = tmp_path / "cache"
    assert kernels.load_cpass(kernels._SOURCE, str(cache)) is not None
    assert calls == [kernels._CFLAGS]
    [name] = os.listdir(cache)
    assert name.startswith(f"_cpass-{kernels._TAG}-portable-")


@needs_cc
@pytest.mark.parametrize("native", [True, False], ids=["native", "portable"])
def test_the_pinned_run_with_each_flag_set(tmp_path, native):
    """A copy of the package runs the compiled pass with the pinned bytes,
    built for this CPU or, where cc refuses -march=native, with the
    portable flags."""
    root = _copy_package(tmp_path)
    path, log = _cc_on_path(tmp_path, refuse_native=not native)
    assert _run_cli(root, tmp_path, path=path) == "c"
    tried = [kernels._NATIVE_CFLAGS] + ([] if native else [kernels._CFLAGS])
    assert [line.split(" -o ")[0] for line in log.read_text().splitlines()] \
        == [" ".join(flags) for flags in tried]
    assert len(_cached(root)) == 1


# Runs every pinned run of test_output_bytes in a fresh interpreter and
# prints, as JSON, the pass in use, the CPU features of REDUCED that numpy
# dispatches to, each run's rows and dump sha256, and the digests of
# numpy_chunk's states and voltages on the CFD chunk of the library's load
# check (kernels._pass_agrees), and of numpy's pass on its non-CFD chunk,
# which pin them.
MATRIX_CLI = """
import hashlib, json, os, sys
import numpy as np
from eprbsim import cli, kernels, law
umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
work, runs = sys.argv[1], json.loads(sys.argv[2])
shas = {}
for name, (argv, dump) in runs.items():
    out = [os.path.join(work, name + ext) for ext in (".rows", ".dump")]
    extra = ["--dump-trials", out[1]] if dump else []
    assert cli.main(argv + ["--out", out[0]] + extra) == 0
    shas[name] = [hashlib.sha256(open(path, "rb").read()).hexdigest()
                  for path in out[:1 + dump]]
origins = np.array(kernels._CHECK_ORIGINS, np.uint64)[:, None]
turns = np.array(law.trig(np.array(kernels._CHECK_U))).T
u = law.fill_uniforms(origins, kernels._CHECK_START, kernels._CHECK_N)
digests = {repr(d): [hashlib.sha256(a.tobytes()).hexdigest() for a in
                     law.numpy_chunk(True, kernels._check_params(d), turns, u)]
           for d in kernels._PASS_DIGESTS}
print(json.dumps({"backend": kernels.BACKEND, "runs": shas,
                  "digests": digests,
                  "quota": kernels._quota_check(law.NumpyPass),
                  "features": [f for f in json.loads(sys.argv[3])
                               if umath.__cpu_features__.get(f)]}))
"""
# numpy's AVX-512 dispatch targets, which set float64 power apart.
REDUCED = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _has(feature):
    """Whether numpy found feature on this host's CPU."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return bool(getattr(umath, "__cpu_features__", {}).get(feature))


def _dispatched(features):
    """Those of features that numpy dispatches to on this host."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return [f for f in features
            if f in getattr(umath, "__cpu_dispatch__", ()) and _has(f)]


@pytest.mark.parametrize("dispatch", ["full", "reduced"])
@pytest.mark.parametrize("build", ["numpy", "native", "portable"])
def test_every_pinned_run_on_each_host_leg(build, dispatch, tmp_path):
    """The host matrix: every pinned run gives its pinned bytes under
    numpy's pass (no compiler on PATH) and under the compiled one built
    with this CPU's flags and with the portable ones, each with numpy's
    full CPU dispatch and with its AVX-512 targets disabled, and
    numpy_chunk and numpy's pass give the digests that the library's load
    check pins.  Each leg runs a copy of the package, with a cache of its
    own."""
    env = {**os.environ, "PYTHONPATH": str(_copy_package(tmp_path))}
    if dispatch == "reduced":
        disabled = _dispatched(REDUCED)
        if not disabled:
            pytest.skip(f"numpy dispatches to none of {REDUCED} here: the "
                        "full-dispatch leg is this leg")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    if build == "numpy":
        (tmp_path / "bin").mkdir()
        env["PATH"] = str(tmp_path / "bin")
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    else:
        env["PATH"], log = _cc_on_path(tmp_path,
                                       refuse_native=build == "portable")
    runs = {name: (argv, dump is not None)
            for name, (argv, _, dump) in RUNS.items()}
    out = subprocess.run(
        [sys.executable, "-c", MATRIX_CLI, str(tmp_path), json.dumps(runs),
         json.dumps(REDUCED)], env=env, capture_output=True, text=True,
        check=True, timeout=600)
    got = json.loads(out.stdout)
    if build != "numpy":
        flags = log.read_text().splitlines()
        if build == "native" and len(flags) > 1:
            pytest.skip("cc cannot build for this CPU (-march=native)")
        assert flags[-1].split(" -o ")[0] == " ".join(
            kernels._NATIVE_CFLAGS if build == "native" else kernels._CFLAGS)
    assert got["backend"] == ("numpy" if build == "numpy" else "c")
    assert got["features"] == ([] if dispatch == "reduced"
                               else _dispatched(REDUCED))
    assert got["runs"] == {name: [rows] + ([dump] if dump else [])
                           for name, (_, rows, dump) in RUNS.items()}
    assert got["digests"] == {repr(d): list(digests) for d, digests
                              in kernels._PASS_DIGESTS.items()}
    assert got["quota"] == list(kernels._QUOTA_DIGESTS)


# This CPU's flags without AVX-512: where the CPU has it, the build whose
# vectors are AVX's, 4 lanes of _cpass.c's LANES against native's 8.
NO_AVX512_CFLAGS = (*kernels._NATIVE_CFLAGS, "-mno-avx512f")
# This CPU's flags with the 256-bit vectors that cc picks for its own
# loops without -mprefer-vector-width=512, on x86: the other width a cc
# may take for them.  The stations keep native's LANES.
NATIVE_256_CFLAGS = (*kernels._NATIVE_CFLAGS, "-mprefer-vector-width=256") \
    if kernels._X86 else None


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """The library built with each flag set, by name, each loaded from a
    cache of its own: the portable flags, this CPU's, on x86
    NATIVE_256_CFLAGS and, on a CPU with AVX-512 whose cc takes them,
    NO_AVX512_CFLAGS."""
    libs = {}
    for name, flags in (("portable", kernels._CFLAGS),
                        ("native", kernels._NATIVE_CFLAGS),
                        ("native-256", NATIVE_256_CFLAGS),
                        ("no-avx512", NO_AVX512_CFLAGS)):
        if flags is None or name == "no-avx512" and not _has("AVX512F"):
            continue
        with pytest.MonkeyPatch.context() as mp:
            if name == "portable":
                mp.setattr(kernels, "_cpu_key", lambda: None)
            else:
                mp.setattr(kernels, "_NATIVE_CFLAGS", flags)
            calls = _cc_calls(mp)
            lib = kernels.load_cpass(
                kernels._SOURCE, str(tmp_path_factory.mktemp("cache")))
        if name == "no-avx512" and len(calls) > 1:
            continue  # cc refused them, and the build took _CFLAGS
        assert lib is not None and calls == [flags]
        libs[name] = lib
    return libs


@needs_cc
def test_each_build_runs_as_many_lanes_as_its_target_holds(builds):
    """8 lanes with AVX-512, 4 with AVX, else 2: a build that fell back
    to 2 lanes on this CPU fails here."""
    native = 8 if _has("AVX512F") else 4 if _has("AVX") else 2
    want = {"portable": 2, "native": native, "native-256": native,
            "no-avx512": 4}
    assert {name: lib.cpass_lanes() for name, lib in builds.items()} \
        == {name: want[name] for name in builds}


@needs_cc
@pytest.mark.parametrize("d", [4.0, 3.0, 1.0, 0.5, 7.3])
@pytest.mark.parametrize("cfd", [True, False], ids=["cfd", "noncfd"])
def test_both_flag_sets_give_the_same_decision_values(builds, cfd, d,
                                                      monkeypatch):
    """Each build's per-trial states and voltages are numpy's, bit for
    bit, for both powers: binary (d = 4, 3, 1) and the table's."""
    _assert_builds_give_numpys_values(builds, monkeypatch, _chunk_values(
        cfd, decision_params(d)))


@needs_cc
@pytest.mark.parametrize("n", [1, 7, 127, 129, 1001])
@pytest.mark.parametrize("d", [4.0, 0.5])
@pytest.mark.parametrize("cfd", [True, False], ids=["cfd", "noncfd"])
def test_chunk_tails_give_numpys_decision_values(builds, cfd, d, n,
                                                 monkeypatch):
    """Chunks whose last block ends in a part of a vector of each
    build's lanes, and a chunk shorter than one vector."""
    _assert_builds_give_numpys_values(builds, monkeypatch, _chunk_values(
        cfd, decision_params(d), n))


# Seeds of QUOTA_PARAMS' non-CFD point at THETA_QUAD whose last pair fills
# at quota QUOTA_EDGE on the last trial of a block (trial 20095 = 157 *
# 128 - 1) and on the first trial of one (20224 = 158 * 128), as found by
# a search over seeds with numpy's pass; test_the_seeds_fill_at_block_edges
# checks it.
QUOTA_PARAMS, THETA_QUAD = ModelParams(d=4.0, threshold=-0.9), \
    SettingsQuad.for_theta(0.4)
QUOTA_EDGE, LAST_TRIAL_SEED, FIRST_TRIAL_SEED = 5000, 87, 283
CAPACITIES = [2 * experiment.CHUNK, 129]


@pytest.mark.parametrize("seed,trials", [(LAST_TRIAL_SEED, 157 * 128),
                                         (FIRST_TRIAL_SEED, 158 * 128 + 1)])
def test_the_seeds_fill_at_block_edges(seed, trials, monkeypatch):
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    walk = _quota_walk(QUOTA_EDGE, CAPACITIES[0], False, seed)()
    assert sum(walk[0]) == trials
    assert walk[2] == [QUOTA_EDGE] * 4


@needs_cc
@pytest.mark.parametrize("dump", [False, True], ids=["counts", "dump"])
@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("quota,seed", [
    *((quota, 3) for quota in (1, 2, 63, 64, 100, 5000)),
    (QUOTA_EDGE, LAST_TRIAL_SEED), (QUOTA_EDGE, FIRST_TRIAL_SEED)])
def test_the_quota_cut_gives_numpys_values_at_block_edges(
        builds, quota, seed, capacity, dump, monkeypatch):
    """Each build's quota cut, over blocks that keep every trial and
    blocks cut trial by trial, walks numpy's trials to numpy's counts,
    with numpy's states and voltages: quotas below, at and above a
    block's 128 trials, calls of two blocks' worth and of a block and one
    trial, and a last pair that fills at either edge of a block."""
    _assert_builds_give_numpys_values(builds, monkeypatch, _quota_walk(
        quota, capacity, dump, seed))


def _chunk_values(cfd, params, n=DECISION_N):
    """chunk_values at THETA_QUAD, as bytes."""
    return lambda: [a.tobytes() for a in chunk_values(cfd, params,
                                                      THETA_QUAD, n)]


def _quota_walk(quota, capacity, dump, seed):
    """The walk of QUOTA_PARAMS' non-CFD point at THETA_QUAD and this
    quota, by the pass kernels.BACKEND picks, in calls of capacity
    trials: the trials each call walked and, with dump, its states and
    voltages, then hist and held."""
    def walk():
        point = experiment._point(False, QUOTA_PARAMS, THETA_QUAD, seed,
                                  quota, capacity, trials=dump)
        start, calls = 0, []
        while walked := point.add(start, capacity):
            calls.append(walked)
            if dump:
                volts = bytes(point.volts)
                calls += [bytes(point.codes[:walked]), volts[:8 * walked],
                          volts[8 * capacity:8 * (capacity + walked)]]
            start += walked
        return calls, list(point.hist), list(point.held)
    return walk


def _assert_builds_give_numpys_values(builds, monkeypatch, values):
    """values(), of the pass kernels.BACKEND picks, is the same under each
    build's pass as under numpy's."""
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    want = values()
    monkeypatch.setattr(kernels, "BACKEND", "c")
    for lib in builds.values():
        monkeypatch.setattr(kernels, "CPASS", lib)
        assert values() == want


@needs_cc
@pytest.mark.parametrize("d", [4.0, 0.5, 7.3])
def test_both_flag_sets_give_the_same_counts(builds, d, monkeypatch):
    params, quad = ModelParams(d=d, threshold=-0.9), \
        SettingsQuad.for_theta(0.4)
    got = []
    for backend, lib in [("numpy", None)] + [("c", lib)
                                             for lib in builds.values()]:
        monkeypatch.setattr(kernels, "BACKEND", backend)
        monkeypatch.setattr(kernels, "CPASS", lib)
        got.append((cfd_counts(params, quad, 30_000, 3),
                    noncfd_counts(params, quad, 5_000, 3)))
    assert all(np.array_equal(a, b) for counts in got[1:]
               for a, b in zip(counts, got[0]))


@needs_cc
def test_the_source_compiles_without_warnings(tmp_path):
    # The last build is that of a target without 128-bit integers, whose
    # floats all go to snprintf.
    for flags in (kernels._CFLAGS, kernels._NATIVE_CFLAGS,
                  *([NATIVE_256_CFLAGS] if NATIVE_256_CFLAGS else []),
                  *([NO_AVX512_CFLAGS] if _has("AVX512F") else []),
                  (*kernels._CFLAGS, "-U__SIZEOF_INT128__")):
        out = subprocess.run(
            ["cc", *flags, "-Wall", "-Wextra", "-Werror", "-o",
             str(tmp_path / "lib.so"), kernels._SOURCE, "-lm"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, (flags, out.stderr)


@needs_cc
@pytest.mark.parametrize("old,new", [
    ("if (isnan(v)) {", "if (isnan(v) && 0) {"),
    ("- 1 + (n >> r & 1)) >> r;", ") >> r;"),
    ("(rest + (1ULL << (r - 1)) - 1 + (q & 1)) >> r",
     "(rest + (1ULL << (r - 1))) >> r"),
    ("m >= 10 && m < 100000000", "m >= 10 && m <= 100000000"),
    ("(uint64_t)col->value + (uint64_t)i", "(uint64_t)col->value + 1"),
    ("p += !(states[i] >> col->value & 1);", "p += !(states[i] & 1);"),
    ("'0' + (states[i] >> col->value & 1)", "'0' + (states[i] >> 4 & 1)"),
    ("+ (states[i] >> col->value & 1);", "+ (states[i] & 1);"),
    ("if (states[i] == 64)", "if (states[i] == 64 && i)"),
], ids=["nan", "ties-up", "binade-ties-up", "int-word-edge", "index",
        "sign", "bit", "choice", "skip-first"])
def test_a_library_whose_formatter_disagrees_with_python(tmp_path, old, new):
    # "-nan" for a nan with its sign bit set, as the C library prints it;
    # a 17-digit rounding that takes every tie up, where '%.17g' rounds
    # half to even, in a binade that holds a power of ten and in one
    # inside a decade; 10**8, of 9 digits, through the one-word path of
    # 2 to 8 digits; and each kind of kernels.TrialColumn misread.
    source = tmp_path / "_cpass.c"
    text = pathlib.Path(kernels._SOURCE).read_text()
    assert old in text
    source.write_text(text.replace(old, new))
    assert kernels.load_cpass(str(source), str(tmp_path / "cache")) is None


@needs_cc
@pytest.mark.parametrize("old,new", [
    ("vd v = (load(q + i) * load(rhat + i)) * span - v_max;",
     "vd v = load(q + i) * (load(rhat + i) * span) - v_max;"),
    ("(((double)e + p->log_table[j])\n"
     "                       + horner(p->log_poly, LOG_TERMS, r));",
     "((double)e + (p->log_table[j]\n"
     "                       + horner(p->log_poly, LOG_TERMS, r)));"),
    ("roomy &= p->quota - p->held[k] >= n;", "roomy &= p->quota >= n;"),
    ("p->held[k] = held;", "p->held[k] += held;"),
], ids=["voltage", "table-power", "quota-room", "quota-held"])
def test_a_library_whose_pass_disagrees_with_numpy(tmp_path, old, new):
    # One operation reordered: each + - * still rounds once, but the
    # values are no longer numpy's.  Or a quota cut that lets a block
    # overflow a pair (its room test forgets what the pairs hold), or
    # that miscounts what they hold after a block kept whole.  The source
    # still builds.
    source, cache = tmp_path / "_cpass.c", str(tmp_path / "cache")
    text = pathlib.Path(kernels._SOURCE).read_text()
    assert old in text
    source.write_text(text.replace(old, new))
    assert kernels._compiled(str(source), cache) is not None
    assert kernels.load_cpass(str(source), cache) is None


SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
# Loads the library built with SANITIZE added to both flag sets from the
# cache given, which runs its known-answer checks.  Then it formats each
# value of the float64 bytes read from stdin, an index of each value of
# the int64 bytes, and a sign and a bit of states 0 and 255, each the
# last field of a buffer of the size CsvFormat.write allocates for it, so
# that no store of a field reaches past it, and
# runs a CFD and a non-CFD CLI point of 1001 trials at d = 0.5
# with a trial dump, and a CFD point of two blocks (sweep.BLOCK_CHUNKS
# CHUNKs each) and 5 trials on two threads, so that two passes run at
# once; it prints the sha256 of each rows' and dump's file.  A sanitizer that
# finds a fault ends the process.
SANITIZED_RUN = """
import hashlib, os, sys
import numpy as np
from eprbsim import cli, experiment, kernels, sweep
work, extra = sys.argv[1], tuple(sys.argv[2:])
kernels._NATIVE_CFLAGS += extra
kernels._CFLAGS += extra
lib = kernels.load_cpass(kernels._SOURCE, os.path.join(work, "cache"))
assert lib is not None
floats, ints = sys.stdin.read().split()
floats = np.frombuffer(bytes.fromhex(floats)).tolist()
ints = np.frombuffer(bytes.fromhex(ints), np.int64).tolist()
Col = kernels.TrialColumn
fields = [(Col(kernels.FLOAT64), 0, 0, v, "%.17g" % v) for v in floats] \\
    + [(Col(kernels.INDEX), v, 0, 0.0, str(v)) for v in ints] \\
    + [(Col(kind, 7), 0, state, 0.0, text) for kind, state, text in (
        (kernels.SIGN, 0, "-1"), (kernels.SIGN, 255, "1"),
        (kernels.BIT, 0, "0"), (kernels.BIT, 255, "1"))]
for column, start, state, volt, text in fields:
    rows = (start, 1, bytearray([state]), bytearray(np.float64(volt)))
    for row in ([column], [b"t", column]):
        buffer, size = kernels.CsvFormat(row).write(lib, rows)
        assert buffer[:size].tobytes() == (",".join(["t"] * (len(row) - 1)
                                                    + [text]) + "\\n").encode()
kernels.CPASS = lib
shas = []
for mode in ("cfd", "noncfd"):
    out = [os.path.join(work, mode + ext) for ext in (".rows", ".dump")]
    assert cli.main(["--mode", mode, "--n", "1001", "--d", "0.5",
                     "--theta-steps", "1", "--out", out[0],
                     "--dump-trials", out[1]]) == 0
    shas += [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in out]
pool, pools = sweep._pool_map, []
sweep._pool_map = lambda tasks, workers: pools.append(workers) \\
    or pool(tasks, workers)
sweep._usable_cpus = lambda: 2
rows = os.path.join(work, "threaded.rows")
n = 2 * sweep.BLOCK_CHUNKS * experiment.CHUNK + 5
assert cli.main(["--n", str(n), "--theta-steps", "1", "--threads", "2",
                 "--out", rows]) == 0
assert pools == [2]
shas.append(hashlib.sha256(open(rows, "rb").read()).hexdigest())
print(kernels.BACKEND, *shas)
"""


def _sanitized_shas(work):
    """SANITIZED_RUN's sha256s, from this process's library, the
    threaded point's at --threads 1."""
    shas = []
    for mode in ("cfd", "noncfd"):
        out = [work / (mode + ext) for ext in (".rows", ".dump")]
        assert cli.main(["--mode", mode, "--n", "1001", "--d", "0.5",
                         "--theta-steps", "1", "--out", str(out[0]),
                         "--dump-trials", str(out[1])]) == 0
        shas += [hashlib.sha256(p.read_bytes()).hexdigest() for p in out]
    rows = work / "threaded.rows"
    n = 2 * sweep.BLOCK_CHUNKS * experiment.CHUNK + 5
    assert cli.main(["--n", str(n), "--theta-steps", "1", "--threads", "1",
                     "--out", str(rows)]) == 0
    return shas + [hashlib.sha256(rows.read_bytes()).hexdigest()]


@needs_cc
def test_the_library_runs_clean_under_the_sanitizers(tmp_path):
    """Built with AddressSanitizer and UndefinedBehaviorSanitizer, the
    library reads and writes nothing outside its arrays and buffers and
    does nothing undefined, in its load checks, in the formatter's widest
    fields, at the edges of its one-word paths (test_dump's FAST_EDGE and
    INT_EDGE) and in a point of each pass with its trial dump, and gives
    this process's bytes.  It runs in a fresh interpreter with the
    sanitizer's runtime preloaded; the library is built here, without
    it, so that the compiler does not run under it."""
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("cc has no AddressSanitizer runtime (libasan)")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_NATIVE_CFLAGS",
                   (*kernels._NATIVE_CFLAGS, *SANITIZE))
        mp.setattr(kernels, "_CFLAGS", (*kernels._CFLAGS, *SANITIZE))
        calls = _cc_calls(mp)
        assert kernels._compiled(kernels._SOURCE,
                                 str(tmp_path / "cache")) is not None
    assert calls and all(flags[-2:] == SANITIZE for flags in calls)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE),
           "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"}
    out = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUN, str(tmp_path), *SANITIZE],
        input=" ".join(np.array(values, dtype).tobytes().hex() for values,
                       dtype in ((EDGE + FAST_EDGE, np.float64),
                                 (INT_EDGE + [2 ** 63 - 1], np.int64))),
        env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-4000:]
    assert out.stdout.split() == ["c", *_sanitized_shas(tmp_path)]
