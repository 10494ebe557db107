"""Building and loading the compiled chunk pass (kernels.load_cpass).

The pass is compiled at first use into the package's __pycache__ and
loaded from there afterwards.  Wherever it cannot be built, loaded or
checked, the package runs numpy's pass, with the same bytes.  Most cases
here run the CLI in a fresh interpreter on a copy of the package, whose
__pycache__ is a cache of its own.
"""
import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from eprbsim import kernels
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
    interpreter; its rows must have the pinned bytes."""
    argv, rows_sha, _ = RUNS["cfd"]
    rows = tmp_path / "rows"
    env = {**os.environ, "PYTHONPATH": str(root)}
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


def test_no_compiler_on_path(tmp_path):
    root = _copy_package(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    assert _run_cli(root, tmp_path, path=str(empty)) == "numpy"
    assert _cached(root) == []


def test_a_source_that_fails_to_compile(tmp_path):
    root = _copy_package(tmp_path)
    with open(root / "eprbsim" / "_cpass.c", "a") as fh:
        fh.write("\n#error this source does not compile\n")
    assert _run_cli(root, tmp_path) == "numpy"
    assert _cached(root) == []  # and no temporary file is left


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
    # A file where the cache directory should be: no one can write
    # there, root included.
    root = _copy_package(tmp_path)
    (root / "eprbsim" / "__pycache__").write_text("")
    assert _run_cli(root, tmp_path) == "numpy"


@needs_cc
def test_a_cold_cache_builds_once_and_a_warm_one_runs_no_subprocess(
        tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    calls = []
    run = subprocess.run

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    assert kernels.load_cpass(kernels._SOURCE, str(cache)) is not None
    assert len(calls) == 1
    [name] = os.listdir(cache)

    def refused(*args, **kwargs):
        raise AssertionError("a warm cache started a subprocess")

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
    other = cache / "_cpass-cpython-399-other-platform-0123456789abcdef.so"
    other.write_bytes(b"another interpreter's library")
    first = tmp_path / "first.c"
    second = tmp_path / "second.c"
    text = open(kernels._SOURCE).read()
    first.write_text(text)
    second.write_text(text + "\n/* another source */\n")
    for source in (first, second):
        assert kernels.load_cpass(str(source), str(cache)) is not None
    ours = [p for p in os.listdir(cache)
            if p.startswith(f"_cpass-{kernels._TAG}-")]
    assert len(ours) == 1
    assert kernels._compiled(str(second), str(cache)) == str(cache / ours[0])
    assert other.exists()


@needs_cc
def test_the_source_compiles_without_warnings(tmp_path):
    out = subprocess.run(
        ["cc", *kernels._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o",
         str(tmp_path / "lib.so"), kernels._SOURCE, "-lm"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


@needs_cc
def test_a_library_whose_formatter_disagrees_with_python(tmp_path):
    # "-nan" for a nan with its sign bit set, as the C library prints it.
    source = tmp_path / "_cpass.c"
    text = open(kernels._SOURCE).read()
    assert "if (isnan(v)) {" in text
    source.write_text(text.replace("if (isnan(v)) {",
                                   "if (isnan(v) && 0) {"))
    assert kernels.load_cpass(str(source), str(tmp_path / "cache")) is None
