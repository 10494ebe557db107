"""Output bytes, pinned: sha256s of small CLI runs.

Each run writes its rows with --out (and its trial dump, where it has
one), in process, at one and at two worker processes, under numpy's
chunk pass and under the compiled one; tests/test_cpass.py runs them on
every host leg it can (pass, numpy's CPU dispatch, compiler flags).  The
row constants were recorded from the code as it stood before the dump
was written chunk by chunk, the dump constants when the dump's voltages
became those of the streaming pass's own law (CHANGES.md); any change
to a row or a dump byte fails here.
"""
import hashlib
import os
import threading

import pytest

from eprbsim import cli, kernels

# argv, then the sha256 of the rows and, for a dump run, of the dump.
RUNS = {
    "cfd": (["--theta-steps", "4", "--n", "3000", "--seed", "1"],
            "5910bc5cff0cb0340aba0425ed1805d0bc49c5f1af84260c1bbff656fd02cc9d",
            None),
    "noncfd": (["--mode", "noncfd", "--theta-steps", "3", "--n", "1500",
                "--seed", "2"],
               "1ac932862bea6d59d1f08d8fde87f97b1b28a813439ce1d30c32dc3dd4ff7267",
               None),
    "threshold-sweep": (
        ["--threshold-sweep=-0.9995:-0.99:3", "--n", "3000", "--seed", "3"],
        "5c5438d48b9d58fb3b9cab8b3edddd6f44d0a61e60d6b75bb9e65e28403f5cb1",
        None),
    "json": (["--format", "json", "--theta-steps", "3", "--n", "2000",
              "--seed", "4", "--angle-unit", "deg", "--theta-end", "90"],
             "6913069737c0a25e302c8676a9da5786ff10dfa41b8741ea54c1712e4506b89d",
             None),
    # 20,000 trials per point: a dump over several chunks.
    "cfd-dump": (["--theta-steps", "2", "--n", "20000", "--seed", "5"],
                 "0dfeb88c387f584d443df4e0e95a4f5ad49177a5b99bd1fc9daa3347dcca23f8",
                 "8b60a4b409f5711701b458833f49ce6a6b6f471a805721a4f505c58adfaeed61"),
    "noncfd-dump": (["--mode", "noncfd", "--theta-steps", "2", "--n", "5000",
                     "--seed", "6"],
                    "7c63fde250f50b5ca9eed868b8630ca15779efed09bf292c385fe17d2b36bc24",
                    "3206a12241eb15929508cb35a3dc6c33b928a67b210d6ccffb0b3b0fe67143c0"),
    # The table power, with a span that is not a power of two.
    "cfd-dump-d0.5": (["--theta-steps", "2", "--n", "3000", "--d", "0.5",
                       "--vmin", "0.3", "--threshold", "-0.65", "--seed", "7"],
                      "4e7281dc25888d06cda1d0aaadc7ab23f0bab526d463ff94725f58f633153809",
                      "6b5e3015e1974d19ffce82d5abdbbb3b09c94a7dbb31a3d72dd3dc900668549d"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pinned(name, threads, tmp_path):
    """Run RUNS[name] at this many worker processes; check its bytes."""
    argv, rows_sha, dump_sha = RUNS[name]
    rows, dump = tmp_path / "rows", tmp_path / "trials.csv"
    extra = [] if dump_sha is None else ["--dump-trials", str(dump)]
    assert cli.main([*argv, "--threads", threads, "--out", str(rows),
                     *extra]) == 0
    assert _sha256(rows) == rows_sha
    if dump_sha is not None:
        assert _sha256(dump) == dump_sha


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", list(RUNS))
def test_output_bytes_are_pinned(name, threads, tmp_path, monkeypatch):
    # Forked workers inherit the pass chosen here.
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    check_pinned(name, threads, tmp_path)


@pytest.mark.skipif(kernels.CPASS is None,
                    reason="no compiled pass: no C compiler, or its build "
                    "or load failed")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", list(RUNS))
def test_compiled_pass_output_bytes_are_pinned(name, threads, tmp_path,
                                               monkeypatch):
    monkeypatch.setattr(kernels, "BACKEND", "c")
    check_pinned(name, threads, tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name", ["cfd-dump", "noncfd-dump"])
def test_dump_to_a_pipe_is_pinned(name, tmp_path):
    # A FIFO cannot seek: the dump must be written without tell() or
    # truncate(), as to a pipe into gzip.
    argv, rows_sha, dump_sha = RUNS[name]
    fifo = tmp_path / "trials.fifo"
    os.mkfifo(fifo)
    digest = hashlib.sha256()

    def read():
        with open(fifo, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    rows = tmp_path / "rows"
    assert cli.main([*argv, "--out", str(rows),
                     "--dump-trials", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert _sha256(rows) == rows_sha
    assert digest.hexdigest() == dump_sha
