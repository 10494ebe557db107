"""State counts: the streaming passes and rows computed from counts.

Rows are computed from integer counts of per-trial states.  The
references here recompute each row from the per-trial arrays with the
array estimators of `reference`, the way rows were computed before
counts.
"""
import math
import os
import pathlib
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

import reference
from eprbsim import experiment, kernels, rng, stats, sweep
from eprbsim.experiment import (PAIR_COLUMNS, PAIR_NAMES, cfd_counts,
                                noncfd_counts, pair_counts, run_cfd,
                                run_noncfd)
from eprbsim.params import ModelParams, SettingsQuad
from eprbsim.sweep import (RunConfig, _cfd_row, _noncfd_row, rows_to_csv,
                           sweep_theta)
from reference import PASSES, state_counts
from test_oracle import _run_python

THETA_38 = 3.0 * math.pi / 8.0
PARAMS = [
    ModelParams(),                   # threshold -0.995
    ModelParams(threshold=-0.5),     # every flag passes
    ModelParams(threshold=-1.0),     # no flag passes: photon columns empty
]
IDS = ["window", "all-pass", "none-pass"]


def _reference_row(theta, x1, x2, w1, w2, w_all, n, seed):
    """Row columns from per-pair arrays (four of each, pair order 11..22)."""
    photon = [reference.pair_estimate(*a) for a in zip(x1, x2, w1, w2)]
    detect = [reference.pair_estimate(a, b) for a, b in zip(x1, x2)]

    def single(xs, ws):
        return reference.single_average(np.concatenate(xs),
                                        np.concatenate(ws))[0]

    records = dict(zip(PAIR_NAMES, zip(x1, x2, w1, w2)))
    j = reference.eberhard_total_selected(records)
    e_ref, s_ref = stats.quantum_reference(theta)
    return {
        "theta": theta,
        "E11": photon[0].e, "E12": photon[1].e,
        "E21": photon[2].e, "E22": photon[3].e,
        "E1_1": single(x1[:2], w1[:2]), "E1_2": single(x1[2:], w1[2:]),
        "E2_1": single(x2[::2], w2[::2]), "E2_2": single(x2[1::2], w2[1::2]),
        "S": stats.chsh(*(p.e for p in photon)), "S_ref": s_ref,
        "E_ref": e_ref, "S_hat": stats.chsh(*(d.e for d in detect)),
        "J_eberhard": j, "J_ch": j,
        "n_pass_11": photon[0].n_pass, "n_pass_12": photon[1].n_pass,
        "n_pass_21": photon[2].n_pass, "n_pass_22": photon[3].n_pass,
        "pass_fraction": float(np.concatenate(w_all).mean()),
        "N": n, "seed": seed,
    }


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_cfd_row_from_counts_equals_row_from_arrays(params, monkeypatch):
    monkeypatch.setattr(experiment, "CHUNK", 4096)
    n, seed = 10_000, 77
    run = run_cfd(params, SettingsQuad.for_theta(THETA_38), n, seed)
    counts = cfd_counts(params, run.quad, n, seed)
    streamed = _cfd_row(THETA_38, counts, n, 5, "max-pair")
    assert streamed == _cfd_row(THETA_38, run.counts, n, 5, "max-pair")
    assert np.array_equal(counts, run.counts)

    x, w = run.x, run.w
    side1, side2 = zip(*PAIR_COLUMNS)
    ref = _reference_row(THETA_38, [x[:, i] for i in side1],
                         [x[:, j] for j in side2], [w[:, i] for i in side1],
                         [w[:, j] for j in side2], [w.ravel()], n, 5)
    for c, key in enumerate(("E1_1", "E1_2", "E2_1", "E2_2")):
        ref[key] = reference.single_average(x[:, c], w[:, c])[0]
    assert stats.eberhard_j_terms(*x.T).sum() >= 0
    n_prime = int(np.count_nonzero(np.all(w == 1, axis=1)))
    ref["delta"], ref["bound"] = stats.delta_ratio(
        n_prime, tuple(ref[f"n_pass_{p}"] for p in PAIR_NAMES))
    assert streamed == ref
    for p, (i, j) in enumerate(PAIR_COLUMNS):
        direct = state_counts((x[:, i], x[:, j]), (w[:, i], w[:, j]))
        assert np.array_equal(pair_counts(run.counts)[p], direct)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_noncfd_row_from_counts_equals_row_from_arrays(params):
    quad = SettingsQuad.for_theta(0.7)
    row = _noncfd_row(0.7, noncfd_counts(params, quad, 3000, 41), 3000, 5)
    point = reference.noncfd_point(params, quad, 3000, 41)
    assert row == _noncfd_row(0.7, point.counts, 3000, 5)
    pairs = point.pairs
    ref = _reference_row(0.7, [p.x1 for p in pairs], [p.x2 for p in pairs],
                         [p.w1 for p in pairs], [p.w2 for p in pairs],
                         [np.concatenate([p.w1, p.w2]) for p in pairs],
                         3000, 5)
    ref["delta"] = ref["bound"] = None
    assert row == ref


@pytest.mark.parametrize("chunk", [1, 7, 4096, 9000, 10**6])
def test_rows_do_not_depend_on_chunk_size(chunk, monkeypatch):
    cfgs = [RunConfig(mode=mode, n=n, theta_steps=1, theta_start=THETA_38,
                      theta_end=THETA_38)
            for mode, n in (("cfd", 9000), ("noncfd", 2500))]
    expected = [rows_to_csv(*sweep_theta(cfg)) for cfg in cfgs]
    monkeypatch.setattr(experiment, "CHUNK", chunk)
    assert [rows_to_csv(*sweep_theta(cfg)) for cfg in cfgs] == expected


def _spy_pools(monkeypatch, cpus):
    """Worker counts of the pools a sweep runs on cpus CPUs, and the
    threads they start."""
    pools, started = [], []
    run, start = sweep._pool_map, threading.Thread.start

    def spy_pool(tasks, workers):
        pools.append(workers)
        return run(tasks, workers)

    def spy_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(sweep, "_pool_map", spy_pool)
    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    return pools, started


def test_sweep_asks_for_no_more_workers_than_cpus(monkeypatch):
    pools, started = _spy_pools(monkeypatch, cpus=2)
    cfg = RunConfig(n=500, theta_steps=40)
    expected = rows_to_csv(*sweep_theta(cfg))
    assert (pools, started) == ([1], [])  # --threads 1 starts no thread
    cfg.threads = 10**6
    assert rows_to_csv(*sweep_theta(cfg)) == expected
    assert pools == [1, 2]
    assert len(started) == 1
    assert not started[0].is_alive()


def test_sweep_asks_for_no_more_workers_than_tasks(monkeypatch):
    # One non-CFD point is one task; one CFD point of a block is too.
    pools, started = _spy_pools(monkeypatch, cpus=3)
    for mode in ("cfd", "noncfd"):
        sweep_theta(RunConfig(mode=mode, n=500, theta_steps=1, threads=3))
    assert (pools, started) == ([1, 1], [])


@pytest.mark.parametrize("mode", ["cfd", "noncfd"])
def test_pool_rows_are_built_here_in_grid_order(mode, monkeypatch):
    # Threads compute counts; the calling thread builds each row from them.
    name = "_cfd_row" if mode == "cfd" else "_noncfd_row"
    build, seen = getattr(sweep, name), []

    def spy(theta, counts, *args):
        seen.append((theta, isinstance(counts, list),
                     threading.current_thread()))
        return build(theta, counts, *args)

    monkeypatch.setattr(sweep, name, spy)
    pools, started = _spy_pools(monkeypatch, cpus=2)
    cfg = RunConfig(mode=mode, n=600, theta_steps=7, threads=2)
    sweep_theta(cfg)
    assert pools == [2]
    assert len(started) == 1
    here = threading.current_thread()
    assert seen == [(theta, True, here) for theta in sweep.theta_grid(cfg)]


def _await(condition, what):
    """Wait for condition() to hold, at most a minute."""
    for _ in range(60_000):
        if condition():
            return
        time.sleep(0.001)
    raise AssertionError(f"no {what} within a minute")


def test_worker_error_surfaces_with_its_type_and_message(monkeypatch):
    # The first task on the started thread raises once the calling
    # thread is in a task, which then waits until the started thread has
    # ended: no task may start after the error.
    here, before = threading.current_thread(), threading.active_count()
    run, started, busy = sweep._point_counts, [], threading.Event()

    def broken(*args):
        started.append(threading.current_thread())
        if threading.current_thread() is not here:
            _await(busy.is_set, "task in the calling thread")
            raise RuntimeError("CFD identity violated: s outside {-2, +2}")
        busy.set()
        _await(lambda: threading.active_count() == before, "failed thread")
        return run(*args)

    monkeypatch.setattr(sweep, "_point_counts", broken)
    pools, _ = _spy_pools(monkeypatch, cpus=2)
    with pytest.raises(RuntimeError) as exc:
        sweep_theta(RunConfig(mode="noncfd", n=300, theta_steps=6,
                              threads=2))
    assert type(exc.value) is RuntimeError
    assert str(exc.value) == "CFD identity violated: s outside {-2, +2}"
    assert exc.value.__cause__ is None
    assert exc.traceback[-1].name == "broken"
    assert pools == [2]
    assert len(started) == 2 and here in started
    assert threading.active_count() == before


def test_ctrl_c_in_the_calling_thread_stops_the_pool(monkeypatch):
    # The started thread's task waits for the interrupt; the calling
    # thread then joins it, and no task starts after.
    here, before = threading.current_thread(), threading.active_count()
    run, started, interrupted = sweep._point_counts, [], threading.Event()

    def interrupt(*args):
        started.append(threading.current_thread())
        if threading.current_thread() is here:
            interrupted.set()
            raise KeyboardInterrupt
        _await(interrupted.is_set, "interrupt")
        time.sleep(0.05)
        return run(*args)

    monkeypatch.setattr(sweep, "_point_counts", interrupt)
    _spy_pools(monkeypatch, cpus=2)
    with pytest.raises(KeyboardInterrupt):
        sweep_theta(RunConfig(mode="noncfd", n=300, theta_steps=6,
                              threads=2))
    assert threading.active_count() == before
    assert len(started) == 2 and here in started


def test_ctrl_c_while_the_calling_thread_waits_still_joins(monkeypatch):
    # The calling thread's task ends once the started thread's has begun,
    # so it waits for that one, which sends it SIGINT and ends 0.1 s later.
    here, before = threading.current_thread(), threading.active_count()
    run, ended, begun = sweep._point_counts, [], threading.Event()

    def late(*args):
        if threading.current_thread() is here:
            _await(begun.is_set, "task on the started thread")
        else:
            begun.set()
            time.sleep(0.1)
            signal.pthread_kill(here.ident, signal.SIGINT)
            time.sleep(0.1)
            ended.append(threading.current_thread())
        return run(*args)

    monkeypatch.setattr(sweep, "_point_counts", late)
    _spy_pools(monkeypatch, cpus=2)
    with pytest.raises(KeyboardInterrupt):
        sweep_theta(RunConfig(mode="noncfd", n=300, theta_steps=2,
                              threads=2))
    assert len(ended) == 1
    assert threading.active_count() == before


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="fewer than two CPUs to pin threads to")


@needs_two_cpus
@pytest.mark.parametrize("ending", ["returns", "raises", "ctrl-c"])
def test_the_pool_pins_its_threads_and_restores_the_callers_cpus(ending):
    """Each of a pool's two threads runs its tasks on a CPU of its own,
    and the calling thread's CPUs are restored as the pool ends, however
    it ends."""
    here, mask = threading.current_thread(), os.sched_getaffinity(0)
    seen, both = {}, threading.Barrier(2, timeout=60)

    def task(first):
        seen.setdefault(threading.current_thread(), set()).add(
            frozenset(os.sched_getaffinity(0)))
        if first:  # one task on each thread at once
            both.wait()
        if threading.current_thread() is here and not first:
            if ending == "raises":
                raise RuntimeError("a task failed")
            if ending == "ctrl-c":
                raise KeyboardInterrupt

    tasks = [lambda: task(True), lambda: task(True), lambda: task(False),
             lambda: task(False), lambda: task(False)]
    if ending == "returns":
        sweep._pool_map(tasks, 2)
    else:
        with pytest.raises(RuntimeError if ending == "raises"
                           else KeyboardInterrupt):
            sweep._pool_map(tasks, 2)
    assert os.sched_getaffinity(0) == mask
    assert len(seen) == 2 and here in seen
    cpus = [next(iter(masks)) for masks in seen.values()]
    assert all(len(masks) == 1 for masks in seen.values())
    assert all(len(cpu) == 1 and cpu <= mask for cpu in cpus)
    assert cpus[0] != cpus[1]


@needs_two_cpus
@pytest.mark.parametrize("mode,sweep_range", [
    ("cfd", None), ("noncfd", None), ("cfd", (-0.9995, -0.99, 4))])
def test_pinned_pools_give_the_bytes_at_one_to_three_threads(
        mode, sweep_range, monkeypatch):
    # Three threads pinned to two CPUs share one: the pool pins them all
    # here, and the rows stay those of one thread.
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(sweep, "_pool_cpus",
                        lambda workers: [cpus[k % len(cpus)]
                                         for k in range(workers)])
    pools, _ = _spy_pools(monkeypatch, cpus=3)
    mask, outputs = os.sched_getaffinity(0), []
    for threads in (1, 2, 3):
        cfg = RunConfig(mode=mode, n=3 * sweep.BLOCK_CHUNKS
                        * experiment.CHUNK + 7, theta_steps=3,
                        threads=threads, threshold_sweep=sweep_range)
        run = sweep.sweep_theta if sweep_range is None \
            else sweep.sweep_threshold
        outputs.append(rows_to_csv(*run(cfg)))
        assert os.sched_getaffinity(0) == mask
    assert pools == [1, 2, 3]
    assert outputs == [outputs[0]] * 3


def test_a_threaded_sweep_loads_no_process_pool():
    # Importing multiprocessing and concurrent.futures would cost a
    # --threads run more than its second worker gains on a short sweep.
    proc = _run_python(
        "import os, sys, threading\n"
        "from eprbsim import cli, sweep\n"
        "sweep._usable_cpus = lambda: 2\n"
        "pool, pools = sweep._pool_map, []\n"
        "sweep._pool_map = lambda tasks, workers: pools.append(workers) \\\n"
        "    or pool(tasks, workers)\n"
        "assert cli.main(['--n', '1000', '--theta-steps', '2', '--threads',\n"
        "                 '2', '--out', os.devnull]) == 0\n"
        "assert pools == [2], pools\n"
        "loaded = {'multiprocessing', 'concurrent.futures'} \\\n"
        "    & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert threading.enumerate() == [threading.main_thread()]\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mode,sweep_range", [
    ("cfd", None), ("noncfd", None), ("cfd", (-0.9995, -0.99, 4))])
def test_rows_do_not_depend_on_worker_count(mode, sweep_range, monkeypatch):
    pools, _ = _spy_pools(monkeypatch, cpus=3)
    outputs = []
    for threads in (1, 2, 3):
        cfg = RunConfig(mode=mode, n=1500, theta_steps=5, threads=threads,
                        threshold_sweep=sweep_range)
        run = sweep.sweep_theta if sweep_range is None \
            else sweep.sweep_threshold
        outputs.append(rows_to_csv(*run(cfg)))
    assert pools == [1, 2, 3]
    assert outputs == [outputs[0]] * 3


SWEEPS = [("cfd", None), ("noncfd", None), ("cfd", (-0.9995, -0.99, 4))]


@pytest.mark.parametrize("mode,sweep_range", SWEEPS,
                         ids=["cfd", "noncfd", "threshold-sweep"])
def test_dump_changes_neither_rows_nor_worker_count(mode, sweep_range,
                                                    tmp_path, monkeypatch):
    # A dump run walks its points in this thread: it calls no pool and
    # starts no thread.
    pools, started = _spy_pools(monkeypatch, cpus=2)
    rows, dumps = set(), set()
    for threads in (1, 2):
        for dump in (None, tmp_path / f"trials{threads}.csv"):
            cfg = RunConfig(mode=mode, n=700, theta_steps=3, threads=threads,
                            threshold_sweep=sweep_range, dump_trials=dump)
            run = sweep.sweep_theta if sweep_range is None \
                else sweep.sweep_threshold
            pooled = len(pools), len(started)
            rows.add(rows_to_csv(*run(cfg)))
            if dump is not None:
                assert (len(pools), len(started)) == pooled
                dumps.add(dump.read_bytes())
    assert pools == [1, 2]
    assert len(started) == 1
    assert len(rows) == 1
    assert len(dumps) == 1


# Trials of a CFD point split into blocks (sweep.BLOCK_CHUNKS CHUNKs each)
# at their edges; CHUNK is 64 here.
SPLITS = [1, 63, 64, 65, 3 * sweep.BLOCK_CHUNKS * 64 + 5]


def _split_outputs(cfg, run, points, backend, monkeypatch):
    """The rows, and the trial dump where cfg has one, of run(cfg), a
    sweep of points, at --threads 1, 2 and 3 under the pass backend, with
    CHUNK = 64.  A dump run must call no pool and start no thread."""
    monkeypatch.setattr(kernels, "BACKEND", backend)
    monkeypatch.setattr(experiment, "CHUNK", 64)
    pools, started = _spy_pools(monkeypatch, cpus=3)
    outputs = []
    for threads in (1, 2, 3):
        cfg.threads = threads
        rows = rows_to_csv(*run(cfg))
        outputs.append((rows, cfg.dump_trials
                        and pathlib.Path(cfg.dump_trials).read_bytes()))
    if cfg.dump_trials:
        assert (pools, started) == ([], [])
    else:
        tasks = points * -(-cfg.n // (64 * sweep.BLOCK_CHUNKS))
        assert pools == [min(t, tasks) for t in (1, 2, 3)]
    return outputs


@pytest.mark.parametrize("dump", [False, True], ids=["rows", "dump"])
@pytest.mark.parametrize("backend", PASSES)
@pytest.mark.parametrize("n", SPLITS)
def test_a_split_point_gives_the_bytes_of_the_whole(n, backend, dump,
                                                    tmp_path, monkeypatch):
    cfg = RunConfig(n=n, theta_steps=1, theta_start=THETA_38,
                    theta_end=THETA_38, dump_trials=dump and str(
                        tmp_path / "trials.csv") or None)
    outputs = _split_outputs(cfg, sweep_theta, 1, backend, monkeypatch)
    counts = cfd_counts(cfg.model_params(), SettingsQuad.for_theta(THETA_38),
                        n, rng.derive_seed(cfg.seed, 0))
    whole = rows_to_csv(sweep.THETA_COLUMNS, [
        _cfd_row(THETA_38, counts, n, cfg.seed, cfg.delta_denominator)])
    assert outputs[0][0] == whole
    assert outputs == [outputs[0]] * 3
    if dump:
        assert len(outputs[0][1].splitlines()) == 1 + n


@pytest.mark.parametrize("dump", [False, True], ids=["rows", "dump"])
@pytest.mark.parametrize("backend", PASSES)
def test_a_sweep_of_fewer_points_than_workers_splits_them(backend, dump,
                                                          tmp_path,
                                                          monkeypatch):
    cfg = RunConfig(n=SPLITS[-1], threshold_sweep=(-0.9995, -0.99, 2),
                    dump_trials=dump and str(tmp_path / "trials.csv")
                    or None)
    outputs = _split_outputs(cfg, sweep.sweep_threshold, 2, backend,
                             monkeypatch)
    assert outputs == [outputs[0]] * 3
    monkeypatch.setattr(sweep, "BLOCK_CHUNKS", 10**6)  # a task per point
    cfg.threads = 1
    assert rows_to_csv(*sweep.sweep_threshold(cfg)) == outputs[0][0]


@pytest.mark.parametrize("mode", ["cfd", "noncfd"])
def test_a_dumped_sweep_passes_each_trial_once(mode, tmp_path, monkeypatch):
    # Trials through experiment._pass per point seed: a dump run's rows
    # are the counts of the trials it dumps, with no second pass, under
    # each pass.  The rows-only walk is numpy's: the compiled pass counts
    # a rows-only point without experiment._pass.
    make, passed = experiment._pass, {}

    def counted(cfd, params, quad, seed, *args, **kwargs):
        chunk = make(cfd, params, quad, seed, *args, **kwargs)

        def run(start, n):
            passed[seed] = passed.get(seed, 0) + n
            return chunk(start, n)
        return run

    monkeypatch.setattr(experiment, "_pass", counted)
    monkeypatch.setattr(experiment, "CHUNK", 64)
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    cfg = RunConfig(mode=mode, n=300, theta_steps=3)
    rows = rows_to_csv(*sweep_theta(cfg))
    walked = passed.copy()
    seeds = [rng.derive_seed(cfg.seed, i) for i in range(3)]
    cfg.dump_trials = str(tmp_path / "trials.csv")
    for backend in PASSES:
        monkeypatch.setattr(kernels, "BACKEND", backend)
        passed.clear()
        assert rows_to_csv(*sweep_theta(cfg)) == rows
        assert sorted(passed) == sorted(seeds)
        assert passed == walked
        if mode == "cfd":
            assert passed == dict.fromkeys(seeds, 300)


def _traced_peak(point) -> int:
    tracemalloc.start()
    try:
        point()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_point_memory_stays_bounded(monkeypatch):
    for backend in PASSES:
        monkeypatch.setattr(kernels, "BACKEND", backend)
        assert _traced_peak(lambda: sweep._point_counts(
            "cfd", ModelParams(threshold=-0.999), THETA_38, 1_000_000,
            3)) < 32 * 2**20


def test_streamed_noncfd_point_memory_stays_bounded(monkeypatch):
    # 4e6 kept trials of about 4.1e6 drawn; a whole-point run of them
    # peaks at ~220 MB.
    for backend in PASSES:
        monkeypatch.setattr(kernels, "BACKEND", backend)
        assert _traced_peak(lambda: sweep._point_counts(
            "noncfd", ModelParams(threshold=-0.999), THETA_38, 1_000_000,
            3)) < 32 * 2**20


def test_sweep_bookkeeping_does_not_grow_with_n(monkeypatch):
    # 4 points of 1e9 CFD trials are 15,260 blocks of 2^18 trials: the
    # sweep holds neither a task nor counts per block.  Each block's
    # counts are its trials at state 255, all +1 and all identified.
    def block(mode, params, theta, n, seed, span):
        return [0] * 255 + [span[1] - span[0]]

    monkeypatch.setattr(sweep, "_point_counts", block)
    peaks = [_traced_peak(lambda: sweep_theta(RunConfig(n=n, theta_steps=4)))
             for n in (10**8, 10**9)]
    assert peaks[1] < peaks[0] + 2**15, peaks


@pytest.mark.parametrize("mode,n", [("cfd", 300_000), ("noncfd", 50_000)])
def test_dumped_point_memory_stays_bounded(mode, n, tmp_path):
    # The dump is written a chunk at a time: 7.3 MB (CFD) and 8.1 MB
    # (non-CFD) traced, against 53 MB and 31 MB when each point's whole
    # arrays were kept.
    cfg = RunConfig(mode=mode, n=n, theta_steps=1, theta_start=THETA_38,
                    theta_end=THETA_38, dump_trials=str(tmp_path / "t.csv"))
    assert _traced_peak(lambda: sweep_theta(cfg)) < 16 * 2**20


def test_state_counts_reject_outcomes_outside_signs():
    flags = np.ones(3, np.uint8)
    with pytest.raises(RuntimeError, match="outside"):
        state_counts([np.array([1, 0, -1], np.int8)], [flags])
    counts = state_counts([np.array([1, -1, -1], np.int8)], [flags])
    assert counts.tolist() == [0, 0, 2, 1]


def test_noncfd_counts_hold_every_record():
    quad = SettingsQuad.for_theta(0.2)
    point = reference.noncfd_point(ModelParams(), quad, 700, 9)
    assert point.counts.shape == (4, 16)
    assert point.counts.sum(axis=1).tolist() == [700] * 4
    assert np.array_equal(noncfd_counts(ModelParams(), quad, 700, 9),
                          point.counts)


def _walked(backend, monkeypatch):
    """Short chunks of the pass backend, so that a point runs many."""
    monkeypatch.setattr(kernels, "BACKEND", backend)
    monkeypatch.setattr(experiment, "CHUNK", 64)


@pytest.mark.parametrize("backend", PASSES)
def test_noncfd_runs_walk_the_chunks_of_noncfd_counts(backend, monkeypatch):
    _walked(backend, monkeypatch)
    quad, quota, seed = SettingsQuad.for_theta(0.4), 300, 17
    runs = list(run_noncfd(ModelParams(), quad, quota, seed))
    assert len(runs) > 2
    for run in runs:  # each run's counts are its own records' states
        pair = 2 * (run.a[:, 0] == quad.a1p) + (run.a[:, 1] == quad.a2p)
        own = [state_counts(run.x[pair == p].T, run.w[pair == p].T)
               for p in range(4)]
        assert np.array_equal(run.counts, own)
    assert np.array_equal(sum(run.counts for run in runs),
                          noncfd_counts(ModelParams(), quad, quota, seed))
    assert np.all(np.diff(np.concatenate([run.k for run in runs])) > 0)
    # The walk stops at the chunk that fills the last pair.
    held = np.cumsum([run.counts.sum(axis=1) for run in runs], axis=0)
    assert held[-1].tolist() == [quota] * 4
    assert np.all(held[:-1].min(axis=1) < quota)


@pytest.mark.skipif(kernels.CPASS is None, reason="no compiled pass")
def test_the_compiled_quota_cut_stops_at_the_trial_that_fills_the_last_pair():
    # The trial that fills the last pair is the last one run_noncfd keeps.
    quad, quota, seed = SettingsQuad.for_theta(0.4), 300, 17
    last = max(int(run.k[-1]) for run in
               run_noncfd(ModelParams(), quad, quota, seed))
    want = noncfd_counts(ModelParams(), quad, quota, seed)
    whole = experiment._compiled(False, ModelParams(), quad, seed, quota)
    assert whole.add(0, 10**6) == last + 1
    assert whole.held[:] == [quota] * 4
    assert whole.add(last + 1, 100) == 0  # every pair holds its quota
    # In calls of 77 trials, which end inside blocks of the pass.
    pieces, start = experiment._compiled(False, ModelParams(), quad, seed,
                                         quota), 0
    while min(pieces.held) < quota:
        start += pieces.add(start, 77)
    assert start == last + 1
    for point in (whole, pieces):
        assert [point.hist[16 * p:16 * p + 16] for p in range(4)] == want


@pytest.mark.parametrize("chunk,theta,quota,seeds", [
    (32, 1.1, 300, range(1, 6)),  # pairs that fill in different chunks
    (experiment.CHUNK, 0.5, 100_000, range(3)),  # theta-noncfd's shape
], ids=["short-chunks", "theta-noncfd"])
def test_a_noncfd_chunk_is_cut_only_where_a_pair_overflows(
        chunk, theta, quota, seeds, monkeypatch):
    """experiment._quota_cut runs on exactly the chunks that drop a trial:
    those in which some pair drew more trials than its room.  At
    theta-noncfd's quota that is one chunk per point, where cutting each
    chunk in which some pair's room was below the chunk's length cut
    four."""
    monkeypatch.setattr(experiment, "CHUNK", chunk)
    cut, cuts = experiment._quota_cut, []

    def counted(states, room):
        cuts.append(room.copy())
        return cut(states, room)

    monkeypatch.setattr(experiment, "_quota_cut", counted)
    quad, length = SettingsQuad.for_theta(theta), 2 * chunk
    per_point = []
    for seed in seeds:
        cuts.clear()
        runs = list(run_noncfd(ModelParams(), quad, quota, seed))
        held = np.cumsum([[0] * 4] + [run.counts.sum(axis=1)
                                      for run in runs], axis=0)
        assert len(cuts) == sum(run.n < run.n_trials for run in runs)
        per_point.append((len(cuts),
                          int(np.sum((quota - held[:-1]).min(axis=1)
                                     < length))))
    if quota == 100_000:
        assert per_point == [(1, 4)] * len(seeds)
    else:
        assert max(c for c, _ in per_point) > 1


@pytest.mark.parametrize("backend", PASSES)
def test_cfd_counts_are_the_runs_of_the_dump(backend, monkeypatch):
    _walked(backend, monkeypatch)
    quad, n, seed = SettingsQuad.for_theta(0.4), 300, 17
    runs = [run_cfd(ModelParams(), quad, min(64, n - start), seed, start)
            for start in range(0, n, 64)]
    assert np.array_equal(sum(run.counts for run in runs),
                          cfd_counts(ModelParams(), quad, n, seed))


def test_cfd_counts_validate_arguments():
    q = SettingsQuad.for_theta(0.0)
    with pytest.raises(ValueError):
        cfd_counts(ModelParams(), q, 0, 1)
    with pytest.raises(ValueError):
        cfd_counts(ModelParams(), q, 10, -3)
    assert run_cfd(ModelParams(), q, 1, 0).counts.sum() == 1
    for quota, seed in ((0, 1), (10, -3)):
        with pytest.raises(ValueError):
            noncfd_counts(ModelParams(), q, quota, seed)
        with pytest.raises(ValueError):
            list(run_noncfd(ModelParams(), q, quota, seed))
