import hashlib
import json
import multiprocessing
import os
import re
import signal
import time

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillzip import MergePlan, QuantConfig, ShapeError, ValidationError, write_archive
from skillzip.cli import main
from skillzip.evaluate import eval_pack, total_delta_error
from skillzip.fixtures import make_suite
from skillzip.packio import serialize_skillpack
from skillzip.pipeline import PipelineConfig, Toggles, compress
from skillzip.smoothing import MAX_CANDIDATES
from mutate import HOSTILE_VALUES, byte_ops, leaf_paths, mutate_bytes, substitute


def _small_suite(seed=0, **kw):
    defaults = dict(
        n_tasks=2,
        n_layers=2,
        c_in=48,
        c_out=40,
        calib_tokens=16,
        eval_tokens=16,
        shared_rank=6,
        task_rank=3,
        outlier_channels=2,
    )
    defaults.update(kw)
    return make_suite(seed, **defaults)


def _fast_config(**kw):
    defaults = dict(rank_mode="fixed", rank_value=6, n_candidates=2, seed=3)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_identical_tuned_sets_give_zero_residual_packs():
    suite = _small_suite()
    task_a = next(iter(suite.tuned))
    tuned = {"a": suite.tuned[task_a], "b": {n: m.copy() for n, m in suite.tuned[task_a].items()}}
    result = compress(suite.base, tuned, suite.calib, _fast_config())
    for pack in result.packs.values():
        for layer in pack.layers.values():
            assert not layer.a_hat.codes.any()
            assert not layer.b_hat.codes.any()


def test_single_task_compresses_raw_delta():
    suite = _small_suite()
    task = next(iter(suite.tuned))
    result = compress(suite.base, {task: suite.tuned[task]}, suite.calib, _fast_config())
    # No merging happened: backbone equals base bitwise.
    for name in suite.base:
        assert np.array_equal(result.backbone[name], suite.base[name])
    assert result.shared is None
    assert set(result.packs) == {task}


def test_merge_folds_shared_into_backbone():
    suite = _small_suite()
    result = compress(suite.base, suite.tuned, suite.calib, _fast_config())
    assert result.shared is not None
    changed = any(not np.array_equal(result.backbone[n], suite.base[n]) for n in suite.base)
    assert changed


def test_compress_deterministic_bytes():
    suite = _small_suite()
    config = _fast_config()
    r1 = compress(suite.base, suite.tuned, suite.calib, config)
    r2 = compress(suite.base, suite.tuned, suite.calib, config)
    for task in r1.packs:
        assert serialize_skillpack(r1.packs[task]) == serialize_skillpack(r2.packs[task])


def test_seed_changes_rotation_stream():
    suite = _small_suite()
    r1 = compress(suite.base, suite.tuned, suite.calib, _fast_config(seed=1))
    r2 = compress(suite.base, suite.tuned, suite.calib, _fast_config(seed=2))
    # Same fixture, different candidate streams; packs may legitimately
    # coincide only if both selected the identity everywhere.
    b1 = b"".join(serialize_skillpack(p) for p in r1.packs.values())
    b2 = b"".join(serialize_skillpack(p) for p in r2.packs.values())
    idx1 = [l.rotation_index for p in r1.packs.values() for l in p.layers.values()]
    idx2 = [l.rotation_index for p in r2.packs.values() for l in p.layers.values()]
    assert b1 != b2 or idx1 == idx2 == [0] * len(idx1)


def test_toggles_recorded_in_manifest():
    suite = _small_suite()
    config = _fast_config(toggles=Toggles(merge=True, smooth=False, rotate=False, gptq=False))
    result = compress(suite.base, suite.tuned, suite.calib, config)
    pack = next(iter(result.packs.values()))
    assert pack.manifest is not None
    assert pack.manifest.provenance["toggles"] == {
        "merge": True,
        "smooth": False,
        "rotate": False,
        "gptq": False,
    }
    assert all(entry["rotation_candidate"] == 0 for entry in pack.manifest.layers)


def test_disabling_rotation_keeps_format():
    suite = _small_suite()
    on = compress(suite.base, suite.tuned, suite.calib, _fast_config())
    off = compress(suite.base, suite.tuned, suite.calib, _fast_config(toggles=Toggles(rotate=False)))
    task = next(iter(on.packs))
    data_on = serialize_skillpack(on.packs[task])
    data_off = serialize_skillpack(off.packs[task])
    assert len(data_on) == len(data_off)  # same layout, different codes only


def test_missing_calibration_layer():
    suite = _small_suite()
    calib = dict(suite.calib)
    calib.pop(next(iter(calib)))
    with pytest.raises(ValidationError, match="calibration"):
        compress(suite.base, suite.tuned, calib, _fast_config())


@pytest.mark.parametrize(
    "shape, match",
    [((0, 48), r"\(0, 48\)"), ((16, 47), r"\(16, 47\)"), ((16,), r"\(16,\)"), ((2, 16, 48), "")],
    ids=["no-rows", "wrong-width", "one-dimensional", "three-dimensional"],
)
def test_bad_calibration_matrix_rejected_before_any_compute(monkeypatch, shape, match):
    import skillzip.pipeline

    calls = []
    monkeypatch.setattr(skillzip.pipeline, "extract_delta", lambda *a: calls.append(a))
    suite = _small_suite()
    calib = dict(suite.calib)
    calib[sorted(calib)[-1]] = np.ones(shape, dtype=np.float32)
    with pytest.raises(ShapeError, match=f"calibration activations for layer 'layer1' are {match}"):
        compress(suite.base, suite.tuned, calib, _fast_config())
    assert calls == []


@pytest.mark.parametrize(
    "where,match",
    [("base", "base layer 'layer1' holds"), ("tuned", "task {second!r} layer 'layer1': weights hold"),
     ("calib", "calibration activations for layer 'layer1' hold")],
    ids=["base", "tuned", "calib"],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_inputs_rejected_before_any_compute(monkeypatch, where, match, value):
    """A NaN or inf in the base, in the second task's weights or in the
    calibration activations is refused, naming where it is, before any delta
    is taken."""
    import skillzip.pipeline

    calls = []
    monkeypatch.setattr(skillzip.pipeline, "extract_delta", lambda *a: calls.append(a))
    suite = _small_suite()
    base, calib = dict(suite.base), dict(suite.calib)
    tuned = {task: dict(weights) for task, weights in suite.tuned.items()}
    second = list(tuned)[1]
    target = {"base": base, "tuned": tuned[second], "calib": calib}[where]
    target["layer1"] = target["layer1"].copy()
    target["layer1"][1, 2] = value
    with pytest.raises(ValidationError, match=f"^{match.format(second=second)} non-finite values$"):
        compress(base, tuned, calib, _fast_config())
    assert calls == []


@pytest.mark.parametrize("where", ["base", "tuned"])
@pytest.mark.parametrize("shape", [(48,), (48, 40, 1)], ids=["1-D", "3-D"])
def test_non_two_d_weights_rejected_before_any_compute(monkeypatch, where, shape):
    """A base or tuned weight that is not 2-D is refused, naming where it
    is, before any delta is taken; a 1-D base of C_in values used to pass
    the calibration check."""
    import skillzip.pipeline

    calls = []
    monkeypatch.setattr(skillzip.pipeline, "extract_delta", lambda *a: calls.append(a))
    suite = _small_suite()
    base = dict(suite.base)
    tuned = {task: dict(weights) for task, weights in suite.tuned.items()}
    second = list(tuned)[1]
    {"base": base, "tuned": tuned[second]}[where]["layer1"] = np.ones(shape, dtype=np.float32)
    message = {"base": "base layer 'layer1' is", "tuned": f"task {second!r} layer 'layer1': weights are"}[where]
    with pytest.raises(ShapeError, match=f"^{re.escape(f'{message} {shape}, not 2-D')}$"):
        compress(base, tuned, suite.calib, _fast_config())
    assert calls == []


def test_fixed_rank_above_a_layer_side_rejected_before_any_compute(monkeypatch):
    """A fixed rank above a layer's smaller side is refused, naming the
    layer, before any delta is taken."""
    import skillzip.pipeline

    calls = []
    monkeypatch.setattr(skillzip.pipeline, "extract_delta", lambda *a: calls.append(a))
    suite = _small_suite()
    with pytest.raises(ValidationError, match="^base layer 'layer0': rank 41 exceeds min dimension 40$"):
        compress(suite.base, suite.tuned, suite.calib, _fast_config(rank_value=41))
    assert calls == []


@pytest.mark.parametrize("where", ["tuned", "merge"])
def test_float32_overflow_in_deltas_raises_validation_error(where):
    """Finite weights whose delta, or merged delta, overflows float32 are
    refused naming the layer, not carried on to a late smoothing error."""
    ones = np.ones((8, 8), dtype=np.float32)
    base = {"l": -3e38 * ones if where == "tuned" else 0 * ones}
    tuned = {"a": {"l": 3e38 * ones}, "b": {"l": 3e38 * ones}}
    config = PipelineConfig(merge_plan=MergePlan(coefficient=2.0 if where == "merge" else 1.0))
    with pytest.raises(ValidationError, match="^layer 'l': values are not finite in float32$"):
        compress(base, tuned, {"l": ones[:4]}, config)


# Four exact-path layers (auto rank 8 on 96 x 64); the digests are the
# in-process packs'.
POOL_SUITE = dict(n_tasks=2, n_layers=2, c_in=96, c_out=64, calib_tokens=24, eval_tokens=8)
POOL_DIGESTS = {
    "code": "7e31884750984f762d0f1509d7bcb0a72b7a6aa0d05ca452a038f1850c9b1279",
    "math": "525498798bc5affd1b331c3a75db6b6049752ed1cb6f69429e4c7a5d002e6992",
}


def _spy_svd(monkeypatch, log, fail=None):
    """Patch pipeline.truncated_svd, which forked workers inherit, to log
    the pid that runs each call, or to raise from `fail(w)` when it gives
    a message."""
    import skillzip.lowrank
    import skillzip.pipeline

    def spy(w, policy):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        message = fail(w) if fail else None
        if message:
            raise ValidationError(message)
        return skillzip.lowrank.truncated_svd(w, policy)

    monkeypatch.setattr(skillzip.pipeline, "truncated_svd", spy)


def _pids(log):
    return [int(line) for line in log.read_text().split()]


def _pool_suite_digests():
    suite = make_suite(13, **POOL_SUITE)
    result = compress(suite.base, suite.tuned, suite.calib, PipelineConfig(seed=4, n_candidates=3))
    return {t: hashlib.sha256(serialize_skillpack(p)).hexdigest() for t, p in result.packs.items()}


def test_pool_packs_match_in_process_bytes(monkeypatch, tmp_path):
    """With two usable CPUs the four exact-path decompositions run in
    worker processes; with one they run here. The packs are the same bytes."""
    for cpus, in_workers in (({0}, False), ({0, 1}, True)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        log = tmp_path / f"pids{len(cpus)}"
        _spy_svd(monkeypatch, log)
        assert _pool_suite_digests() == POOL_DIGESTS
        pids = _pids(log)
        assert len(pids) == 4 and all((pid != os.getpid()) == in_workers for pid in pids)
        assert multiprocessing.active_children() == []


def test_mixed_call_factors_every_layer_in_workers(monkeypatch, tmp_path):
    """A call with both exact-path and sketched layers runs every
    decomposition and every rotation search in a worker, and its packs are
    the bytes of the one-CPU run, which runs them all here."""
    import skillzip.lowrank
    import skillzip.pipeline
    import skillzip.smoothing

    suite, wide = make_suite(13, **POOL_SUITE), make_suite(14, **{**POOL_SUITE, "n_layers": 1, "c_in": 128, "c_out": 128})
    base, calib = {**suite.base, "wide": wide.base["layer0"]}, {**suite.calib, "wide": wide.calib["layer0"]}
    tuned = {task: {**weights, "wide": wide.tuned[task]["layer0"]} for task, weights in suite.tuned.items()}
    config = PipelineConfig(seed=4, n_candidates=3)  # auto rank: 96 x 64 exact, 128 x 128 sketched
    log = tmp_path / "calls"

    def spy(name, fn, describe):
        def logged(*args):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{name}:{describe(*args)}:{os.getpid()}\n")
            return fn(*args)

        monkeypatch.setattr(skillzip.pipeline, name, logged)

    spy("truncated_svd", skillzip.lowrank.truncated_svd, lambda w, policy: skillzip.lowrank.exact_path(w.shape, policy))
    spy("select_rotation", skillzip.smoothing.select_rotation, lambda *args: "")
    digests, calls = [], []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        result = compress(base, tuned, calib, config)
        digests.append({t: hashlib.sha256(serialize_skillpack(p)).hexdigest() for t, p in result.packs.items()})
        calls.append([line.rsplit(":", 1) for line in log.read_text().split()])
        log.unlink()
        assert multiprocessing.active_children() == []
    assert digests[0] == digests[1]
    for run, here in zip(calls, (True, False)):
        assert sorted(call for call, _ in run) == sorted(["truncated_svd:True"] * 4 + ["truncated_svd:False"] * 2 + ["select_rotation:"] * 6)
        assert all((int(pid) == os.getpid()) == here for _, pid in run)


def _blas():
    import skillzip.pipeline

    blas = skillzip.pipeline._blas_threads()
    if blas is None:
        pytest.skip("numpy loaded no OpenBLAS whose thread count can be set")
    return blas


def test_pool_holds_blas_at_one_thread_and_restores_it(monkeypatch, tmp_path):
    """While the pool is open, a worker reads one OpenBLAS thread; after
    compress() the parent's count is what it was, also when a worker job
    raised."""
    import skillzip.lowrank
    import skillzip.pipeline

    get, put = _blas()
    before = get()
    log = tmp_path / "threads"

    def spy(fail):
        def logged(w, policy):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {get()}\n")
            if fail:
                raise ValidationError("worker job failed")
            return skillzip.lowrank.truncated_svd(w, policy)

        monkeypatch.setattr(skillzip.pipeline, "truncated_svd", logged)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    try:
        put(2)
        spy(fail=False)
        assert _pool_suite_digests() == POOL_DIGESTS
        assert get() == 2
        spy(fail=True)
        with pytest.raises(ValidationError, match="worker job failed$"):
            _pool_suite_digests()
        assert get() == 2
    finally:
        put(before)
    rows = [line.split() for line in log.read_text().splitlines()]
    assert len(rows) == 8 and all(int(pid) != os.getpid() and threads == "1" for pid, threads in rows)
    assert multiprocessing.active_children() == []


def test_no_blas_control_keeps_compress_in_process(monkeypatch, tmp_path):
    """When no OpenBLAS thread control is found, compress() opens no pool,
    even with two CPUs, and gives the same bytes."""
    import skillzip.pipeline

    monkeypatch.setattr(skillzip.pipeline, "_blas_threads", lambda: None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _spy_svd(monkeypatch, tmp_path / "pids")
    assert _pool_suite_digests() == POOL_DIGESTS
    assert _pids(tmp_path / "pids") == [os.getpid()] * 4


def test_compress_in_a_daemonic_process_stays_in_process(monkeypatch):
    """A daemonic process may not start children, so compress() there runs
    every decomposition itself, to the same bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with multiprocessing.get_context("fork").Pool(1) as outer:
        assert outer.apply_async(_pool_suite_digests).get(timeout=120) == POOL_DIGESTS


def test_worker_error_keeps_class_prefix_and_order(monkeypatch, tmp_path):
    """A ValidationError raised in a worker surfaces as in-process: same
    class, same task/layer prefix, and the first failing job in order wins
    even when later ones fail sooner, also when the first failure is a
    compile here and the later ones are factorings in the workers. No
    worker outlives compress()."""
    suite = make_suite(13, **POOL_SUITE)
    config = PipelineConfig(seed=4, n_candidates=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    jobs = []  # each smoothed matrix's bytes, in job order: (task, layer) order
    _spy_svd(monkeypatch, tmp_path / "probe", lambda w: jobs.append(w.tobytes()))
    compress(suite.base, suite.tuned, suite.calib, config)
    assert len(set(jobs)) == 4

    def fail(w):  # job 0 succeeds, job 1 fails late, jobs 2 and 3 fail at once
        job = jobs.index(w.tobytes())
        if job == 1:
            time.sleep(0.3)
        return f"job {job} failed" if job else None

    messages = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        log = tmp_path / f"pids{len(cpus)}"
        _spy_svd(monkeypatch, log, fail)
        with pytest.raises(ValidationError) as info:
            compress(suite.base, suite.tuned, suite.calib, config)
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages == [f"task {list(suite.tuned)[0]!r} layer 'layer1': job 1 failed"] * 2
    assert all(pid != os.getpid() for pid in _pids(log))

    import skillzip.pipeline

    def compile_fails(name, *args, **kwargs):  # job 0's compile, here, as its factors arrive
        raise ValidationError("compile failed")

    monkeypatch.setattr(skillzip.pipeline, "compile_layer", compile_fails)
    for cpus in ({0}, {0, 1}):  # an earlier compile failure wins over the later factor failures
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with pytest.raises(ValidationError, match=f"^task {list(suite.tuned)[0]!r} layer 'layer0': compile failed$"):
            compress(suite.base, suite.tuned, suite.calib, config)
        assert multiprocessing.active_children() == []


def test_an_early_pool_error_leaves_most_jobs_unstarted(monkeypatch, tmp_path):
    """When job 0 of a 20-job pooled call fails, in its worker or in its
    compile here, compress() raises without starting the other jobs: the
    unwinding loop closes the pool's map, which cancels every queued
    future, so only those already handed to a worker run."""
    import skillzip.pipeline

    suite = make_suite(13, n_tasks=4, n_layers=5, c_in=24, c_out=16, calib_tokens=8, eval_tokens=4, shared_rank=4, task_rank=2)
    config = PipelineConfig(seed=4, n_candidates=1)
    first = f"task {list(suite.tuned)[0]!r} layer 'layer0': "
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    jobs = []  # each smoothed matrix's bytes, in job order
    _spy_svd(monkeypatch, tmp_path / "probe", lambda w: jobs.append(w.tobytes()))
    compress(suite.base, suite.tuned, suite.calib, config)
    assert len(set(jobs)) == len(jobs) == 20

    def slow(w, failing):  # every job takes 0.1 s: 1 s for all 20 on two workers
        time.sleep(0.1)
        return "job 0 failed" if failing and w.tobytes() == jobs[0] else None

    def compile_fails(name, *args, **kwargs):
        raise ValidationError("compile failed")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for where, message in (("worker", "job 0 failed"), ("compile", "compile failed")):
        if where == "compile":
            monkeypatch.setattr(skillzip.pipeline, "compile_layer", compile_fails)
        log = tmp_path / f"pids-{where}"
        _spy_svd(monkeypatch, log, lambda w: slow(w, where == "worker"))
        with pytest.raises(ValidationError, match=f"^{re.escape(first + message)}$"):
            compress(suite.base, suite.tuned, suite.calib, config)
        assert len(_pids(log)) < 20
        assert multiprocessing.active_children() == []


def test_in_process_jobs_stop_at_the_first_failure(monkeypatch, tmp_path):
    """With one usable CPU the jobs run here in (task, layer) order, and no
    job after the first failing one runs."""
    suite = make_suite(13, **POOL_SUITE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    log = tmp_path / "pids"
    _spy_svd(monkeypatch, log, lambda w: "job 1 failed" if len(_pids(log)) == 2 else None)
    with pytest.raises(ValidationError, match=f"^task {list(suite.tuned)[0]!r} layer 'layer1': job 1 failed$"):
        compress(suite.base, suite.tuned, suite.calib, PipelineConfig(seed=4, n_candidates=3))
    assert _pids(log) == [os.getpid()] * 2


def test_dead_worker_raises_child_process_error_and_exits_3(monkeypatch, tmp_path, capsys):
    """A worker killed by a signal raises ChildProcessError, prefixed with
    the first job whose result was lost, and `skillzip compress` exits 3
    with a one-line error. The BLAS count is restored and no child is left."""
    import skillzip.lowrank
    import skillzip.pipeline

    get, put = _blas()
    parent = os.getpid()

    def spy(w, policy):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return skillzip.lowrank.truncated_svd(w, policy)

    monkeypatch.setattr(skillzip.pipeline, "truncated_svd", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    suite = make_suite(13, **POOL_SUITE)
    first = list(suite.tuned)[0]
    paths = {name: tmp_path / f"{name}.ftz" for name in ("base", "calib", *suite.tuned)}
    for name, entries in {"base": suite.base, "calib": suite.calib, **suite.tuned}.items():
        write_archive(paths[name], sorted(entries.items()))
    argv = ["compress", "--base", str(paths["base"]), "--calib", str(paths["calib"]), "--out", str(tmp_path / "packs")]
    before = get()
    try:
        put(2)
        with pytest.raises(ChildProcessError, match=f"^task {first!r} layer 'layer0': "):
            _pool_suite_digests()
        assert get() == 2
        assert main([*argv, *(arg for task in suite.tuned for arg in ("--tuned", str(paths[task])))]) == 3
        assert get() == 2
    finally:
        put(before)
    err = capsys.readouterr().err
    assert err.startswith(f"error: task {first!r} layer 'layer0': ") and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_interrupt_during_the_pool_propagates_and_cleans_up(monkeypatch):
    """A KeyboardInterrupt while the pool's results are taken propagates as
    itself; the BLAS count is restored and no child is left."""
    from concurrent.futures import ProcessPoolExecutor

    get, put = _blas()
    real_map = ProcessPoolExecutor.map

    def interrupted(self, fn, *iterables, **kwargs):
        results = real_map(self, fn, *iterables, **kwargs)
        yield next(results)
        raise KeyboardInterrupt

    monkeypatch.setattr(ProcessPoolExecutor, "map", interrupted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = get()
    try:
        put(2)
        with pytest.raises(KeyboardInterrupt):
            _pool_suite_digests()
        assert get() == 2
    finally:
        put(before)
    assert multiprocessing.active_children() == []


def _mixed_suite():
    """Two 96 x 64 layers and one 128 x 128 layer per task."""
    suite, wide = make_suite(13, **POOL_SUITE), make_suite(14, **{**POOL_SUITE, "n_layers": 1, "c_in": 128, "c_out": 128})
    base, calib = {**suite.base, "wide": wide.base["layer0"]}, {**suite.calib, "wide": wide.calib["layer0"]}
    tuned = {task: {**weights, "wide": wide.tuned[task]["layer0"]} for task, weights in suite.tuned.items()}
    return base, tuned, calib


@pytest.mark.parametrize("rank_mode,rank_value", [("auto", 0.0), ("energy", 0.9)])
def test_pack_bytes_independent_of_blas_threads_and_placement(monkeypatch, rank_mode, rank_value):
    """The packs of a suite with exact-path and sketched layers are the same
    bytes at 1, 2 and 3 OpenBLAS threads, in-process and in the pool."""
    get, put = _blas()
    base, tuned, calib = _mixed_suite()
    config = PipelineConfig(seed=4, n_candidates=3, rank_mode=rank_mode, rank_value=rank_value)
    digests = []
    before = get()
    try:
        for threads in (1, 2, 3):
            put(threads)
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
                result = compress(base, tuned, calib, config)
                digests.append({t: hashlib.sha256(serialize_skillpack(p)).hexdigest() for t, p in result.packs.items()})
                assert get() == threads
    finally:
        put(before)
    assert len(digests) == 6 and all(d == digests[0] for d in digests)
    assert multiprocessing.active_children() == []


def test_eval_pack_reports_reasonable_error():
    suite = _small_suite()
    config = _fast_config()
    result = compress(suite.base, suite.tuned, suite.calib, config)
    task = next(iter(result.packs))
    reference = {n: (suite.tuned[task][n] - result.backbone[n]).astype(np.float32) for n in suite.base}
    report = eval_pack(result.packs[task], reference, suite.eval_x)
    assert 0.0 <= report.aggregate_rel_error < 0.5
    assert report.compression_ratio > 0
    for lf in report.per_layer.values():
        assert lf.rel_error >= 0
        assert lf.flops_dense >= lf.flops_lowrank


def test_total_delta_error_improves_with_everything_on():
    suite = make_suite(11, n_tasks=3, n_layers=1, c_in=128, c_out=128, shared_rank=14, task_rank=4)
    base_cfg = PipelineConfig(rank_mode="fixed", rank_value=16, n_candidates=4, seed=0)
    on = compress(suite.base, suite.tuned, suite.calib, base_cfg)
    off_cfg = replace(base_cfg, toggles=Toggles(False, False, False, False))
    off = compress(suite.base, suite.tuned, suite.calib, off_cfg)
    err_on = total_delta_error(suite.base, on.backbone, on.packs, suite.tuned, suite.eval_x)
    err_off = total_delta_error(suite.base, off.backbone, off.packs, suite.tuned, suite.eval_x)
    assert err_on <= err_off


def test_config_round_trip_canonical():
    config = PipelineConfig(
        merge_plan=MergePlan(method="trimmed-mean", tau=0.2, coefficient=0.9),
        alpha=0.55,
        epsilon=1e-4,
        rank_mode="fixed",
        rank_value=12,
        quant=QuantConfig(bits_x=8, bits_a=4, bits_b=4, gran_x="per-tensor", gran_b="per-tensor"),
        n_candidates=3,
        seed=99,
        toggles=Toggles(merge=False, smooth=True, rotate=False, gptq=True),
    )
    text = config.to_canonical_json()
    back = PipelineConfig.from_json(text)
    assert back == config
    assert back.to_canonical_json() == text


def test_config_rejects_bad_json():
    with pytest.raises(ValidationError):
        PipelineConfig.from_json("{not json")


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"seed": "x"}',
        '{"seed": true}',
        '{"alpha": null}',
        '{"quant": 5}',
        '{"toggles": {"merge": "no"}}',
        '{"n_candidates": 2.5}',
        '{"rank": {"mode": "fixed", "value": "7"}}',
        '{"sed": 1}',
    ],
)
def test_config_rejects_malformed_fields(text):
    with pytest.raises(ValidationError):
        PipelineConfig.from_json(text)


@pytest.mark.parametrize(
    "text, match",
    [
        ('{"rank": {"mode": "bogus"}}', "unknown rank mode"),
        ('{"rank": {"mode": "energy", "value": 1.5}}', "energy fraction"),
        ('{"rank": {"mode": "fixed", "value": 0.5}}', "fixed rank"),
        ('{"n_candidates": -1, "toggles": {"rotate": false}}', "n_candidates"),
        ('{"n_candidates": 257}', "n_candidates"),
        ('{"n_candidates": 1000000000}', "n_candidates"),
        ('{"alpha": 5}', "alpha"),
        ('{"alpha": -0.1, "toggles": {"smooth": false}}', "alpha"),
        ('{"epsilon": 0}', "epsilon"),
        ('{"epsilon": 1e39, "toggles": {"smooth": false}}', "epsilon"),
    ],
    ids=["rank-mode", "energy", "fixed", "negative-candidates", "candidates-above-cap", "huge-candidates",
         "alpha", "alpha-smoothing-off", "epsilon", "epsilon-smoothing-off"],
)
def test_config_values_checked_when_parsed(text, match):
    """Out-of-range values are refused by from_json itself, not later in
    compress (where a huge candidate count never returns)."""
    with pytest.raises(ValidationError, match=match):
        PipelineConfig.from_json(text)
    assert PipelineConfig.from_json(f'{{"n_candidates": {MAX_CANDIDATES}}}').n_candidates == MAX_CANDIDATES


def test_config_smooth_params_checked_when_built():
    """alpha and epsilon follow compute_smooth's rule from construction on,
    also with smoothing off, where compress never calls compute_smooth but
    still writes both into every pack's provenance."""
    with pytest.raises(ValidationError, match="alpha"):
        PipelineConfig(alpha=5.0, epsilon=-3.0)
    with pytest.raises(ValidationError, match="epsilon"):
        PipelineConfig(epsilon=-3.0, toggles=Toggles(smooth=False))
    with pytest.raises(ValidationError, match="alpha"):
        PipelineConfig(alpha=float("nan"))
    assert PipelineConfig(alpha=0.0, epsilon=float(np.finfo(np.float32).max)).alpha == 0.0
    assert PipelineConfig(alpha=1, toggles=Toggles(smooth=False)).alpha == 1


def test_config_partial_body_takes_defaults_and_keeps_ints():
    config = PipelineConfig.from_json('{"rank": {"value": 12}, "merge": {"tau": 0}}')
    assert config == replace(PipelineConfig(), rank_value=12, merge_plan=MergePlan(tau=0))
    text = config.to_canonical_json()
    assert '"tau": 0\n' in text and '"value": 12\n' in text
    assert PipelineConfig.from_json(text).to_canonical_json() == text


@pytest.mark.parametrize(
    "value",
    ["Infinity", "-Infinity", "NaN", "1e400", "0", "-2", "2.5", "1" + "0" * 400],
    ids=["inf", "-inf", "nan", "1e400", "zero", "negative", "fraction", "huge-int"],
)
def test_fixed_rank_must_be_a_finite_whole_number(value):
    """A fixed rank is a finite whole number >= 1; anything else is a
    ValidationError from from_json or rank_policy."""
    with pytest.raises(ValidationError):
        PipelineConfig.from_json(f'{{"rank": {{"mode": "fixed", "value": {value}}}}}').rank_policy(16)
    for rank in (float("inf"), float("nan"), 0, 2.5, 10**400):
        with pytest.raises(ValidationError):
            replace(PipelineConfig(), rank_mode="fixed", rank_value=rank).rank_policy(16)
    assert PipelineConfig.from_json('{"rank": {"mode": "fixed", "value": 16.0}}').rank_policy(16).value == 16


_CONFIG = json.loads(PipelineConfig(rank_mode="fixed", rank_value=4, n_candidates=2).to_canonical_json())
_CONFIG_LEAVES = sorted(leaf_paths(_CONFIG))


@settings(max_examples=200, deadline=None)
@given(
    mutation=st.one_of(
        st.tuples(st.just("substitute"), st.sampled_from(_CONFIG_LEAVES), st.sampled_from(HOSTILE_VALUES)),
        st.tuples(st.just("unknown-key"), st.sampled_from([(), ("quant",), ("rank",)]), st.text(max_size=4)),
        byte_ops,
    )
)
@example(mutation=("substitute", ("rank", "value"), float("inf")))
@example(mutation=("substitute", ("rank", "value"), float("nan")))
@example(mutation=("substitute", ("merge", "coefficient"), 10**400))
def test_mutated_config_raises_validation_error_only(mutation):
    """Substituted leaves, unknown keys, byte flips, truncation and
    insertion: parsing plus the rank policy either succeed or raise
    ValidationError."""
    op, where, what = mutation
    if op == "substitute":
        text = substitute(_CONFIG, where, what).encode()
    elif op == "unknown-key":
        text = substitute(_CONFIG, where + ("?" + what,), 1).encode()
    else:
        text = mutate_bytes(json.dumps(_CONFIG).encode(), op, where, what)
    try:
        PipelineConfig.from_json(text).rank_policy(16)
    except ValidationError:
        pass
