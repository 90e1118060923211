"""End-to-end compression: deltas in, backbone plus skillpacks out.

The config is checked when it is built, and the task ids, the rank and
finiteness of every input array and the calibration shapes before any
compute. Per task and per layer the stages are: channel-wise smoothing of
the delta by its layer's calibration `profile`, truncated SVD with the
square-root energy split, rotation selection over seeded orthogonal
candidates, quantization of both factors (optionally with GPTQ refinement
of the output factor), and mid-scale calibration. Before any of that, the
shared component across tasks is merged into the backbone and subtracted
from each delta. Every stage can be toggled off independently, which is
what the ablation harness exercises.

Each (task, layer) is one job: its residual, its smoothing factors (from
`compute_smooth`, here) and its raw held calibration rows. The job smooths
both, runs truncated SVD, square-root split, rotation search and fold, and
prefixes any package error with its task and layer. The jobs run in a fork
pool of min(jobs, usable CPUs) workers when there are two or more jobs,
two or more CPUs in `os.sched_getaffinity`, a process allowed to start
children and a loaded OpenBLAS whose thread count can be set; else here,
where no job after the first failing one runs. Either way the first
failing job in (task, layer) order raises, and a worker that dies raises
ChildProcessError. While the pool is open this process holds OpenBLAS at
one thread, which the workers inherit, so no worker starts a helper thread
that spins beside the others. Quantization, GPTQ and mid-scale
calibration then run here, in (task, layer) order at the restored thread
count. The results are the same bits either way.

All randomness flows from one master seed through labeled child streams
(`task/layer` labels), so runs are reproducible and independent of task
processing order.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .archive import check_name
from .deltas import MergePlan, TaskDelta, apply_delta, extract_delta, merge_shared, recenter
from .errors import ShapeError, SkillzipError, ValidationError
from .kernel import compile_layer
from .lowrank import RankPolicy, split_factors, truncated_svd
from .packio import MAX_TASK_ID_BYTES, Skillpack, manifest_for
from .prng import Prng
from .quant import QuantConfig
from .smoothing import DEFAULT_ALPHA, DEFAULT_CANDIDATES, DEFAULT_EPSILON, MAX_CANDIDATES, apply_smooth, compute_smooth
from .smoothing import check_smooth_params, fold_rotation, profile, select_rotation


@dataclass(frozen=True)
class Toggles:
    merge: bool = True
    smooth: bool = True
    rotate: bool = True
    gptq: bool = True


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of one compression run; serializes to canonical JSON."""

    merge_plan: MergePlan = MergePlan()
    alpha: float = DEFAULT_ALPHA
    epsilon: float = DEFAULT_EPSILON
    rank_mode: str = "auto"  # auto | fixed | energy
    rank_value: float = 0.0
    quant: QuantConfig = QuantConfig()
    n_candidates: int = DEFAULT_CANDIDATES
    seed: int = 0
    toggles: Toggles = Toggles()

    def __post_init__(self):
        self.rank_policy(1)  # the rank mode and value checks
        check_smooth_params(self.alpha, self.epsilon)  # checked even with smoothing off: they go into provenance
        if not 0 <= self.n_candidates <= MAX_CANDIDATES:
            raise ValidationError(f"n_candidates must lie in 0..{MAX_CANDIDATES}, got {self.n_candidates}")

    def rank_policy(self, min_dim: int) -> RankPolicy:
        if self.rank_mode == "auto":
            return RankPolicy.fixed(max(1, min_dim // 8))
        if self.rank_mode == "fixed":
            return RankPolicy.fixed(self.rank_value)
        if self.rank_mode == "energy":
            return RankPolicy.energy(self.rank_value)
        raise ValidationError(f"unknown rank mode {self.rank_mode!r}")

    def to_canonical_json(self) -> str:
        return json.dumps(_canonical_body(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str | bytes) -> "PipelineConfig":
        """Parse canonical JSON; missing keys take their defaults.

        Unknown keys, non-objects, leaves of the wrong JSON type and numbers
        beyond the float64 range (NaN and Infinity included) raise
        ValidationError. An int is accepted where a float is expected and
        kept as given, so re-serialization reproduces the input values.
        """
        try:
            body = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, bytes that are not UTF-8, too many digits
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        fields = _conform(body, _canonical_body(PipelineConfig()), "config")
        rank = fields.pop("rank")
        return PipelineConfig(
            merge_plan=MergePlan(**fields.pop("merge")),
            rank_mode=rank["mode"],
            rank_value=rank["value"],
            quant=QuantConfig(**fields.pop("quant")),
            toggles=Toggles(**fields.pop("toggles")),
            **fields,
        )


def _canonical_body(config: PipelineConfig) -> dict:
    """The dataclass fields as nested dicts, under their JSON names."""
    body = asdict(config)
    body["merge"] = body.pop("merge_plan")
    body["rank"] = {"mode": body.pop("rank_mode"), "value": body.pop("rank_value")}
    return body


_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _conform(value, template, where: str):
    """Check `value` against the structure and leaf types of `template`,
    filling absent keys from it."""
    if isinstance(template, dict):
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be a JSON object")
        for key in value:
            if key not in template:
                raise ValidationError(f"unknown key {where}.{key}")
        return {
            key: _conform(value[key], default, f"{where}.{key}") if key in value else default
            for key, default in template.items()
        }
    allowed = (int, float) if type(template) is float else type(template)
    if isinstance(value, bool) != isinstance(template, bool) or not isinstance(value, allowed):
        raise ValidationError(f"{where} must be a JSON {_JSON_KINDS[type(template)]}, got {value!r}")
    if type(template) is float and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{where} must be a finite float64 number, got {value!r}")
    return value


@dataclass
class CompressionResult:
    backbone: dict[str, np.ndarray]
    shared: TaskDelta | None
    packs: dict[str, Skillpack]


@contextmanager
def _blame(task_id: str, layer_name: str):
    """Prefix a package error raised inside with the task and layer it concerns."""
    try:
        yield
    except SkillzipError as exc:
        raise type(exc)(f"task {task_id!r} layer {layer_name!r}: {exc}") from exc


def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS loaded in this
    process, found through /proc/self/maps; None when there is none."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1]})
        handles = [ctypes.CDLL(lib) for lib in libs]
    except OSError:  # no procfs (not Linux), or a mapped file that is gone
        return None
    for handle in handles:
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads", "openblas_{}_num_threads64_"):
            get, put = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get and put:
                get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


def _factor(job):
    """One (task, layer) job: smooth, SVD -> split -> rotation search ->
    fold, giving (a, b, rotation_index), with any package error prefixed by
    the job's task and layer. Also the pool worker entry: it calls this
    module's `truncated_svd`, `split_factors`, `select_rotation` and
    `fold_rotation` by name, so a patched attribute (a tracer's wrapper, a
    test's spy) runs in the forked worker and is never pickled."""
    task_id, name, residual, s, held, config, rng = job
    with _blame(task_id, name):
        held, w_s = apply_smooth(held, residual, s)
        a, b = split_factors(truncated_svd(w_s, config.rank_policy(min(w_s.shape))))
        if not (config.toggles.rotate and a.shape[1] > 1):
            return a, b, 0
        choice = select_rotation(a, b, held, config.quant, rng, config.n_candidates)
        if choice.candidate_index != 0:
            a, b = fold_rotation(a, b, choice.q)
        return a, b, choice.candidate_index


def _factor_all(jobs: list[tuple]) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """`_factor` of every job, in job order, in the fork pool that the module
    notes describe or else here. A worker that dies raises ChildProcessError,
    prefixed with the first job whose result it lost. Fork, not spawn: two
    spawned workers import numpy and skillzip afresh, ~0.4 s. The one-thread
    hold is set here, not in a worker initializer: set in a forked child, it
    restarts OpenBLAS's thread pool (2-vCPU VM, numpy 2.4.6: the child had 2
    OS threads, and 20 GEMMs of 400x400 took 0.09-0.13 s CPU in 0.05-0.07 s
    wall, against 1 thread and 0.047 s CPU and wall with this hold)."""
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pooled = len(jobs) > 1 and cpus > 1 and not multiprocessing.current_process().daemon
    blas = _blas_threads() if pooled else None
    if not blas:
        return list(map(_factor, jobs))
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    get, put = blas
    threads = get()
    put(1)  # inherited by the workers: each runs its GEMMs itself and starts no spinning helper thread
    results = []
    try:
        with ProcessPoolExecutor(min(len(jobs), cpus), mp_context=multiprocessing.get_context("fork")) as pool:
            results.extend(pool.map(_factor, jobs))  # a worker's error is re-raised at its job's position
    except BrokenProcessPool as exc:
        task_id, name = jobs[len(results)][:2]  # extend keeps the results taken before the failure
        raise ChildProcessError(f"task {task_id!r} layer {name!r}: {exc}") from exc
    finally:
        put(threads)  # after the pool has shut down
    return results


def compress(
    base: dict[str, np.ndarray],
    tuned: dict[str, dict[str, np.ndarray]],
    calib: dict[str, np.ndarray],
    config: PipelineConfig,
) -> CompressionResult:
    """Full multi-task compression.

    `tuned` maps task id to its weight archive; `calib` maps layer name to
    calibration activations (T x C_i, T >= 1). Merging requires at least
    two tasks and is skipped (with the toggle honored) for a single task.
    """
    if not tuned:
        raise ValidationError("no tuned weight sets given")
    for task_id, weights in tuned.items():
        check_name(task_id, MAX_TASK_ID_BYTES, "task id")
        for layer_name, w in weights.items():
            if w.ndim != 2:
                raise ShapeError(f"task {task_id!r} layer {layer_name!r}: weights are {w.shape}, not 2-D")
            if not np.isfinite(w).all():
                raise ValidationError(f"task {task_id!r} layer {layer_name!r}: weights hold non-finite values")
    for layer_name, w in base.items():
        if w.ndim != 2:
            raise ShapeError(f"base layer {layer_name!r} is {w.shape}, not 2-D")
        if config.rank_mode == "fixed" and int(config.rank_value) > min(w.shape):
            raise ValidationError(f"base layer {layer_name!r}: rank {int(config.rank_value)} exceeds min dimension {min(w.shape)}")
        if not np.isfinite(w).all():
            raise ValidationError(f"base layer {layer_name!r} holds non-finite values")
        if layer_name not in calib:
            raise ValidationError(f"calibration activations missing for layer {layer_name!r}")
        x = calib[layer_name]
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"calibration activations for layer {layer_name!r} are {x.shape}, not T x {w.shape[0]}, T >= 1")
        if not np.isfinite(x).all():
            raise ValidationError(f"calibration activations for layer {layer_name!r} hold non-finite values")

    deltas = [extract_delta(base, weights, task_id) for task_id, weights in tuned.items()]

    shared: TaskDelta | None = None
    if config.toggles.merge and len(deltas) >= 2:
        shared = merge_shared(deltas, config.merge_plan)
        _, residuals = recenter(deltas, shared)
        backbone = apply_delta(base, shared)
    else:
        residuals = deltas
        backbone = dict(base)

    mean_abs = profile({name: calib[name] for name in base})
    master = Prng(config.seed)

    jobs = []
    for residual in residuals:
        for name in sorted(residual.layers):
            delta, x = residual.layers[name], calib[name]
            if config.toggles.smooth:
                s = compute_smooth(mean_abs[name], delta, config.alpha, config.epsilon)
            else:
                s = np.ones(delta.shape[0], dtype=np.float32)
            held = x[: max(1, x.shape[0] // 2)]  # the rows rotation selection scores on
            jobs.append((residual.task_id, name, delta, s, held, config, master.spawn(f"{residual.task_id}/{name}")))

    layers: dict[str, dict] = {residual.task_id: {} for residual in residuals}
    for (task_id, name, _, s, _, _, _), (a, b, rotation_index) in zip(jobs, _factor_all(jobs)):
        with _blame(task_id, name):
            layers[task_id][name] = compile_layer(
                name, s, a, b, config.quant, x_calib=calib[name], use_gptq=config.toggles.gptq, rotation_index=rotation_index
            )
    packs: dict[str, Skillpack] = {}
    for task_id, task_layers in layers.items():
        pack = Skillpack(task_id=task_id, layers=task_layers)
        pack.manifest = manifest_for(pack, provenance=_canonical_body(config))
        packs[task_id] = pack
    return CompressionResult(backbone=backbone, shared=shared, packs=packs)
