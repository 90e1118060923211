"""End-to-end compression: deltas in, backbone plus skillpacks out.

The config is checked when it is built, and the task ids and calibration
inputs before any compute. Per task and per layer the stages are:
channel-wise smoothing of the delta by its layer's calibration `profile`,
truncated SVD with the square-root energy split, rotation selection over
seeded orthogonal candidates, quantization of both factors (optionally
with GPTQ refinement of the output factor), and mid-scale calibration.
Before any of that, the shared component across tasks is merged into the
backbone and subtracted from each delta. Every stage can be toggled off
independently, which is what the ablation harness exercises.

All randomness flows from one master seed through labeled child streams
(`task/layer` labels), so runs are reproducible and independent of task
processing order.
"""

from __future__ import annotations

import json
import sys
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


def compress_layer_delta(
    name: str,
    delta: np.ndarray,
    x_calib: np.ndarray,
    mean_abs: np.ndarray,
    config: PipelineConfig,
    rng: Prng,
):
    """One layer through smooth -> SVD -> rotate -> quantize; returns the
    compiled layer."""
    c_in, c_out = delta.shape
    if config.toggles.smooth:
        s = compute_smooth(mean_abs, delta, config.alpha, config.epsilon)
    else:
        s = np.ones(c_in, dtype=np.float32)
    x_s, w_s = apply_smooth(x_calib, delta, s)

    policy = config.rank_policy(min(c_in, c_out))
    svd = truncated_svd(w_s, policy)
    a, b = split_factors(svd)

    rotation_index = 0
    if config.toggles.rotate and a.shape[1] > 1:
        held = x_s[: max(1, x_s.shape[0] // 2)]  # held slice for selection
        choice = select_rotation(a, b, held, config.quant, rng, config.n_candidates)
        rotation_index = choice.candidate_index
        if rotation_index != 0:
            a, b = fold_rotation(a, b, choice.q)

    layer = compile_layer(
        name,
        s,
        a,
        b,
        config.quant,
        x_calib=x_calib,
        use_gptq=config.toggles.gptq,
        rotation_index=rotation_index,
    )
    return layer


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
    for task_id in tuned:
        check_name(task_id, MAX_TASK_ID_BYTES, "task id")
    for layer_name, w in base.items():
        if layer_name not in calib:
            raise ValidationError(f"calibration activations missing for layer {layer_name!r}")
        x = calib[layer_name]
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"calibration activations for layer {layer_name!r} are {x.shape}, not T x {w.shape[0]}, T >= 1")

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

    packs: dict[str, Skillpack] = {}
    for residual in residuals:
        layers = {}
        for layer_name in sorted(residual.layers):
            try:
                layers[layer_name] = compress_layer_delta(
                    layer_name,
                    residual.layers[layer_name],
                    calib[layer_name],
                    mean_abs[layer_name],
                    config,
                    master.spawn(f"{residual.task_id}/{layer_name}"),
                )
            except SkillzipError as exc:
                raise type(exc)(f"task {residual.task_id!r} layer {layer_name!r}: {exc}") from exc
        pack = Skillpack(task_id=residual.task_id, layers=layers)
        pack.manifest = manifest_for(pack, provenance=_canonical_body(config))
        packs[residual.task_id] = pack
    return CompressionResult(backbone=backbone, shared=shared, packs=packs)
