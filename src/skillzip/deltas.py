"""Task deltas: extraction, shared-component merging, re-centering.

A task delta is the per-layer elementwise difference between a fine-tuned
weight set and its base. Merging pools several task deltas into a shared
component that gets folded into the backbone; re-centering subtracts it
back out of each delta so what remains is the task-specific residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError


@dataclass
class TaskDelta:
    task_id: str
    layers: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class MergePlan:
    """How the shared component is pooled from task deltas.

    method "mean" is the plain elementwise average; "trimmed-mean" drops
    floor(tau*K) values from each tail per element first. The coefficient
    scales the pooled result; 1.0 keeps the re-centering identity exact.
    """

    method: str = "mean"
    tau: float = 0.0
    coefficient: float = 1.0

    def __post_init__(self):
        if self.method not in ("mean", "trimmed-mean"):
            raise ValidationError(f"unknown merge method {self.method!r}")
        if not (0.0 <= self.tau < 0.5):
            raise ValidationError("tau must lie in [0, 0.5)")
        if not (0.0 <= self.coefficient <= 2.0):
            raise ValidationError("coefficient must be finite and in [0, 2]")


def _check_same_layers(deltas: list[TaskDelta]) -> list[str]:
    names = list(deltas[0].layers)
    name_set = set(names)
    for d in deltas[1:]:
        if set(d.layers) != name_set:
            raise ShapeError(f"delta {d.task_id!r} has a different layer set")
        for n in names:
            if d.layers[n].shape != deltas[0].layers[n].shape:
                raise ShapeError(f"layer {n!r} shape mismatch between deltas")
    return names


def _f32(name: str, op, *args) -> np.ndarray:
    """op(*args) cast to float32; a non-finite result (an overflow past the
    float32 range) raises ValidationError naming the layer."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(*args).astype(np.float32)
    if not np.isfinite(out).all():
        raise ValidationError(f"layer {name!r}: values are not finite in float32")
    return out


def extract_delta(base: dict[str, np.ndarray], tuned: dict[str, np.ndarray], task_id: str) -> TaskDelta:
    """Per-layer tuned - base. Entry names and shapes must match exactly."""
    if set(base.keys()) != set(tuned.keys()):
        missing = set(base.keys()) ^ set(tuned.keys())
        raise ShapeError(f"base/tuned entry names differ: {sorted(missing)}")
    layers = {}
    for name, w0 in base.items():
        w1 = tuned[name]
        if w0.shape != w1.shape:
            raise ShapeError(f"layer {name!r}: base {w0.shape} vs tuned {w1.shape}")
        layers[name] = _f32(name, np.subtract, w1, w0)
    return TaskDelta(task_id, layers)


def merge_shared(deltas: list[TaskDelta], plan: MergePlan) -> TaskDelta:
    """Pool task deltas into one shared component.

    Permutation invariant over the input list: mean is symmetric and the
    trimmed mean sorts per element before dropping tails.
    """
    if len(deltas) < 2:
        raise ValidationError("merging needs at least two task deltas")
    names = _check_same_layers(deltas)
    k = len(deltas)
    out: dict[str, np.ndarray] = {}
    for n in names:
        stack = np.stack([d.layers[n] for d in deltas]).astype(np.float64)
        if plan.method == "mean":
            pooled = stack.mean(axis=0)
        else:
            drop = int(np.floor(plan.tau * k))
            stack.sort(axis=0)
            kept = stack[drop : k - drop] if drop else stack
            pooled = kept.mean(axis=0)
        out[n] = _f32(n, np.multiply, plan.coefficient, pooled)
    return TaskDelta("shared", out)


def recenter(deltas: list[TaskDelta], shared: TaskDelta) -> tuple[TaskDelta, list[TaskDelta]]:
    """Subtract the shared component from each delta.

    Returns (backbone_update, residuals); backbone_update is the shared
    component itself, and residual_i + shared == delta_i exactly where
    float32 can represent it.
    """
    _check_same_layers([shared, *deltas])
    residuals = [
        TaskDelta(d.task_id, {n: _f32(n, np.subtract, d.layers[n], shared.layers[n]) for n in d.layers})
        for d in deltas
    ]
    return TaskDelta("shared", dict(shared.layers)), residuals


def apply_delta(base: dict[str, np.ndarray], delta: TaskDelta) -> dict[str, np.ndarray]:
    """base + delta, layerwise; used to fold the shared component into the
    backbone."""
    out = {}
    for name, w in base.items():
        if name in delta.layers:
            if delta.layers[name].shape != w.shape:
                raise ShapeError(f"layer {name!r}: backbone {w.shape} vs delta {delta.layers[name].shape}")
            out[name] = _f32(name, np.add, w, delta.layers[name])
        else:
            out[name] = w
    return out
