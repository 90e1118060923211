"""Label-routed dispatch of requests to skillpacks.

Routing is deterministic: every request carries an explicit task label and
the label is the skillpack key. A batch's requests are stacked once, grouped
by label (preserving order within a group), and the whole stack runs through
the shared backbone as one matmul per batch. Each group's rows then get
their skillpack's integer path added in one call, and the outputs are
scattered back to the original request positions. Grouped execution
quantizes activations request by request, so a batched run reproduces
sequential per-request runs code for code on the integer path.

An unknown label or malformed request activations (not 2-D, wrong width,
non-finite) abort the whole batch before any compute, keeping the
batched == sequential equivalence unconditional.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import archive, kernel
from .errors import RoutingError, ShapeError, ValidationError
from .kernel import CompiledSkillLayer, ForwardDiag, forward_full
from .packio import Skillpack


@dataclass
class ForwardRequest:
    task_id: str
    x: np.ndarray  # (T, C_i) float32


@dataclass
class Batch:
    requests: list[ForwardRequest] = field(default_factory=list)


@dataclass
class SkillRegistry:
    """Loaded skillpacks plus the backbone they attach to.

    `target_layer` names the backbone entry this registry serves; every
    registered pack must contain that layer with matching shapes.
    """

    backbone: dict[str, np.ndarray]
    target_layer: str
    packs: dict[str, Skillpack] = field(default_factory=dict)

    def __post_init__(self):
        if self.target_layer not in self.backbone:
            raise ValidationError(f"backbone has no layer {self.target_layer!r}")
        for task_id, pack in self.packs.items():
            for name, layer in pack.layers.items():
                if name not in self.backbone:
                    raise ShapeError(f"pack {task_id!r} references unknown layer {name!r}")
                w = self.backbone[name]
                if (layer.c_in, layer.c_out) != w.shape:
                    raise ShapeError(
                        f"pack {task_id!r} layer {name!r} is {layer.c_in}x{layer.c_out}, backbone is {w.shape}"
                    )
            if self.target_layer not in pack.layers:
                raise ShapeError(f"pack {task_id!r} lacks the serving layer {self.target_layer!r}")

    def route(self, request: ForwardRequest) -> str:
        """Check one request's label and activations; runs no compute."""
        if request.task_id not in self.packs:
            raise RoutingError(request.task_id)
        x = request.x
        w = self.backbone[self.target_layer]
        if x.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"request activations {x.shape} do not match backbone {w.shape}")
        if not np.isfinite(x).all():
            raise ValidationError(f"request for {request.task_id!r} has non-finite activations")
        return request.task_id

    def serving_layer(self, task_id: str) -> CompiledSkillLayer:
        return self.packs[task_id].layers[self.target_layer]


def dispatch_batch(batch: Batch, registry: SkillRegistry, diag: ForwardDiag | None = None) -> list[np.ndarray]:
    """Stack the batch by task, run one backbone matmul, add each group's
    skill path, scatter to original order.

    Raises before any compute when any label is unknown or any request's
    activations are malformed, so a failed batch produces no partial
    results.
    """
    for req in batch.requests:
        registry.route(req)
    if not batch.requests:
        return []

    groups: dict[str, list[int]] = {}
    for idx, req in enumerate(batch.requests):
        groups.setdefault(req.task_id, []).append(idx)
    order = [i for indices in groups.values() for i in indices]
    x = np.vstack([batch.requests[i].x for i in order], dtype=np.float32)
    out = forward_full(registry.backbone[registry.target_layer], None, x)

    outputs: list[np.ndarray | None] = [None] * len(batch.requests)
    start = 0
    for task_id, indices in groups.items():
        blocks = [batch.requests[i].x.shape[0] for i in indices]
        end = start + sum(blocks)
        layer = registry.serving_layer(task_id)
        # Looked up on the module so tracers that patch kernel.forward_quantized see it.
        out[start:end] += kernel.forward_quantized(layer, x[start:end], diag=diag, row_blocks=blocks)
        for i, size in zip(indices, blocks):
            outputs[i] = out[start : start + size]
            start += size
    return outputs  # type: ignore[return-value]


def dispatch_sequential(batch: Batch, registry: SkillRegistry) -> list[np.ndarray]:
    """Per-request execution in request order; the dispatch oracle."""
    for req in batch.requests:
        registry.route(req)
    w = registry.backbone[registry.target_layer]
    return [
        forward_full(w, registry.serving_layer(req.task_id), req.x.astype(np.float32))
        for req in batch.requests
    ]


# ---------------------------------------------------------------------------
# Offline request stream: JSON lines in, FTZ archive keyed by index out.


def load_request_stream(path: str | os.PathLike) -> Batch:
    """Parse a JSON-lines request stream.

    Each line is {"task": <label>, "x": <payload>} where the payload is
    either inline row data (a list of rows or one flat row) or a string
    "<archive>::<entry>" naming an FTZ entry. Relative archive paths
    resolve against the stream's directory.
    """
    spath = os.fspath(path)
    root = os.path.dirname(os.path.abspath(spath))
    requests: list[ForwardRequest] = []
    entry_cache: dict[str, dict[str, np.ndarray]] = {}
    with open(spath, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                body = json.loads(line)
                task = body["task"]
                payload = body["x"]
            except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or UTF-8
                raise ValidationError(f"{spath}:{lineno}: malformed request line ({exc})") from exc
            if isinstance(payload, str):
                if "::" not in payload:
                    raise ValidationError(f"{spath}:{lineno}: tensor reference must look like 'file.ftz::entry'")
                archive_path, entry = payload.split("::", 1)
                if not os.path.isabs(archive_path):
                    archive_path = os.path.join(root, archive_path)
                if archive_path not in entry_cache:
                    try:
                        entry_cache[archive_path] = dict(archive.read_archive(archive_path))
                    except ValueError as exc:  # a path open() refuses, such as one with a NUL
                        raise ValidationError(f"{spath}:{lineno}: bad archive path ({exc})") from exc
                if entry not in entry_cache[archive_path]:
                    raise ValidationError(f"{spath}:{lineno}: no entry {entry!r} in {archive_path}")
                x = entry_cache[archive_path][entry]
            else:
                try:
                    arr = np.asarray(payload, dtype=np.float64)
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ValidationError(f"{spath}:{lineno}: bad inline row data ({exc})") from exc
                if not (np.abs(arr) <= np.finfo(np.float32).max).all():  # NaN fails too
                    raise ValidationError(f"{spath}:{lineno}: inline values must be finite and within float32 range")
                if arr.ndim == 1:
                    arr = arr.reshape(1, -1)
                if arr.ndim != 2 or arr.size == 0:
                    raise ValidationError(f"{spath}:{lineno}: inline data must be one row or a list of rows")
                x = arr.astype(np.float32)
            requests.append(ForwardRequest(task_id=str(task), x=x))
    return Batch(requests=requests)


def write_outputs(outputs: list[np.ndarray], path: str | os.PathLike) -> None:
    """Store dispatch outputs as an FTZ archive keyed by request index."""
    archive.write_archive(path, [(str(i), out.astype(np.float32)) for i, out in enumerate(outputs)])
