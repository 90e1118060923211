"""Fidelity reporting: compressed pipeline versus the float oracle.

The per-layer metric is the Frobenius error of the integer-path output
against X @ delta, relative to the signal norm (epsilon-guarded so a zero
delta scores zero). The aggregate weights layers by squared signal norm so
tiny layers cannot dominate. Baseline compressors (plain truncated SVD in
float, 1-bit sign+scale) produce the same report schema, so methods are
directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import bench
from .deltas import extract_delta
from .errors import ShapeError, ValidationError
from .kernel import ForwardDiag, forward_full, forward_quantized
from .lowrank import split_factors, truncated_svd
from .packio import Skillpack, compression_ratio
from .pipeline import PipelineConfig, compress
from .quant import bitdelta_compress, bitdelta_dequantize
from .tensors import fro_norm, matmul

SIGNAL_EPS = 1e-12


@dataclass
class LayerFidelity:
    rel_error: float
    signal_norm: float
    flops_dense: int
    flops_lowrank: int
    mid_saturated: int
    forward_seconds: float


@dataclass
class FidelityReport:
    method: str
    per_layer: dict[str, LayerFidelity] = field(default_factory=dict)
    aggregate_rel_error: float = 0.0
    compression_ratio: float = 0.0

    def finalize(self) -> "FidelityReport":
        weights = {n: lf.signal_norm**2 for n, lf in self.per_layer.items()}
        total = sum(weights.values())
        if total > 0:
            self.aggregate_rel_error = sum(weights[n] * lf.rel_error for n, lf in self.per_layer.items()) / total
        else:
            self.aggregate_rel_error = 0.0
        return self

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "aggregate_rel_error": self.aggregate_rel_error,
            "compression_ratio": self.compression_ratio,
            "per_layer": {n: asdict(lf) for n, lf in sorted(self.per_layer.items())},
        }

    def to_text_table(self) -> str:
        lines = [
            f"method: {self.method}",
            f"aggregate relative error: {self.aggregate_rel_error:.6e}",
            f"compression ratio: {self.compression_ratio:.3f}",
            f"{'layer':<16}{'rel_error':>14}{'signal':>12}{'dense MAdd':>14}{'lowrank MAdd':>14}{'mid sat':>9}",
        ]
        for n, lf in sorted(self.per_layer.items()):
            lines.append(
                f"{n:<16}{lf.rel_error:>14.6e}{lf.signal_norm:>12.4g}"
                f"{lf.flops_dense:>14d}{lf.flops_lowrank:>14d}{lf.mid_saturated:>9d}"
            )
        return "\n".join(lines)


def _check_layers(shapes: dict[str, tuple[int, int]], deltas: dict[str, np.ndarray], eval_x: dict[str, np.ndarray]) -> None:
    """Refuse a missing reference delta or activation layer, or one not shaped like `shapes`."""
    for name, shape in shapes.items():
        if name not in deltas:
            raise ValidationError(f"reference delta missing layer {name!r}")
        if deltas[name].shape != shape:
            raise ShapeError(f"layer {name!r}: reference delta is {deltas[name].shape}, not {shape}")
        if name not in eval_x:
            raise ValidationError(f"evaluation activations missing layer {name!r}")
        if eval_x[name].ndim != 2 or eval_x[name].shape[1] != shape[0]:
            raise ShapeError(f"evaluation activations for layer {name!r} are {eval_x[name].shape}, not T x {shape[0]}")


def _score(report: FidelityReport, deltas: dict[str, np.ndarray], eval_x: dict[str, np.ndarray], forwards: dict) -> FidelityReport:
    """The one per-layer scoring loop. `forwards` maps a layer name to
    (forward(x, diag), rank); only the forward is timed."""
    for name, (forward, rank) in forwards.items():
        x, delta = eval_x[name], deltas[name]
        ref = matmul(x, delta)
        diag = ForwardDiag()
        start = time.perf_counter()
        approx = forward(x, diag)
        seconds = time.perf_counter() - start
        signal = fro_norm(ref)
        report.per_layer[name] = LayerFidelity(
            rel_error=fro_norm(ref - approx) / max(signal, SIGNAL_EPS),
            signal_norm=signal,
            flops_dense=bench.flops_dense(x.shape[0], *delta.shape),
            flops_lowrank=bench.flops_lowrank(x.shape[0], *delta.shape, rank),
            mid_saturated=diag.mid_saturated,
            forward_seconds=seconds,
        )
    return report.finalize()


def eval_pack(pack: Skillpack, reference_delta: dict[str, np.ndarray], eval_x: dict[str, np.ndarray]) -> FidelityReport:
    """Score one skillpack against the float oracle on held-out activations."""
    _check_layers({n: (layer.c_in, layer.c_out) for n, layer in pack.layers.items()}, reference_delta, eval_x)
    forwards = {n: (partial(forward_quantized, layer), layer.rank) for n, layer in pack.layers.items()}
    return _score(FidelityReport("skillzip", compression_ratio=compression_ratio(pack)), reference_delta, eval_x, forwards)


def total_delta_error(
    base: dict[str, np.ndarray],
    backbone: dict[str, np.ndarray],
    packs: dict[str, Skillpack],
    tuned: dict[str, dict[str, np.ndarray]],
    eval_x: dict[str, np.ndarray],
) -> float:
    """Model-level reconstruction error across all tasks and layers.

    Measures how well backbone + skillpack reproduces each tuned model's
    full delta on held-out activations, relative to that delta's signal.
    The ground truth is independent of how compression split shared from
    task-specific content, so different toggle settings are comparable.
    """
    missing = sorted(set(packs) - set(tuned))
    if missing:
        raise ValidationError(f"tuned weights missing for task(s) {missing}")
    shared = extract_delta(base, backbone, "backbone").layers
    deltas = {task_id: extract_delta(base, tuned[task_id], task_id).layers for task_id in packs}
    for task_id, pack in packs.items():
        _check_layers({n: (layer.c_in, layer.c_out) for n, layer in pack.layers.items()}, deltas[task_id], eval_x)
    err_sq = sig_sq = 0.0
    for task_id, pack in packs.items():
        delta = deltas[task_id]
        for name, layer in pack.layers.items():
            x = eval_x[name]
            ref = matmul(x, delta[name])
            err_sq += fro_norm(ref - forward_full(shared[name], layer, x)) ** 2
            sig_sq += fro_norm(ref) ** 2
    return float(np.sqrt(err_sq / max(sig_sq, SIGNAL_EPS)))


# ---------------------------------------------------------------------------
# Baseline compressors under the same report schema


def _svd_fp_layer(delta: np.ndarray, config: PipelineConfig) -> tuple[np.ndarray, int, int]:
    """Truncated SVD kept in float32, no quantization."""
    a, b = split_factors(truncated_svd(delta, config.rank_policy(min(delta.shape))))
    return matmul(a, b), a.shape[1], 4 * (a.size + b.size)


def _bitdelta_layer(delta: np.ndarray, config: PipelineConfig) -> tuple[np.ndarray, int, int]:
    """1-bit sign grid with one mean-absolute scale per layer."""
    signs, scale = bitdelta_compress(delta)
    return bitdelta_dequantize(signs, scale), min(delta.shape), (delta.size + 7) // 8 + 4


def _float_baseline(method, layer_fn, deltas, eval_x, config) -> FidelityReport:
    """Score a float approximation of each layer's delta.

    `layer_fn(delta, config)` returns (approximate delta, rank, stored bytes);
    the approximation is applied in float, so no layer saturates."""
    fits = {name: layer_fn(delta, config) for name, delta in deltas.items()}  # run_baseline refuses zero layers
    ratio = sum(4 * delta.size for delta in deltas.values()) / sum(stored for _, _, stored in fits.values())
    forwards = {name: (lambda x, diag, w=w: matmul(x, w), rank) for name, (w, rank, _) in fits.items()}
    return _score(FidelityReport(method, compression_ratio=ratio), deltas, eval_x, forwards)


BASELINES = ("bitdelta", "skillzip", "svd-fp")


def run_baseline(
    method: str,
    base: dict[str, np.ndarray],
    tuned_one: dict[str, np.ndarray],
    calib: dict[str, np.ndarray],
    eval_x: dict[str, np.ndarray],
    config: PipelineConfig,
) -> FidelityReport:
    """Score one method on one tuned set; inputs are checked before it runs.
    "skillzip" is the full pipeline on a single task (merging is a no-op
    for K=1)."""
    if method not in BASELINES:
        raise ValidationError(f"unknown method {method!r}; available: {', '.join(BASELINES)}")
    if not base:
        raise ValidationError("a baseline needs at least one layer")
    deltas = extract_delta(base, tuned_one, "baseline").layers
    _check_layers({n: d.shape for n, d in deltas.items()}, deltas, eval_x)
    if method == "skillzip":
        return eval_pack(compress(base, {"baseline": tuned_one}, calib, config).packs["baseline"], deltas, eval_x)
    return _float_baseline(method, _svd_fp_layer if method == "svd-fp" else _bitdelta_layer, deltas, eval_x, config)


# ---------------------------------------------------------------------------
# Delta similarity diagnostics


def delta_similarity(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> tuple[float, float]:
    """(cosine, sign consistency) over the flattened concatenation of layers.

    The cosine uses every element; sign consistency averages sign(a)*sign(b)
    over positions where both are nonzero. Layer names and shapes must match.
    """
    if set(a) != set(b) or not a:
        raise ValidationError("deltas must cover the same, non-empty layer set")
    for n in a:
        if a[n].shape != b[n].shape:
            raise ShapeError(f"layer {n!r}: {a[n].shape} vs {b[n].shape}")
    flat_a = np.concatenate([a[n].reshape(-1).astype(np.float64) for n in sorted(a)])
    flat_b = np.concatenate([b[n].reshape(-1).astype(np.float64) for n in sorted(b)])
    na, nb = np.linalg.norm(flat_a), np.linalg.norm(flat_b)
    cosine = float(flat_a @ flat_b / (na * nb)) if na > 0 and nb > 0 else 0.0
    both = (flat_a != 0) & (flat_b != 0)
    if both.any():
        sign_consistency = float(np.mean(np.sign(flat_a[both]) * np.sign(flat_b[both])))
    else:
        sign_consistency = 0.0
    return cosine, sign_consistency
