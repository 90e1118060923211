"""Fidelity reporting: compressed pipeline versus the float oracle.

The per-layer metric is the Frobenius error of the integer-path output
against X @ delta, relative to the signal norm (epsilon-guarded so a zero
delta scores zero). The aggregate weights layers by squared signal norm so
tiny layers cannot dominate. Baseline compressors (plain truncated SVD in
float, 1-bit sign+scale) produce the same report schema, so methods are
directly comparable; new method names can be registered.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import bench
from .deltas import TaskDelta
from .errors import ValidationError
from .kernel import ForwardDiag, forward_quantized
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


def _layer_entry(ref: np.ndarray, approx: np.ndarray, shape: tuple[int, int], tokens: int, rank: int, sat: int, seconds: float) -> LayerFidelity:
    signal = fro_norm(ref)
    err = fro_norm(ref - approx) / max(signal, SIGNAL_EPS)
    return LayerFidelity(
        rel_error=err,
        signal_norm=signal,
        flops_dense=bench.flops_dense(tokens, *shape),
        flops_lowrank=bench.flops_lowrank(tokens, *shape, rank),
        mid_saturated=sat,
        forward_seconds=seconds,
    )


def eval_pack(
    pack: Skillpack,
    reference_delta: dict[str, np.ndarray],
    eval_x: dict[str, np.ndarray],
    method: str = "skillzip",
) -> FidelityReport:
    """Score one skillpack against the float oracle on held-out activations."""
    report = FidelityReport(method=method, compression_ratio=compression_ratio(pack))
    for name, layer in pack.layers.items():
        if name not in reference_delta:
            raise ValidationError(f"reference delta missing layer {name!r}")
        if name not in eval_x:
            raise ValidationError(f"evaluation activations missing layer {name!r}")
        x = eval_x[name]
        ref = matmul(x, reference_delta[name])
        diag = ForwardDiag()
        start = time.perf_counter()
        approx = forward_quantized(layer, x, diag=diag)
        seconds = time.perf_counter() - start
        report.per_layer[name] = _layer_entry(
            ref, approx, (layer.c_in, layer.c_out), x.shape[0], layer.rank, diag.mid_saturated, seconds
        )
    return report.finalize()


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
    err_sq = 0.0
    sig_sq = 0.0
    for task_id, pack in packs.items():
        for name, layer in pack.layers.items():
            x = eval_x[name]
            ref = matmul(x, (tuned[task_id][name] - base[name]).astype(np.float32))
            folded = (backbone[name] - base[name]).astype(np.float32)
            approx = matmul(x, folded) + forward_quantized(layer, x)
            signal = fro_norm(ref)
            err = fro_norm(ref - approx)
            err_sq += err**2
            sig_sq += signal**2
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


def _float_baseline(method, layer_fn, base, tuned_one, calib, eval_x, config) -> FidelityReport:
    """Score a float approximation of each layer's delta.

    `layer_fn(delta, config)` returns (approximate delta, rank, stored bytes);
    the approximation is applied in float, so no layer saturates."""
    report = FidelityReport(method=method)
    dense_bytes = 0
    packed_bytes = 0
    for name in base:
        delta = (tuned_one[name] - base[name]).astype(np.float32)
        approx_delta, rank, stored = layer_fn(delta, config)
        dense_bytes += 4 * delta.size
        packed_bytes += stored
        x = eval_x[name]
        ref = matmul(x, delta)
        start = time.perf_counter()
        approx = matmul(x, approx_delta)
        seconds = time.perf_counter() - start
        report.per_layer[name] = _layer_entry(ref, approx, delta.shape, x.shape[0], rank, 0, seconds)
    report.compression_ratio = dense_bytes / packed_bytes if packed_bytes else 0.0
    return report.finalize()


def _skillzip_baseline(base, tuned_one, calib, eval_x, config) -> FidelityReport:
    """The full pipeline on a single task (merging is a no-op for K=1)."""
    result = compress(base, {"baseline": tuned_one}, calib, config)
    deltas = {n: (tuned_one[n] - base[n]).astype(np.float32) for n in base}
    return eval_pack(result.packs["baseline"], deltas, eval_x, method="skillzip")


# Method name -> callable(base, tuned_one, calib, eval_x, config) -> report.
# "asvd" is reserved: activation-weighted SVD is a known future method.
BASELINES = {
    "svd-fp": partial(_float_baseline, "svd-fp", _svd_fp_layer),
    "bitdelta": partial(_float_baseline, "bitdelta", _bitdelta_layer),
    "skillzip": _skillzip_baseline,
}


def run_baseline(
    method: str,
    base: dict[str, np.ndarray],
    tuned_one: dict[str, np.ndarray],
    calib: dict[str, np.ndarray],
    eval_x: dict[str, np.ndarray],
    config: PipelineConfig,
) -> FidelityReport:
    if method not in BASELINES:
        raise ValidationError(f"unknown method {method!r}; available: {', '.join(sorted(BASELINES))}")
    return BASELINES[method](base, tuned_one, calib, eval_x, config)


# ---------------------------------------------------------------------------
# Delta similarity diagnostics


def delta_similarity(a: TaskDelta | dict[str, np.ndarray], b: TaskDelta | dict[str, np.ndarray]) -> tuple[float, float]:
    """(cosine, sign consistency) over the flattened concatenation of layers.

    The cosine uses every element; sign consistency averages sign(a)*sign(b)
    over positions where both are nonzero.
    """
    la = a.layers if isinstance(a, TaskDelta) else a
    lb = b.layers if isinstance(b, TaskDelta) else b
    if set(la) != set(lb):
        raise ValidationError("deltas cover different layer sets")
    flat_a = np.concatenate([la[n].reshape(-1).astype(np.float64) for n in sorted(la)])
    flat_b = np.concatenate([lb[n].reshape(-1).astype(np.float64) for n in sorted(lb)])
    if flat_a.shape != flat_b.shape:
        raise ValidationError("deltas have different total sizes")
    na, nb = np.linalg.norm(flat_a), np.linalg.norm(flat_b)
    cosine = float(flat_a @ flat_b / (na * nb)) if na > 0 and nb > 0 else 0.0
    both = (flat_a != 0) & (flat_b != 0)
    if both.any():
        sign_consistency = float(np.mean(np.sign(flat_a[both]) * np.sign(flat_b[both])))
    else:
        sign_consistency = 0.0
    return cosine, sign_consistency
