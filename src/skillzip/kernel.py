"""Two-stage integer execution path for compressed skillpack layers.

The compiled form of one linear layer's delta is a pair of quantized
low-rank factors plus the scales needed to run

    y  =  diag(s_a * mid * s_x) . (X_hat A_hat -> int8) B_hat . diag(s_b)

entirely in integers between the outer scale applications:

    1. activations are multiplied by the reciprocal smoothing vector and
       each row is divided by its scale (per token, or per request for
       per-tensor X, from per-row peaks) and rounded to codes;
    2. first integer matmul accumulates exactly (the int32 guarantee);
    3. the accumulator is requantized to int8 through one per-tensor
       scalar (the only scale permitted between the two matmuls);
    4. second integer matmul, again exact;
    5. all remaining scales multiply along the outer dimensions: a row
       factor (activation scales times the scalars), then per-channel
       B scales when B has them.

Codes and accumulators stay float64 integers and the integer matmuls run
through float64 BLAS: every partial product and sum is an integer far
below 2^53, so the result is exact, equals the int32 product while
K <= MAX_CONTRACTION, and does not depend on the reduction order, which
makes the whole path bit-deterministic. `gemm_i8_i32` and `requant_mid`
return the int32 and int8 grids.

The shared backbone runs in float through the matmul oracle; a layer's
forward adds the integer-path output on top (or nothing when no skillpack
is attached).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .quant import (
    PER_CHANNEL,
    PER_TENSOR,
    QuantConfig,
    QuantGrid,
    ScaleDescriptor,
    calibration_hessian,
    gptq_refine,
    quantize,
    round_half_away,
)
from .tensors import matmul

MAX_CONTRACTION = 1 << 16  # int32 accumulation guarantee: K * 127 * 127 < 2^31


@dataclass
class ForwardDiag:
    """Per-forward diagnostics: saturation counters and scale placement.

    `inter_gemm_scales` records every scale applied between the two integer
    matmuls; a legal pipeline appends exactly one scalar per forward."""

    mid_saturated: int = 0
    inter_gemm_scales: list[float] = field(default_factory=list)


@dataclass
class CompiledSkillLayer:
    """One layer's skillpack, ready to execute."""

    name: str
    smooth_inv: np.ndarray  # (C_i,) float32, reciprocal smoothing vector
    a_hat: QuantGrid  # (C_i, R), per-tensor scale
    b_hat: QuantGrid  # (R, C_o), per-tensor or per-channel scale
    mid_scale: float
    config: QuantConfig
    rotation_index: int = 0

    def __post_init__(self):
        self.smooth_inv = np.asarray(self.smooth_inv, dtype=np.float32).reshape(-1)
        if not np.isfinite(self.smooth_inv).all() or (self.smooth_inv <= 0).any():
            raise ValidationError("smoothing reciprocals must be positive and finite")
        if self.a_hat.rows != self.smooth_inv.size:
            raise ShapeError("smoothing vector length must match A's input dimension")
        if self.a_hat.cols != self.b_hat.rows:
            raise ShapeError("A columns must equal B rows (rank)")
        if self.a_hat.scale.granularity != PER_TENSOR:
            raise ValidationError("A must carry a per-tensor scale")
        if not (self.mid_scale > 0) or not np.isfinite(self.mid_scale):
            raise ValidationError("mid requant scale must be positive and finite")

    @property
    def c_in(self) -> int:
        return self.a_hat.rows

    @property
    def rank(self) -> int:
        return self.a_hat.cols

    @property
    def c_out(self) -> int:
        return self.b_hat.cols

    @property
    def s_a(self) -> float:
        return float(self.a_hat.scale.scales)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two float64 integer code grids (see module notes)."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {a.shape} x {b.shape}")
    if a.shape[1] > MAX_CONTRACTION:
        raise ShapeError(f"contraction dimension {a.shape[1]} exceeds the int32 guarantee")
    return a @ b


def gemm_i8_i32(a: QuantGrid, b: QuantGrid) -> np.ndarray:
    """Integer matmul of two code grids, exact int32 accumulation."""
    return _gemm(a.codes.astype(np.float64), b.codes.astype(np.float64)).astype(np.int32)


def _requant(acc: np.ndarray, mid_scale: float) -> tuple[np.ndarray, int]:
    """Float64 int8-range codes (no -0.0) and the count clamped to +-127."""
    rounded = round_half_away(acc / float(mid_scale))
    saturated = int(np.count_nonzero(np.abs(rounded) > 127))
    return np.clip(rounded, -127, 127) + 0.0, saturated


def requant_mid(acc: np.ndarray, mid_scale: float) -> QuantGrid:
    """Truncate an int32 accumulator to int8 through one per-tensor scale."""
    if not (mid_scale > 0):
        raise ValidationError("mid requant scale must be positive")
    codes, _ = _requant(np.asarray(acc, dtype=np.float64), mid_scale)
    return QuantGrid(codes.astype(np.int8), 8, ScaleDescriptor(PER_TENSOR, np.float32(mid_scale)))


def quantize_activations(
    x_s: np.ndarray, bits: int, granularity: str, row_blocks: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize float32 smoothed activations; returns (float64 codes,
    float64 per-row scales).

    Per-token, each row is its own group; per-tensor, each row block (one
    request in a batched call, the whole matrix by default) is. Codes and
    scales equal `quant.quantize` on that group bit for bit: the same
    float32 scale, then float64 division, half-away rounding and clamping.
    """
    peaks = np.max(np.abs(x_s), axis=1, initial=0.0)
    if not np.isfinite(peaks).all():
        raise ValidationError("quantize input contains non-finite values")
    if granularity == PER_TENSOR:
        sizes = row_blocks if row_blocks is not None else [x_s.shape[0]]
        if sum(sizes) != x_s.shape[0]:
            raise ShapeError("row blocks must sum to the token count")
        sizes = np.array([n for n in sizes if n], dtype=np.intp)
        if sizes.size:
            starts = np.cumsum(sizes) - sizes
            peaks = np.repeat(np.maximum.reduceat(peaks, starts), sizes)
    limit = (1 << (bits - 1)) - 1
    scales = peaks.astype(np.float64) / limit
    scales = np.where(scales == 0.0, 1.0, scales).astype(np.float32)  # all-zero group rule
    if not (scales > 0).all():
        raise ValidationError("scales must be positive and finite")
    scales = scales.astype(np.float64)
    # round_half_away and the clamp, in place; += 0.0 turns -0.0 into 0.0.
    q = x_s / scales[:, None]
    codes = np.abs(q)
    codes += 0.5
    np.floor(codes, out=codes)
    np.minimum(codes, limit, out=codes)
    np.copysign(codes, q, out=codes)
    codes += 0.0
    return codes, scales


def forward_quantized(
    layer: CompiledSkillLayer,
    x: np.ndarray,
    diag: ForwardDiag | None = None,
    row_blocks: list[int] | None = None,
) -> np.ndarray:
    """Run the integer pipeline for one layer; output approximates x @ A @ B.

    With per-tensor X, `row_blocks` splits the rows into requests that are
    quantized as separate tensors, so batched execution reproduces
    per-request execution code for code."""
    if x.ndim != 2 or x.shape[1] != layer.c_in:
        raise ShapeError(f"activations must be T x {layer.c_in}, got {x.shape}")
    x_s = np.asarray(x, dtype=np.float32) * layer.smooth_inv
    x_codes, row_scales = quantize_activations(x_s, layer.config.bits_x, layer.config.gran_x, row_blocks)

    acc1 = _gemm(x_codes, layer.a_hat.codes.astype(np.float64))
    mid_codes, mid_sat = _requant(acc1, layer.mid_scale)
    acc2 = _gemm(mid_codes, layer.b_hat.codes.astype(np.float64))

    if diag is not None:
        diag.mid_saturated += mid_sat
        diag.inter_gemm_scales.append(float(layer.mid_scale))

    b_scale = layer.b_hat.scale
    scalar = layer.s_a * layer.mid_scale
    if b_scale.granularity == PER_TENSOR:
        scalar *= float(b_scale.scales)
    acc2 *= (scalar * row_scales)[:, None]
    if b_scale.granularity == PER_CHANNEL:
        acc2 *= b_scale.scales.astype(np.float64)
    return acc2.astype(np.float32)


def forward_full(
    backbone_w: np.ndarray,
    layer: CompiledSkillLayer | None,
    x: np.ndarray,
    diag: ForwardDiag | None = None,
    row_blocks: list[int] | None = None,
) -> np.ndarray:
    """Shared-path output x @ W plus the skillpack path when one is attached."""
    if x.shape[1] != backbone_w.shape[0]:
        raise ShapeError(f"activations {x.shape} do not match backbone {backbone_w.shape}")
    base = matmul(x, backbone_w)
    if layer is None:
        return base
    if layer.c_out != backbone_w.shape[1]:
        raise ShapeError("skillpack output width does not match the backbone layer")
    return base + forward_quantized(layer, x, diag=diag, row_blocks=row_blocks)


def calibrate_mid_scale(acc1: np.ndarray) -> float:
    """Per-tensor requant divisor: peak |accumulator| mapped to code 127."""
    peak = float(np.max(np.abs(acc1), initial=0.0))
    return peak / 127.0 if peak > 0 else 1.0


def compile_layer(
    name: str,
    smooth: np.ndarray,
    a_fp: np.ndarray,
    b_fp: np.ndarray,
    config: QuantConfig,
    *,
    x_calib: np.ndarray | None = None,
    mid_scale: float | None = None,
    use_gptq: bool = False,
    rotation_index: int = 0,
) -> CompiledSkillLayer:
    """Quantize factors and calibrate the mid requant scale for one layer.

    `smooth` is the smoothing vector s (the layer stores 1/s); `x_calib`
    is raw (unsmoothed) calibration activations. Either `x_calib` or an
    explicit `mid_scale` must be provided; GPTQ refinement needs `x_calib`.
    """
    smooth = np.asarray(smooth, dtype=np.float32).reshape(-1)
    if (smooth <= 0).any() or not np.isfinite(smooth).all():
        raise ValidationError("smoothing vector must be positive and finite")
    a_hat = quantize(np.asarray(a_fp, dtype=np.float32), config.bits_a, PER_TENSOR)
    b_hat = quantize(np.asarray(b_fp, dtype=np.float32), config.bits_b, config.gran_b)

    acc1 = None
    if x_calib is not None:
        x_s = x_calib.astype(np.float32) / smooth
        x_codes, _ = quantize_activations(x_s, config.bits_x, config.gran_x)
        acc1 = _gemm(x_codes, a_hat.codes.astype(np.float64))

    if use_gptq:
        if acc1 is None:
            raise ValidationError("GPTQ refinement requires calibration activations")
        hessian = calibration_hessian(acc1)
        b_hat = gptq_refine(b_hat, np.asarray(b_fp, dtype=np.float32), hessian)

    if mid_scale is None:
        if acc1 is None:
            raise ValidationError("need calibration activations or an explicit mid scale")
        mid_scale = calibrate_mid_scale(acc1)

    smooth_inv = (1.0 / smooth.astype(np.float64)).astype(np.float32)
    return CompiledSkillLayer(
        name=name,
        smooth_inv=smooth_inv,
        a_hat=a_hat,
        b_hat=b_hat,
        mid_scale=float(mid_scale),
        config=config,
        rotation_index=rotation_index,
    )
