"""Two-stage integer execution path for compressed skillpack layers.

The compiled form of one linear layer's delta is a pair of quantized
low-rank factors plus the scales needed to run

    y  =  diag(s_a * mid * s_x) . (X_hat A_hat -> int8) B_hat . diag(s_b)

entirely in integers between the outer scale applications. Each stage
exists once, and calibration and serving run the same ones:

    1. activations are smoothed (serving multiplies by the stored 1/s,
       calibration divides by s) and quantized by `quant.quantize_codes`:
       each row (per token) or each request's block of rows (per-tensor X)
       is a group with its own float32 scale;
    2. `gemm_i8_i32`, the first integer matmul, accumulates exactly;
    3. `requant_mid` requantizes the accumulator to int8 codes through one
       per-tensor scalar (the only scale permitted between the matmuls);
    4. `gemm_i8_i32` again for the second integer matmul;
    5. all remaining scales multiply along the outer dimensions: a row
       factor (activation scales times the scalars), then per-channel
       B scales when B has them.

Codes and accumulators are float64 integers; every partial product and sum
of an integer matmul is an integer, so the result is exact in any reduction
order and equals the int32 product while K <= MAX_CONTRACTION. float32 holds
every integer up to 2^24, so while K <= F32_EXACT_CONTRACTION (K * 128^2 <=
2^24, any int8 codes) they run through one float32 product, past it float64.

The shared backbone runs in float through the matmul oracle; a layer's
forward adds the integer-path output on top (or nothing when no skillpack
is attached).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .quant import (
    PER_CHANNEL,
    PER_TENSOR,
    QuantConfig,
    QuantGrid,
    calibration_hessian,
    gptq_refine,
    quantize,
    count_clamped,
    quantize_codes,
    round_half_away,
)
from .tensors import matmul

MAX_CONTRACTION = 1 << 16  # int32 accumulation guarantee: K * 127 * 127 < 2^31
F32_EXACT_CONTRACTION = (1 << 24) // (128 * 128)  # float32 exactness for int8 codes: K * 128 * 128 <= 2^24


@dataclass
class ForwardDiag:
    """Per-forward diagnostics: codes clamped by the mid requant."""

    mid_saturated: int = 0


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
        grids = (self.a_hat.bits, self.b_hat.bits, self.b_hat.scale.granularity)
        if (self.config.bits_a, self.config.bits_b, self.config.gran_b) != grids:
            raise ValidationError(f"config bits_a/bits_b/gran_b disagree with the A and B grids {grids}")

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


def gemm_i8_i32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer code grids as float64 codes; equals the
    int32 product while K <= MAX_CONTRACTION (see module notes)."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {a.shape} x {b.shape}")
    if a.shape[1] > MAX_CONTRACTION:
        raise ShapeError(f"contraction dimension {a.shape[1]} exceeds the int32 guarantee")
    dtype = np.float32 if a.shape[1] <= F32_EXACT_CONTRACTION else np.float64
    return (np.asarray(a, dtype=dtype) @ np.asarray(b, dtype=dtype)).astype(np.float64, copy=False)


def requant_mid(acc1: np.ndarray, mid_scale: float, diag: ForwardDiag | None = None) -> np.ndarray:
    """The one scale between the GEMMs: acc1 / mid_scale rounded to int8
    codes (float64). `diag` counts the clamped codes."""
    if not (mid_scale > 0):
        raise ValidationError("mid requant scale must be positive")
    codes = acc1 / mid_scale
    if diag is not None:
        diag.mid_saturated += count_clamped(codes, 127)
    round_half_away(codes, 127)
    return codes


def _smoothed_gemm1(
    x_s: np.ndarray, a_hat: QuantGrid, config: QuantConfig, row_blocks: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize smoothed activations and run GEMM 1: (acc1, X scales)."""
    x_codes, x_scales = quantize_codes(x_s, config.bits_x, config.gran_x, row_blocks)
    return gemm_i8_i32(x_codes, a_hat.codes), x_scales


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
    acc1, x_scales = _smoothed_gemm1(x_s, layer.a_hat, layer.config, row_blocks)
    acc2 = gemm_i8_i32(requant_mid(acc1, layer.mid_scale, diag), layer.b_hat.codes)

    b_scale = layer.b_hat.scale
    scalar = layer.s_a * layer.mid_scale
    if b_scale.granularity == PER_TENSOR:
        scalar *= float(b_scale.scales)
    acc2 *= scalar * x_scales.astype(np.float64)
    if b_scale.granularity == PER_CHANNEL:
        acc2 *= b_scale.scales.astype(np.float64)
    return acc2.astype(np.float32)


def forward_full(backbone_w: np.ndarray, layer: CompiledSkillLayer | None, x: np.ndarray) -> np.ndarray:
    """Shared-path output x @ W plus the skillpack path when one is attached."""
    if x.shape[1] != backbone_w.shape[0]:
        raise ShapeError(f"activations {x.shape} do not match backbone {backbone_w.shape}")
    base = matmul(x, backbone_w)
    if layer is None:
        return base
    if layer.c_out != backbone_w.shape[1]:
        raise ShapeError("skillpack output width does not match the backbone layer")
    return base + forward_quantized(layer, x)


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
    if x_calib is not None and (x_calib.ndim != 2 or x_calib.shape[1] != smooth.size):
        raise ShapeError(f"calibration activations must be T x {smooth.size}, got {x_calib.shape}")
    a_hat = quantize(np.asarray(a_fp, dtype=np.float32), config.bits_a, PER_TENSOR)
    b_hat = quantize(np.asarray(b_fp, dtype=np.float32), config.bits_b, config.gran_b)

    acc1 = None if x_calib is None else _smoothed_gemm1(x_calib.astype(np.float32) / smooth, a_hat, config)[0]

    if use_gptq:
        if acc1 is None:
            raise ValidationError("GPTQ refinement requires calibration activations")
        hessian = calibration_hessian(acc1)
        b_hat = gptq_refine(b_hat, np.asarray(b_fp, dtype=np.float32), hessian)

    if mid_scale is None:
        if acc1 is None:
            raise ValidationError("need calibration activations or an explicit mid scale")
        mid_scale = calibrate_mid_scale(acc1)

    return CompiledSkillLayer(
        name=name,
        smooth_inv=(1.0 / smooth.astype(np.float64)).astype(np.float32),
        a_hat=a_hat,
        b_hat=b_hat,
        mid_scale=float(mid_scale),
        config=config,
        rotation_index=rotation_index,
    )
