"""Two-stage integer execution path for compressed skillpack layers.

The compiled form of one linear layer's delta is a pair of quantized
low-rank factors plus the scales needed to run

    y  =  diag(s_a * mid * s_x) . (X_hat A_hat -> int8) B_hat . diag(s_b)

entirely in integers between the outer scale applications. Each stage
exists once, and calibration, serving and rotation scoring run the same
ones (scoring quantizes X once and runs stages 2-5 per candidate; stages
3-5 are the forward's one tail):

    1. activations are smoothed (serving multiplies by the stored 1/s,
       calibration divides by s) and quantized by `quant`'s scale and code
       steps: each row (per token) or each request's block of rows
       (per-tensor X) is a group with its own float32 scale;
    2. `gemm_i8_i32`, the first integer matmul, accumulates exactly;
    3. `requant_mid` requantizes the accumulator to int8 codes through one
       per-tensor scalar (the only scale permitted between the matmuls);
    4. `gemm_i8_i32` again for the second integer matmul;
    5. all remaining scales multiply along the outer dimensions: a row
       factor (activation scales times the scalars), then per-channel
       B scales when B has them.

Every partial product and sum of an integer matmul is an integer, so it is
exact in any order and equals the int32 product while K <= MAX_CONTRACTION.
K runs in chunks of F32_EXACT_CONTRACTION (K * 128^2 <= 2^24: exact float32
products) summed in float64. The forward takes every group scale first, then
codes X and applies the outer scales in row blocks of _BLOCK_BYTES of float64,
written back into float32: one path for any group length.

The shared backbone runs in float through the matmul oracle; a layer's
forward adds the integer-path output on top (or nothing when no skillpack
is attached).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .quant import PER_CHANNEL, PER_TENSOR, QuantConfig, QuantGrid, calibration_hessian, count_clamped, gptq_refine
from .quant import group_scales, quantize, round_half_away, scaled_codes
from .tensors import matmul

MAX_CONTRACTION = 1 << 16  # int32 accumulation guarantee: K * 127 * 127 < 2^31
F32_EXACT_CONTRACTION = (1 << 24) // (128 * 128)  # float32 exactness for int8 codes: K * 128 * 128 <= 2^24
_BLOCK_BYTES = 1 << 19  # float64 bytes of one row block of the forward, well inside L2


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
        if self.c_in != self.smooth_inv.size:
            raise ShapeError("smoothing vector length must match A's input dimension")
        if self.rank != self.b_hat.codes.shape[0]:
            raise ShapeError("A columns must equal B rows (rank)")
        if self.a_hat.scale.granularity != PER_TENSOR:
            raise ValidationError("A must carry a per-tensor scale")
        if not (isinstance(self.rotation_index, (int, np.integer)) and 0 <= self.rotation_index < 2**32):
            raise ValidationError(f"rotation index must be an integer in 0..2^32 - 1, got {self.rotation_index!r}")
        if not (self.mid_scale > 0) or not np.isfinite(self.mid_scale):
            raise ValidationError("mid requant scale must be positive and finite")
        grids = (self.a_hat.bits, self.b_hat.bits, self.b_hat.scale.granularity)
        if (self.config.bits_a, self.config.bits_b, self.config.gran_b) != grids:
            raise ValidationError(f"config bits_a/bits_b/gran_b disagree with the A and B grids {grids}")

    @property
    def c_in(self) -> int:
        return self.a_hat.codes.shape[0]

    @property
    def rank(self) -> int:
        return self.a_hat.codes.shape[1]

    @property
    def c_out(self) -> int:
        return self.b_hat.codes.shape[1]

    @property
    def s_a(self) -> float:
        return float(self.a_hat.scale.scales)


def gemm_i8_i32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer code grids as float64 codes (see module notes)."""
    return _gemm(a, b).astype(np.float64, copy=False)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One float32 product per chunk of K (see module notes); several are summed in float64."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shape mismatch: {a.shape} x {b.shape}")
    if a.shape[1] > MAX_CONTRACTION:
        raise ShapeError(f"contraction dimension {a.shape[1]} exceeds the int32 guarantee")
    n = F32_EXACT_CONTRACTION
    if a.shape[1] <= n:
        return np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    return np.add(_gemm(a[:, :n], b[:n]), _gemm(a[:, n:], b[n:]), dtype=np.float64)


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
    """Quantize smoothed activations and run GEMM 1: (acc1, X scales). X's codes
    (integers, exact in float32) overwrite the float32 temporary `x_s` block by block."""
    scales = group_scales(x_s, config.bits_x, config.gran_x, row_blocks)
    step = max(1, _BLOCK_BYTES // (8 * x_s.shape[1] or 1))
    for i in range(0, len(x_s), step):
        rows = slice(i, i + step)
        x_s[rows] = scaled_codes(x_s[rows], scales[rows] if scales.ndim else scales, config.bits_x)
    return gemm_i8_i32(x_s, a_hat.codes), scales


def forward_quantized(
    layer: CompiledSkillLayer, x: np.ndarray, diag: ForwardDiag | None = None, row_blocks: list[int] | None = None
) -> np.ndarray:
    """Run the integer pipeline for one layer; output approximates x @ A @ B.

    With per-tensor X, `row_blocks` splits the rows into requests that are
    quantized as separate tensors, so batched execution reproduces
    per-request execution code for code."""
    if x.ndim != 2 or x.shape[1] != layer.c_in:
        raise ShapeError(f"activations must be T x {layer.c_in}, got {x.shape}")
    acc1, s_x = _smoothed_gemm1(np.asarray(x, np.float32) * layer.smooth_inv, layer.a_hat, layer.config, row_blocks)
    return _forward_tail(acc1, s_x, layer.a_hat, layer.b_hat, layer.mid_scale, diag)


def _forward_tail(
    acc1: np.ndarray, s_x: np.ndarray, a_hat: QuantGrid, b_hat: QuantGrid, mid_scale: float, diag: ForwardDiag | None
) -> np.ndarray:
    """The forward after GEMM 1: requant, GEMM 2 and the outer rescale, as float32."""
    acc2 = _gemm(requant_mid(acc1, mid_scale, diag), b_hat.codes)
    b_scale = b_hat.scale
    scalar = float(a_hat.scale.scales) * mid_scale
    if b_scale.granularity == PER_TENSOR:
        scalar *= float(b_scale.scales)
    row_scale, col_scale = scalar * s_x.astype(np.float64), b_scale.scales.astype(np.float64)
    step = max(1, _BLOCK_BYTES // (8 * acc2.shape[1] or 1))
    for i in range(0, len(acc2), step):  # float64 products, rounded once into acc2's rows
        block = acc2[i : i + step].astype(np.float64)
        block *= row_scale[i : i + step] if row_scale.ndim else row_scale
        if b_scale.granularity == PER_CHANNEL:
            block *= col_scale
        acc2[i : i + step] = block
    return acc2.astype(np.float32, copy=False)


def forward_full(backbone_w: np.ndarray, layer: CompiledSkillLayer | None, x: np.ndarray) -> np.ndarray:
    """Shared-path output x @ W plus the skillpack path when one is attached."""
    if x.ndim != 2 or x.shape[1] != backbone_w.shape[0]:
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
    if x_calib is not None and (x_calib.ndim != 2 or x_calib.shape[1] != smooth.size or x_calib.shape[0] < 1):
        raise ShapeError(f"calibration activations must be T x {smooth.size}, T >= 1, got {x_calib.shape}")
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
