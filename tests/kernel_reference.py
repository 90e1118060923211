"""Reference integer path for cross-checking `skillzip.kernel`.

A frozen copy of the earlier kernel, in which `forward_quantized` ran its
own mid requant inline and `compile_layer` repeated the forward's
"quantize X, GEMM 1" lines, both around a private exact GEMM. The quantizer,
the rounding rule and GPTQ come from `skillzip.quant`, which the kernel
stages build on unchanged. The library's shared stages must return the same
bits, so the two are compared with `tobytes`, not with a tolerance.
"""

import numpy as np

from skillzip.kernel import MAX_CONTRACTION, CompiledSkillLayer, calibrate_mid_scale
from skillzip.quant import (
    PER_CHANNEL,
    PER_TENSOR,
    QuantConfig,
    calibration_hessian,
    count_clamped,
    gptq_refine,
    quantize,
    quantize_codes,
    round_half_away,
)


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    assert a.shape[1] == b.shape[0] and a.shape[1] <= MAX_CONTRACTION
    return a @ b


def forward_quantized(
    layer: CompiledSkillLayer, x: np.ndarray, row_blocks: list[int] | None = None
) -> tuple[np.ndarray, int, list[float]]:
    """(output, mid clamp count, scales recorded between the GEMMs)."""
    x_s = np.asarray(x, dtype=np.float32) * layer.smooth_inv
    x_codes, x_scales = quantize_codes(x_s, layer.config.bits_x, layer.config.gran_x, row_blocks)

    acc1 = gemm(x_codes, layer.a_hat.codes.astype(np.float64))
    mid_codes = acc1 / layer.mid_scale
    saturated = count_clamped(mid_codes, 127)
    scales = [float(layer.mid_scale)]
    round_half_away(mid_codes, 127)
    acc2 = gemm(mid_codes, layer.b_hat.codes.astype(np.float64))

    b_scale = layer.b_hat.scale
    scalar = layer.s_a * layer.mid_scale
    if b_scale.granularity == PER_TENSOR:
        scalar *= float(b_scale.scales)
    acc2 *= scalar * x_scales.astype(np.float64)
    if b_scale.granularity == PER_CHANNEL:
        acc2 *= b_scale.scales.astype(np.float64)
    return acc2.astype(np.float32), saturated, scales


def compile_layer(
    smooth: np.ndarray, a_fp: np.ndarray, b_fp: np.ndarray, config: QuantConfig, x_calib: np.ndarray, use_gptq: bool
) -> CompiledSkillLayer:
    """Factor grids plus the mid scale calibrated on `x_calib`."""
    smooth = np.asarray(smooth, dtype=np.float32).reshape(-1)
    a_hat = quantize(np.asarray(a_fp, dtype=np.float32), config.bits_a, PER_TENSOR)
    b_hat = quantize(np.asarray(b_fp, dtype=np.float32), config.bits_b, config.gran_b)

    x_s = x_calib.astype(np.float32) / smooth
    x_codes, _ = quantize_codes(x_s, config.bits_x, config.gran_x, None)
    acc1 = gemm(x_codes, a_hat.codes.astype(np.float64))
    if use_gptq:
        b_hat = gptq_refine(b_hat, np.asarray(b_fp, dtype=np.float32), calibration_hessian(acc1))

    smooth_inv = (1.0 / smooth.astype(np.float64)).astype(np.float32)
    return CompiledSkillLayer("reference", smooth_inv, a_hat, b_hat, float(calibrate_mid_scale(acc1)), config)
