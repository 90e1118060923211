"""The two-stage integer execution path, step by step.

Runs one compiled layer through the kernel's stages by hand: smooth,
quantize activations, first integer matmul (`gemm_i8_i32`), mid requant to
int8 codes (`requant_mid`), second integer matmul, outer scales. The codes
and accumulators are float64 integers that fit int8 and int32.
Shows the exact-arithmetic regime (power-of-two scales, bit-for-bit equal
to the float oracle) and the ordinary regime (bounded quantization error).
"""

import numpy as np

from skillzip import ForwardDiag, QuantConfig, compile_layer, forward_quantized, gemm_i8_i32, requant_mid
from skillzip.quant import quantize_codes
from skillzip.prng import Prng
from skillzip.tensors import fro_norm, matmul

rng = Prng(11)

print("=== ordinary regime: random layer, int8 everywhere ===")
x = rng.uniform_matrix(16, 64, -8.0, 8.0)
a = rng.uniform_matrix(64, 8, -0.5, 0.5)
b = rng.uniform_matrix(8, 48, -0.5, 0.5)
layer = compile_layer("demo", np.ones(64, dtype=np.float32), a, b, QuantConfig(), x_calib=x)

x_codes, _ = quantize_codes(x * layer.smooth_inv, 8, "per-token", None)
acc1 = gemm_i8_i32(x_codes, layer.a_hat.codes)
mid_codes = requant_mid(acc1, layer.mid_scale)
acc2 = gemm_i8_i32(mid_codes, layer.b_hat.codes)
diag = ForwardDiag()
out = forward_quantized(layer, x, diag=diag)
print(f"stage 1 accumulator range: [{int(acc1.min())}, {int(acc1.max())}] (int32)")
print(f"mid requant scale {layer.mid_scale:.2f}, saturated entries: {diag.mid_saturated}")
print(f"stage 2 accumulator range: [{int(acc2.min())}, {int(acc2.max())}] (int32)")
oracle = matmul(matmul(x, a), b)
print(f"scale between the matmuls: {layer.mid_scale:.2f} (exactly one, per-tensor)")
print(f"relative error vs float oracle: {fro_norm(oracle - out) / fro_norm(oracle):.4%}")

print("\n=== exact regime: power-of-two scales, no saturation ===")
import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from exact_case import build_exact_case

layer, x, a_eff, b_fp = build_exact_case(seed=3, tokens=8, c_in=32, rank=6, c_out=16)
out = forward_quantized(layer, x)
oracle = matmul(matmul(x, a_eff), b_fp)
print(f"bit-identical to the float oracle: {out.tobytes() == oracle.tobytes()}")
