"""Double smoothing: move activation outliers into the weight, then spread
low-rank energy with a rotation.

Shows why naive per-token activation quantization collapses in the presence
of channel outliers, how the channel-wise smoothing vector fixes it without
changing the product, and how rotation selection reduces the end-to-end
quantized reconstruction loss after the SVD split concentrates energy.
"""

import numpy as np

from skillzip import (
    QuantConfig,
    RankPolicy,
    apply_smooth,
    compute_smooth,
    dequantize,
    profile,
    quantize,
    select_rotation,
    split_factors,
    truncated_svd,
)
from skillzip.fixtures import outlier_activations
from skillzip.prng import Prng
from skillzip.tensors import fro_norm, matmul

rng = Prng(7)

# Activations with 4 channels 100x louder than the rest.
outliers = rng.spawn("outliers").choice_indices(96, 4)
x = outlier_activations(rng.spawn("x"), tokens=64, channels=96, columns=outliers, ratio=100.0)
w = rng.gauss_matrix(96, 96) * np.float32(0.2)

print("=== the outlier problem ===")
max_abs = np.abs(x).max(axis=0)
print(f"channel |x| max: median {np.median(max_abs):.1f}, largest {max_abs.max():.1f}")
q_raw = quantize(x, 8, "per-token")
x_err = fro_norm(dequantize(q_raw) - x) / fro_norm(x)
print(f"per-token int8 on raw activations: {100 * x_err:.2f}% relative error")

print("\n=== channel-wise smoothing ===")
s = compute_smooth(profile({"layer": x})["layer"], w, alpha=0.7)
x_s, w_s = apply_smooth(x, w, s)
ref = matmul(x, w)
print(f"product preserved: {fro_norm(ref - matmul(x_s, w_s)) / fro_norm(ref):.2e} relative")
q_smooth = quantize(x_s, 8, "per-token")
xs_err = fro_norm(dequantize(q_smooth) - x_s) / fro_norm(x_s)
print(f"per-token int8 on smoothed activations: {100 * xs_err:.2f}% relative error")

print("\n=== rank-wise rotation ===")
svd = truncated_svd(w_s, RankPolicy.fixed(12))
a, b = split_factors(svd)
col_norms = np.linalg.norm(a, axis=0)
print(f"A column norms (energy concentration): {col_norms[:4].round(2)} ... {col_norms[-2:].round(4)}")
choice = select_rotation(a, b, x_s[:32], QuantConfig(), Prng(1), n_candidates=10)
identity = select_rotation(a, b, x_s[:32], QuantConfig(), Prng(1), n_candidates=0)
print(f"identity loss {identity.loss:.4f} vs selected candidate {choice.candidate_index}: {choice.loss:.4f}")
