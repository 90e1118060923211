"""Double smoothing: channel-wise outlier migration and rank-wise rotation.

Channel-wise smoothing rescales each input channel by a factor derived from
its mean activation magnitude on calibration data (`profile`), the
SmoothQuant migration statistic, dividing it out of the activations and
folding it into the weight. The product is unchanged; the quantization
burden moves from a handful of extreme activation channels onto the weight,
where per-tensor and per-channel scales can absorb it.

Rank-wise rotation right-multiplies the low-rank factor A by an orthogonal
Q (and B by Q^T), again preserving the product, to spread the energy that
the square-root split concentrates in the leading ranks. Candidates are
drawn from a seeded generator; each is scored by the end-to-end quantized
reconstruction error on calibration activations and the identity is always
in the pool, so a selected rotation can never score worse than no rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .kernel import compile_layer, forward_quantized
from .prng import Prng
from .quant import QuantConfig
from .tensors import fro_norm, matmul

DEFAULT_ALPHA = 0.7
DEFAULT_EPSILON = 1e-5
DEFAULT_CANDIDATES = 10
MAX_CANDIDATES = 256  # one block of 256 r x r float64 draws; the SKZ index field is u32


def profile(calib: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per layer, the float64 mean |x| of each input channel over T >= 1 rows."""
    return {name: np.abs(x.astype(np.float64)).sum(axis=0) / x.shape[0] for name, x in calib.items()}


def compute_smooth(
    mean_abs: np.ndarray, w: np.ndarray, alpha: float = DEFAULT_ALPHA, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Per-channel smoothing factors s_i = mean_abs_i^a / max_j|W_ij|^(1-a).

    Floored at epsilon everywhere so downstream division is always safe;
    monotone nondecreasing in mean_abs_i for a fixed weight.
    """
    mean_abs = np.asarray(mean_abs, dtype=np.float64).reshape(-1)
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError("alpha must lie in [0, 1]")
    if not (epsilon > 0):
        raise ValidationError("epsilon must be positive")
    if w.shape[0] != mean_abs.size:
        raise ShapeError(f"weight has {w.shape[0]} input channels, stats have {mean_abs.size}")
    row_peak = np.maximum(np.max(np.abs(w.astype(np.float64)), axis=1), epsilon)
    s = np.maximum(mean_abs, 0.0) ** alpha / row_peak ** (1.0 - alpha)
    return np.maximum(s, epsilon).astype(np.float32)


def apply_smooth(x: np.ndarray, w: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X diag(s)^-1, diag(s) W); the product X @ W is preserved."""
    s = np.asarray(s, dtype=np.float32).reshape(-1)
    if (s <= 0).any() or not np.isfinite(s).all():
        raise ValidationError("smoothing factors must be positive and finite")
    if x.shape[1] != s.size or w.shape[0] != s.size:
        raise ShapeError("smoothing vector length must match X columns and W rows")
    x_s = (x / s[None, :]).astype(np.float32)
    w_s = (w * s[:, None]).astype(np.float32)
    return x_s, w_s


def sample_rotation(prng: Prng, r: int, max_attempts: int = 50) -> np.ndarray:
    """Random orthogonal R x R matrix from a seeded Gaussian draw.

    Modified Gram-Schmidt with one reorthogonalization pass; each column's
    leading non-negligible entry is made positive so the same seed gives
    the same matrix everywhere. Degenerate draws are replaced column by
    column from the stream, with a bounded number of attempts.
    """
    if r < 1:
        raise ValidationError("rotation size must be >= 1")
    # Columns read r*r draws in stream order; a retry takes the next r, so
    # once the block runs out the remaining columns continue the stream.
    draws = prng.gauss_block(r * r)
    used = 0
    q = np.empty((r, r), dtype=np.float64)
    # The dot products stay on the strided views q[:, i]: a contiguous copy
    # takes BLAS's unit-stride kernel, which sums in another order.
    basis: list[np.ndarray] = []
    proj = np.empty(r, dtype=np.float64)
    multiply, subtract = np.multiply, np.subtract
    for j in range(r):
        for attempt in range(max_attempts + 1):
            if used < draws.size:
                col = draws[used : used + r]
                used += r
            else:
                col = prng.gauss_block(r)
            for _ in range(2):  # MGS with reorthogonalization
                for qi in basis:
                    multiply(qi, qi.dot(col), out=proj)
                    subtract(col, proj, out=col)
            norm = np.linalg.norm(col)
            if norm > 1e-8:
                break
        else:
            raise ValidationError("could not draw a full-rank Gaussian basis")
        col /= norm
        lead = np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if col[lead] < 0:
            col = -col
        q[:, j] = col
        basis.append(q[:, j])
    return q.astype(np.float32)


def fold_rotation(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A Q, Q^T B); preserves the product A @ B for orthogonal Q."""
    if a.shape[1] != q.shape[0] or q.shape[0] != q.shape[1] or b.shape[0] != q.shape[1]:
        raise ShapeError(f"rotation {q.shape} does not match factors {a.shape} x {b.shape}")
    a_rot = matmul(a.astype(np.float32), q.astype(np.float32))
    b_rot = matmul(q.T.astype(np.float32), b.astype(np.float32))
    return a_rot, b_rot


@dataclass
class RotationChoice:
    q: np.ndarray  # (R, R) float32 orthogonal
    candidate_index: int  # 0 is the identity
    loss: float


def _candidate_loss(
    a: np.ndarray, b: np.ndarray, x_calib: np.ndarray, reference: np.ndarray, config: QuantConfig
) -> float:
    layer = compile_layer("rotation-eval", np.ones(a.shape[0], dtype=np.float32), a, b, config, x_calib=x_calib)
    return fro_norm(reference - forward_quantized(layer, x_calib))


def select_rotation(
    a: np.ndarray,
    b: np.ndarray,
    x_calib: np.ndarray,
    config: QuantConfig,
    prng: Prng,
    n_candidates: int = DEFAULT_CANDIDATES,
) -> RotationChoice:
    """Pick the rotation minimizing end-to-end quantized reconstruction loss.

    Candidate 0 is the identity; `n_candidates` random rotations follow.
    Ties break toward the lowest index, so the identity wins when nothing
    improves on it.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError("factor rank mismatch")
    if x_calib.shape[1] != a.shape[0]:
        raise ShapeError("calibration activations do not match A's input dimension")
    if not 0 <= n_candidates <= MAX_CANDIDATES:
        raise ValidationError(f"candidate count must lie in 0..{MAX_CANDIDATES}, got {n_candidates}")
    r = a.shape[1]
    reference = matmul(matmul(x_calib, a), b)

    best = RotationChoice(np.eye(r, dtype=np.float32), 0, _candidate_loss(a, b, x_calib, reference, config))
    for idx in range(1, n_candidates + 1):
        q = sample_rotation(prng, r)
        a_rot, b_rot = fold_rotation(a, b, q)
        loss = _candidate_loss(a_rot, b_rot, x_calib, reference, config)
        if loss < best.loss:
            best = RotationChoice(q, idx, loss)
    return best
