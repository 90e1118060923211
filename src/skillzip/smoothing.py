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
X is quantized once per layer, as its codes do not depend on the candidate;
each candidate runs `kernel`'s later stages, the bits of compiling it with
unit smoothing and running it on the held X.

A layer's candidates are drawn in lockstep: candidate k reads the k-th
block of r^2 Gaussians of the layer's stream, a chunk of candidates takes
one block of draws, and one modified Gram-Schmidt runs over the (count, r,
r) stack, each projection a stacked vector-vector `np.matmul` (one strided
BLAS ddot per candidate and column, the same call a lone candidate's
`ndarray.dot` makes) and an elementwise multiply and subtract, so every
rotation is bit-identical to drawing it alone. A candidate whose draws are
not full rank is never used.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ShapeError, ValidationError
from .kernel import _forward_tail, _smoothed_gemm1, calibrate_mid_scale, gemm_i8_i32
from .kernel import compile_layer, forward_quantized  # unused: perfbench's PATCH_POINTS must resolve them
from .prng import Prng
from .quant import PER_TENSOR, QuantConfig, quantize
from .tensors import fro_norm, matmul

DEFAULT_ALPHA = 0.7
DEFAULT_EPSILON = 1e-5
DEFAULT_CANDIDATES = 10
MAX_CANDIDATES = 256  # bounds one layer's rotation search; the SKZ index field is u32
# Cap on the float64 bytes of one lockstep chunk's draw block and basis
# stack (16 r^2 per candidate): all 10 default candidates at r = 64, one
# at a time from r = 512 on.
_LOCKSTEP_BYTES = 4 << 20


def profile(calib: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per layer, the float64 mean |x| of each input channel over T >= 1 rows."""
    for name, x in calib.items():
        if x.ndim != 2 or x.shape[0] < 1:
            raise ShapeError(f"calibration activations for layer {name!r} are {x.shape}, not T x C, T >= 1")
    return {name: np.abs(x.astype(np.float64)).sum(axis=0) / x.shape[0] for name, x in calib.items()}


def check_smooth_params(alpha: float, epsilon: float) -> None:
    """`compute_smooth`'s rule: alpha in [0, 1], epsilon positive and within float32 range."""
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not (0 < epsilon <= float(np.finfo(np.float32).max)):  # the factors are float32
        raise ValidationError(f"epsilon must be positive and within float32 range, got {epsilon!r}")


def compute_smooth(
    mean_abs: np.ndarray, w: np.ndarray, alpha: float = DEFAULT_ALPHA, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Per-channel smoothing factors s_i = mean_abs_i^a / max_j|W_ij|^(1-a).

    Floored at epsilon everywhere so downstream division is always safe;
    monotone nondecreasing in mean_abs_i for a fixed weight.
    """
    mean_abs = np.asarray(mean_abs, dtype=np.float64).reshape(-1)
    check_smooth_params(alpha, epsilon)
    if w.ndim != 2 or w.shape[0] != mean_abs.size:
        raise ShapeError(f"weight {w.shape} is not 2-D with the stats' {mean_abs.size} input channels")
    if not (np.isfinite(mean_abs).all() and np.isfinite(w).all()):
        raise ValidationError("smoothing statistics and weights must be finite")
    peak = np.max(np.abs(w, dtype=np.result_type(w.dtype, np.float32)), axis=1)  # exact, as is its widening
    row_peak = np.maximum(peak.astype(np.float64), epsilon)
    s = np.maximum(mean_abs, 0.0) ** alpha / row_peak ** (1.0 - alpha)
    return np.maximum(s, epsilon).astype(np.float32)


def apply_smooth(x: np.ndarray, w: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X diag(s)^-1, diag(s) W); the product X @ W is preserved."""
    s = np.asarray(s, dtype=np.float32).reshape(-1)
    if (s <= 0).any() or not np.isfinite(s).all():
        raise ValidationError("smoothing factors must be positive and finite")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != s.size or w.shape[0] != s.size:
        raise ShapeError("X and W must be 2-D, with as many X columns and W rows as smoothing factors")
    x_s = (x / s[None, :]).astype(np.float32)
    w_s = (w * s[:, None]).astype(np.float32)
    return x_s, w_s


def _gram_schmidt(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal float64 bases q[k] (column i is q[k, :, i]) for the
    draws w[k, j], candidate k's draw for its column j, in lockstep, and
    the mask of candidates whose draws are full rank.

    Modified Gram-Schmidt with one reorthogonalization pass; each column's
    leading non-negligible entry is made positive so the same seed gives
    the same matrix everywhere. A candidate with a column of residual norm
    <= 1e-8 is not full rank; that norm is taken as 1 to keep it finite.
    The first pass is right-looking and overwrites w: same ddots, same order.
    """
    count, r, _ = w.shape
    q = np.empty((count, r, r))
    col = np.empty((count, r))
    proj = np.empty((count, r))
    dot = np.empty((count, 1, 1))
    full = np.ones(count, dtype=bool)
    matmul, multiply, subtract = np.matmul, np.multiply, np.subtract
    for j in range(r):
        np.copyto(col, w[:, j])
        # One strided ddot per candidate: q[k, :, i] keeps the stride
        # r*8 of a lone basis column. A contiguous copy of it, einsum
        # or a sum reduction would add in another order.
        for i in range(j):  # the reorthogonalization pass, left-looking
            qi = q[:, :, i]
            matmul(qi[:, None, :], col[:, :, None], out=dot)
            multiply(qi, dot[:, 0], out=proj)
            subtract(col, proj, out=col)
        norms = np.sqrt(matmul(col[:, None, :], col[:, :, None]).reshape(count))  # each np.linalg.norm's ddot
        degenerate = norms <= 1e-8
        if degenerate.any():
            full[degenerate] = False
            norms[degenerate] = 1.0
        col /= norms[:, None]
        peak = np.max(np.abs(col), axis=1, keepdims=True)
        lead = np.argmax(np.abs(col) > 1e-12 * peak, axis=1)
        np.negative(col, out=col, where=col[np.arange(count), lead][:, None] < 0)
        q[:, :, j] = col
        qj, rest = q[:, :, j], w[:, j + 1 :]
        rest -= qj[:, None, :] * matmul(qj[:, None, None, :], rest[:, :, :, None])[:, :, :, 0]
    return q, full


def _draw_rotations(prng: Prng, r: int, count: int) -> Iterator[np.ndarray | None]:
    """`count` random orthogonal float32 (r, r) matrices in stream order,
    None for a candidate whose draws are not full rank.

    Candidate k reads Gaussians [k r^2, (k + 1) r^2) of the stream, column
    by column. Chunks of candidates take one block of draws and run
    `_gram_schmidt` in lockstep.
    """
    if not count:
        return
    if r < 1:
        raise ValidationError("rotation size must be >= 1")
    per_chunk = max(1, _LOCKSTEP_BYTES // (16 * r * r))
    for start in range(0, count, per_chunk):
        n = min(per_chunk, count - start)
        bases, full = _gram_schmidt(prng.gauss_block(n * r * r).reshape(n, r, r))
        for basis, ok in zip(bases, full):
            yield basis.astype(np.float32) if ok else None


def sample_rotation(prng: Prng, r: int) -> np.ndarray:
    """Random orthogonal R x R float32 matrix from a seeded Gaussian draw
    of r^2 values. The same seed gives the same matrix everywhere; a draw
    that is not full rank is refused."""
    q = next(_draw_rotations(prng, r, 1))
    if q is None:
        raise ValidationError("could not draw a full-rank Gaussian basis")
    return q


def fold_rotation(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A Q, Q^T B); preserves the product A @ B for orthogonal Q."""
    if not a.ndim == b.ndim == q.ndim == 2 or not a.shape[1] == q.shape[0] == q.shape[1] == b.shape[0]:
        raise ShapeError(f"rotation {q.shape} does not match factors {a.shape} x {b.shape}")
    a_rot = matmul(a.astype(np.float32), q.astype(np.float32))
    b_rot = matmul(q.T.astype(np.float32), b.astype(np.float32))
    return a_rot, b_rot


@dataclass
class RotationChoice:
    q: np.ndarray  # (R, R) float32 orthogonal
    candidate_index: int  # 0 is the identity
    loss: float


def select_rotation(
    a: np.ndarray,
    b: np.ndarray,
    x_calib: np.ndarray,
    config: QuantConfig,
    prng: Prng,
    n_candidates: int = DEFAULT_CANDIDATES,
) -> RotationChoice:
    """Pick the rotation minimizing end-to-end quantized reconstruction loss.

    Candidate 0 is the identity; `n_candidates` random rotations follow,
    candidate k from the k-th block of r^2 Gaussians of `prng`, and one that
    is not full rank is skipped. Ties break toward the lowest index, so the
    identity wins when nothing improves on it.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"factors must be 2-D with A's columns matching B's rows, got {a.shape} x {b.shape}")
    if x_calib.ndim != 2 or x_calib.shape[1] != a.shape[0] or x_calib.shape[0] < 1:
        raise ShapeError(f"calibration activations must be T x {a.shape[0]}, T >= 1, got {x_calib.shape}")
    if not 0 <= n_candidates <= MAX_CANDIDATES:
        raise ValidationError(f"candidate count must lie in 0..{MAX_CANDIDATES}, got {n_candidates}")
    for name, arr in (("factor A", a), ("factor B", b), ("calibration activations", x_calib)):
        if not (np.abs(arr) <= np.finfo(np.float32).max).all():  # NaN fails too
            raise ValidationError(f"{name} must be finite and within float32 range")
    r = a.shape[1]
    reference = matmul(matmul(x_calib, a), b)
    x_codes = x_calib.astype(np.float32)  # X's codes once the identity's GEMM 1 has run
    rotations = enumerate(_draw_rotations(prng, r, n_candidates), start=1)
    candidates = ((idx, q, *fold_rotation(a, b, q)) for idx, q in rotations if q is not None)
    for idx, q, a_c, b_c in chain([(0, np.eye(r, dtype=np.float32), a, b)], candidates):
        a_hat = quantize(np.asarray(a_c, dtype=np.float32), config.bits_a, PER_TENSOR)
        b_hat = quantize(np.asarray(b_c, dtype=np.float32), config.bits_b, config.gran_b)
        if idx == 0:
            acc1, s_x = _smoothed_gemm1(x_codes, a_hat, config)
        else:
            acc1 = gemm_i8_i32(x_codes, a_hat.codes)
        loss = fro_norm(reference - _forward_tail(acc1, s_x, a_hat, b_hat, calibrate_mid_scale(acc1), None))
        if idx == 0 or loss < best.loss:
            best = RotationChoice(q, idx, loss)
    return best
