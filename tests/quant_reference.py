"""Reference quantizer for cross-checking `skillzip.quant`.

A frozen copy of an earlier, independently written form of the rule: the
quantize body with its float64 row x column denominator grid, the
out-of-place half-away rounding and a separate clip, and the GPTQ loop
built on them. It shares no code with the library, so agreement between
the two is meaningful.
"""

import numpy as np

from skillzip.quant import PER_CHANNEL, PER_TENSOR, PER_TOKEN


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (platform independent)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def group_scales(m: np.ndarray, bits: int, granularity: str) -> np.ndarray:
    limit = float((1 << (bits - 1)) - 1)
    if granularity == PER_TENSOR:
        peak = np.max(np.abs(m), initial=0.0)
        peak = np.asarray(peak, dtype=np.float64)
    elif granularity == PER_TOKEN:
        peak = np.max(np.abs(m), axis=1).astype(np.float64)
    elif granularity == PER_CHANNEL:
        peak = np.max(np.abs(m), axis=0).astype(np.float64)
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    scales = peak / limit
    scales = np.where(scales == 0.0, 1.0, scales)  # all-zero group rule
    return scales.astype(np.float32)


def row_col_vectors(granularity: str, scales: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(row_scale, col_scale) factors whose outer product is the scale grid."""
    ones_r = np.ones(rows, dtype=np.float32)
    ones_c = np.ones(cols, dtype=np.float32)
    if granularity == PER_TENSOR:
        return ones_r * scales, ones_c
    if granularity == PER_TOKEN:
        return scales.astype(np.float32), ones_c
    return ones_r, scales.astype(np.float32)


def quantize(m: np.ndarray, bits: int, granularity: str) -> tuple[np.ndarray, np.ndarray]:
    """(int8 codes, float32 scales) of a finite float32 matrix."""
    scales = group_scales(m, bits, granularity)
    row_s, col_s = row_col_vectors(granularity, scales, *m.shape)
    denom = row_s.astype(np.float64)[:, None] * col_s.astype(np.float64)[None, :]
    limit = (1 << (bits - 1)) - 1
    codes = round_half_away(m.astype(np.float64) / denom)
    codes = np.clip(codes, -limit, limit).astype(np.int8)
    return codes, scales


def scale_grid(granularity: str, scales: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Per-element float32 scales."""
    row_s, col_s = row_col_vectors(granularity, scales, rows, cols)
    return row_s[:, None] * col_s[None, :]


def requant(acc: np.ndarray, mid_scale: float) -> tuple[np.ndarray, int]:
    """Mid accumulator codes in the int8 range and the count clamped."""
    rounded = round_half_away(acc / float(mid_scale))
    saturated = int(np.count_nonzero(np.abs(rounded) > 127))
    return np.clip(rounded, -127, 127), saturated


def gptq_codes(granularity: str, scales: np.ndarray, bits: int, b_fp: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Sequential rounding of b_fp with error feedback through the upper
    Cholesky factor of the inverse Hessian."""
    r, c_out = b_fp.shape
    h = np.asarray(hessian, dtype=np.float64)
    h = 0.5 * (h + h.T)
    h_inv = np.linalg.inv(h)
    h_inv = 0.5 * (h_inv + h_inv.T)
    upper = np.linalg.cholesky(h_inv).T
    row_s, col_s = row_col_vectors(granularity, scales, r, c_out)
    grid = row_s.astype(np.float64)[:, None] * col_s.astype(np.float64)[None, :]
    limit = (1 << (bits - 1)) - 1
    work = b_fp.astype(np.float64).copy()
    codes = np.zeros((r, c_out), dtype=np.int8)
    for j in range(r):
        cj = round_half_away(work[j] / grid[j])
        cj = np.clip(cj, -limit, limit)
        codes[j] = cj.astype(np.int8)
        deq = cj * grid[j]
        err = (work[j] - deq) / upper[j, j]
        if j + 1 < r:
            work[j + 1 :] -= np.outer(upper[j, j + 1 :], err)
    return codes
