"""The quantization rule, int4 packing, GPTQ-style refinement, and the
1-bit sign+scale baseline.

The rule, fixed on purpose, lives once in `quantize_codes` and
`round_half_away`:

* codes live in [-(2^(k-1)-1), 2^(k-1)-1]; the asymmetric extra code is
  never used, which makes quantize(-m) == -quantize(m) hold exactly;
* a group (the whole tensor, a row, a block of rows, a column) gets the
  float32 scale max|group| / (2^(k-1)-1), or 1.0 when it is all zero; a
  non-finite peak, or a scale that rounds to 0, is rejected;
* codes are float64 quotients rounded half away from zero and clamped,
  never -0.0.

`quantize` builds the A and B grids on it, `kernel` quantizes activations
per token or per request with it, `kernel.requant_mid` and `gptq_refine`
round against their own fixed scales with `round_half_away`; `count_clamped`
counts the mid clamps when `forward_quantized` reports them.

Granularity is constrained by where scales can be applied around an integer
matmul: activations are per-token or per-tensor (row side), the mid factor
is per-tensor only, and the output-side factor may be per-channel (columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

PER_TENSOR = "per-tensor"
PER_TOKEN = "per-token"
PER_CHANNEL = "per-channel"
_GRANULARITIES = (PER_TENSOR, PER_TOKEN, PER_CHANNEL)


def round_half_away(q: np.ndarray, limit: int) -> None:
    """Round float64 quotients to codes in place: ties away from zero,
    clamped to +-limit, no -0.0."""
    codes = np.abs(q)
    codes += 0.5
    np.floor(codes, out=codes)
    np.minimum(codes, limit, out=codes)
    np.copysign(codes, q, out=q)
    q += 0.0


def count_clamped(q: np.ndarray, limit: int) -> int:
    """How many quotients `round_half_away(q, limit)` will clamp: |q| >= limit
    + 1/2 (below that, |q| + 1/2 still rounds below limit + 1 in float64)."""
    return int(np.count_nonzero(np.abs(q) >= limit + 0.5))


@dataclass(frozen=True)
class ScaleDescriptor:
    """Quantization scales plus the grouping they apply to.

    `scales` is a scalar-shaped array for per-tensor, one value per row for
    per-token, one per column for per-channel. All values positive, finite.
    """

    granularity: str
    scales: np.ndarray  # float32; shape () or (rows,) or (cols,)

    def __post_init__(self):
        if self.granularity not in _GRANULARITIES:
            raise ValidationError(f"unknown granularity {self.granularity!r}")
        s = np.asarray(self.scales, dtype=np.float32)
        if not np.isfinite(s).all() or (s <= 0).any():
            raise ValidationError("scales must be positive and finite")
        object.__setattr__(self, "scales", s)

    def row_col_vectors(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """Expand to (row_scale, col_scale) factors whose outer product is
        the per-element scale grid."""
        ones_r = np.ones(rows, dtype=np.float32)
        ones_c = np.ones(cols, dtype=np.float32)
        if self.granularity == PER_TENSOR:
            return ones_r * self.scales, ones_c
        if self.granularity == PER_TOKEN:
            return self.scales.astype(np.float32), ones_c
        return ones_r, self.scales.astype(np.float32)


@dataclass(frozen=True)
class QuantGrid:
    """Integer codes with their scale descriptor.

    Codes are stored as int8 regardless of the declared bit width; for
    bits=4 every code fits a signed nibble and pack_int4 produces the
    two-per-byte stored form.
    """

    codes: np.ndarray  # int8, 2-D
    bits: int
    scale: ScaleDescriptor

    def __post_init__(self):
        c = np.asarray(self.codes)
        if c.ndim != 2 or c.dtype != np.int8:
            raise ValidationError("codes must be a 2-D int8 array")
        limit = (1 << (self.bits - 1)) - 1
        if np.abs(c.astype(np.int32)).max(initial=0) > limit:
            raise ValidationError(f"codes exceed symmetric {self.bits}-bit range +-{limit}")

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]


@dataclass(frozen=True)
class QuantConfig:
    """Bit widths and granularities for the three quantized operands.

    The mid factor of the two-stage pipeline is per-tensor by construction,
    so only the activation side and the output side have a granularity
    choice; the low-rank A factor is always per-tensor.
    """

    bits_x: int = 8
    bits_a: int = 8
    bits_b: int = 8
    gran_x: str = PER_TOKEN
    gran_b: str = PER_CHANNEL

    def __post_init__(self):
        for name, b in (("bits_x", self.bits_x), ("bits_a", self.bits_a), ("bits_b", self.bits_b)):
            if b not in (4, 8):
                raise ValidationError(f"{name} must be 4 or 8, got {b}")
        if self.gran_x not in (PER_TOKEN, PER_TENSOR):
            raise ValidationError(f"gran_x must be per-token or per-tensor, got {self.gran_x!r}")
        if self.gran_b not in (PER_CHANNEL, PER_TENSOR):
            raise ValidationError(f"gran_b must be per-channel or per-tensor, got {self.gran_b!r}")


def quantize_codes(
    m: np.ndarray, bits: int, granularity: str, row_blocks: list[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 codes of a finite 2-D matrix and its float32 group scales.

    The scales come back shaped to broadcast against `m`: () per tensor,
    (rows, 1) per token, (1, cols) per channel. Per tensor with
    `row_blocks`, each block of rows is its own tensor and the scales are
    (rows, 1), repeated over the block.
    """
    if m.ndim != 2:
        raise ShapeError("quantize expects a 2-D matrix")
    if bits not in (4, 8):
        raise ValidationError(f"bits must be 4 or 8, got {bits}")
    if granularity == PER_TENSOR and row_blocks is None:
        peaks = np.max(np.abs(m), initial=0.0)
    elif granularity == PER_CHANNEL:
        peaks = np.max(np.abs(m), axis=0, keepdims=True, initial=0.0)
    elif granularity in (PER_TOKEN, PER_TENSOR):
        peaks = np.max(np.abs(m), axis=1, keepdims=True, initial=0.0)
        if granularity == PER_TENSOR:
            if sum(row_blocks) != m.shape[0]:
                raise ShapeError("row blocks must sum to the token count")
            sizes = np.array([n for n in row_blocks if n], dtype=np.intp)
            if sizes.size:
                peaks = np.repeat(np.maximum.reduceat(peaks, np.cumsum(sizes) - sizes), sizes, axis=0)
    else:
        raise ValidationError(f"unknown granularity {granularity!r}")
    if not np.isfinite(peaks).all():
        raise ValidationError("quantize input contains non-finite values")
    limit = (1 << (bits - 1)) - 1
    scales = peaks.astype(np.float64) / limit
    scales = np.where(scales == 0.0, 1.0, scales).astype(np.float32)  # all-zero group rule
    if not (scales > 0).all():  # a subnormal peak
        raise ValidationError("scales must be positive and finite")
    codes = np.divide(m, scales, dtype=np.float64)
    round_half_away(codes, limit)
    return codes, scales


def quantize(m: np.ndarray, bits: int, granularity: str) -> QuantGrid:
    """Symmetric static quantization of a finite float32 matrix."""
    codes, scales = quantize_codes(m, bits, granularity, None)
    scales = scales.reshape(-1) if scales.ndim else scales
    return QuantGrid(codes.astype(np.int8), bits, ScaleDescriptor(granularity, scales))


def dequantize(q: QuantGrid) -> np.ndarray:
    """Elementwise inverse: code times its group scale, in float32."""
    row_s, col_s = q.scale.row_col_vectors(q.rows, q.cols)
    return (q.codes.astype(np.float32) * row_s[:, None]) * col_s[None, :]


# ---------------------------------------------------------------------------
# GPTQ-style refinement of the output-side factor B


def calibration_hessian(m_calib: np.ndarray, damp: float = 0.01) -> np.ndarray:
    """H = M^T M / T + lambda*I with lambda = damp * mean(diag).

    `m_calib` is whatever feeds the B-side matmul during calibration
    (typically the int32 accumulator of the first stage, cast to float).
    """
    m64 = np.asarray(m_calib, dtype=np.float64)
    if m64.ndim != 2:
        raise ShapeError("calibration matrix must be 2-D")
    h = m64.T @ m64 / m64.shape[0]
    mean_diag = float(np.mean(np.diag(h)))
    if mean_diag <= 0:
        mean_diag = 1.0
    h[np.diag_indices_from(h)] += damp * mean_diag
    return h


def gptq_refine(b_init: QuantGrid, b_fp: np.ndarray, hessian: np.ndarray) -> QuantGrid:
    """Sequential quantization of B with error feedback.

    Walks the rank dimension of B (the contraction side of the second
    matmul, which is what the R x R Hessian describes): quantize one slice,
    then push its rounding error into the not-yet-quantized slices through
    the Cholesky factor of H^-1. Scales are taken as-is from `b_init`
    (static), only codes change. With H = I the feedback term vanishes and
    the result equals plain round-to-nearest.
    """
    b_fp = np.asarray(b_fp, dtype=np.float32)
    r, c_out = b_fp.shape
    if b_init.codes.shape != (r, c_out):
        raise ShapeError("b_init and b_fp shapes differ")
    if hessian.shape != (r, r):
        raise ShapeError(f"Hessian must be {r}x{r}, got {hessian.shape}")

    h = np.asarray(hessian, dtype=np.float64)
    h = 0.5 * (h + h.T)
    try:
        np.linalg.cholesky(h)
        h_inv = np.linalg.inv(h)
        h_inv = 0.5 * (h_inv + h_inv.T)
        # Upper factor U with H^-1 = U^T U; row j carries the feedback
        # weights from slice j to the slices after it.
        upper = np.linalg.cholesky(h_inv).T
    except np.linalg.LinAlgError as exc:
        raise ValidationError("Hessian is not positive definite") from exc

    desc = b_init.scale
    row_s, col_s = desc.row_col_vectors(r, c_out)
    scale_grid = row_s.astype(np.float64)[:, None] * col_s.astype(np.float64)[None, :]
    limit = (1 << (b_init.bits - 1)) - 1

    work = b_fp.astype(np.float64)
    codes = np.zeros((r, c_out), dtype=np.int8)
    for j in range(r):
        cj = work[j] / scale_grid[j]
        round_half_away(cj, limit)
        codes[j] = cj
        err = (work[j] - cj * scale_grid[j]) / upper[j, j]
        if j + 1 < r:
            work[j + 1 :] -= np.outer(upper[j, j + 1 :], err)
    return QuantGrid(codes, b_init.bits, desc)


# ---------------------------------------------------------------------------
# 1-bit sign+scale baseline


def bitdelta_compress(delta: np.ndarray) -> tuple[np.ndarray, float]:
    """Collapse a delta to sign(delta) with one mean-absolute scale.

    sign(0) counts as +1 so the sign grid is strictly +-1.
    """
    if not np.isfinite(delta).all():
        raise ValidationError("delta contains non-finite values")
    scale = float(np.mean(np.abs(delta, dtype=np.float64)))
    signs = np.where(delta < 0, -1, 1).astype(np.int8)
    return signs, scale


def bitdelta_dequantize(signs: np.ndarray, scale: float) -> np.ndarray:
    return (signs.astype(np.float32)) * np.float32(scale)


# ---------------------------------------------------------------------------
# int4 nibble packing (stored form of bits=4 grids)


def pack_int4(codes: np.ndarray) -> bytes:
    """Two codes per byte, row-major; low nibble holds the even column.

    Accepts the full two's-complement nibble range [-8, 7]. For an odd
    number of values the final high nibble is zero.
    """
    flat = np.asarray(codes, dtype=np.int64).reshape(-1)
    if flat.size and (flat.min() < -8 or flat.max() > 7):
        raise ValidationError("int4 codes must lie in [-8, 7]")
    nib = (flat & 0xF).astype(np.uint8)
    if nib.size % 2:
        nib = np.concatenate([nib, np.zeros(1, dtype=np.uint8)])
    lo = nib[0::2]
    hi = nib[1::2]
    return ((hi << 4) | lo).astype(np.uint8).tobytes()


def unpack_int4(data: bytes, rows: int, cols: int) -> np.ndarray:
    """Inverse of pack_int4 with sign extension; validates the pad nibble."""
    n = rows * cols
    expected = (n + 1) // 2
    if len(data) != expected:
        raise ValidationError(f"int4 payload must be {expected} bytes for {rows}x{cols}, got {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8)
    lo = raw & 0xF
    hi = raw >> 4
    nib = np.empty(raw.size * 2, dtype=np.uint8)
    nib[0::2] = lo
    nib[1::2] = hi
    if n % 2 and nib[n] != 0:
        raise ValidationError("trailing int4 pad nibble must be zero")
    nib = nib[:n]
    signed = nib.astype(np.int16)
    signed[signed >= 8] -= 16
    return signed.astype(np.int8).reshape(rows, cols)
