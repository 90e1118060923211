"""Dense matrix primitives shared by every stage.

A dense matrix is a 2-D float32 ndarray, row-major, finite. Helpers here
provide the floating-point oracle operations (matmul, Frobenius norm) that
everything downstream is measured against.
Both accumulate in float64 so results do not depend on reduction order,
then round once to float32.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product with float64 accumulation, rounded once to float32."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(np.float32)


def fro_norm(m: np.ndarray) -> float:
    """Frobenius norm with float64 accumulation."""
    return float(np.sqrt(np.sum(np.square(m, dtype=np.float64), dtype=np.float64)))

