"""Reference lockstep Gram-Schmidt for cross-checking `skillzip.smoothing`.

A frozen copy of the earlier left-looking form of `_gram_schmidt`: column j
takes its projections on q_0 .. q_{j-1} one stacked ddot at a time, twice
(modified Gram-Schmidt with one reorthogonalization pass), and each
candidate's norm is its own `np.linalg.norm`. The library's right-looking
first pass must return the same bits, so the two are compared with
`tobytes`, not with a tolerance.
"""

import numpy as np


def gram_schmidt(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal float64 bases q[k] for the draws w[k, j] (candidate k's
    draw for its column j), and the mask of full-rank candidates."""
    count, r, _ = w.shape
    q = np.empty((count, r, r))
    col = np.empty((count, r))
    proj = np.empty((count, r))
    dot = np.empty((count, 1, 1))
    norms = np.empty(count)
    full = np.ones(count, dtype=bool)
    matmul, multiply, subtract = np.matmul, np.multiply, np.subtract
    for j in range(r):
        np.copyto(col, w[:, j])
        for _ in range(2):
            for i in range(j):
                qi = q[:, :, i]
                matmul(qi[:, None, :], col[:, :, None], out=dot)
                multiply(qi, dot[:, 0], out=proj)
                subtract(col, proj, out=col)
        for k in range(count):
            norms[k] = np.linalg.norm(col[k])
        degenerate = norms <= 1e-8
        if degenerate.any():
            full[degenerate] = False
            norms[degenerate] = 1.0
        col /= norms[:, None]
        peak = np.max(np.abs(col), axis=1, keepdims=True)
        lead = np.argmax(np.abs(col) > 1e-12 * peak, axis=1)
        np.negative(col, out=col, where=col[np.arange(count), lead][:, None] < 0)
        q[:, :, j] = col
    return q, full
