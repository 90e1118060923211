"""Reference one-sided Jacobi for cross-checking `skillzip.lowrank`.

A frozen copy of the earlier column-gather form of the orthogonalization:
every round gathers columns `a[:, p]`, `a[:, q]`, `v[:, p]`, `v[:, q]`,
reduces them with einsum, rotates and scatters them back. The library's
row-layout loop must return the same bits, so the two are compared with
`tobytes`, not with a tolerance.
"""

import numpy as np

from skillzip.lowrank import JACOBI_MAX_SWEEPS, JACOBI_TOL


def round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament schedule: n-1 rounds of disjoint index pairs covering all
    column pairs exactly once. Odd n gets a bye slot."""
    players = list(range(n))
    if n % 2:
        players.append(-1)
    size = len(players)
    rounds = []
    arr = players[:]
    for _ in range(size - 1):
        p, q = [], []
        for i in range(size // 2):
            a, b = arr[i], arr[size - 1 - i]
            if a != -1 and b != -1:
                p.append(min(a, b))
                q.append(max(a, b))
        rounds.append((np.array(p, dtype=np.intp), np.array(q, dtype=np.intp)))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return rounds


def jacobi_orthogonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate column pairs of `a` until all are mutually orthogonal.

    Returns (a_rotated, v) with a_rotated == a_input @ v and v orthogonal.
    """
    m, n = a.shape
    a = a.astype(np.float64).copy()
    v = np.eye(n, dtype=np.float64)
    if n == 1:
        return a, v
    rounds = round_robin_rounds(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = 0
        for p, q in rounds:
            ap = a[:, p]
            aq = a[:, q]
            alpha = np.einsum("ij,ij->j", ap, ap)
            beta = np.einsum("ij,ij->j", aq, aq)
            gamma = np.einsum("ij,ij->j", ap, aq)
            need = np.abs(gamma) > JACOBI_TOL * np.sqrt(alpha * beta)
            if not need.any():
                continue
            rotated += int(need.sum())
            zeta = np.zeros_like(gamma)
            np.divide(beta - alpha, 2.0 * gamma, out=zeta, where=need)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            c = np.where(need, c, 1.0)
            s = np.where(need, s, 0.0)
            a[:, p] = c * ap - s * aq
            a[:, q] = s * ap + c * aq
            vp = v[:, p]
            vq = v[:, q]
            v[:, p] = c * vp - s * vq
            v[:, q] = s * vp + c * vq
        if rotated == 0:
            break
    return a, v
