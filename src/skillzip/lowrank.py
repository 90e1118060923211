"""Truncated SVD and the square-root energy split into factors.

The decomposition is a one-sided Jacobi SVD: plane rotations orthogonalize
the columns of the working matrix, accumulating the right factor, until
every column pair is orthogonal to a fixed threshold. Rotations are applied
in round-robin rounds of disjoint pairs so each round vectorizes, and the
schedule is fixed, which makes the result deterministic for a given input
on a given platform. The working matrix a (m x n) and the accumulated V
live in one C-contiguous row matrix w = [a^T | V^T]: row j is column j of a
followed by column j of V, so no strided column is ever gathered. The
squared norm of each row's first m entries is kept and recomputed only when
the row turns. A round gathers those first m entries of its pairs' rows for
their cross products; then only the pairs past the threshold (Rutishauser's
threshold Jacobi) have their whole rows turned and scattered back. Skipping
a pair equals turning it by c = 1, s = 0 unless its rows hold a -0.0, which
1 * x - 0 * y may make +0.0; and turning rows that hold no -0.0 makes none:
c >= 1/sqrt(2) keeps c * x nonzero and, under gradual underflow, x - y == 0
only for x == y, giving +0.0. So while w holds a -0.0 (tested before the
first sweep and, while it does, after each) every pair of a round turns, the
skipped ones by c = 1, s = 0. A sign convention (largest-magnitude entry of
each left singular vector nonnegative) pins the remaining per-triplet ambiguity.

The split A = U sqrt(S), B = sqrt(S) V^T balances each rank's energy
between the two factors: column i of A and row i of B end up with equal
2-norms. That balance is what the later rank-wise rotation spreads across
dimensions before quantization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .prng import Prng

JACOBI_TOL = 1e-10
JACOBI_MAX_SWEEPS = 60


@dataclass(frozen=True)
class RankPolicy:
    """Number of retained triplets: a fixed count or an energy fraction."""

    mode: str
    value: float

    @staticmethod
    def fixed(r: float) -> "RankPolicy":
        if not 1 <= r <= 2**53 or r != int(r):  # a whole number the float value holds exactly
            raise ValidationError(f"fixed rank must be a whole number >= 1, got {r!r}")
        return RankPolicy("fixed", float(r))

    @staticmethod
    def energy(eta: float) -> "RankPolicy":
        if not (0.0 < eta <= 1.0):
            raise ValidationError("energy fraction must lie in (0, 1]")
        return RankPolicy("energy", float(eta))


@dataclass
class SvdResult:
    u: np.ndarray  # (m, R) float32, orthonormal columns
    sigma: np.ndarray  # (R,) float64, nonincreasing, >= 0
    vt: np.ndarray  # (R, n) float32, orthonormal rows


@functools.lru_cache(maxsize=32)
def _round_robin_rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Tournament schedule: n-1 rounds of disjoint index pairs covering all
    column pairs exactly once. Odd n gets a bye slot. Cached per n, so the
    index arrays are read-only."""
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
        rounds[-1][0].flags.writeable = rounds[-1][1].flags.writeable = False
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return tuple(rounds)


def _jacobi_orthogonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate column pairs of `a` until all are mutually orthogonal.

    Returns C-contiguous (a_rotated, v) with a_rotated == a_input @ v and v
    orthogonal, turned in the row matrix w of the module docstring.
    """
    m, n = a.shape
    w = np.hstack([a.T.astype(np.float64), np.eye(n, dtype=np.float64)])
    rounds = _round_robin_rounds(n)
    buffers = [np.empty((len(rounds[0][0]), m + n), dtype=np.float64) for _ in range(4)]
    # Each a-part reduced here is one contiguous run of m doubles, as each
    # column of the F-ordered column gather a[:, p] was, so einsum reduces it
    # with the same kernel in the same order: the sums keep their bits.
    norms = np.einsum("ij,ij->i", w[:, :m], w[:, :m])
    negzero = True
    for _ in range(JACOBI_MAX_SWEEPS):
        negzero = negzero and bool(np.signbit(w[w == 0.0]).any())
        rotated = 0
        for p, q in rounds:
            alpha, beta = norms[p], norms[q]
            gamma = np.einsum("ij,ij->i", w[p, :m], w[q, :m])
            need = np.abs(gamma) > JACOBI_TOL * np.sqrt(alpha * beta)
            count = int(np.count_nonzero(need))
            if count == 0:
                continue
            rotated += count
            # |zeta| > 1e154 gives t = +-0, the limit of 1 / (2 zeta). Only a
            # pair that does not turn can have gamma == 0; its c and s are dropped.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            if count < len(p) and negzero:  # c = 1, s = 0 may flip a -0.0: keep the skipped pairs' pass
                c, s = np.where(need, c, 1.0), np.where(need, s, 0.0)
            elif count < len(p):  # with no -0.0 in w, c = 1, s = 0 would change no bit
                p, q, c, s = p[need], q[need], c[need], s[need]
            rot, tmp, cw, sw = (b[: len(p)] for b in buffers)
            wp, wq = w[p], w[q]
            np.copyto(cw, c[:, None])  # full rows multiply faster than a broadcast column
            np.copyto(sw, s[:, None])
            np.subtract(np.multiply(cw, wp, out=rot), np.multiply(sw, wq, out=tmp), out=rot)
            w[p] = rot
            np.add(np.multiply(sw, wp, out=tmp), np.multiply(cw, wq, out=wq), out=wq)
            w[q] = wq
            norms[p] = np.einsum("ij,ij->i", rot[:, :m], rot[:, :m])
            norms[q] = np.einsum("ij,ij->i", wq[:, :m], wq[:, :m])
        if rotated == 0:
            break
    return np.ascontiguousarray(w[:, :m].T), np.ascontiguousarray(w[:, m:].T)


def _complete_column(u: np.ndarray, j: int) -> np.ndarray:
    """Deterministic unit vector orthogonal to u[:, :j] (for zero triplets).

    The first basis vector whose residual keeps more than half its length is
    taken; failing that, the one with the longest residual. With u[:, :j]
    orthonormal the squared residual norms sum to m - j, so the longest is at
    least sqrt(1 / m) while j < m, even when none reaches 0.5.
    """
    m = u.shape[0]
    best, best_norm = None, 0.0
    for k in range(m):
        cand = np.zeros(m, dtype=np.float64)
        cand[k] = 1.0
        if j:
            cand -= u[:, :j] @ (u[:, :j].T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 0.5:
            return cand / norm
        if norm > best_norm:
            best, best_norm = cand, norm
    if best is None or best_norm <= 0.5 / np.sqrt(m):
        raise ValidationError("could not complete an orthonormal basis")
    best -= u[:, :j] @ (u[:, :j].T @ best)  # a short residual loses digits: project once more
    return best / np.linalg.norm(best)


def _svd_tall(w: np.ndarray):
    """Decomposition for m >= n, no sign convention yet."""
    m, n = w.shape
    rotated, v = _jacobi_orthogonalize(w)
    norms = np.linalg.norm(rotated, axis=0)
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    u = np.empty((m, n), dtype=np.float64)
    for out_j, src_j in enumerate(order):
        if sigma[out_j] > 0.0:
            u[:, out_j] = rotated[:, src_j] / sigma[out_j]
        else:
            u[:, out_j] = _complete_column(u, out_j)
    vt = v[:, order].T.copy()
    return u, sigma, vt


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Sign convention, in place: flip triplets so each u column's peak
    entry is >= 0."""
    for j in range(u.shape[1]):
        peak = np.argmax(np.abs(u[:, j]))
        if u[peak, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]


def jacobi_svd_full(w: np.ndarray):
    """Full decomposition w == u @ diag(sigma) @ vt with min(m, n) triplets.

    sigma comes back sorted nonincreasing; u columns and vt rows are
    orthonormal; the largest-magnitude entry of each u column is
    nonnegative.
    """
    if w.ndim != 2 or 0 in w.shape:
        raise ShapeError(f"decomposition input must be 2-D and non-empty, got {w.shape}")
    if not np.isfinite(w).all():
        raise ValidationError("decomposition input contains non-finite values")
    m, n = w.shape
    if m >= n:
        u, sigma, vt = _svd_tall(w)
    else:
        ut, sigma, vtt = _svd_tall(w.T.copy())
        u, vt = vtt.T.copy(), ut.T.copy()
    _fix_signs(u, vt)
    return u, sigma, vt


_SKETCH_MIN_DIM = 128  # below this the exact path is already fast
_SKETCH_OVERSAMPLE = 8
_SKETCH_POWER_ITERS = 2


def _orth_columns(y: np.ndarray) -> np.ndarray:
    """Deterministic MGS orthonormalization with reorthogonalization;
    dependent columns are replaced by a basis completion."""
    y = y.astype(np.float64).copy()
    m, k = y.shape
    q = np.zeros((m, k), dtype=np.float64)
    for j in range(k):
        col = y[:, j]
        for _ in range(2):
            if j:
                col = col - q[:, :j] @ (q[:, :j].T @ col)
        norm = np.linalg.norm(col)
        scale = max(np.linalg.norm(y[:, j]), 1.0)
        if norm > 1e-12 * scale:
            q[:, j] = col / norm
        else:
            q[:, j] = _complete_column(q, j)
    return q


@functools.lru_cache(maxsize=8)
def _sketch_test_matrix(m: int, n: int, k: int) -> np.ndarray:
    """Gaussian (n, k) test matrix seeded by the shape alone: drawn once per shape, read-only."""
    omega = Prng(0x53564431 ^ (m * 1000003 + n * 1009 + k)).gauss_matrix(n, k).astype(np.float64)
    omega.flags.writeable = False
    return omega


def _sketch_width(m: int, n: int, r: int) -> int:
    """Columns of the sketch of an (m, n) matrix at rank r."""
    return min(m, n, r + _SKETCH_OVERSAMPLE)


def _sketched_svd(w: np.ndarray, r: int):
    """Randomized range finder + exact Jacobi on the projected matrix.

    The test matrix depends on the shape alone, so the result is a pure
    function of the input. Subspace iterations sharpen the range estimate
    enough for the downstream quantization stages, whose error dwarfs the
    sketch suboptimality. Returns the r + oversample leading triplets; the
    caller keeps the first r.
    """
    m, n = w.shape
    k = _sketch_width(m, n, r)
    w64 = w.astype(np.float64)
    q = _orth_columns(w64 @ _sketch_test_matrix(m, n, k))
    for _ in range(_SKETCH_POWER_ITERS):
        q = _orth_columns(w64.T @ q)
        q = _orth_columns(w64 @ q)
    b = q.T @ w64  # (k, n)
    ub_t, sigma, vtb_t = _svd_tall(b.T.copy())
    u = q @ vtb_t.T  # (m, k)
    vt = ub_t.T  # (k, n)
    _fix_signs(u, vt)
    return u, sigma, vt


def exact_path(shape: tuple[int, ...], policy: RankPolicy) -> bool:
    """Whether `truncated_svd` decomposes a matrix of this shape under this
    policy with the exact Jacobi SVD rather than the sketched one."""
    min_dim = min(shape)
    return policy.mode != "fixed" or min_dim < _SKETCH_MIN_DIM or int(policy.value) > min_dim // 4


def prepare(shape: tuple[int, int], policy: RankPolicy) -> None:
    """Build the tables a sketched `truncated_svd` of this shape and policy
    reads (test matrix, jump matrices, Jacobi schedule); exact: nothing."""
    if not exact_path(shape, policy):
        k = _sketch_width(*shape, int(policy.value))
        _sketch_test_matrix(*shape, k)
        _round_robin_rounds(k)


def truncated_svd(w: np.ndarray, policy: RankPolicy) -> SvdResult:
    """Top-R triplets of `w` under the given rank policy.

    Fixed small ranks on large matrices go through the randomized-subspace
    accelerated path; everything else (small inputs, wide ranks, energy
    policies that need the full spectrum) uses the exact Jacobi reference.
    """
    min_dim = min(w.shape)
    if policy.mode == "fixed" and int(policy.value) > min_dim:
        raise ValidationError(f"rank {int(policy.value)} exceeds min dimension {min_dim}")
    if exact_path(w.shape, policy):
        u, sigma, vt = jacobi_svd_full(w)
    else:
        if not np.isfinite(w).all():
            raise ValidationError("decomposition input contains non-finite values")
        u, sigma, vt = _sketched_svd(w, int(policy.value))
    if policy.mode == "fixed":
        r = int(policy.value)
    else:
        total = float(np.sum(sigma**2))
        if total == 0.0:
            r = 1
        else:
            cum = np.cumsum(sigma**2)
            r = int(np.searchsorted(cum, policy.value * total - 1e-18) + 1)
            r = min(r, min_dim)
    return SvdResult(u[:, :r].astype(np.float32), sigma[:r].copy(), vt[:r, :].astype(np.float32))


def split_factors(svd: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Energy-balanced factors: A = U sqrt(S), B = sqrt(S) V^T."""
    if (svd.sigma < 0).any():
        raise ValidationError("singular values must be nonnegative")
    root = np.sqrt(svd.sigma)
    a = (svd.u.astype(np.float64) * root[None, :]).astype(np.float32)
    b = (root[:, None] * svd.vt.astype(np.float64)).astype(np.float32)
    return a, b
