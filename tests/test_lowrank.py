import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jacobi_reference
from skillzip import RankPolicy, ShapeError, ValidationError, lowrank, split_factors, truncated_svd
from skillzip.lowrank import jacobi_svd_full
from skillzip import prng
from skillzip.prng import Prng
from skillzip.tensors import fro_norm
from svd_reference import power_deflation_svd


def _reconstruct(svd):
    return (svd.u.astype(np.float64) * svd.sigma[None, :]) @ svd.vt.astype(np.float64)


def test_diagonal_case():
    w = np.diag([2.0, 1.0]).astype(np.float32)
    svd = truncated_svd(w, RankPolicy.fixed(1))
    assert svd.sigma.tolist() == pytest.approx([2.0], rel=1e-10)
    assert np.allclose(np.abs(svd.u[:, 0]), [1.0, 0.0], atol=1e-10)
    assert svd.u[0, 0] > 0  # sign convention
    assert np.allclose(svd.vt[0], [1.0, 0.0], atol=1e-10)


def test_rank_one_outer_product():
    rng = Prng(61)
    u = rng.gauss_matrix(8, 1).astype(np.float64)
    v = rng.gauss_matrix(1, 6).astype(np.float64)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    w = (3.0 * u @ v).astype(np.float32)
    svd = truncated_svd(w, RankPolicy.fixed(2))
    assert svd.sigma[0] == pytest.approx(3.0, rel=1e-5)
    assert svd.sigma[1] <= 1e-5


def test_eckart_young_residual():
    rng = Prng(62)
    w = rng.uniform_matrix(16, 12, -1.0, 1.0)
    _, full_sigma, _ = jacobi_svd_full(w)
    svd = truncated_svd(w, RankPolicy.fixed(4))
    residual = fro_norm(w - _reconstruct(svd).astype(np.float32))
    expected = float(np.sqrt(np.sum(full_sigma[4:] ** 2)))
    assert residual == pytest.approx(expected, rel=1e-4)


def test_orthonormal_factors():
    rng = Prng(63)
    for rows, cols in ((10, 7), (7, 10), (9, 9)):
        w = rng.uniform_matrix(rows, cols, -2.0, 2.0)
        u, sigma, vt = jacobi_svd_full(w)
        k = min(rows, cols)
        assert u.shape == (rows, k) and vt.shape == (k, cols)
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
        assert np.abs(vt @ vt.T - np.eye(k)).max() <= 1e-10
        assert (np.diff(sigma) <= 1e-12).all()  # nonincreasing
        rebuilt = (u * sigma[None, :]) @ vt
        assert fro_norm((rebuilt - w).astype(np.float32)) <= 1e-8 * max(fro_norm(w), 1e-12)


def test_sign_convention_and_determinism():
    rng = Prng(64)
    w = rng.uniform_matrix(12, 9, -1.0, 1.0)
    u1, s1, vt1 = jacobi_svd_full(w)
    u2, s2, vt2 = jacobi_svd_full(w.copy())
    assert np.array_equal(u1, u2) and np.array_equal(s1, s2) and np.array_equal(vt1, vt2)
    for j in range(u1.shape[1]):
        peak = np.argmax(np.abs(u1[:, j]))
        assert u1[peak, j] >= 0


def test_residual_monotone_in_rank():
    rng = Prng(65)
    w = rng.uniform_matrix(14, 11, -1.0, 1.0)
    residuals = []
    for r in range(1, 12):
        svd = truncated_svd(w, RankPolicy.fixed(r))
        residuals.append(fro_norm(w.astype(np.float64) - _reconstruct(svd)))
    assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(len(residuals) - 1))


def test_energy_policy_picks_smallest_rank():
    w = np.diag([4.0, 2.0, 1.0]).astype(np.float32)
    # total energy 21; eta=0.76 needs sigma^2 sum >= 15.96 -> ranks {4} (16) suffice
    svd = truncated_svd(w, RankPolicy.energy(0.76))
    assert svd.sigma.size == 1
    svd = truncated_svd(w, RankPolicy.energy(0.97))  # needs 20.37 -> two ranks (20)... not enough, three
    assert svd.sigma.size == 3
    svd = truncated_svd(w, RankPolicy.energy(1.0))
    assert svd.sigma.size == 3


def test_rank_exceeds_dimension():
    with pytest.raises(ValidationError):
        truncated_svd(np.ones((3, 4), dtype=np.float32), RankPolicy.fixed(4))


def test_zero_matrix():
    svd = truncated_svd(np.zeros((3, 3), dtype=np.float32), RankPolicy.fixed(2))
    assert (svd.sigma == 0).all()
    assert np.abs(svd.u.T @ svd.u - np.eye(2)).max() <= 1e-6


def test_complete_column_when_no_basis_vector_keeps_half():
    # Eight columns orthogonal to (1, ..., 1) / 3: projected off them, every e_k
    # keeps only 1 / 3 of its length, below the 0.5 the first pass accepts.
    q, _ = np.linalg.qr(np.hstack([np.ones((9, 1)), np.random.default_rng(0).standard_normal((9, 8))]))
    u = np.hstack([q[:, 1:], np.empty((9, 1))])
    u[:, 8] = lowrank._complete_column(u, 8)
    assert np.abs(u.T @ u - np.eye(9)).max() <= 1e-12


def test_agreement_with_power_iteration():
    rng = Prng(66)
    for trial in range(5):
        w = rng.uniform_matrix(20, 15, -1.0, 1.0)
        r = 4
        svd = truncated_svd(w, RankPolicy.fixed(r))
        u2, s2, vt2 = power_deflation_svd(w, r)
        assert np.abs(svd.sigma - s2).max() <= 1e-4 * svd.sigma[0]
        rec1 = _reconstruct(svd)
        rec2 = (u2 * s2[None, :]) @ vt2
        assert fro_norm((rec1 - rec2).astype(np.float32)) <= 1e-4 * max(fro_norm(rec1.astype(np.float32)), 1e-12)


# ---------------------------------------------------------------------------
# Row-layout Jacobi against the frozen column-gather loop, bit for bit

JACOBI_KINDS = ("gauss", "zero-column", "signed-zeros", "repeated-column", "rank-deficient", "orthogonal", "float32")


def _jacobi_input(m: int, n: int, kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
    if kind == "zero-column":
        a[:, rng.integers(n)] = (0.0, -0.0)[rng.integers(2)]  # signed zeros must come back unchanged
    elif kind == "signed-zeros":
        # Zeros that keep their entry's sign (-0.0 and +0.0), scattered and
        # off the rows that one column alone holds: that column is orthogonal
        # to the rest, never turns, and keeps its signed zeros in the output.
        own = rng.random(m) < 0.3
        keep = own[:, None] == (np.arange(n) == rng.integers(n))[None, :]
        a[~keep | (rng.random((m, n)) < 0.1)] *= 0.0
    elif kind == "repeated-column":
        a[:, rng.integers(n)] = a[:, rng.integers(n)]
    elif kind == "rank-deficient":
        a = a[:, : max(1, n // 2)] @ rng.standard_normal((max(1, n // 2), n))
    elif kind == "orthogonal":
        a = np.eye(m, n)[:, rng.permutation(n)] * rng.uniform(0.5, 2.0, n)
    elif kind == "float32":
        a = a.astype(np.float32)
    return a


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: signed zeros count."""
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 13).flatmap(lambda n: st.tuples(st.integers(n, 3 * n + 8), st.just(n))),
    st.sampled_from(JACOBI_KINDS),
    st.integers(0, 2**32 - 1),
)
@example((1, 1), "gauss", 0)
@example((6, 2), "zero-column", 1)
@example((9, 3), "repeated-column", 2)
@example((7, 7), "orthogonal", 3)
@example((11, 11), "rank-deficient", 4)
@example((160, 3), "float32", 5)
@example((512, 72), "gauss", 6)  # compress-sketch's projected matrix
@example((192, 128), "gauss", 7)  # compress-exact's delta
def test_jacobi_matches_reference_bits(shape, kind, seed):
    a = _jacobi_input(*shape, kind, seed)
    got = lowrank._jacobi_orthogonalize(a)
    with np.errstate(over="ignore"):  # the frozen loop warns where zeta * zeta overflows
        want = jacobi_reference.jacobi_orthogonalize(a)
    assert all(_same_bits(g, w) and g.flags.c_contiguous for g, w in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(st.integers(n, 2 * n + 8), st.just(n))),
    st.booleans(),
    st.sampled_from(JACOBI_KINDS),
    st.integers(0, 2**32 - 1),
)
@example((9, 9), True, "zero-column", 0)  # zeta * zeta overflows: t must come out +-0 without a warning
@example((9, 9), False, "zero-column", 6)  # no basis vector keeps half its length off the 8 nonzero triplets
@example((512, 72), False, "gauss", 8)
@example((192, 128), False, "gauss", 9)
def test_jacobi_svd_full_matches_reference_bits(shape, wide, kind, seed):
    """Tall and wide inputs through the whole decomposition: u, sigma and vt
    keep their bits when the reference loop is swapped in."""
    w = _jacobi_input(*shape, kind, seed)
    w = w.T.copy() if wide else w
    got = jacobi_svd_full(w)
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
        patch.setattr(lowrank, "_jacobi_orthogonalize", jacobi_reference.jacobi_orthogonalize)
        want = jacobi_svd_full(w)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(st.integers(n, 2 * n + 8), st.just(n))),
    st.sampled_from(JACOBI_KINDS),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_jacobi_makes_no_negative_zero(shape, kind, seed, tiny_share):
    """From an input with no -0.0, subnormal entries (~1e-310) included, no
    entry of a or V comes back -0.0. Skipping the pairs that do not turn
    changes no bit only while w holds no -0.0, so this pins that turning
    rows never makes one."""
    a = _jacobi_input(*shape, kind, seed).astype(np.float64)
    a[np.random.default_rng(seed).random(a.shape) < tiny_share] *= 1e-310
    a += 0.0  # -0.0 + 0.0 is +0.0
    assert not np.signbit(a[a == 0.0]).any()
    assert all(not np.signbit(g[g == 0.0]).any() for g in lowrank._jacobi_orthogonalize(a))


def test_round_robin_rounds_cached_read_only():
    rounds = lowrank._round_robin_rounds(7)
    assert rounds is lowrank._round_robin_rounds(7)
    assert all(not p.flags.writeable and not q.flags.writeable for p, q in rounds)
    assert [(p.tolist(), q.tolist()) for p, q in rounds] == [
        (p.tolist(), q.tolist()) for p, q in jacobi_reference.round_robin_rounds(7)
    ]


def test_sketch_test_matrix_drawn_once_per_shape():
    omega = lowrank._sketch_test_matrix(200, 160, 16)
    assert omega is lowrank._sketch_test_matrix(200, 160, 16)
    assert not omega.flags.writeable and omega.shape == (160, 16) and omega.dtype == np.float64
    with pytest.raises(ValueError):
        omega[0, 0] = 1.0


@pytest.mark.parametrize(
    "shape,policy,sketched",
    [((200, 144), RankPolicy.fixed(12), True), ((40, 30), RankPolicy.energy(0.9), False), ((30, 40), RankPolicy.fixed(3), False)],
)
def test_prepare_builds_every_table_a_sketched_svd_reads(shape, policy, sketched):
    """After `prepare`, a sketched decomposition of that shape and policy
    builds no Jacobi schedule, test matrix or jump matrix: a forked worker
    inherits them all. On the exact path `prepare` builds nothing."""
    w = Prng(7).gauss_matrix(*shape)
    caches = (lowrank._round_robin_rounds, lowrank._sketch_test_matrix, prng._jump)
    for cache in caches:
        cache.cache_clear()
    lowrank.prepare(shape, policy)
    built = [cache.cache_info().misses for cache in caches]
    assert [n > 0 for n in built] == [sketched] * 3
    assert lowrank.exact_path(shape, policy) != sketched
    if sketched:
        truncated_svd(w, policy)
        assert [cache.cache_info().misses for cache in caches] == built


# ---------------------------------------------------------------------------
# Square-root energy split


def test_split_scalar_oracle():
    from skillzip.lowrank import SvdResult

    svd = SvdResult(
        u=np.array([[1.0], [0.0]], dtype=np.float32),
        sigma=np.array([4.0]),
        vt=np.array([[1.0, 0.0]], dtype=np.float32),
    )
    a, b = split_factors(svd)
    assert np.allclose(a, [[2.0], [0.0]])
    assert np.allclose(b, [[2.0, 0.0]])


def test_split_zero_triplet():
    from skillzip.lowrank import SvdResult

    svd = SvdResult(
        u=np.array([[1.0], [0.0]], dtype=np.float32),
        sigma=np.array([0.0]),
        vt=np.array([[0.0, 1.0]], dtype=np.float32),
    )
    a, b = split_factors(svd)
    assert not a.any() and not b.any()


def test_split_negative_sigma_rejected():
    from skillzip.lowrank import SvdResult

    svd = SvdResult(
        u=np.ones((1, 1), dtype=np.float32),
        sigma=np.array([-1.0]),
        vt=np.ones((1, 1), dtype=np.float32),
    )
    with pytest.raises(ValidationError):
        split_factors(svd)


def test_split_energy_balance_and_product():
    rng = Prng(67)
    w = rng.uniform_matrix(16, 8, -1.0, 1.0)
    svd = truncated_svd(w, RankPolicy.fixed(5))
    a, b = split_factors(svd)
    for i in range(5):
        na = np.linalg.norm(a[:, i].astype(np.float64))
        nb = np.linalg.norm(b[i, :].astype(np.float64))
        assert na == pytest.approx(nb, abs=1e-4, rel=1e-4)
    product = a.astype(np.float64) @ b.astype(np.float64)
    assert fro_norm((product - _reconstruct(svd)).astype(np.float32)) <= 1e-5 * max(
        fro_norm(_reconstruct(svd).astype(np.float32)), 1e-12
    )


@pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
def test_empty_matrix_refused(shape):
    """The exact SVD and an energy-policy truncated SVD refuse an empty
    matrix, in either orientation, with ShapeError."""
    w = np.zeros(shape, dtype=np.float32)
    with pytest.raises(ShapeError, match="non-empty"):
        jacobi_svd_full(w)
    with pytest.raises(ShapeError, match="non-empty"):
        truncated_svd(w, RankPolicy.energy(0.9))
