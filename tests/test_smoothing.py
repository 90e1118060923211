import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillzip import (
    QuantConfig,
    ShapeError,
    ValidationError,
    apply_smooth,
    compute_smooth,
    fold_rotation,
    sample_rotation,
    select_rotation,
)
import gram_schmidt_reference
from skillzip import smoothing
from skillzip.prng import Prng
from skillzip.tensors import fro_norm, matmul


def test_balanced_case_gives_identity_smoothing():
    # Every channel's mean activation equals its weight-row peak, alpha=0.5:
    # c^0.5 / c^0.5 == 1 for all channels.
    w = np.array([[0.5, 2.0], [3.0, -1.0]], dtype=np.float32)
    row_peaks = np.abs(w).max(axis=1)
    s = compute_smooth(row_peaks, w, alpha=0.5)
    assert np.allclose(s, 1.0, atol=1e-6)


def test_alpha_one_returns_mean_abs():
    w = np.array([[9.0], [0.25]], dtype=np.float32)
    s = compute_smooth(np.array([4.0, 1.0]), w, alpha=1.0, epsilon=1e-5)
    assert np.allclose(s, [4.0, 1.0], atol=1e-7)


def test_zero_stats_clamped_finite():
    w = np.ones((3, 2), dtype=np.float32)
    s = compute_smooth(np.zeros(3), w, alpha=0.7, epsilon=1e-5)
    assert np.isfinite(s).all()
    assert (s >= 1e-5).all()


def test_monotone_in_mean_abs():
    rng = Prng(70)
    w = rng.uniform_matrix(6, 4, -2.0, 2.0)
    stats = np.abs(rng.uniform_matrix(1, 6, 0.0, 5.0)).reshape(-1).astype(np.float64)
    s0 = compute_smooth(stats, w)
    for i in range(6):
        bumped = stats.copy()
        bumped[i] *= 3.0
        s1 = compute_smooth(bumped, w)
        assert s1[i] >= s0[i] - 1e-12


def test_length_mismatch():
    with pytest.raises(ShapeError):
        compute_smooth(np.ones(3), np.ones((2, 2), dtype=np.float32))


def test_apply_smooth_identity_vector():
    rng = Prng(71)
    x = rng.uniform_matrix(4, 3, -1, 1)
    w = rng.uniform_matrix(3, 5, -1, 1)
    xs, ws = apply_smooth(x, w, np.ones(3, dtype=np.float32))
    assert np.array_equal(xs, x)
    assert np.array_equal(ws, w)


def test_apply_smooth_scalar_oracle():
    x = np.array([[2.0, 0.0]], dtype=np.float32)
    w = np.array([[1.0], [1.0]], dtype=np.float32)
    xs, ws = apply_smooth(x, w, np.array([2.0, 1.0], dtype=np.float32))
    assert xs.tolist() == [[1.0, 0.0]]
    assert ws.tolist() == [[2.0], [1.0]]
    assert matmul(xs, ws).tolist() == matmul(x, w).tolist()


def test_smoothing_product_identity():
    rng = Prng(72)
    for _ in range(10):
        x = rng.uniform_matrix(8, 8, -3.0, 3.0)
        w = rng.uniform_matrix(8, 8, -3.0, 3.0)
        s = np.abs(rng.uniform_matrix(1, 8, 0.1, 4.0)).reshape(-1).astype(np.float32)
        xs, ws = apply_smooth(x, w, s)
        ref = matmul(x, w)
        assert fro_norm(ref - matmul(xs, ws)) <= 1e-5 * max(fro_norm(ref), 1e-12)


def test_apply_smooth_rejects_nonpositive():
    x = np.ones((1, 2), dtype=np.float32)
    w = np.ones((2, 1), dtype=np.float32)
    with pytest.raises(ValidationError):
        apply_smooth(x, w, np.array([1.0, 0.0], dtype=np.float32))


# ---------------------------------------------------------------------------
# Rotation sampling and folding


def test_rotation_r1_is_identity():
    q = sample_rotation(Prng(1), 1)
    assert q.tolist() == [[1.0]]


def test_rotation_orthogonality():
    for r in (2, 5, 16, 33):
        q = sample_rotation(Prng(r), r).astype(np.float64)
        err = fro_norm((q.T @ q - np.eye(r)).astype(np.float32))
        assert err <= 1e-6 * np.sqrt(r)


def test_rotation_deterministic():
    a = sample_rotation(Prng(99), 8)
    b = sample_rotation(Prng(99), 8)
    assert a.tobytes() == b.tobytes()


def _sample_rotation_per_draw(prng, r, max_attempts=50, dtype=np.float32):
    """The one-gauss()-per-entry MGS that sample_rotation replaced; oracle.
    Its float64 basis (dtype=np.float64) pins the lockstep body before the
    float32 rounding that hides most last-bit differences."""
    q = np.empty((r, r), dtype=np.float64)
    for j in range(r):
        for attempt in range(max_attempts + 1):
            col = np.array([prng.gauss() for _ in range(r)], dtype=np.float64)
            for _ in range(2):
                for i in range(j):
                    col -= np.dot(q[:, i], col) * q[:, i]
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
    return q.astype(dtype)


class _ScriptedDraws:
    """A Gaussian source that serves a fixed script, singly or in blocks."""

    def __init__(self, values):
        self.values = [float(v) for v in values]
        self.pos = 0

    def gauss(self):
        self.pos += 1
        return self.values[self.pos - 1]

    def gauss_block(self, n):
        assert self.pos + n <= len(self.values), "script exhausted"
        self.pos += n
        return np.array(self.values[self.pos - n : self.pos], dtype=np.float64)


@pytest.mark.parametrize("r", [1, 2, 6, 27, 32, 33, 64])
def test_rotation_matches_per_draw_oracle(r):
    a, b = Prng(500 + r), Prng(500 + r)
    a.gauss()
    b.gauss()  # start with a pending spare
    assert sample_rotation(a, r).tobytes() == _sample_rotation_per_draw(b, r).tobytes()
    assert a._s == b._s and a._gauss_spare == b._gauss_spare


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 140), st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_stacked_matmul_is_the_strided_dot(r, count, seed, data):
    """The lockstep MGS rests on this: a stacked vector-vector matmul over
    strided (count, 1, r) basis columns makes the same ddot, bit for bit,
    as each candidate's own ndarray.dot on its column view."""
    i = data.draw(st.integers(0, r - 1))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((count, r, r))
    w = rng.standard_normal((count, r))
    stacked = np.empty((count, 1, 1))
    np.matmul(q[:, None, :, i], w[:, :, None], out=stacked)
    single = np.array([q[k, :, i].dot(w[k]) for k in range(count)])
    assert stacked.reshape(-1).tobytes() == single.tobytes()


def _lockstep_bytes(r, per_chunk):
    """A chunk cap that fits `per_chunk` candidates of size r."""
    return 16 * r * r * per_chunk


def _assert_lockstep_matches_oracle(seed, r, count, spare):
    """`count` lockstep rotations equal `count` sequential per-draw calls and
    leave the same stream state, pending Gaussian included."""
    a, b = Prng(seed), Prng(seed)
    if spare:
        a.gauss()
        b.gauss()
    got = list(smoothing._draw_rotations(a, r, count))
    want = [_sample_rotation_per_draw(b, r) for _ in range(count)]
    assert [q.tobytes() for q in got] == [q.tobytes() for q in want]
    assert a._s == b._s and a._gauss_spare == b._gauss_spare


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("count", [1, 2, 10])
@pytest.mark.parametrize("r", [1, 2, 6, 27, 32, 33, 64])
def test_lockstep_rotations_match_sequential_oracle(r, count, spare):
    _assert_lockstep_matches_oracle(900 + r * count, r, count, spare)


@pytest.mark.parametrize("r", [4, 33, 64])
def test_lockstep_float64_bases_match_oracle(r):
    """Each stacked basis equals a lone per-draw MGS on its own draws in
    every float64 bit, so the stacked dots add in the lone dots' order."""
    count = 4
    w = Prng(960 + r).gauss_block(count * r * r).reshape(count, r, r)
    got, full = smoothing._gram_schmidt(w.copy())
    assert full.all()
    for k in range(count):
        want = _sample_rotation_per_draw(_ScriptedDraws(w[k].reshape(-1)), r, dtype=np.float64)
        assert got[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("count", [1, 3, 10])
@pytest.mark.parametrize("r", [1, 2, 7, 64])
def test_gram_schmidt_matches_reference_bits(r, count, seed):
    """The right-looking first pass gives the frozen left-looking loop's
    bases and full-rank mask, bit for bit; seed 3 makes one candidate's
    last column a multiple of its first, so that candidate is not full rank."""
    w = Prng(980 + seed).gauss_block(count * r * r).reshape(count, r, r)
    if seed == 3 and r > 1:
        w[count // 2, r - 1] = 2.0 * w[count // 2, 0]
    got = smoothing._gram_schmidt(w.copy())
    want = gram_schmidt_reference.gram_schmidt(w.copy())
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert got[1].all() != (seed == 3 and r > 1)


@pytest.mark.parametrize("per_chunk", [1, 3, 4])
def test_lockstep_chunks_match_sequential_oracle(per_chunk, monkeypatch):
    """Chunk edges, including a last chunk that is cut short, change nothing."""
    monkeypatch.setattr(smoothing, "_LOCKSTEP_BYTES", _lockstep_bytes(9, per_chunk))
    _assert_lockstep_matches_oracle(950, 9, 10, spare=True)


@pytest.mark.parametrize("per_chunk,blocks", [(1, [16, 16, 16]), (2, [32, 16]), (3, [48])])
def test_lockstep_chunk_size_follows_the_cap(per_chunk, blocks, monkeypatch):
    """Each chunk takes one block of draws, as many candidates as the cap
    holds and at least one."""
    sizes = []

    class Recording(Prng):
        def gauss_block(self, n):
            sizes.append(n)
            return super().gauss_block(n)

    monkeypatch.setattr(smoothing, "_LOCKSTEP_BYTES", _lockstep_bytes(4, per_chunk))
    list(smoothing._draw_rotations(Recording(7), 4, 3))
    assert sizes == blocks


def test_default_cap_bounds_the_stack():
    """All 10 default candidates share a chunk at r = 64; at r = 512 each
    candidate is its own chunk, so 256 candidates never stack up."""
    assert smoothing._LOCKSTEP_BYTES // _lockstep_bytes(64, 1) >= smoothing.DEFAULT_CANDIDATES
    assert smoothing._LOCKSTEP_BYTES // _lockstep_bytes(512, 1) <= 1


def _degenerate_block(r, column, seed):
    """r*r draws, column by column, whose `column` is all zeros (column 0)
    or twice column 0, so its residual norm is <= 1e-8."""
    cols = np.random.default_rng(seed).standard_normal((r, r))
    cols[column] = 2.0 * cols[0] if column else 0.0
    return cols.reshape(-1)


def _blocks_script(r, count, degenerate):
    """`count` candidates' r*r blocks in stream order; candidate k in
    `degenerate` gets the degenerate column `degenerate[k]`."""
    rng = np.random.default_rng(7000 + r)
    blocks = [
        _degenerate_block(r, degenerate[k], 7100 + k) if k in degenerate else rng.standard_normal(r * r)
        for k in range(count)
    ]
    return blocks, np.concatenate(blocks)


@pytest.mark.parametrize("per_chunk", [None, 3])
@pytest.mark.parametrize("column", [0, 2, 4])
@pytest.mark.parametrize("failing", [0, 1, 2, 4])
def test_degenerate_candidate_yields_none_and_uses_up_its_block(failing, column, per_chunk, monkeypatch):
    """A candidate with a degenerate column, first, middle or last in its
    chunk (3 + a cut chunk of 2, or all 5 in one), yields None; every other
    candidate is the per-draw MGS of its own r*r block, and exactly
    count*r*r draws are read."""
    r, count = 5, 5
    if per_chunk is not None:
        monkeypatch.setattr(smoothing, "_LOCKSTEP_BYTES", _lockstep_bytes(r, per_chunk))
    blocks, values = _blocks_script(r, count, {failing: column})
    source = _ScriptedDraws(values)
    got = list(smoothing._draw_rotations(source, r, count))
    assert source.pos == count * r * r
    assert got[failing] is None
    for k in range(count):
        if k != failing:
            assert got[k].tobytes() == _sample_rotation_per_draw(_ScriptedDraws(blocks[k]), r).tobytes()


@pytest.mark.parametrize("column", [0, 1, 3])
def test_sample_rotation_refuses_a_degenerate_draw(column):
    r = 4
    source = _ScriptedDraws(_degenerate_block(r, column, 40 + column))
    with pytest.raises(ValidationError, match="full-rank"):
        sample_rotation(source, r)
    assert source.pos == r * r


def test_fold_identity_unchanged():
    rng = Prng(73)
    a = rng.uniform_matrix(6, 4, -1, 1)
    b = rng.uniform_matrix(4, 6, -1, 1)
    ar, br = fold_rotation(a, b, np.eye(4, dtype=np.float32))
    assert np.array_equal(ar, a)
    assert np.array_equal(br, b)


def test_fold_permutation_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
    perm = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    ar, br = fold_rotation(a, b, perm)
    assert np.array_equal(ar, a[:, [1, 0]])
    assert np.array_equal(br, b[[1, 0], :])


def test_fold_right_angle_hand_case():
    a = np.array([[1.0, 0.0]], dtype=np.float32)
    b = np.array([[1.0], [0.0]], dtype=np.float32)
    q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.float32)
    ar, br = fold_rotation(a, b, q)
    assert matmul(ar, br).tolist() == matmul(a, b).tolist() == [[1.0]]


def test_fold_product_identity_random():
    rng = Prng(74)
    for _ in range(5):
        a = rng.uniform_matrix(16, 8, -1, 1)
        b = rng.uniform_matrix(8, 16, -1, 1)
        q = sample_rotation(rng, 8)
        ar, br = fold_rotation(a, b, q)
        ref = matmul(a, b)
        assert fro_norm(ref - matmul(ar, br)) <= 1e-5 * max(fro_norm(ref), 1e-12)


# ---------------------------------------------------------------------------
# Rotation selection


def _energy_concentrated_factors(rng, c_in, r, c_out):
    """Factors whose leading rank carries most of the energy, the shape the
    square-root split produces."""
    a = rng.gauss_matrix(c_in, r)
    b = rng.gauss_matrix(r, c_out)
    weights = (2.0 ** -np.arange(r, dtype=np.float64) * 8.0).astype(np.float32)
    return a * weights[None, :], b * weights[:, None]


def test_identity_only_pool():
    rng = Prng(75)
    a = rng.uniform_matrix(8, 4, -1, 1)
    b = rng.uniform_matrix(4, 8, -1, 1)
    x = rng.uniform_matrix(6, 8, -1, 1)
    choice = select_rotation(a, b, x, QuantConfig(), Prng(0), n_candidates=0)
    assert choice.candidate_index == 0
    assert np.array_equal(choice.q, np.eye(4, dtype=np.float32))


def test_selection_never_worse_than_identity():
    rng = Prng(76)
    config = QuantConfig()
    for seed in range(10):
        a, b = _energy_concentrated_factors(rng, 12, 6, 12)
        x = rng.uniform_matrix(8, 12, -5, 5)
        choice = select_rotation(a, b, x, config, Prng(seed), n_candidates=4)
        identity_only = select_rotation(a, b, x, config, Prng(seed), n_candidates=0)
        assert choice.loss <= identity_only.loss + 1e-12


def test_selection_improves_on_concentrated_energy():
    """With energy packed into the leading ranks, a random rotation almost
    always quantizes better than no rotation."""
    config = QuantConfig()
    wins = 0
    trials = 50
    for seed in range(trials):
        rng = Prng(3000 + seed)
        a, b = _energy_concentrated_factors(rng, 16, 8, 16)
        x = rng.uniform_matrix(10, 16, -5, 5)
        choice = select_rotation(a, b, x, config, Prng(seed), n_candidates=6)
        identity = select_rotation(a, b, x, config, Prng(seed), n_candidates=0)
        if choice.loss < identity.loss:
            wins += 1
    assert wins >= int(0.9 * trials), f"rotation improved in only {wins}/{trials} runs"


def test_selection_dimension_checks():
    rng = Prng(77)
    a = rng.uniform_matrix(8, 4, -1, 1)
    b = rng.uniform_matrix(5, 8, -1, 1)
    x = rng.uniform_matrix(4, 8, -1, 1)
    with pytest.raises(ShapeError):
        select_rotation(a, b, x, QuantConfig(), Prng(0))
    with pytest.raises(ShapeError, match="calibration"):  # a 1-D x_calib, as compile_layer refuses it
        select_rotation(a, b[:4], x[0], QuantConfig(), Prng(0))
    with pytest.raises(ShapeError, match="2-D"):  # a 1-D factor, refused before any compute
        select_rotation(np.ones(8), np.ones((1, 8)), np.ones((2, 8)), QuantConfig(), Prng(0))
    with pytest.raises(ShapeError, match="2-D"):
        select_rotation(a, np.ones(4), x, QuantConfig(), Prng(0))


@pytest.mark.parametrize("failing", [1, 2])
def test_selection_skips_a_degenerate_candidate_and_keeps_indices(failing):
    """A candidate whose draws are not full rank is never scored or chosen;
    candidate k is still the rotation of the k-th r*r block, so the ones
    after it keep their indices."""
    r, n, config, rng = 8, 3, QuantConfig(), Prng(3002)
    a, b = _energy_concentrated_factors(rng, 16, r, 16)
    x = rng.uniform_matrix(10, 16, -5, 5)
    blocks, values = _blocks_script(r, n, {failing - 1: 3})
    choice = select_rotation(a, b, x, config, _ScriptedDraws(values), n_candidates=n)

    reference = matmul(matmul(x, a), b)
    pool = {0: (select_rotation(a, b, x, config, Prng(0), n_candidates=0).loss, np.eye(r, dtype=np.float32))}
    for idx in range(1, n + 1):
        if idx != failing:
            q = sample_rotation(_ScriptedDraws(blocks[idx - 1]), r)
            pool[idx] = (smoothing._candidate_loss(*fold_rotation(a, b, q), x, reference, config), q)
    best = min(pool, key=lambda idx: (pool[idx][0], idx))
    assert best > failing
    assert choice.candidate_index == best
    assert choice.loss == pool[best][0] and choice.q.tobytes() == pool[best][1].tobytes()
