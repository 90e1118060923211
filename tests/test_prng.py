import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillzip import prng as prng_mod
from skillzip.prng import Prng, _splitmix64

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "prng_seed42.txt")


def test_splitmix64_reference_vector():
    # Published outputs of SplitMix64 for seed 0.
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    s = 0
    for want in expected:
        s, out = _splitmix64(s)
        assert out == want


def test_golden_vector_seed_42():
    with open(GOLDEN) as f:
        lines = [line.strip() for line in f if not line.startswith("#")]
    golden = [int(line, 16) for line in lines if line]
    assert len(golden) == 1000
    rng = Prng(42)
    assert [rng.next_u64() for _ in range(1000)] == golden


def test_same_seed_same_sequence():
    a, b = Prng(7), Prng(7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a, b = Prng(1), Prng(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_uniform_range():
    rng = Prng(3)
    draws = [rng.uniform() for _ in range(5000)]
    assert all(0.0 <= d < 1.0 for d in draws)


def test_below_unbiased_range():
    rng = Prng(11)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


@pytest.mark.parametrize("n", [0, -1, 2**64 + 1, 2**65])
def test_below_refuses_n_outside_one_to_two_to_64(n):
    """Past 2^64 the rejection limit 2^64 - (2^64 mod n) is 0: no draw would
    ever be accepted, so such n is refused like n <= 0."""
    with pytest.raises(ValueError, match="below"):
        Prng(1).below(n)


@pytest.mark.parametrize("n", [2**64 + 1, 2**65])
def test_choice_indices_refuses_n_past_two_to_64(n):
    with pytest.raises(ValueError, match="below"):
        Prng(1).choice_indices(n, 1)


def test_below_two_to_64_takes_the_raw_draw():
    a, b = Prng(1), Prng(1)
    assert a.below(2**64) == b.next_u64()


def test_choice_indices_distinct():
    rng = Prng(13)
    picks = rng.choice_indices(20, 8)
    assert len(picks) == 8
    assert len(set(picks)) == 8
    assert all(0 <= p < 20 for p in picks)


def test_matrix_helpers_deterministic():
    a = Prng(77).gauss_matrix(6, 5)
    b = Prng(77).gauss_matrix(6, 5)
    assert np.array_equal(a, b)
    u = Prng(78).uniform_matrix(4, 4, -2.0, 2.0)
    assert u.dtype == np.float32
    assert np.abs(u).max() <= 2.0


def test_spawn_streams_stable_and_distinct():
    parent = Prng(5)
    child1 = parent.spawn("task/layer0")
    child2 = parent.spawn("task/layer1")
    again = Prng(5).spawn("task/layer0")
    seq1 = [child1.next_u64() for _ in range(5)]
    assert seq1 == [again.next_u64() for _ in range(5)]
    assert seq1 != [child2.next_u64() for _ in range(5)]


# ---------------------------------------------------------------------------
# Block draws: exactly the scalar sequences, and the same state afterwards.

_LANE_MIN = prng_mod._LANE_MIN
# Sizes at the edges: empty, tiny, odd, the scalar/lane crossover, and one
# below, at and above a whole number of lanes.
_EDGE_SIZES = sorted(
    {0, 1, 2, 3, 5, 63, 64, 65, _LANE_MIN - 1, _LANE_MIN, _LANE_MIN + 1}
    | {n for n in range(_LANE_MIN, 12000) if (n + 1) % prng_mod._lane_length(n) in (0, 1, 2)}
)
sizes = st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(0, 3000))
seeds = st.integers(0, 2**64 - 1)

_SCALAR = {"u64_block": "next_u64", "uniform_block": "uniform", "gauss_block": "gauss"}


def _state(rng):
    return list(rng._s), rng._gauss_spare


def _same(block, scalar_values):
    if block.dtype == np.uint64:
        return block.tolist() == scalar_values
    return block.dtype == np.float64 and block.tobytes() == np.array(scalar_values, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=sizes, kind=st.sampled_from(sorted(_SCALAR)), spare=st.booleans())
def test_block_equals_scalar_sequence(seed, n, kind, spare):
    a, b = Prng(seed), Prng(seed)
    if spare:  # leave a pending Gaussian on both
        assert a.gauss() == b.gauss()
    block = getattr(a, kind)(n)
    scalar = getattr(b, _SCALAR[kind])
    assert block.shape == (n,)
    assert _same(block, [scalar() for _ in range(n)])
    assert _state(a) == _state(b)


_OPS = st.lists(
    st.tuples(st.sampled_from(["u64_block", "uniform_block", "gauss_block", "next_u64", "below", "gauss"]), sizes),
    min_size=1,
    max_size=5,
)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, ops=_OPS)
def test_blocks_interleave_with_scalar_calls(seed, ops):
    """block -> next_u64/below/gauss -> block keeps one stream."""
    a, b = Prng(seed), Prng(seed)
    for op, n in ops:
        if op in _SCALAR:
            scalar = getattr(b, _SCALAR[op])
            assert _same(getattr(a, op)(n), [scalar() for _ in range(n)])
        elif op == "below":
            assert a.below(n + 1) == b.below(n + 1)
        else:
            assert getattr(a, op)() == getattr(b, op)()
        assert _state(a) == _state(b)


def _uniform_matrix_scalar(rng, rows, cols, low, high):
    """The element-by-element fill the block draws replace."""
    span = high - low
    out = np.empty((rows, cols), dtype=np.float32)
    flat = out.reshape(-1)
    for i in range(flat.size):
        flat[i] = low + span * rng.uniform()
    return out


def _gauss_matrix_scalar(rng, rows, cols):
    out = np.empty((rows, cols), dtype=np.float32)
    flat = out.reshape(-1)
    for i in range(flat.size):
        flat[i] = rng.gauss()
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    rows=st.integers(0, 70),
    cols=st.integers(0, 70),
    low=st.floats(-1e3, 1e3),
    width=st.floats(0.0, 1e3),
    spare=st.booleans(),
)
def test_matrix_fills_equal_scalar_fills(seed, rows, cols, low, width, spare):
    a, b = Prng(seed), Prng(seed)
    if spare:
        a.gauss(), b.gauss()
    got = a.uniform_matrix(rows, cols, low, low + width)
    want = _uniform_matrix_scalar(b, rows, cols, low, low + width)
    assert got.dtype == np.float32 and got.shape == (rows, cols)
    assert got.tobytes() == want.tobytes()
    got = a.gauss_matrix(rows, cols)
    want = _gauss_matrix_scalar(b, rows, cols)
    assert got.dtype == np.float32 and got.shape == (rows, cols)
    assert got.tobytes() == want.tobytes()
    assert _state(a) == _state(b)


def test_jump_matrices_advance_the_state():
    state = Prng(99)._s
    bits = prng_mod._state_bits(state).astype(np.float32)[:, None]
    for e in (0, 1, 6, 11):
        jumped = prng_mod._gf2(prng_mod._unpack(prng_mod._jump(e)) @ bits)
        assert prng_mod._state_words(jumped)[:, 0].tolist() == prng_mod._scalar_draws(state, 1 << e)[1]


@pytest.mark.parametrize("kind", sorted(_SCALAR))
def test_negative_block_size_rejected(kind):
    with pytest.raises(ValueError):
        getattr(Prng(1), kind)(-1)
