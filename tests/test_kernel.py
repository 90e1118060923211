import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillzip import (
    Batch,
    CompiledSkillLayer,
    ForwardDiag,
    ForwardRequest,
    QuantConfig,
    QuantGrid,
    ScaleDescriptor,
    ShapeError,
    SkillRegistry,
    Skillpack,
    ValidationError,
    apply_smooth,
    compile_layer,
    compute_smooth,
    dequantize,
    dispatch_batch,
    dispatch_sequential,
    fold_rotation,
    forward_full,
    forward_quantized,
    gemm_i8_i32,
    quantize,
    requant_mid,
)
from skillzip import kernel
from skillzip.fixtures import outlier_activations
from skillzip.kernel import F32_EXACT_CONTRACTION, MAX_CONTRACTION, calibrate_mid_scale
from skillzip.packio import serialize_skillpack
from skillzip.quant import PER_CHANNEL, PER_TENSOR, PER_TOKEN, count_clamped, quantize_codes
from skillzip.prng import Prng
from skillzip.tensors import fro_norm, matmul
from exact_case import build_exact_case
import kernel_reference
import quant_reference as ref


def test_gemm_hand_case():
    acc = gemm_i8_i32(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert acc.dtype == np.float64
    assert acc.tolist() == [[11.0]]


def test_gemm_closed_form_peak():
    """int8 code grids (A and B as stored) are widened before the product."""
    a = np.full((1, 256), 127, dtype=np.int8)
    b = np.full((256, 1), 127, dtype=np.int8)
    acc = gemm_i8_i32(a, b)
    assert acc.tolist() == [[127 * 127 * 256]]  # 4,129,024 fits int32


def test_gemm_identity_widens():
    eye = np.eye(3, dtype=np.int8)
    m = np.array([[1, -2, 3], [4, 5, -6], [7, -8, 9]], dtype=np.int8)
    acc = gemm_i8_i32(eye, m)
    assert acc.dtype == np.float64
    assert np.array_equal(acc, m)


def test_gemm_shape_mismatch():
    with pytest.raises(ShapeError):
        gemm_i8_i32(np.ones((1, 2)), np.ones((1, 2)))


def test_requant_exact_multiples():
    acc = (np.arange(-127, 128) * 4.0).reshape(1, -1)
    q = requant_mid(acc, 4.0)
    assert q.dtype == np.float64
    assert np.array_equal(q[0], np.arange(-127, 128))


def test_requant_saturates():
    acc = np.array([[1000.0, -1000.0, 126.0]])
    diag = ForwardDiag()
    q = requant_mid(acc, 1.0, diag)
    assert q.tolist() == [[127, -127, 126]]
    assert diag.mid_saturated == 2
    with pytest.raises(ValidationError):
        requant_mid(acc, 0.0)


def test_requant_bound_when_unsaturated():
    rng = Prng(80)
    acc = np.trunc(rng.uniform_matrix(6, 6, -500.0, 500.0).astype(np.float64))
    mid = 5.0
    back = requant_mid(acc, mid) * mid
    assert (np.abs(back - acc) <= mid / 2 + 1e-9).all()


def test_exact_arithmetic_identity():
    for seed in (1, 2, 3):
        layer, x, a_fp, b_fp = build_exact_case(seed, tokens=8, c_in=32, rank=6, c_out=16)
        oracle = matmul(matmul(x, a_fp), b_fp)
        out = forward_quantized(layer, x)
        assert out.tobytes() == oracle.tobytes()


def test_exact_arithmetic_per_tensor_x():
    layer, x, a_fp, b_fp = build_exact_case(9, tokens=4, c_in=16, rank=3, c_out=8, gran_x="per-tensor")
    oracle = matmul(matmul(x, a_fp), b_fp)
    assert forward_quantized(layer, x).tobytes() == oracle.tobytes()


def test_zero_activations_zero_output():
    layer, x, _, _ = build_exact_case(4, tokens=4, c_in=16, rank=4, c_out=8)
    out = forward_quantized(layer, np.zeros_like(x))
    assert not out.any()


def test_random_forward_close_to_oracle():
    rng = Prng(81)
    x = rng.uniform_matrix(32, 64, -10.0, 10.0)
    a = rng.uniform_matrix(64, 8, -0.5, 0.5)
    b = rng.uniform_matrix(8, 64, -0.5, 0.5)
    layer = compile_layer("l", np.ones(64, dtype=np.float32), a, b, QuantConfig(), x_calib=x)
    oracle = matmul(matmul(x, a), b)
    out = forward_quantized(layer, x)
    assert fro_norm(oracle - out) <= 0.05 * fro_norm(oracle)


def test_forward_deterministic():
    rng = Prng(82)
    x = rng.uniform_matrix(16, 32, -4.0, 4.0)
    a = rng.uniform_matrix(32, 4, -1.0, 1.0)
    b = rng.uniform_matrix(4, 24, -1.0, 1.0)
    layer = compile_layer("l", np.ones(32, dtype=np.float32), a, b, QuantConfig(), x_calib=x)
    first = forward_quantized(layer, x)
    for _ in range(3):
        assert np.array_equal(forward_quantized(layer, x), first)


def spy_requant_mid():
    """Wrap `kernel.requant_mid`; forward_quantized looks it up as a module
    global, so every call it makes is recorded."""
    return mock.patch.object(kernel, "requant_mid", wraps=kernel.requant_mid)


def test_single_scalar_between_gemms():
    layer, x, _, _ = build_exact_case(5, tokens=4, c_in=16, rank=4, c_out=8)
    with spy_requant_mid() as spy:
        forward_quantized(layer, x, diag=ForwardDiag())
    assert [call.args[1] for call in spy.call_args_list] == [layer.mid_scale]
    assert isinstance(layer.mid_scale, float)


def test_saturation_counted():
    layer, x, _, _ = build_exact_case(6, tokens=4, c_in=16, rank=4, c_out=8)
    squeezed = CompiledSkillLayer(
        name=layer.name,
        smooth_inv=layer.smooth_inv,
        a_hat=layer.a_hat,
        b_hat=layer.b_hat,
        mid_scale=layer.mid_scale / 64.0,  # force mid clamping
        config=layer.config,
    )
    diag = ForwardDiag()
    forward_quantized(squeezed, x, diag=diag)
    assert diag.mid_saturated > 0


def test_forward_full_backbone_only():
    rng = Prng(83)
    x = rng.uniform_matrix(4, 8, -1, 1)
    w = rng.uniform_matrix(8, 6, -1, 1)
    assert np.array_equal(forward_full(w, None, x), matmul(x, w))


def test_forward_full_zero_delta_pack():
    rng = Prng(84)
    x = rng.uniform_matrix(4, 8, -1, 1)
    w = rng.uniform_matrix(8, 6, -1, 1)
    layer = compile_layer(
        "l",
        np.ones(8, dtype=np.float32),
        np.zeros((8, 2), dtype=np.float32),
        np.zeros((2, 6), dtype=np.float32),
        QuantConfig(),
        x_calib=x,
    )
    assert np.array_equal(forward_full(w, layer, x), matmul(x, w))


def test_forward_full_rank_one_delta():
    rng = Prng(85)
    x = rng.uniform_matrix(8, 16, -2, 2)
    w = np.eye(16, dtype=np.float32)
    a = rng.uniform_matrix(16, 1, -0.3, 0.3)
    b = rng.uniform_matrix(1, 16, -0.3, 0.3)
    layer = compile_layer("l", np.ones(16, dtype=np.float32), a, b, QuantConfig(), x_calib=x)
    ref = x + matmul(matmul(x, a), b)
    out = forward_full(w, layer, x)
    assert fro_norm(ref - out) <= 0.05 * max(fro_norm(matmul(matmul(x, a), b)), 1e-9)


def test_error_within_twice_analytic_bound():
    """Composed stage bounds: x quantization, mid requant, factor rounding,
    each propagated through the operator norms of what follows."""
    rng = Prng(86)
    for seed in range(5):
        lrng = Prng(900 + seed)
        x = lrng.uniform_matrix(24, 48, -8.0, 8.0)
        a = lrng.uniform_matrix(48, 6, -0.4, 0.4)
        b = lrng.uniform_matrix(6, 40, -0.4, 0.4)
        layer = compile_layer("l", np.ones(48, dtype=np.float32), a, b, QuantConfig(), x_calib=x)
        oracle = matmul(matmul(x, a), b).astype(np.float64)
        out = forward_quantized(layer, x).astype(np.float64)

        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        a_deq = dequantize(layer.a_hat).astype(np.float64)
        b_deq = dequantize(layer.b_hat).astype(np.float64)
        t, c_in = x.shape
        sx = quantize(x, 8, "per-token").scale.scales.astype(np.float64)
        err_x = np.linalg.norm(np.outer(sx / 2, np.ones(c_in))) * np.linalg.norm(a_deq @ b_deq, 2)
        err_a = np.linalg.norm(x, 2) * np.linalg.norm(a_deq - a64) * np.linalg.norm(b_deq, 2)
        err_mid = layer.mid_scale / 2 * np.sqrt(t * layer.rank) * np.linalg.norm(b_deq, 2)
        err_b = np.linalg.norm(x @ a_deq, 2) * np.linalg.norm(b_deq - b64)
        bound = err_x + err_a + err_mid + err_b
        measured = np.linalg.norm(oracle - out)
        assert measured <= 2.0 * bound, f"seed {seed}: {measured} > 2x{bound}"


def test_int4_activation_configs():
    """bits_x=4 runs the same pipeline with the narrower clamp; fidelity
    degrades but stays bounded on smooth inputs."""
    rng = Prng(87)
    x = rng.uniform_matrix(24, 48, -6.0, 6.0)
    a = rng.uniform_matrix(48, 6, -0.4, 0.4)
    b = rng.uniform_matrix(6, 40, -0.4, 0.4)
    oracle = matmul(matmul(x, a), b)
    for config in (
        QuantConfig(bits_x=4, bits_a=4, bits_b=8),
        QuantConfig(bits_x=4, bits_a=4, bits_b=4),
        QuantConfig(bits_x=8, bits_a=4, bits_b=4),
    ):
        layer = compile_layer("l", np.ones(48, dtype=np.float32), a, b, config, x_calib=x)
        out = forward_quantized(layer, x)
        assert np.isfinite(out).all()
        assert fro_norm(oracle - out) <= 0.5 * fro_norm(oracle), config


def test_layer_config_must_agree_with_grids():
    """A config whose bits_a/bits_b/gran_b disagree with the A and B grids
    would serialize a pack its own reader rejects."""
    rng = Prng(88)
    a, b = rng.uniform_matrix(8, 3, -1, 1), rng.uniform_matrix(3, 5, -1, 1)
    layer = compile_layer("l", np.ones(8, dtype=np.float32), a, b, QuantConfig(bits_b=4), mid_scale=1.0)
    for config in (
        QuantConfig(bits_b=8, gran_b="per-tensor"),
        QuantConfig(bits_b=8),
        QuantConfig(bits_b=4, gran_b="per-tensor"),
        QuantConfig(bits_a=4, bits_b=4),
    ):
        with pytest.raises(ValidationError, match="disagree"):
            CompiledSkillLayer("l", layer.smooth_inv, layer.a_hat, layer.b_hat, 1.0, config)
    CompiledSkillLayer("l", layer.smooth_inv, layer.a_hat, layer.b_hat, 1.0, QuantConfig(bits_x=4, bits_b=4))


def test_compile_requires_calibration_or_mid():
    a = np.ones((4, 2), dtype=np.float32)
    b = np.ones((2, 4), dtype=np.float32)
    with pytest.raises(ValidationError):
        compile_layer("l", np.ones(4, dtype=np.float32), a, b, QuantConfig())


@pytest.mark.parametrize("shape", [(3, 5), (3, 3), (4,), (2, 4, 1)])
def test_compile_rejects_mismatched_calibration_before_compute(shape, monkeypatch):
    """x_calib must be T x len(smooth); the check comes before quantizing."""

    def no_compute(*args, **kwargs):
        raise AssertionError("quantized before checking x_calib")

    monkeypatch.setattr(kernel, "quantize", no_compute)
    a = np.ones((4, 2), dtype=np.float32)
    b = np.ones((2, 4), dtype=np.float32)
    with pytest.raises(ShapeError, match="calibration activations"):
        compile_layer("l", np.ones(4, dtype=np.float32), a, b, QuantConfig(), x_calib=np.ones(shape, np.float32))


def test_calibrate_mid_scale_zero_acc():
    assert calibrate_mid_scale(np.zeros((3, 3), dtype=np.int32)) == 1.0


# ---------------------------------------------------------------------------
# The quantization rule (quant.quantize_codes, and quantize on top of it)
# against the frozen reference quantizer


def _assert_matches_quantize(x, bits, gran, blocks=None):
    """Codes and scales of quantize_codes, and the grid of quantize, equal
    the reference on each group (a row or column, or a row block for
    per-tensor) bit for bit."""
    codes, scales = quantize_codes(x, bits, gran, blocks)
    assert codes.dtype == np.float64 and scales.dtype == np.float32
    assert codes.shape == x.shape
    assert not np.signbit(codes[codes == 0]).any()
    grid = np.broadcast_to(scales, x.shape)
    sizes = blocks if gran == PER_TENSOR and blocks is not None else [x.shape[0]]
    starts = np.cumsum([0] + sizes)
    for lo, hi in zip(starts[:-1], starts[1:]):
        want_codes, want_scales = ref.quantize(x[lo:hi], bits, gran)
        assert codes[lo:hi].astype(np.int8).tobytes() == want_codes.tobytes()
        assert np.array_equal(codes[lo:hi], want_codes)
        assert grid[lo:hi].tobytes() == ref.scale_grid(gran, want_scales, hi - lo, x.shape[1]).tobytes()
        q = quantize(x[lo:hi], bits, gran)
        assert q.codes.tobytes() == want_codes.tobytes()
        assert q.scale.scales.tobytes() == want_scales.tobytes()


# Subnormal peaks give a zero float32 scale, which the rule rejects (tested
# below); map them to 0.
_finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False).map(lambda v: v if abs(v) >= 2.0**-126 else 0.0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 9),
    bits=st.sampled_from([4, 8]),
    values=st.lists(_finite32, min_size=54, max_size=54),
)
def test_quantize_activations_per_token_property(rows, cols, bits, values):
    """Per token, and on the same matrices per channel and per tensor (the
    weight granularities)."""
    x = np.array(values[: rows * cols], dtype=np.float32).reshape(rows, cols)
    for gran in (PER_TOKEN, PER_CHANNEL, PER_TENSOR):
        _assert_matches_quantize(x, bits, gran)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    cols=st.integers(1, 7),
    bits=st.sampled_from([4, 8]),
    magnitudes=st.lists(st.sampled_from([1e-3, 1.0, 1e4]), min_size=4, max_size=4),
    values=st.lists(
        st.floats(-1000.0, 1000.0, width=32).map(lambda v: v if abs(v) >= 1e-30 else 0.0), min_size=84, max_size=84
    ),
)
def test_quantize_activations_per_tensor_blocks_property(blocks, cols, bits, magnitudes, values):
    """Row blocks of 1-3 rows (one request each) with very different
    magnitudes, so one shared scale would change the codes."""
    rows = sum(blocks)
    x = np.array(values[: rows * cols], dtype=np.float32).reshape(rows, cols)
    start = 0
    for size, mag in zip(blocks, magnitudes):
        x[start : start + size] *= np.float32(mag)
        start += size
    _assert_matches_quantize(x, bits, PER_TENSOR, blocks)
    _assert_matches_quantize(x, bits, PER_TENSOR)
    _assert_matches_quantize(x, bits, PER_TOKEN, blocks)  # blocks do not regroup per-token


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("gran", [PER_TOKEN, PER_TENSOR, PER_CHANNEL])
def test_quantize_activations_outlier_inputs(bits, gran):
    for seed in range(4):
        x = outlier_activations(Prng(950 + seed), 12, 40, [3, 17, 29], 100.0)
        _assert_matches_quantize(x, bits, gran, [5, 1, 6] if gran == PER_TENSOR else None)


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("gran", [PER_TENSOR, PER_CHANNEL])
def test_quantize_weights_match_reference(bits, gran):
    """Low-rank factor shapes (tall A, wide B), smooth and with outlier rows
    or columns, at both weight bit widths."""
    for seed in range(4):
        rng = Prng(970 + seed)
        a = rng.uniform_matrix(48, 6, -0.4, 0.4)
        b = rng.gauss_matrix(6, 40)
        a[seed * 7] *= np.float32(50.0)
        b[:, seed * 5] *= np.float32(50.0)
        for m in (a, b, -b):
            _assert_matches_quantize(m, bits, gran)


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("gran", [PER_TOKEN, PER_TENSOR])
def test_quantize_activations_exact_ties(bits, gran):
    """+-(k + 0.5) * scale rounds away from zero to +-(k + 1)."""
    limit = (1 << (bits - 1)) - 1
    scale = np.float32(2.0**-5)
    k = np.arange(limit, dtype=np.float32)
    row = np.concatenate([[limit], k + 0.5, -(k + 0.5)]).astype(np.float32) * scale
    x = np.stack([row, -row])
    codes, scales = quantize_codes(x, bits, gran, None)
    assert np.array_equal(np.broadcast_to(scales, (2, 1)).ravel(), np.full(2, scale))
    want = np.concatenate([[limit], k + 1, -(k + 1)])
    assert np.array_equal(codes, np.stack([want, -want]))
    _assert_matches_quantize(x, bits, gran)
    _assert_matches_quantize(x.T.copy(), bits, PER_CHANNEL)


@pytest.mark.parametrize("bits", [4, 8])
def test_quantize_activations_near_ties(bits):
    """One float32 step either side of (k + 0.5) * scale, for scales that
    are not powers of two: the quotient must be taken in float64."""
    limit = (1 << (bits - 1)) - 1
    rows = []
    for scale in np.float32([0.1, 0.3, 1.7, 3.3e-3, 123.4]):
        ties = (np.arange(limit, dtype=np.float32) + np.float32(0.5)) * scale
        for toward in (np.float32(0.0), np.float32(np.inf)):
            rows.append(np.concatenate([[limit * scale], np.nextafter(ties, toward)]).astype(np.float32))
    x = np.stack(rows)
    _assert_matches_quantize(x, bits, PER_TOKEN)
    _assert_matches_quantize(-x, bits, PER_TENSOR, [1] * x.shape[0])
    _assert_matches_quantize(x.T.copy(), bits, PER_CHANNEL)


@pytest.mark.parametrize("gran", [PER_TOKEN, PER_TENSOR])
def test_quantize_activations_all_zero_rows(gran):
    x = np.zeros((3, 5), dtype=np.float32)
    x[1] = [0.5, -1.0, 0.0, 2.0, -0.25]
    codes, scales = quantize_codes(x, 8, gran, [1, 1, 1] if gran == PER_TENSOR else None)
    assert scales[0, 0] == scales[2, 0] == 1.0
    assert not codes[[0, 2]].any()
    _assert_matches_quantize(x, 8, gran, [1, 1, 1] if gran == PER_TENSOR else None)
    _assert_matches_quantize(x.T.copy(), 8, PER_CHANNEL)
    _assert_matches_quantize(np.zeros((2, 3), dtype=np.float32), 8, gran)


def test_quantize_activations_rejects_non_finite_and_bad_blocks():
    x = np.ones((2, 3), dtype=np.float32)
    x[1, 2] = np.inf
    for gran in (PER_TOKEN, PER_TENSOR, PER_CHANNEL):
        with pytest.raises(ValidationError, match="non-finite"):
            quantize_codes(x, 8, gran, None)
        with pytest.raises(ValidationError, match="non-finite"):
            quantize(x, 8, gran)
    with pytest.raises(ShapeError):
        quantize_codes(np.ones((3, 2), dtype=np.float32), 8, PER_TENSOR, [1, 1])
    # A subnormal peak gives a scale that rounds to 0 in float32.
    tiny = np.full((1, 2), 1e-45, dtype=np.float32)
    for quantizer in (lambda: quantize(tiny, 8, PER_TOKEN), lambda: quantize_codes(tiny, 8, PER_TOKEN, None)):
        with pytest.raises(ValidationError, match="positive and finite"):
            quantizer()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 6),
    mid_scale=st.sampled_from([0.3, 1.0, 4.0, 17.5, 1e3]),
    halves=st.lists(st.integers(-600, 600), min_size=30, max_size=30),
)
def test_requant_matches_reference(rows, cols, mid_scale, halves):
    """Mid requant codes and the saturation count (what forward_quantized
    reports), on exact ties (k/2 times the scale) and past the clamp, equal
    the reference."""
    acc = np.array(halves[: rows * cols], dtype=np.float64).reshape(rows, cols) * (mid_scale / 2)
    want, want_sat = ref.requant(acc, mid_scale)
    diag = ForwardDiag()
    codes = requant_mid(acc, mid_scale, diag)
    assert diag.mid_saturated == want_sat
    assert np.array_equal(codes, want)
    assert not np.signbit(codes[codes == 0]).any()



@pytest.mark.parametrize("limit", [7, 127])
def test_count_clamped_at_the_rounding_edge(limit):
    """count_clamped counts exactly the quotients that the reference rounds
    past the limit, one ulp either side of limit + 1/2 and further out."""
    edge = limit + 0.5
    q = np.array(
        [0.0, 1e-300, limit, np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), limit + 1.0, 1e300]
    )
    q = np.concatenate([q, -q])
    want = int(np.count_nonzero(np.abs(ref.round_half_away(q)) > limit))
    assert want == 8
    assert count_clamped(q, limit) == want

# ---------------------------------------------------------------------------
# int32 accumulation guarantee at the contraction limit


def _extreme_codes(bits, k):
    """Rows of all +limit, all -limit and a seeded +-limit pattern."""
    limit = (1 << (bits - 1)) - 1
    signs = np.where(Prng(960 + bits).uniform_matrix(1, k, -1.0, 1.0) < 0, -1, 1)
    return (np.concatenate([np.ones((2, k)), signs]) * [[limit], [-limit], [limit]]).astype(np.int8)


@pytest.mark.parametrize("bits", [4, 8])
def test_gemm_exact_at_max_contraction(bits):
    a = _extreme_codes(bits, MAX_CONTRACTION)
    b = np.ascontiguousarray(_extreme_codes(bits, MAX_CONTRACTION).T)
    want = a.astype(np.int64) @ b.astype(np.int64)
    assert np.abs(want).max() == MAX_CONTRACTION * ((1 << (bits - 1)) - 1) ** 2
    got = gemm_i8_i32(a, b)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert gemm_i8_i32(a.astype(np.float64), b.astype(np.float64)).tobytes() == got.tobytes()
    mid_scale = float(np.abs(want).max()) / 127.0
    assert np.array_equal(requant_mid(got, mid_scale), ref.round_half_away(want / mid_scale))


def _max_contraction_layer(c_in):
    ones = ScaleDescriptor("per-tensor", np.float32(1.0))
    return CompiledSkillLayer(
        name="wide",
        smooth_inv=np.ones(c_in, dtype=np.float32),
        a_hat=QuantGrid(_extreme_codes(8, c_in)[2:].T.copy(), 8, ones),
        b_hat=QuantGrid(np.array([[127]], dtype=np.int8), 8, ones),
        mid_scale=float(c_in * 127),
        config=QuantConfig(gran_b="per-tensor"),
    )


def test_forward_exact_at_max_contraction():
    """x codes equal to A's codes make every product +127^2, so the first
    accumulator peaks at K * 127^2 and the output is exactly K * 127^3."""
    layer = _max_contraction_layer(MAX_CONTRACTION)
    x = layer.a_hat.codes.T.astype(np.float32)
    diag = ForwardDiag()
    out = forward_quantized(layer, x, diag=diag)
    assert out.dtype == np.float32
    assert out.tolist() == [[float(MAX_CONTRACTION * 127**3)]]
    assert diag.mid_saturated == 0


def test_contraction_past_the_guarantee_rejected():
    k = MAX_CONTRACTION + 1
    with pytest.raises(ShapeError, match="int32 guarantee"):
        gemm_i8_i32(np.ones((1, k)), np.ones((k, 1)))
    layer = _max_contraction_layer(k)
    with pytest.raises(ShapeError, match="int32 guarantee"):
        forward_quantized(layer, np.ones((1, k), dtype=np.float32))


@pytest.mark.parametrize("bits", [4, 8])
def test_gemm_exact_at_float32_bound(bits):
    """At K = F32_EXACT_CONTRACTION every partial sum of the float32 product
    is an integer of at most K * 128^2 = 2^24, so it equals the int64
    product, and a forward through it is K * 127^3 rounded once to float32."""
    k = F32_EXACT_CONTRACTION
    assert k * 128**2 == 1 << 24
    a = _extreme_codes(bits, k)
    b = np.ascontiguousarray(_extreme_codes(bits, k).T)
    want = a.astype(np.int64) @ b.astype(np.int64)
    assert np.abs(want).max() == k * ((1 << (bits - 1)) - 1) ** 2
    got = gemm_i8_i32(a, b)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    lowest = np.full((1, k), -128, dtype=np.int8)
    assert gemm_i8_i32(lowest, np.ascontiguousarray(lowest.T)).tolist() == [[float(1 << 24)]]
    layer = _max_contraction_layer(k)
    assert forward_quantized(layer, layer.a_hat.codes.T.astype(np.float32)).tolist() == [[float(np.float32(k * 127**3))]]


def test_gemm_past_float32_bound_is_float64():
    """One step past the bound, 1024 products of -128 * -128 and one of 1 * 1
    sum to 2^24 + 1, which is odd and above 2^24, so no float32 value holds
    it: only the float64 product returns it."""
    k = F32_EXACT_CONTRACTION + 1
    assert float(np.float32((1 << 24) + 1)) != (1 << 24) + 1
    a = np.full((1, k), -128, dtype=np.int8)
    a[0, -1] = 1
    assert gemm_i8_i32(a, np.ascontiguousarray(a.T)).tolist() == [[float((1 << 24) + 1)]]


@pytest.mark.parametrize("k", [1025, 2048, 2049, 3 * 1024 + 7])
def test_gemm_sums_float32_chunks_exactly(k):
    """Past F32_EXACT_CONTRACTION, K is cut into chunks of float32 products
    summed in float64: all -128 codes make each full chunk exactly 2^24,
    one trailing product of 1 makes an odd sum past 2^24 that no float32
    holds, and the +-127 rows and seeded patterns equal the int64 product,
    for int8 and float32 code grids alike."""
    lowest = np.full((1, k), -128, dtype=np.int8)
    assert gemm_i8_i32(lowest, np.ascontiguousarray(lowest.T)).tolist() == [[float(k << 14)]]
    lowest[0, -1] = 1
    assert gemm_i8_i32(lowest, np.ascontiguousarray(lowest.T)).tolist() == [[float(((k - 1) << 14) + 1)]]
    a = _extreme_codes(8, k)
    b = np.ascontiguousarray(_extreme_codes(8, k).T)
    want = a.astype(np.int64) @ b.astype(np.int64)
    got = gemm_i8_i32(a, b)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert gemm_i8_i32(a.astype(np.float32), b.astype(np.float32)).tobytes() == got.tobytes()


def test_forward_transient_memory_stays_in_row_blocks():
    """At T = 512, C = 2048, R = 128 the forward keeps X's float32 codes and
    float64 row blocks: its tracemalloc peak is 8.0 MB (20.0 MB when X's
    codes and the outer rescale were whole float64 matrices), and one more
    whole T x C float64 temporary (8 MB) would cross the 10 MB bound."""
    rng = Prng(990)
    smooth = rng.uniform_matrix(1, 2048, 0.5, 2.0).reshape(-1)
    x_calib = rng.uniform_matrix(16, 2048, -2.0, 2.0)
    layer = compile_layer("wide", smooth, rng.gauss_matrix(2048, 128), rng.gauss_matrix(128, 2048), QuantConfig(), x_calib=x_calib)
    x = rng.uniform_matrix(512, 2048, -2.0, 2.0)
    tracemalloc.start()
    try:
        forward_quantized(layer, x, row_blocks=[256, 256])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20, peak


# ---------------------------------------------------------------------------
# Calibration and serving against the frozen reference kernel


def _calib_with_outlier(rng, c_in):
    """Six calibration rows, uniform in [-2, 2], whose last channel is 30x louder."""
    x = rng.uniform_matrix(6, c_in, -2.0, 2.0)
    x[:, -1] *= np.float32(30.0)
    return x


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 4), st.integers(1, 7)),
    bits=st.tuples(st.sampled_from([4, 8]), st.sampled_from([4, 8]), st.sampled_from([4, 8])),
    gran_x=st.sampled_from([PER_TOKEN, PER_TENSOR]),
    gran_b=st.sampled_from([PER_CHANNEL, PER_TENSOR]),
    use_gptq=st.booleans(),
    blocks=st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=1, max_size=5)),
    gains=st.lists(st.sampled_from([0.25, 1.0, 8.0]), min_size=5, max_size=5),
    negative=st.booleans(),
    zero_rows=st.sets(st.integers(0, 11)),
    zero=st.sampled_from([0.0, -0.0]),
)
def test_stages_match_reference_kernel(seed, shape, bits, gran_x, gran_b, use_gptq, blocks, gains, negative, zero_rows, zero):
    """compile_layer's grids and mid scale, and forward_quantized's output
    and diagnostics, equal the reference bit for bit: per-token and
    per-tensor X (row blocks of 0 to 3 rows, each at its own magnitude so
    clamps happen), 4/8-bit X, A and B, per-channel and per-tensor B, GPTQ
    on and off, and all-zero X rows of either sign against all-negative
    A and B codes (the sign of a zero output is part of the bytes)."""
    c_in, rank, c_out = shape
    rng = Prng(seed)
    smooth = rng.uniform_matrix(1, c_in, 0.25, 4.0).reshape(-1)
    a, b = rng.gauss_matrix(c_in, rank), rng.gauss_matrix(rank, c_out)
    if negative:
        a, b = -np.abs(a), -np.abs(b)
    x_calib = _calib_with_outlier(rng, c_in)
    config = QuantConfig(*bits, gran_x=gran_x, gran_b=gran_b)

    layer = compile_layer("l", smooth, a, b, config, x_calib=x_calib, use_gptq=use_gptq)
    want_layer = kernel_reference.compile_layer(smooth, a, b, config, x_calib, use_gptq)
    assert np.float64(layer.mid_scale).tobytes() == np.float64(want_layer.mid_scale).tobytes()
    assert layer.smooth_inv.tobytes() == want_layer.smooth_inv.tobytes()
    for got, want in ((layer.a_hat, want_layer.a_hat), (layer.b_hat, want_layer.b_hat)):
        assert got.codes.tobytes() == want.codes.tobytes()
        assert got.scale.scales.tobytes() == want.scale.scales.tobytes()

    sizes = blocks or [4]
    x = np.zeros((sum(sizes), c_in), dtype=np.float32)
    start = 0
    for size, gain in zip(sizes, gains):
        if size:
            x[start : start + size] = rng.uniform_matrix(size, c_in, -2.0 * gain, 2.0 * gain)
        start += size
    x[[i for i in zero_rows if i < len(x)]] = zero
    diag = ForwardDiag()
    with spy_requant_mid() as spy:
        out = forward_quantized(layer, x, diag=diag, row_blocks=blocks)
    want_out, want_sat, want_scales = kernel_reference.forward_quantized(layer, x, blocks)
    assert out.tobytes() == want_out.tobytes()
    assert diag.mid_saturated == want_sat
    assert [call.args[1] for call in spy.call_args_list] == want_scales


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c_in=st.integers(F32_EXACT_CONTRACTION + 1, 2100),
    rank=st.integers(1, 3),
    bits_x=st.sampled_from([4, 8]),
    gran_x=st.sampled_from([PER_TOKEN, PER_TENSOR]),
    gran_b=st.sampled_from([PER_CHANNEL, PER_TENSOR]),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    gains=st.lists(st.sampled_from([0.25, 1.0, 8.0]), min_size=7, max_size=7),
)
def test_wide_forward_matches_reference_across_row_blocks(seed, c_in, rank, bits_x, gran_x, gran_b, sizes, gains):
    """Past K = F32_EXACT_CONTRACTION (GEMM 1 in float32 chunks), with more
    tokens than one internal row block: compile_layer's mid scale and
    forward_quantized's output equal the reference bit for bit, per token
    and per tensor, with requests of 0 to 40 rows (each at its own
    magnitude) that cross the row-block boundary, and dispatch_batch equals
    dispatch_sequential."""
    rng = Prng(seed)
    smooth = rng.uniform_matrix(1, c_in, 0.25, 4.0).reshape(-1)
    a, b = rng.gauss_matrix(c_in, rank), rng.gauss_matrix(rank, 3)
    x_calib = _calib_with_outlier(rng, c_in)
    config = QuantConfig(bits_x=bits_x, gran_x=gran_x, gran_b=gran_b)
    layer = compile_layer("l", smooth, a, b, config, x_calib=x_calib)
    want_layer = kernel_reference.compile_layer(smooth, a, b, config, x_calib, False)
    assert np.float64(layer.mid_scale).tobytes() == np.float64(want_layer.mid_scale).tobytes()

    block_rows = kernel._BLOCK_BYTES // (8 * c_in)
    sizes = sizes + [max(0, block_rows + 1 - sum(sizes))]  # more rows than one block
    x = np.concatenate([rng.uniform_matrix(n, c_in, -2.0 * g, 2.0 * g) for n, g in zip(sizes, gains)])
    diag = ForwardDiag()
    out = forward_quantized(layer, x, diag=diag, row_blocks=sizes)
    want_out, want_sat, _ = kernel_reference.forward_quantized(layer, x, sizes)
    assert out.tobytes() == want_out.tobytes()
    assert diag.mid_saturated == want_sat
    assert forward_quantized(layer, x).tobytes() == kernel_reference.forward_quantized(layer, x)[0].tobytes()

    registry = SkillRegistry({"w": rng.uniform_matrix(c_in, 3, -1.0, 1.0)}, "w", {"t": Skillpack("t", {"w": layer})})
    starts = np.cumsum([0] + sizes)
    batch = Batch([ForwardRequest("t", x[lo:hi]) for lo, hi in zip(starts[:-1], starts[1:])])
    batched, sequential = dispatch_batch(batch, registry), dispatch_sequential(batch, registry)
    assert [o.tobytes() for o in batched] == [o.tobytes() for o in sequential]


def test_calibration_divides_and_serving_multiplies():
    """x / 7 lands on a rounding tie that x * fl32(1/7) misses by one ulp, so
    the calibrated mid scale pins calibration to dividing by s and the
    served output pins serving to multiplying by the stored 1/s."""
    smooth = np.float32([7.0, 7.0])
    x = np.float32([[127 * 7.0, 0.5 * 7.0]])
    a, b = np.ones((2, 1), dtype=np.float32), np.ones((1, 1), dtype=np.float32)
    config = QuantConfig(gran_b=PER_TENSOR)
    layer = compile_layer("l", smooth, a, b, config, x_calib=x)
    want = kernel_reference.compile_layer(smooth, a, b, config, x, False)
    assert layer.mid_scale == want.mid_scale == 128.0  # x codes (127, 1), not (127, 0)
    want_out, _, _ = kernel_reference.forward_quantized(layer, x)
    assert forward_quantized(layer, x).tobytes() == want_out.tobytes()
    divided, multiplied = (quantize_codes(x_s, 8, PER_TOKEN, None)[0] for x_s in (x / smooth, x * layer.smooth_inv))
    assert divided.tolist() == [[127, 1]] and multiplied.tolist() == [[127, 0]]


_VEC, _MAT = np.ones(4, dtype=np.float32), np.ones((4, 4), dtype=np.float32)


@pytest.mark.parametrize(
    "fn, args",
    [
        (apply_smooth, (_VEC, _MAT, _VEC)),
        (apply_smooth, (_MAT, _VEC, _VEC)),
        (compute_smooth, (_VEC, _VEC)),
        (fold_rotation, (_VEC, _MAT, _MAT)),
        (fold_rotation, (_MAT, _MAT, _VEC)),
        (forward_full, (_MAT, None, _VEC)),
        (gemm_i8_i32, (_VEC, _MAT)),
        (gemm_i8_i32, (_MAT, _VEC)),
    ],
    ids=["smooth-x", "smooth-w", "compute-smooth-w", "fold-a", "fold-q", "forward-full-x", "gemm-a", "gemm-b"],
)
def test_one_dimensional_matrix_arguments_refused(fn, args):
    """A 1-D array where a matrix belongs is refused with ShapeError, not
    an IndexError, an AxisError or a silently 1-D or broadcast result."""
    with pytest.raises(ShapeError):
        fn(*args)


@pytest.mark.parametrize("index", [-1, 2**32, 1.5])
def test_rotation_index_outside_u32_refused(index):
    """The SKZ rotation field is u32: a layer with any other index is
    refused when it is built, and the largest u32 serializes."""
    a, b = np.ones((4, 2), dtype=np.float32), np.ones((2, 4), dtype=np.float32)
    with pytest.raises(ValidationError, match="rotation index must be an integer in 0..2\\^32 - 1"):
        compile_layer("l", np.ones(4, dtype=np.float32), a, b, QuantConfig(), mid_scale=1.0, rotation_index=index)
    layer = compile_layer("l", np.ones(4, dtype=np.float32), a, b, QuantConfig(), mid_scale=1.0, rotation_index=2**32 - 1)
    assert serialize_skillpack(Skillpack("t", {"l": layer}))
