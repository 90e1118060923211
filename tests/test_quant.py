import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillzip import (
    QuantGrid,
    ScaleDescriptor,
    ShapeError,
    ValidationError,
    bitdelta_compress,
    bitdelta_dequantize,
    dequantize,
    gptq_refine,
    pack_int4,
    quantize,
    unpack_int4,
)
from skillzip.prng import Prng
from skillzip.quant import calibration_hessian
from skillzip.tensors import fro_norm
import quant_reference as ref


def test_per_tensor_int8_scalar_oracle():
    m = np.array([[1.27, -0.635, 0.0]], dtype=np.float32)
    q = quantize(m, 8, "per-tensor")
    assert float(q.scale.scales) == pytest.approx(0.01, rel=1e-6)
    # -0.635/0.01 = -63.5 rounds away from zero to -64
    assert q.codes.tolist() == [[127, -64, 0]]


def test_all_zero_matrix():
    q = quantize(np.zeros((3, 2), dtype=np.float32), 8, "per-tensor")
    assert float(q.scale.scales) == 1.0
    assert not q.codes.any()
    assert np.array_equal(dequantize(q), np.zeros((3, 2), dtype=np.float32))


def test_per_token_row_scales():
    m = np.array([[127.0, 1.0], [12.7, -1.0]], dtype=np.float32)
    q = quantize(m, 8, "per-token")
    assert q.scale.scales == pytest.approx([1.0, 0.1], rel=1e-6)
    assert q.codes[0, 0] == 127
    assert q.codes[1, 0] == 127


def test_round_trip_bound_all_widths_and_granularities():
    rng = Prng(31)
    for bits in (4, 8):
        for gran in ("per-tensor", "per-token", "per-channel"):
            m = rng.uniform_matrix(17, 23, -50.0, 50.0)
            q = quantize(m, bits, gran)
            back = dequantize(q)
            rows, cols = q.scale.row_col_vectors(*m.shape)
            scale_grid = rows[:, None] * cols[None, :]
            assert (np.abs(back - m) <= scale_grid / 2 + 1e-7).all()


def test_negation_symmetry():
    rng = Prng(32)
    m = rng.uniform_matrix(9, 9, -3.0, 3.0)
    for bits in (4, 8):
        pos = quantize(m, bits, "per-tensor")
        neg = quantize(-m, bits, "per-tensor")
        assert np.array_equal(neg.codes, -pos.codes)


def test_per_channel_refines_per_tensor():
    """Finer grouping tightens the error bound everywhere (the per-element
    rounding can still get lucky either way, so the guaranteed comparison is
    between scale/2 bounds, with the norm following in the outlier regime)."""
    rng = Prng(33)
    for seed in range(5):
        m = rng.uniform_matrix(12, 8, -4.0, 4.0)
        m[:, 2] *= 100.0  # one hot column inflates the per-tensor scale
        qt = quantize(m, 8, "per-tensor")
        qc = quantize(m, 8, "per-channel")
        rows_t, cols_t = qt.scale.row_col_vectors(*m.shape)
        rows_c, cols_c = qc.scale.row_col_vectors(*m.shape)
        bound_t = rows_t[:, None] * cols_t[None, :]
        bound_c = rows_c[:, None] * cols_c[None, :]
        assert (bound_c <= bound_t + 1e-7).all()
        err_t = fro_norm(dequantize(qt) - m)
        err_c = fro_norm(dequantize(qc) - m)
        assert err_c <= err_t + 1e-7


def test_int4_codes_capped():
    m = np.array([[7.0, -7.0, 3.5]], dtype=np.float32)
    q = quantize(m, 4, "per-tensor")
    assert q.codes.min() >= -7 and q.codes.max() <= 7


# ---------------------------------------------------------------------------
# int4 nibble packing


def test_pack_layout_oracle():
    assert pack_int4(np.array([[7, -8]], dtype=np.int8)) == b"\x87"


def test_pack_round_trip_all_codes():
    codes = np.arange(-8, 8, dtype=np.int8).reshape(4, 4)
    assert np.array_equal(unpack_int4(pack_int4(codes), 4, 4), codes)


def test_pack_odd_length_pad():
    codes = np.array([[1, 2, 3]], dtype=np.int8)
    data = pack_int4(codes)
    assert len(data) == 2
    assert data[1] >> 4 == 0  # pad nibble zero
    assert np.array_equal(unpack_int4(data, 1, 3), codes)


def test_unpack_rejects_nonzero_pad():
    with pytest.raises(ValidationError, match="pad"):
        unpack_int4(b"\x21\xf3", 1, 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-8, 7), min_size=1, max_size=30))
def test_pack_round_trip_property(values):
    codes = np.array([values], dtype=np.int8)
    assert np.array_equal(unpack_int4(pack_int4(codes), 1, len(values)), codes)


# ---------------------------------------------------------------------------
# 1-bit sign+scale baseline


def test_bitdelta_mean_abs_oracle():
    delta = np.array([[1.0, -2.0, 3.0]], dtype=np.float32)
    signs, scale = bitdelta_compress(delta)
    assert scale == pytest.approx(2.0)
    assert np.array_equal(bitdelta_dequantize(signs, scale), np.array([[2.0, -2.0, 2.0]], dtype=np.float32))


def test_bitdelta_zero_delta():
    signs, scale = bitdelta_compress(np.zeros((2, 2), dtype=np.float32))
    assert scale == 0.0
    assert np.array_equal(bitdelta_dequantize(signs, scale), np.zeros((2, 2), dtype=np.float32))
    assert (signs == 1).all()  # sign(0) counts as +1


def test_bitdelta_exact_on_constant_signs():
    rng = Prng(40)
    signs = np.where(rng.uniform_matrix(6, 6, -1, 1) < 0, -1.0, 1.0).astype(np.float32)
    delta = 0.75 * signs
    s, scale = bitdelta_compress(delta)
    assert np.allclose(bitdelta_dequantize(s, scale), delta, atol=1e-7)


# ---------------------------------------------------------------------------
# GPTQ refinement


def test_gptq_identity_hessian_equals_rtn():
    rng = Prng(50)
    b = rng.uniform_matrix(6, 10, -2.0, 2.0)
    rtn = quantize(b, 8, "per-channel")
    refined = gptq_refine(rtn, b, np.eye(6))
    assert np.array_equal(refined.codes, rtn.codes)


def test_gptq_one_by_one_equals_plain():
    b = np.array([[0.37]], dtype=np.float32)
    rtn = quantize(b, 8, "per-tensor")
    refined = gptq_refine(rtn, b, np.eye(1))
    assert np.array_equal(refined.codes, rtn.codes)


def test_gptq_rejects_indefinite_hessian():
    """An indefinite H fails the Cholesky of H^-1, a singular one the inverse."""
    b = np.ones((2, 3), dtype=np.float32)
    rtn = quantize(b, 8, "per-tensor")
    for hessian in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]):
        with pytest.raises(ValidationError, match="positive definite"):
            gptq_refine(rtn, b, np.array(hessian))


def test_gptq_shape_checks():
    b = np.ones((3, 4), dtype=np.float32)
    rtn = quantize(b, 8, "per-tensor")
    with pytest.raises(ShapeError):
        gptq_refine(rtn, b, np.eye(4))


def test_gptq_rejects_non_finite_inputs():
    """A NaN Hessian, an inf B (or a float64 one past the float32 range) and
    a NaN calibration matrix are refused before the loop, not cast into
    codes or warned about."""
    b = np.ones((3, 4), dtype=np.float32)
    rtn = quantize(b, 8, "per-channel")
    with pytest.raises(ValidationError, match="^Hessian holds non-finite values$"):
        gptq_refine(rtn, b, np.full((3, 3), np.nan))
    for b_fp in (np.where(b > 0, np.inf, b), np.full((3, 4), 1e39)):
        with pytest.raises(ValidationError, match="^B holds non-finite values$"):
            gptq_refine(rtn, b_fp, np.eye(3))
    with pytest.raises(ValidationError, match="^calibration Hessian holds non-finite values$"):
        calibration_hessian(np.full((3, 3), np.nan))


def test_gptq_beats_rtn_on_correlated_calibration():
    """On calibration data with a correlated Hessian, error feedback should
    reduce the calibration-set reconstruction error most of the time."""
    wins = 0
    trials = 50
    for seed in range(trials):
        rng = Prng(1000 + seed)
        m = rng.gauss_matrix(40, 8).astype(np.float64)
        m = m @ (np.eye(8) + 0.6 * np.ones((8, 8)))  # correlate the columns
        b = rng.uniform_matrix(8, 8, -1.5, 1.5)
        h = calibration_hessian(m)
        rtn = quantize(b, 4, "per-channel")
        refined = gptq_refine(rtn, b, h)
        ref = m @ b.astype(np.float64)
        err_rtn = np.linalg.norm(ref - m @ dequantize(rtn).astype(np.float64))
        err_gptq = np.linalg.norm(ref - m @ dequantize(refined).astype(np.float64))
        if err_gptq <= err_rtn:
            wins += 1
    assert wins >= int(0.9 * trials), f"GPTQ won only {wins}/{trials}"


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("gran", ["per-tensor", "per-channel"])
def test_gptq_matches_reference(bits, gran):
    """Error-feedback codes equal the reference loop bit for bit, with
    correlated Hessians that push slices past the clamp and exact-zero
    (including -0.0) entries."""
    for seed in range(6):
        rng = Prng(1100 + seed)
        m = rng.gauss_matrix(30, 7).astype(np.float64) @ (np.eye(7) + 0.8 * np.ones((7, 7)))
        b = rng.uniform_matrix(7, 12, -1.0, 1.0)
        b[seed, :3] = [0.0, -0.0, 0.0]
        h = calibration_hessian(m)
        init = quantize(b, bits, gran)
        refined = gptq_refine(init, b, h)
        want = ref.gptq_codes(gran, init.scale.scales, bits, b, h)
        assert refined.codes.tobytes() == want.tobytes()
        assert refined.scale is init.scale


def test_calibration_hessian_spd_and_damped():
    rng = Prng(60)
    m = rng.gauss_matrix(20, 5)
    h = calibration_hessian(m)
    assert h.shape == (5, 5)
    assert np.allclose(h, h.T)
    eigvals = np.linalg.eigvalsh(h)
    assert eigvals.min() > 0


@pytest.mark.parametrize(
    "gran, count, fits",
    [
        ("per-tensor", 1, True), ("per-tensor", 3, False), ("per-tensor", 0, False),
        ("per-token", 3, True), ("per-token", 6, False),
        ("per-channel", 6, True), ("per-channel", 5, False), ("per-channel", 7, False), ("per-channel", 3, False),
    ],
)
def test_grid_refuses_a_scale_count_that_does_not_fit_its_codes(gran, count, fits):
    """One scale per tensor, one per row per token, one per column per
    channel; a size-1 per-tensor scale of any shape is stored as shape ()."""
    codes = np.ones((3, 6), dtype=np.int8)
    desc = ScaleDescriptor(gran, np.full(count, 0.5, dtype=np.float32))
    if fits:
        assert QuantGrid(codes, 8, desc).scale.scales.shape == ((count,) if gran != "per-tensor" else ())
    else:
        with pytest.raises(ValidationError, match=re.escape(f"{gran} scales of shape ({count},) do not fit (3, 6) codes")):
            QuantGrid(codes, 8, desc)
    assert ScaleDescriptor("per-tensor", np.ones((1, 1), dtype=np.float32)).scales.shape == ()
