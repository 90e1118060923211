import numpy as np
import pytest

from skillzip import ShapeError, ValidationError
from skillzip import evaluate
from skillzip.evaluate import BASELINES, delta_similarity, run_baseline, total_delta_error
from skillzip.fixtures import make_suite
from skillzip.pipeline import PipelineConfig, compress
from skillzip.prng import Prng


def _suite():
    return make_suite(
        1, n_tasks=1, n_layers=2, c_in=40, c_out=36, calib_tokens=12, eval_tokens=12,
        shared_rank=4, task_rank=3, outlier_channels=2,
    )


def test_svd_fp_full_rank_near_lossless():
    suite = _suite()
    task = next(iter(suite.tuned))
    config = PipelineConfig(rank_mode="fixed", rank_value=36)
    report = run_baseline("svd-fp", suite.base, suite.tuned[task], suite.calib, suite.eval_x, config)
    assert report.aggregate_rel_error <= 1e-5
    assert report.compression_ratio < 1.0  # full rank stores more than dense


def test_bitdelta_exact_on_sign_pattern():
    rng = Prng(42)
    signs = np.where(rng.uniform_matrix(10, 10, -1, 1) < 0, -1.0, 1.0).astype(np.float32)
    base = {"l": np.zeros((10, 10), dtype=np.float32)}
    tuned = {"l": (0.5 * signs).astype(np.float32)}
    eval_x = {"l": rng.uniform_matrix(6, 10, -2, 2)}
    report = run_baseline("bitdelta", base, tuned, {}, eval_x, PipelineConfig())
    assert report.aggregate_rel_error <= 1e-6
    # ~32x asymptotically; the per-layer scale costs a little on a 10x10.
    assert report.compression_ratio > 20.0


def test_unknown_method_rejected():
    suite = _suite()
    task = next(iter(suite.tuned))
    with pytest.raises(ValidationError, match="unknown method"):
        run_baseline("asvd", suite.base, suite.tuned[task], suite.calib, suite.eval_x, PipelineConfig())


def test_report_schema_stable_across_methods():
    suite = _suite()
    task = next(iter(suite.tuned))
    config = PipelineConfig(rank_mode="fixed", rank_value=5, n_candidates=2)
    keys = None
    for method in sorted(BASELINES):
        report = run_baseline(method, suite.base, suite.tuned[task], suite.calib, suite.eval_x, config)
        body = report.to_dict()
        assert body["method"] == method
        assert body["aggregate_rel_error"] >= 0
        assert body["compression_ratio"] > 0
        layer_keys = {tuple(sorted(entry)) for entry in body["per_layer"].values()}
        assert len(layer_keys) == 1
        if keys is None:
            keys = (tuple(sorted(body)), layer_keys.pop())
        else:
            assert keys == (tuple(sorted(body)), layer_keys.pop())
        text = report.to_text_table()
        assert method in text and "aggregate" in text


def test_skillzip_beats_fp_svd_on_outlier_fixture():
    """Low-rank-plus-outlier regime: the full pipeline at int8 should beat
    plain float SVD at equal rank most of the time."""
    wins = 0
    trials = 15
    for seed in range(trials):
        suite = make_suite(
            7000 + seed, n_tasks=1, n_layers=1, c_in=96, c_out=96, calib_tokens=24,
            eval_tokens=24, shared_rank=10, task_rank=4, outlier_channels=3,
        )
        task = next(iter(suite.tuned))
        config = PipelineConfig(rank_mode="fixed", rank_value=8, n_candidates=4)
        svd_report = run_baseline("svd-fp", suite.base, suite.tuned[task], suite.calib, suite.eval_x, config)
        zip_report = run_baseline("skillzip", suite.base, suite.tuned[task], suite.calib, suite.eval_x, config)
        if zip_report.aggregate_rel_error <= svd_report.aggregate_rel_error:
            wins += 1
    assert wins >= int(0.9 * trials), f"pipeline beat float SVD in only {wins}/{trials}"


def test_zero_delta_scores_zero():
    rng = Prng(50)
    suite = _suite()
    task = next(iter(suite.tuned))
    config = PipelineConfig(rank_mode="fixed", rank_value=4, n_candidates=1)
    report = run_baseline("skillzip", suite.base, dict(suite.base), suite.calib, suite.eval_x, config)
    assert report.aggregate_rel_error == 0.0


# ---------------------------------------------------------------------------
# Delta similarity diagnostics


def test_similarity_self():
    rng = Prng(51)
    d = {"a": rng.uniform_matrix(5, 5, -1, 1)}
    cosine, sign = delta_similarity(d, d)
    assert cosine == pytest.approx(1.0, abs=1e-9)
    assert sign == pytest.approx(1.0)


def test_similarity_negation():
    rng = Prng(52)
    d = {"a": rng.uniform_matrix(5, 5, -1, 1)}
    neg = {"a": -d["a"]}
    cosine, sign = delta_similarity(d, neg)
    assert cosine == pytest.approx(-1.0, abs=1e-9)
    assert sign == pytest.approx(-1.0)


def test_similarity_orthogonal_pair():
    rng = Prng(53)
    a = rng.gauss_matrix(8, 8).astype(np.float64)
    b = rng.gauss_matrix(8, 8).astype(np.float64)
    b -= (np.sum(a * b) / np.sum(a * a)) * a  # Gram-Schmidt step
    cosine, _ = delta_similarity({"l": a.astype(np.float32)}, {"l": b.astype(np.float32)})
    assert abs(cosine) <= 1e-6


def test_similarity_layer_mismatch():
    with pytest.raises(ValidationError):
        delta_similarity({"a": np.ones((1, 1), dtype=np.float32)}, {"b": np.ones((1, 1), dtype=np.float32)})
    with pytest.raises(ValidationError):
        delta_similarity({}, {})


def test_similarity_layer_shape_mismatch():
    """Equal names and total size are not enough: a transposed layer, or
    sizes swapped between layers, would otherwise score cosine 1."""
    with pytest.raises(ShapeError):
        delta_similarity({"a": np.ones((2, 3))}, {"a": np.ones((3, 2))})
    with pytest.raises(ShapeError):
        delta_similarity({"a": np.ones((1, 2)), "b": np.ones((1, 4))}, {"a": np.ones((1, 4)), "b": np.ones((1, 2))})


def test_total_delta_error_refuses_missing_layer_or_task_before_compute(monkeypatch):
    """An activation set without a pack's layer, or tuned weights without a
    pack's task, is refused with ValidationError before any product."""
    suite = make_suite(
        2, n_tasks=2, n_layers=1, c_in=16, c_out=12, calib_tokens=8, eval_tokens=8,
        shared_rank=2, task_rank=2, outlier_channels=1,
    )
    result = compress(suite.base, suite.tuned, suite.calib, PipelineConfig(rank_mode="fixed", rank_value=2, n_candidates=1))
    calls = []
    monkeypatch.setattr(evaluate, "matmul", lambda *a: calls.append(a))
    with pytest.raises(ValidationError, match="evaluation activations missing layer 'layer0'"):
        total_delta_error(suite.base, result.backbone, result.packs, suite.tuned, {})
    tuned = {"math": suite.tuned["math"]}
    with pytest.raises(ValidationError, match=r"tuned weights missing for task\(s\) \['code'\]"):
        total_delta_error(suite.base, result.backbone, result.packs, tuned, suite.eval_x)
    assert calls == []
