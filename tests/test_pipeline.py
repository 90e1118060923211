import json

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillzip import MergePlan, QuantConfig, ShapeError, ValidationError
from skillzip.evaluate import eval_pack, total_delta_error
from skillzip.fixtures import make_suite
from skillzip.packio import serialize_skillpack
from skillzip.pipeline import PipelineConfig, Toggles, compress
from skillzip.smoothing import MAX_CANDIDATES
from mutate import HOSTILE_VALUES, byte_ops, leaf_paths, mutate_bytes, substitute


def _small_suite(seed=0, **kw):
    defaults = dict(
        n_tasks=2,
        n_layers=2,
        c_in=48,
        c_out=40,
        calib_tokens=16,
        eval_tokens=16,
        shared_rank=6,
        task_rank=3,
        outlier_channels=2,
    )
    defaults.update(kw)
    return make_suite(seed, **defaults)


def _fast_config(**kw):
    defaults = dict(rank_mode="fixed", rank_value=6, n_candidates=2, seed=3)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_identical_tuned_sets_give_zero_residual_packs():
    suite = _small_suite()
    task_a = next(iter(suite.tuned))
    tuned = {"a": suite.tuned[task_a], "b": {n: m.copy() for n, m in suite.tuned[task_a].items()}}
    result = compress(suite.base, tuned, suite.calib, _fast_config())
    for pack in result.packs.values():
        for layer in pack.layers.values():
            assert not layer.a_hat.codes.any()
            assert not layer.b_hat.codes.any()


def test_single_task_compresses_raw_delta():
    suite = _small_suite()
    task = next(iter(suite.tuned))
    result = compress(suite.base, {task: suite.tuned[task]}, suite.calib, _fast_config())
    # No merging happened: backbone equals base bitwise.
    for name in suite.base:
        assert np.array_equal(result.backbone[name], suite.base[name])
    assert result.shared is None
    assert set(result.packs) == {task}


def test_merge_folds_shared_into_backbone():
    suite = _small_suite()
    result = compress(suite.base, suite.tuned, suite.calib, _fast_config())
    assert result.shared is not None
    changed = any(not np.array_equal(result.backbone[n], suite.base[n]) for n in suite.base)
    assert changed


def test_compress_deterministic_bytes():
    suite = _small_suite()
    config = _fast_config()
    r1 = compress(suite.base, suite.tuned, suite.calib, config)
    r2 = compress(suite.base, suite.tuned, suite.calib, config)
    for task in r1.packs:
        assert serialize_skillpack(r1.packs[task]) == serialize_skillpack(r2.packs[task])


def test_seed_changes_rotation_stream():
    suite = _small_suite()
    r1 = compress(suite.base, suite.tuned, suite.calib, _fast_config(seed=1))
    r2 = compress(suite.base, suite.tuned, suite.calib, _fast_config(seed=2))
    # Same fixture, different candidate streams; packs may legitimately
    # coincide only if both selected the identity everywhere.
    b1 = b"".join(serialize_skillpack(p) for p in r1.packs.values())
    b2 = b"".join(serialize_skillpack(p) for p in r2.packs.values())
    idx1 = [l.rotation_index for p in r1.packs.values() for l in p.layers.values()]
    idx2 = [l.rotation_index for p in r2.packs.values() for l in p.layers.values()]
    assert b1 != b2 or idx1 == idx2 == [0] * len(idx1)


def test_toggles_recorded_in_manifest():
    suite = _small_suite()
    config = _fast_config(toggles=Toggles(merge=True, smooth=False, rotate=False, gptq=False))
    result = compress(suite.base, suite.tuned, suite.calib, config)
    pack = next(iter(result.packs.values()))
    assert pack.manifest is not None
    assert pack.manifest.provenance["toggles"] == {
        "merge": True,
        "smooth": False,
        "rotate": False,
        "gptq": False,
    }
    assert all(entry["rotation_candidate"] == 0 for entry in pack.manifest.layers)


def test_disabling_rotation_keeps_format():
    suite = _small_suite()
    on = compress(suite.base, suite.tuned, suite.calib, _fast_config())
    off = compress(suite.base, suite.tuned, suite.calib, _fast_config(toggles=Toggles(rotate=False)))
    task = next(iter(on.packs))
    data_on = serialize_skillpack(on.packs[task])
    data_off = serialize_skillpack(off.packs[task])
    assert len(data_on) == len(data_off)  # same layout, different codes only


def test_missing_calibration_layer():
    suite = _small_suite()
    calib = dict(suite.calib)
    calib.pop(next(iter(calib)))
    with pytest.raises(ValidationError, match="calibration"):
        compress(suite.base, suite.tuned, calib, _fast_config())


@pytest.mark.parametrize(
    "shape, match",
    [((0, 48), r"\(0, 48\)"), ((16, 47), r"\(16, 47\)"), ((16,), r"\(16,\)"), ((2, 16, 48), "")],
    ids=["no-rows", "wrong-width", "one-dimensional", "three-dimensional"],
)
def test_bad_calibration_matrix_rejected_before_any_compute(monkeypatch, shape, match):
    import skillzip.pipeline

    calls = []
    monkeypatch.setattr(skillzip.pipeline, "extract_delta", lambda *a: calls.append(a))
    suite = _small_suite()
    calib = dict(suite.calib)
    calib[sorted(calib)[-1]] = np.ones(shape, dtype=np.float32)
    with pytest.raises(ShapeError, match=f"calibration activations for layer 'layer1' are {match}"):
        compress(suite.base, suite.tuned, calib, _fast_config())
    assert calls == []


def test_eval_pack_reports_reasonable_error():
    suite = _small_suite()
    config = _fast_config()
    result = compress(suite.base, suite.tuned, suite.calib, config)
    task = next(iter(result.packs))
    reference = {n: (suite.tuned[task][n] - result.backbone[n]).astype(np.float32) for n in suite.base}
    report = eval_pack(result.packs[task], reference, suite.eval_x)
    assert 0.0 <= report.aggregate_rel_error < 0.5
    assert report.compression_ratio > 0
    for lf in report.per_layer.values():
        assert lf.rel_error >= 0
        assert lf.flops_dense >= lf.flops_lowrank


def test_total_delta_error_improves_with_everything_on():
    suite = make_suite(11, n_tasks=3, n_layers=1, c_in=128, c_out=128, shared_rank=14, task_rank=4)
    base_cfg = PipelineConfig(rank_mode="fixed", rank_value=16, n_candidates=4, seed=0)
    on = compress(suite.base, suite.tuned, suite.calib, base_cfg)
    off_cfg = replace(base_cfg, toggles=Toggles(False, False, False, False))
    off = compress(suite.base, suite.tuned, suite.calib, off_cfg)
    err_on = total_delta_error(suite.base, on.backbone, on.packs, suite.tuned, suite.eval_x)
    err_off = total_delta_error(suite.base, off.backbone, off.packs, suite.tuned, suite.eval_x)
    assert err_on <= err_off


def test_config_round_trip_canonical():
    config = PipelineConfig(
        merge_plan=MergePlan(method="trimmed-mean", tau=0.2, coefficient=0.9),
        alpha=0.55,
        epsilon=1e-4,
        rank_mode="fixed",
        rank_value=12,
        quant=QuantConfig(bits_x=8, bits_a=4, bits_b=4, gran_x="per-tensor", gran_b="per-tensor"),
        n_candidates=3,
        seed=99,
        toggles=Toggles(merge=False, smooth=True, rotate=False, gptq=True),
    )
    text = config.to_canonical_json()
    back = PipelineConfig.from_json(text)
    assert back == config
    assert back.to_canonical_json() == text


def test_config_rejects_bad_json():
    with pytest.raises(ValidationError):
        PipelineConfig.from_json("{not json")


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"seed": "x"}',
        '{"seed": true}',
        '{"alpha": null}',
        '{"quant": 5}',
        '{"toggles": {"merge": "no"}}',
        '{"n_candidates": 2.5}',
        '{"rank": {"mode": "fixed", "value": "7"}}',
        '{"sed": 1}',
    ],
)
def test_config_rejects_malformed_fields(text):
    with pytest.raises(ValidationError):
        PipelineConfig.from_json(text)


@pytest.mark.parametrize(
    "text, match",
    [
        ('{"rank": {"mode": "bogus"}}', "unknown rank mode"),
        ('{"rank": {"mode": "energy", "value": 1.5}}', "energy fraction"),
        ('{"rank": {"mode": "fixed", "value": 0.5}}', "fixed rank"),
        ('{"n_candidates": -1, "toggles": {"rotate": false}}', "n_candidates"),
        ('{"n_candidates": 257}', "n_candidates"),
        ('{"n_candidates": 1000000000}', "n_candidates"),
    ],
    ids=["rank-mode", "energy", "fixed", "negative-candidates", "candidates-above-cap", "huge-candidates"],
)
def test_config_values_checked_when_parsed(text, match):
    """Out-of-range values are refused by from_json itself, not later in
    compress (where a huge candidate count never returns)."""
    with pytest.raises(ValidationError, match=match):
        PipelineConfig.from_json(text)
    assert PipelineConfig.from_json(f'{{"n_candidates": {MAX_CANDIDATES}}}').n_candidates == MAX_CANDIDATES


def test_config_partial_body_takes_defaults_and_keeps_ints():
    config = PipelineConfig.from_json('{"rank": {"value": 12}, "merge": {"tau": 0}}')
    assert config == replace(PipelineConfig(), rank_value=12, merge_plan=MergePlan(tau=0))
    text = config.to_canonical_json()
    assert '"tau": 0\n' in text and '"value": 12\n' in text
    assert PipelineConfig.from_json(text).to_canonical_json() == text


@pytest.mark.parametrize(
    "value",
    ["Infinity", "-Infinity", "NaN", "1e400", "0", "-2", "2.5", "1" + "0" * 400],
    ids=["inf", "-inf", "nan", "1e400", "zero", "negative", "fraction", "huge-int"],
)
def test_fixed_rank_must_be_a_finite_whole_number(value):
    """A fixed rank is a finite whole number >= 1; anything else is a
    ValidationError from from_json or rank_policy."""
    with pytest.raises(ValidationError):
        PipelineConfig.from_json(f'{{"rank": {{"mode": "fixed", "value": {value}}}}}').rank_policy(16)
    for rank in (float("inf"), float("nan"), 0, 2.5, 10**400):
        with pytest.raises(ValidationError):
            replace(PipelineConfig(), rank_mode="fixed", rank_value=rank).rank_policy(16)
    assert PipelineConfig.from_json('{"rank": {"mode": "fixed", "value": 16.0}}').rank_policy(16).value == 16


_CONFIG = json.loads(PipelineConfig(rank_mode="fixed", rank_value=4, n_candidates=2).to_canonical_json())
_CONFIG_LEAVES = sorted(leaf_paths(_CONFIG))


@settings(max_examples=200, deadline=None)
@given(
    mutation=st.one_of(
        st.tuples(st.just("substitute"), st.sampled_from(_CONFIG_LEAVES), st.sampled_from(HOSTILE_VALUES)),
        st.tuples(st.just("unknown-key"), st.sampled_from([(), ("quant",), ("rank",)]), st.text(max_size=4)),
        byte_ops,
    )
)
@example(mutation=("substitute", ("rank", "value"), float("inf")))
@example(mutation=("substitute", ("rank", "value"), float("nan")))
@example(mutation=("substitute", ("merge", "coefficient"), 10**400))
def test_mutated_config_raises_validation_error_only(mutation):
    """Substituted leaves, unknown keys, byte flips, truncation and
    insertion: parsing plus the rank policy either succeed or raise
    ValidationError."""
    op, where, what = mutation
    if op == "substitute":
        text = substitute(_CONFIG, where, what).encode()
    elif op == "unknown-key":
        text = substitute(_CONFIG, where + ("?" + what,), 1).encode()
    else:
        text = mutate_bytes(json.dumps(_CONFIG).encode(), op, where, what)
    try:
        PipelineConfig.from_json(text).rank_policy(16)
    except ValidationError:
        pass
