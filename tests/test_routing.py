import json
import warnings

import numpy as np
import pytest

from skillzip import (
    Batch,
    ForwardRequest,
    QuantConfig,
    RoutingError,
    ShapeError,
    Skillpack,
    SkillRegistry,
    FormatError,
    ValidationError,
    compile_layer,
    dispatch_batch,
    dispatch_sequential,
    forward_full,
    write_archive,
)
from skillzip.prng import Prng
from skillzip.routing import load_request_stream, write_outputs
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mutate import HOSTILE_VALUES, byte_ops, mutate_bytes, substitute
from skillzip.tensors import fro_norm


C_IN, C_OUT = 24, 20


def _registry(gran_x="per-token", tasks=("math", "code", "chat")):
    rng = Prng(300)
    backbone = {"layer0": rng.uniform_matrix(C_IN, C_OUT, -0.5, 0.5)}
    packs = {}
    for task in tasks:
        trng = rng.spawn(task)
        a = trng.uniform_matrix(C_IN, 4, -0.5, 0.5)
        b = trng.uniform_matrix(4, C_OUT, -0.5, 0.5)
        x_cal = trng.uniform_matrix(16, C_IN, -2.0, 2.0)
        layer = compile_layer(
            "layer0", np.ones(C_IN, dtype=np.float32), a, b, QuantConfig(gran_x=gran_x), x_calib=x_cal
        )
        packs[task] = Skillpack(task, {"layer0": layer})
    return SkillRegistry(backbone=backbone, target_layer="layer0", packs=packs)


def _request(rng, task, tokens=None):
    t = tokens if tokens is not None else rng.below(6) + 1
    return ForwardRequest(task, rng.uniform_matrix(t, C_IN, -3.0, 3.0))


def test_route_known_label():
    reg = _registry()
    req = ForwardRequest("math", np.zeros((1, C_IN), dtype=np.float32))
    assert reg.route(req) == "math"


def test_route_unknown_label():
    reg = _registry()
    with pytest.raises(RoutingError, match="unknown"):
        reg.route(ForwardRequest("unknown", np.zeros((1, C_IN), dtype=np.float32)))


def test_same_label_same_pack_instance():
    reg = _registry()
    assert reg.serving_layer("math") is reg.serving_layer("math")


def test_batch_of_one_equals_direct_forward():
    reg = _registry()
    rng = Prng(301)
    req = _request(rng, "math", tokens=3)
    (out,) = dispatch_batch(Batch([req]), reg)
    direct = forward_full(reg.backbone["layer0"], reg.serving_layer("math"), req.x)
    assert np.array_equal(out, direct)


def test_mixed_batch_original_order_and_grouping():
    reg = _registry()
    rng = Prng(302)
    batch = Batch([_request(rng, t) for t in ("math", "code", "math", "chat", "code")])
    outs = dispatch_batch(batch, reg)
    seq = dispatch_sequential(batch, reg)
    assert len(outs) == 5
    for got, want in zip(outs, seq):
        assert got.shape == want.shape
        assert fro_norm(got - want) <= 1e-6 * max(fro_norm(want), 1e-9)


def test_batched_equals_sequential_bitwise_per_token():
    reg = _registry(gran_x="per-token")
    for seed in range(5):
        rng = Prng(400 + seed)
        labels = [("math", "code", "chat")[rng.below(3)] for _ in range(rng.below(10) + 2)]
        batch = Batch([_request(rng, t) for t in labels])
        outs = dispatch_batch(batch, reg)
        seq = dispatch_sequential(batch, reg)
        for got, want in zip(outs, seq):
            # The integer skillpack path is bitwise identical; the shared
            # float backbone contribution may differ at BLAS shape level.
            assert fro_norm(got - want) <= 1e-6 * max(fro_norm(want), 1e-9)


def test_integer_path_bitwise_per_request_quantization():
    """With per-tensor activation quantization, each request must be its own
    quantization group inside a batched call."""
    reg = _registry(gran_x="per-tensor")
    rng = Prng(500)
    # Wildly different request magnitudes would change a shared group scale.
    reqs = [
        ForwardRequest("math", rng.uniform_matrix(2, C_IN, -100.0, 100.0)),
        ForwardRequest("math", rng.uniform_matrix(3, C_IN, -0.01, 0.01)),
    ]
    batch = Batch(reqs)
    outs = dispatch_batch(batch, reg)
    seq = dispatch_sequential(batch, reg)
    layer = reg.serving_layer("math")
    for got, want, req in zip(outs, seq, reqs):
        base = forward_full(reg.backbone["layer0"], None, req.x)
        got_delta = got - base
        want_delta = want - base
        assert np.array_equal(got_delta, want_delta)


def test_unknown_label_aborts_whole_batch():
    reg = _registry()
    rng = Prng(303)
    batch = Batch([_request(rng, "math"), _request(rng, "nope"), _request(rng, "code")])
    with pytest.raises(RoutingError):
        dispatch_batch(batch, reg)


def test_identical_requests_identical_outputs():
    reg = _registry()
    rng = Prng(304)
    req = _request(rng, "chat", tokens=4)
    batch = Batch([ForwardRequest(req.task_id, req.x.copy()) for _ in range(6)])
    outs = dispatch_batch(batch, reg)
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_permutation_equivariance():
    reg = _registry()
    rng = Prng(305)
    reqs = [_request(rng, t) for t in ("math", "code", "chat", "math")]
    perm = [2, 0, 3, 1]
    outs = dispatch_batch(Batch(reqs), reg)
    perm_outs = dispatch_batch(Batch([reqs[i] for i in perm]), reg)
    for j, i in enumerate(perm):
        assert np.array_equal(perm_outs[j], outs[i])


def test_registry_holds_float64_backbone_and_leaves_callers_dict():
    """The registry keeps its own float64 copy of the serving layer; the
    caller's dict still holds the same float32 array, and both dispatch
    paths give byte for byte what forward_full gives on that array."""
    packs = _registry().packs
    w = Prng(307).uniform_matrix(C_IN, C_OUT, -0.5, 0.5)
    backbone = {"layer0": w}
    reg = SkillRegistry(backbone=backbone, target_layer="layer0", packs=packs)
    assert backbone["layer0"] is w and w.dtype == np.float32
    assert reg.backbone is not backbone and reg.backbone["layer0"].dtype == np.float64
    rng = Prng(308)
    batch = Batch([_request(rng, t) for t in ("math", "code", "math", "chat")])
    want = [forward_full(w, reg.serving_layer(r.task_id), r.x).tobytes() for r in batch.requests]
    assert [o.tobytes() for o in dispatch_batch(batch, reg)] == want
    assert [o.tobytes() for o in dispatch_sequential(batch, reg)] == want


def test_registry_rejects_shape_mismatch():
    reg = _registry()
    rng = Prng(306)
    a = rng.uniform_matrix(C_IN + 1, 2, -1, 1)
    b = rng.uniform_matrix(2, C_OUT, -1, 1)
    layer = compile_layer("layer0", np.ones(C_IN + 1, dtype=np.float32), a, b, QuantConfig(), mid_scale=1.0)
    packs = {**reg.packs, "bad": Skillpack("bad", {"layer0": layer})}
    with pytest.raises(ShapeError, match="'bad' layer 'layer0'"):
        SkillRegistry(backbone=reg.backbone, target_layer="layer0", packs=packs)


# ---------------------------------------------------------------------------
# Request stream interface


def test_stream_inline_and_archive_refs(tmp_path):
    rng = Prng(307)
    x_entry = rng.uniform_matrix(2, C_IN, -1.0, 1.0)
    write_archive(tmp_path / "acts.ftz", [("req0", x_entry)])
    stream = tmp_path / "requests.jsonl"
    inline_row = [float(i) for i in range(C_IN)]
    lines = [
        json.dumps({"task": "math", "x": [inline_row, inline_row]}),
        json.dumps({"task": "code", "x": inline_row}),
        json.dumps({"task": "chat", "x": "acts.ftz::req0"}),
    ]
    stream.write_text("\n".join(lines) + "\n")
    batch = load_request_stream(stream)
    assert [r.task_id for r in batch.requests] == ["math", "code", "chat"]
    assert batch.requests[0].x.shape == (2, C_IN)
    assert batch.requests[1].x.shape == (1, C_IN)
    assert np.array_equal(batch.requests[2].x, x_entry)


def test_stream_parse_error_reports_line(tmp_path):
    stream = tmp_path / "bad.jsonl"
    stream.write_text('{"task": "math", "x": [[1.0]]}\nnot json\n')
    with pytest.raises(ValidationError, match="bad.jsonl:2"):
        load_request_stream(stream)


@pytest.mark.parametrize("value", ["1e39", "-1e308", "NaN", "Infinity"])
def test_stream_out_of_range_inline_value_rejected(tmp_path, value):
    """Checked in float64 before the float32 cast, so no overflow warning."""
    stream = tmp_path / "wide.jsonl"
    row = ", ".join(["0.5"] * (C_IN - 1) + [value])
    stream.write_text(f'{{"task": "math", "x": [1.0]}}\n{{"task": "math", "x": [{row}]}}\n')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="wide.jsonl:2: inline values must be finite"):
            load_request_stream(stream)


def test_stream_float32_max_inline_value_kept(tmp_path):
    f32_max = float(np.finfo(np.float32).max)
    stream = tmp_path / "edge.jsonl"
    stream.write_text(json.dumps({"task": "math", "x": [f32_max, -f32_max, 1e-46]}) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = load_request_stream(stream).requests[0].x
    assert x.dtype == np.float32
    assert x.tolist() == [[f32_max, -f32_max, 0.0]]


def test_stream_outputs_archive(tmp_path):
    reg = _registry()
    rng = Prng(308)
    batch = Batch([_request(rng, "math"), _request(rng, "code")])
    outs = dispatch_batch(batch, reg)
    out_path = tmp_path / "outputs.ftz"
    write_outputs(outs, out_path)
    from skillzip import read_archive

    entries = dict(read_archive(out_path))
    assert set(entries) == {"0", "1"}
    assert np.array_equal(entries["0"], outs[0])


@pytest.mark.parametrize(
    "bad_x, error",
    [
        (np.zeros((2, C_IN + 1), dtype=np.float32), ShapeError),
        (np.zeros(C_IN, dtype=np.float32), ShapeError),
        (np.full((2, C_IN), np.inf, dtype=np.float32), ValidationError),
    ],
    ids=["wrong-width", "one-dimensional", "non-finite"],
)
def test_bad_request_rejected_before_any_compute(monkeypatch, bad_x, error):
    """The bad request sits in the last label group, after groups that
    would otherwise already have run their backbone matmul."""
    import skillzip.routing

    calls = []
    monkeypatch.setattr(skillzip.routing, "forward_full", lambda *a, **k: calls.append(a))
    reg = _registry()
    rng = Prng(309)
    batch = Batch([_request(rng, "math"), _request(rng, "code"), ForwardRequest("chat", bad_x)])
    with pytest.raises(error):
        dispatch_batch(batch, reg)
    with pytest.raises(error):
        dispatch_sequential(batch, reg)
    assert calls == []


# ---------------------------------------------------------------------------
# One backbone matmul per batch; the skill path per label group


def _mixed_registry():
    """Per-token X, per-tensor X and int4-B (per-tensor scale) packs."""
    rng = Prng(310)
    backbone = {"layer0": rng.uniform_matrix(C_IN, C_OUT, -0.5, 0.5)}
    configs = {
        "A": QuantConfig(),
        "B": QuantConfig(gran_x="per-tensor"),
        "C": QuantConfig(bits_b=4, gran_b="per-tensor"),
    }
    packs = {}
    for task, config in configs.items():
        trng = rng.spawn(task)
        smooth = np.abs(trng.uniform_matrix(1, C_IN, 0.5, 2.0)).reshape(-1)
        a = trng.uniform_matrix(C_IN, 4, -0.5, 0.5)
        b = trng.uniform_matrix(4, C_OUT, -0.5, 0.5)
        layer = compile_layer("layer0", smooth, a, b, config, x_calib=trng.uniform_matrix(16, C_IN, -2.0, 2.0))
        packs[task] = Skillpack(task, {"layer0": layer})
    return SkillRegistry(backbone=backbone, target_layer="layer0", packs=packs)


def _interleaved_batch(seed):
    rng = Prng(seed)
    # Per-tensor requests of very different magnitudes share group "B".
    scales = {"A": 3.0, "B": 0.01, "C": 2.0}
    reqs = []
    for i, t in enumerate(("A", "B", "A", "C", "B")):
        scale = scales[t] * (1000.0 if i == 4 else 1.0)
        reqs.append(ForwardRequest(t, rng.uniform_matrix(rng.below(4) + 1, C_IN, -scale, scale)))
    return Batch(reqs)


def test_interleaved_skill_path_bitwise_equals_sequential(monkeypatch):
    """Split by request, the skill-path outputs of the grouped calls are
    byte-identical to the per-request calls dispatch_sequential makes."""
    import skillzip.kernel

    calls = []
    original = skillzip.kernel.forward_quantized

    def recording(layer, x, diag=None, row_blocks=None):
        out = original(layer, x, diag=diag, row_blocks=row_blocks)
        calls.append((layer, row_blocks or [x.shape[0]], out))
        return out

    monkeypatch.setattr(skillzip.kernel, "forward_quantized", recording)
    reg = _mixed_registry()
    for seed in range(3):
        batch = _interleaved_batch(320 + seed)
        calls.clear()
        outs = dispatch_batch(batch, reg)
        grouped = {}
        for layer, blocks, out in calls:
            grouped[id(layer)] = np.split(out, np.cumsum(blocks)[:-1])
        assert len(calls) == 3
        calls.clear()
        seq = dispatch_sequential(batch, reg)
        per_request = [out for _, _, out in calls]
        for req, got, want, skill in zip(batch.requests, outs, seq, per_request):
            batched_skill = grouped[id(reg.serving_layer(req.task_id))].pop(0)
            assert batched_skill.tobytes() == skill.tobytes()
            assert got.shape == want.shape
            assert fro_norm(got - want) <= 1e-6 * max(fro_norm(want), 1e-9)


def test_one_backbone_matmul_per_batch(monkeypatch):
    import skillzip.kernel

    calls = []
    original = skillzip.kernel.matmul
    monkeypatch.setattr(skillzip.kernel, "matmul", lambda a, b: calls.append(a.shape) or original(a, b))
    reg = _mixed_registry()
    for seed in range(3):
        batch = _interleaved_batch(330 + seed)
        calls.clear()
        dispatch_batch(batch, reg)
        assert calls == [(sum(r.x.shape[0] for r in batch.requests), C_IN)]
    assert dispatch_batch(Batch([]), reg) == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_smoothed_overflow_rejected_in_both_paths():
    """A finite request whose smoothed activations overflow float32."""
    rng = Prng(311)
    backbone = {"layer0": rng.uniform_matrix(C_IN, C_OUT, -0.5, 0.5)}
    smooth = np.full(C_IN, 1e-30, dtype=np.float32)  # reciprocal 1e30
    layer = compile_layer(
        "layer0", smooth, rng.uniform_matrix(C_IN, 2, -1, 1), rng.uniform_matrix(2, C_OUT, -1, 1),
        QuantConfig(), mid_scale=1.0,
    )
    reg = SkillRegistry(backbone=backbone, target_layer="layer0", packs={"big": Skillpack("big", {"layer0": layer})})
    x = np.full((2, C_IN), 1e9, dtype=np.float32)
    batch = Batch([ForwardRequest("big", x)])
    for dispatch in (dispatch_batch, dispatch_sequential):
        with pytest.raises(ValidationError, match="non-finite"):
            dispatch(batch, reg)


_STREAM = [
    {"task": "math", "x": [[0.5] * C_IN, [0.25] * C_IN]},
    {"task": "code", "x": [1.0] * C_IN},
    {"task": "chat", "x": "acts.ftz::req0"},
]


@settings(max_examples=200, deadline=None)
@given(
    mutation=st.one_of(
        st.tuples(st.just("substitute"), st.sampled_from([(i, k) for i in range(3) for k in ("task", "x")]),
                  st.sampled_from(HOSTILE_VALUES + ["acts.ftz::nope", "missing.ftz::req0", "requests.jsonl::x"])),
        st.tuples(st.just("line"), st.integers(0, 2), st.sampled_from([[], 1, "s", None, {"task": "math"}])),
        byte_ops,
    )
)
@example(mutation=("flip", 0.1, b"\x80"))
@example(mutation=("substitute", (1, "x"), 10**400))
@example(mutation=("substitute", (2, "x"), "a.ftz::\u0000"))
def test_mutated_stream_raises_package_errors_only(tmp_path_factory, mutation):
    """Substituted values, non-object lines, byte flips, truncation and
    insertion: the stream either loads or raises ValidationError or
    FormatError; OSError only for an archive that cannot be opened."""
    root = tmp_path_factory.mktemp("stream")
    write_archive(root / "acts.ftz", [("req0", np.ones((2, C_IN), dtype=np.float32))])
    op, where, what = mutation
    lines = [json.dumps(line) for line in _STREAM]
    if op == "substitute":
        lines[where[0]] = substitute(_STREAM[where[0]], where[1:], what)
    elif op == "line":
        lines[where] = json.dumps(what)
    data = "\n".join(lines).encode()
    if op not in ("substitute", "line"):
        data = mutate_bytes(data, op, where, what)
    (root / "requests.jsonl").write_bytes(data)
    try:
        load_request_stream(root / "requests.jsonl")
    except (ValidationError, FormatError):
        pass
    except OSError:  # the stream exists, so this is a referenced archive that cannot be opened
        pass
