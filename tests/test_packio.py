import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillzip import (
    CompiledSkillLayer,
    FormatError,
    QuantConfig,
    QuantGrid,
    ScaleDescriptor,
    Skillpack,
    ValidationError,
    compile_layer,
    compression_ratio,
    read_skillpack,
    write_skillpack,
)
from skillzip import packio
from skillzip.packio import Manifest, manifest_for, serialize_skillpack
from skillzip.prng import Prng


def _layer(rng, c_in=8, rank=3, c_out=10, bits=(8, 8, 8), gran_b="per-channel"):
    config = QuantConfig(bits_x=bits[0], bits_a=bits[1], bits_b=bits[2], gran_b=gran_b)
    a = rng.uniform_matrix(c_in, rank, -1.0, 1.0)
    b = rng.uniform_matrix(rank, c_out, -1.0, 1.0)
    smooth = np.abs(rng.uniform_matrix(1, c_in, 0.5, 2.0)).reshape(-1).astype(np.float32)
    x = rng.uniform_matrix(6, c_in, -3.0, 3.0)
    return compile_layer("ignored", smooth, a, b, config, x_calib=x, rotation_index=rng.below(5))


def _layers_equal(a: CompiledSkillLayer, b: CompiledSkillLayer) -> bool:
    return (
        a.smooth_inv.tobytes() == b.smooth_inv.tobytes()
        and np.array_equal(a.a_hat.codes, b.a_hat.codes)
        and np.array_equal(a.b_hat.codes, b.b_hat.codes)
        and float(a.a_hat.scale.scales) == float(b.a_hat.scale.scales)
        and np.array_equal(np.atleast_1d(a.b_hat.scale.scales), np.atleast_1d(b.b_hat.scale.scales))
        and a.b_hat.scale.granularity == b.b_hat.scale.granularity
        and a.mid_scale == b.mid_scale
        and a.config == b.config
        and a.rotation_index == b.rotation_index
    )


def test_minimal_round_trip(tmp_path):
    rng = Prng(200)
    pack = Skillpack("math", {"layer0": _layer(rng, c_in=4, rank=1, c_out=4)})
    path = tmp_path / "m.skz"
    write_skillpack(pack, path)
    back = read_skillpack(path)
    assert back.task_id == "math"
    assert set(back.layers) == {"layer0"}
    assert _layers_equal(pack.layers["layer0"], back.layers["layer0"])


def test_round_trip_multiple_layers_and_int4(tmp_path):
    rng = Prng(201)
    pack = Skillpack(
        "code",
        {
            "layer0": _layer(rng, bits=(8, 4, 4)),
            "layer1": _layer(rng, c_in=6, rank=2, c_out=7, bits=(4, 8, 4), gran_b="per-tensor"),
        },
    )
    path = tmp_path / "c.skz"
    write_skillpack(pack, path)
    back = read_skillpack(path)
    for name in pack.layers:
        assert _layers_equal(pack.layers[name], back.layers[name])


def test_odd_width_int4_payload(tmp_path):
    rng = Prng(202)
    pack = Skillpack("odd", {"layer0": _layer(rng, c_in=5, rank=3, c_out=7, bits=(8, 4, 4))})
    path = tmp_path / "o.skz"
    write_skillpack(pack, path)
    back = read_skillpack(path)
    assert _layers_equal(pack.layers["layer0"], back.layers["layer0"])


def test_canonical_serialization(tmp_path):
    rng = Prng(203)
    layers = {"b": _layer(rng), "a": _layer(rng, c_in=4, rank=2, c_out=4)}
    pack = Skillpack("t", dict(layers))
    reordered = Skillpack("t", {k: layers[k] for k in sorted(layers, reverse=True)})
    assert serialize_skillpack(pack) == serialize_skillpack(reordered)
    p1, p2 = tmp_path / "a.skz", tmp_path / "b.skz"
    write_skillpack(pack, p1)
    write_skillpack(read_skillpack(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corruption_detected(tmp_path):
    rng = Prng(204)
    pack = Skillpack("t", {"layer0": _layer(rng)})
    path = tmp_path / "x.skz"
    write_skillpack(pack, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="CRC"):
        read_skillpack(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.skz"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        read_skillpack(path)


def test_empty_pack_rejected():
    with pytest.raises(ValidationError):
        Skillpack("t", {})


@pytest.mark.parametrize("task_id", ["", "x" * 65536, "\u00e9" * 32768, "\udcff"], ids=["empty", "long", "long-utf8", "surrogate"])
def test_task_id_rule_checked_when_built(task_id):
    layer = _layer(Prng(209))
    with pytest.raises(ValidationError, match="task id"):
        Skillpack(task_id, {"layer0": layer})
    Skillpack("\u00e9" * 32767 + "x", {"layer0": layer})  # 65535 bytes


@pytest.mark.parametrize("name", ["", "x" * 257, "\u00e9" * 129, "\udcff"], ids=["empty", "long", "long-utf8", "surrogate"])
def test_layer_name_rule_checked_when_built(name):
    layer = _layer(Prng(213))
    with pytest.raises(ValidationError, match="layer name"):
        Skillpack("t", {"layer0": layer, name: layer})
    Skillpack("t", {"\u00e9" * 127 + "xx": layer})  # 256 bytes


@pytest.mark.parametrize("name", [b"", b"x" * 257, "\udcff".encode("utf-8", "surrogatepass")], ids=["empty", "long", "surrogate"])
def test_crafted_layer_name_rejected_with_format_error(tmp_path, name):
    with pytest.raises(FormatError, match="layer name|not valid UTF-8"):
        read_skillpack(_crafted_pack(tmp_path / "bad.skz", {packio._TAG_NAME: name}))


def test_write_without_manifest_removes_stale_sidecar(tmp_path):
    """A rank-2 pack with a manifest, then a rank-3 pack without one, to the
    same path: the second write removes the first pack's sidecar, so the
    read does not check the new payload against it."""
    path, sidecar = tmp_path / "m.skz", tmp_path / "m.skz.manifest.json"
    first = Skillpack("t", {"layer0": _layer(Prng(214), rank=2)})
    first.manifest = manifest_for(first)
    write_skillpack(first, path)
    assert sidecar.exists()
    write_skillpack(Skillpack("t", {"layer0": _layer(Prng(215), rank=3)}), path)
    assert not sidecar.exists()
    back = read_skillpack(path)
    assert back.manifest is None and back.layers["layer0"].rank == 3


@pytest.mark.parametrize("failing", ["m.skz", "m.skz.manifest.json"])
def test_interrupted_write_leaves_no_stale_sidecar(tmp_path, monkeypatch, failing):
    """A write that dies on the payload or on the sidecar leaves a pack that
    reads: the old payload or the new one, never next to the other's sidecar."""
    path = tmp_path / "m.skz"
    old, new = (Skillpack("t", {"layer0": _layer(Prng(seed), rank=rank)}) for seed, rank in ((216, 2), (217, 3)))
    for pack in (old, new):
        pack.manifest = manifest_for(pack)
    write_skillpack(old, path)
    real_write = packio.write_atomic

    def write_or_die(target, data):
        if str(target).endswith(failing):
            raise OSError("disk full")
        real_write(target, data)

    monkeypatch.setattr(packio, "write_atomic", write_or_die)
    with pytest.raises(OSError, match="disk full"):
        write_skillpack(new, path)
    back = read_skillpack(path)
    assert back.manifest is None
    assert back.layers["layer0"].rank == (2 if failing == "m.skz" else 3)


def test_manifest_round_trip_and_cross_check(tmp_path):
    rng = Prng(205)
    pack = Skillpack("t", {"layer0": _layer(rng)})
    pack.manifest = manifest_for(pack, provenance={"seed": 7})
    path = tmp_path / "m.skz"
    write_skillpack(pack, path)
    back = read_skillpack(path)
    assert back.manifest is not None
    assert back.manifest.provenance == {"seed": 7}
    assert back.manifest.compression_ratio == pytest.approx(pack.manifest.compression_ratio)


def test_manifest_mismatch_detected(tmp_path):
    rng = Prng(206)
    pack = Skillpack("t", {"layer0": _layer(rng)})
    pack.manifest = manifest_for(pack)
    path = tmp_path / "m.skz"
    write_skillpack(pack, path)
    sidecar = tmp_path / "m.skz.manifest.json"
    lying = Manifest.from_json(sidecar.read_text())
    lying.layers[0]["rank"] += 1
    sidecar.write_text(lying.to_json())
    with pytest.raises(FormatError, match="manifest"):
        read_skillpack(path)


def _edited(edit):
    """A sidecar case: the written sidecar, parsed, edited in place, dumped."""

    def case(good):
        body = json.loads(good)
        edit(body)
        return json.dumps(body)

    return case


MALFORMED_MANIFESTS = {
    "not-json": lambda good: "{not json",
    "no-layers": lambda good: '{"task_id": "t"}',
    "layer-without-name": _edited(lambda body: body["layers"][0].pop("name")),
    "not-an-object": lambda good: "[1, 2]",
    "layers-not-objects": lambda good: good.replace('"layers": [\n    {', '"layers": [\n    "x", {', 1),
    "name-not-string": lambda good: good.replace('"name": "layer0"', '"name": ["layer0"]', 1),
    "not-utf8": lambda good: b"\xff\xfe{" ,
    "lying-gran-b": _edited(lambda body: body["layers"][0].update(gran_b="per-tensor")),  # the pack's is per-channel
    "bogus-gran-x": _edited(lambda body: body["layers"][0].update(gran_x="per-galaxy")),
    "lying-rotation": _edited(lambda body: body["layers"][0].update(rotation_candidate=body["layers"][0]["rotation_candidate"] + 1)),
    "lying-task-id": _edited(lambda body: body.update(task_id="u")),
    "duplicate-layer": _edited(lambda body: body["layers"].append(dict(body["layers"][0]))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_raises_format_error(tmp_path, case):
    pack = Skillpack("t", {"layer0": _layer(Prng(208))})
    pack.manifest = manifest_for(pack)
    path = tmp_path / "m.skz"
    write_skillpack(pack, path)
    sidecar = tmp_path / "m.skz.manifest.json"
    bad = MALFORMED_MANIFESTS[case](sidecar.read_text())
    if isinstance(bad, bytes):
        sidecar.write_bytes(bad)
    else:
        assert bad != sidecar.read_text()
        sidecar.write_text(bad)
    with pytest.raises(FormatError, match="manifest"):
        read_skillpack(path)


def test_compression_ratio_large_layer():
    rng = Prng(207)
    # 4096x4096 dense f32 = 64 MiB; rank-256 int8 factors ~ 2 MiB + overhead.
    config = QuantConfig()
    a_hat = QuantGrid(np.ones((4096, 256), dtype=np.int8), 8, ScaleDescriptor("per-tensor", np.float32(1.0)))
    b_hat = QuantGrid(np.ones((256, 4096), dtype=np.int8), 8, ScaleDescriptor("per-channel", np.ones(4096, dtype=np.float32)))
    layer = CompiledSkillLayer("big", np.ones(4096, dtype=np.float32), a_hat, b_hat, 1.0, config)
    pack = Skillpack("t", {"big": layer})
    ratio = compression_ratio(pack)
    assert 28.0 <= ratio <= 32.0  # near 32x, minus smoothing/scale overhead


def test_compression_ratio_can_drop_below_one():
    rng = Prng(208)
    layer = _layer(rng, c_in=4, rank=4, c_out=4)
    ratio = compression_ratio(Skillpack("t", {"layer0": layer}))
    assert ratio > 0
    assert ratio < 1  # tiny layer, header overhead dominates


# ---------------------------------------------------------------------------
# Crafted files with a valid CRC: the decoder raises FormatError only


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _crafted_pack(path, fields=None, task=b"math", bits=(8, 8, 8)):
    """One-layer pack whose layer field payloads (by tag) may be replaced."""
    record = packio._serialize_layer("layer0", _layer(Prng(210), bits=bits))[6:]
    out, pos = [], 0
    while pos < len(record):
        tag, n = struct.unpack_from("<HI", record, pos)
        out.append(packio._tlv(tag, (fields or {}).get(tag, record[pos + 6 : pos + 6 + n])))
        pos += 6 + n
    body = packio.MAGIC + struct.pack("<HH", packio.VERSION, len(task)) + task + struct.pack("<I", 1)
    path.write_bytes(_with_crc(body + packio._tlv(packio._TAG_LAYER, b"".join(out))))
    return path


def test_crafted_zero_layer_pack_rejected_with_format_error(tmp_path):
    path = tmp_path / "empty.skz"
    path.write_bytes(_with_crc(packio.MAGIC + struct.pack("<HH", packio.VERSION, 4) + b"math" + struct.pack("<I", 0)))
    with pytest.raises(FormatError, match="at least one layer"):
        read_skillpack(path)


def test_crafted_pack_baseline_reads(tmp_path):
    pack = read_skillpack(_crafted_pack(tmp_path / "ok.skz"))
    assert pack.task_id == "math" and set(pack.layers) == {"layer0"}


@pytest.mark.parametrize(
    "fields, task, bits",
    [
        ({}, b"\xffmath", (8, 8, 8)),
        ({}, b"", (8, 8, 8)),
        ({packio._TAG_NAME: b"\xfe\xfflayer"}, b"math", (8, 8, 8)),
        ({packio._TAG_DIMS: b"\x08\x00\x00"}, b"math", (8, 8, 8)),
        ({packio._TAG_RANK: b""}, b"math", (8, 8, 8)),
        ({packio._TAG_BITS: b"\x08\x08"}, b"math", (8, 8, 8)),
        ({packio._TAG_GRANS: b"\x01\x02\x00"}, b"math", (8, 8, 8)),
        ({packio._TAG_A_SCALE: b"\x00\x00\x80"}, b"math", (8, 8, 8)),
        ({packio._TAG_B_SCALES: b""}, b"math", (8, 8, 8)),
        ({packio._TAG_B_SCALES: b"\x00\x00\x00\x80"}, b"math", (8, 8, 8)),
        ({packio._TAG_MID_SCALE: b"\x00\x00\x80\x3f"}, b"math", (8, 8, 8)),
        ({packio._TAG_ROTATION: b"\x00" * 8}, b"math", (8, 8, 8)),
        ({packio._TAG_A_CODES: b"\x00"}, b"math", (8, 4, 4)),
        ({packio._TAG_GRANS: b"\x01\x00"}, b"math", (8, 8, 8)),
        ({packio._TAG_GRANS: b"\x01\x01"}, b"math", (8, 8, 8)),
    ],
    ids=[
        "task-utf8", "task-empty", "name-utf8", "dims-3-bytes", "rank-empty", "bits-2-bytes", "grans-3-bytes",
        "a-scale-3-bytes", "b-scales-empty", "b-scales-ragged", "mid-4-bytes", "rotation-8-bytes", "int4-short",
        "grans-b-per-tensor-vs-per-channel-scales", "grans-b-per-token",
    ],
)
def test_crafted_pack_rejected_with_format_error(tmp_path, fields, task, bits):
    path = _crafted_pack(tmp_path / "bad.skz", fields, task, bits)
    with pytest.raises(FormatError):
        read_skillpack(path)


@settings(max_examples=150, deadline=None)
@given(
    op=st.sampled_from(["flip", "truncate", "insert"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    data=st.binary(min_size=1, max_size=4),
)
def test_mutated_pack_raises_format_error_only(tmp_path_factory, op, where, data):
    """Byte flips, truncation and insertion anywhere after the magic, with
    the CRC fixed up: the read either succeeds or raises FormatError."""
    good = serialize_skillpack(Skillpack("math", {"l0": _layer(Prng(211)), "l1": _layer(Prng(212), bits=(8, 4, 4))}))
    body = bytearray(good[:-4])
    at = 4 + int(where * (len(body) - 4))
    if op == "flip":
        body[at : at + len(data)] = bytes(b ^ (d or 1) for b, d in zip(body[at : at + len(data)], data))
    elif op == "truncate":
        del body[at:]
    else:
        body[at:at] = data
    path = tmp_path_factory.mktemp("skz") / "m.skz"
    path.write_bytes(_with_crc(bytes(body)))
    try:
        read_skillpack(path)
    except FormatError:
        pass


def _framed_pack(task_id: str, layers: dict[str, CompiledSkillLayer]) -> bytes:
    """SKZ bytes for any task id and layer names, framed by hand without the
    writer's checks; each record's fields after the name are the writer's.
    The u16 task id length wraps past 65535 bytes, as an unchecked writer's
    would."""
    task = task_id.encode("utf-8", "surrogatepass")
    body = packio.MAGIC + struct.pack("<HH", packio.VERSION, len(task) & 0xFFFF) + task + struct.pack("<I", len(layers))
    for name, layer in sorted(layers.items()):
        rest = packio._serialize_layer("x", layer)[6 + 6 + 1 :]  # past the layer header and the name field
        raw = name.encode("utf-8", "surrogatepass")
        record = struct.pack("<HI", packio._TAG_NAME, len(raw)) + raw + rest
        body += struct.pack("<HI", packio._TAG_LAYER, len(record)) + record
    return _with_crc(body)


# Task ids and layer names on both sides of each rule: 1..65535 and 1..256
# UTF-8 bytes (a lone surrogate has no UTF-8 form), and at least one layer.
_TASK_IDS = st.sampled_from(["math", "\u00e9" * 32767 + "x", "", "x" * 65536, "\u00e9" * 32768, "\udcff"])
_LAYER_NAMES = st.sampled_from(["w", "layer0", "x" * 256, "\u00e9" * 128, "", "x" * 257, "\u00e9" * 129, "\udcff"])


@settings(max_examples=150, deadline=None)
@given(task_id=_TASK_IDS, layer_bits=st.dictionaries(_LAYER_NAMES, st.sampled_from([(8, 8, 8), (8, 4, 4)]), max_size=3))
@example(task_id="math", layer_bits={})
@example(task_id="\udcff", layer_bits={"w": (8, 8, 8)})
@example(task_id="math", layer_bits={"\udcff": (8, 8, 8)})
def test_pack_refuses_exactly_what_the_reader_refuses(tmp_path_factory, task_id, layer_bits):
    layers = {name: _layer(Prng(214), bits=bits) for name, bits in layer_bits.items()}
    try:
        written = serialize_skillpack(Skillpack(task_id, layers))
    except ValidationError:
        written = None
    path = tmp_path_factory.mktemp("skz") / "r.skz"
    path.write_bytes(_framed_pack(task_id, layers))
    try:
        read = read_skillpack(path)
    except FormatError:
        read = None
    assert (written is None) == (read is None)
    if written is not None:
        assert written == path.read_bytes()
        assert (read.task_id, sorted(read.layers)) == (task_id, sorted(layers))


_C_OUT = 10  # the crafted pack's B columns
# (GRANS codes, B scale record's code, B scale count); code 7 is unknown.
_SCALE_LAYOUTS = [((1, code), code, n) for code in (0, 2) for n in (0, 1, _C_OUT - 1, _C_OUT, _C_OUT + 1)] + [
    ((7, 2), 2, _C_OUT), ((1, 7), 2, _C_OUT), ((1, 2), 7, _C_OUT), ((1, 2), 1, _C_OUT), ((0, 0), 0, 1),
]


@pytest.mark.parametrize(
    "grans, b_code, count", _SCALE_LAYOUTS, ids=[f"grans{x}{b}-b{code}-n{n}" for (x, b), code, n in _SCALE_LAYOUTS]
)
def test_scale_layouts_refused_when_built_exactly_when_read(tmp_path, grans, b_code, count):
    """Granularity codes and B scale counts: the constructors refuse a layout
    exactly when the reader does, and a layout both accept is the same bytes."""
    values = np.linspace(0.5, 1.5, count, dtype=np.float32)
    path = _crafted_pack(tmp_path / "s.skz", {
        packio._TAG_GRANS: bytes(grans),
        packio._TAG_B_SCALES: bytes([b_code]) + values.astype("<f4").tobytes(),
    })
    gran = lambda code: packio._GRAN_NAMES.get(code, code)  # noqa: E731
    good = _layer(Prng(210))
    try:
        config = QuantConfig(gran_x=gran(grans[0]), gran_b=gran(grans[1]))
        b_hat = QuantGrid(good.b_hat.codes, 8, ScaleDescriptor(gran(b_code), values))
        layer = CompiledSkillLayer("layer0", good.smooth_inv, good.a_hat, b_hat, good.mid_scale, config, good.rotation_index)
        written = serialize_skillpack(Skillpack("math", {"layer0": layer}))
    except ValidationError:
        written = None
    try:
        read_skillpack(path)
        read = path.read_bytes()
    except FormatError:
        read = None
    assert written == read


def test_sidecar_is_derived_from_the_payload_when_written(tmp_path):
    """A layer changed after `manifest_for` still writes a sidecar that its
    reader accepts: the layer entries and ratio come from the payload, the
    provenance from the stored manifest."""
    pack = Skillpack("t", {"layer0": _layer(Prng(215))})
    pack.manifest = manifest_for(pack, provenance={"seed": 7})
    pack.layers["layer0"] = _layer(Prng(216), rank=2, bits=(8, 4, 4), gran_b="per-tensor")
    path = tmp_path / "m.skz"
    write_skillpack(pack, path)
    back = read_skillpack(path)
    assert back.manifest.layers == packio._manifest_layers(pack)
    assert back.manifest.compression_ratio == compression_ratio(pack)
    assert back.manifest.provenance == {"seed": 7}
