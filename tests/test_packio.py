import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_crafted_pack_baseline_reads(tmp_path):
    pack = read_skillpack(_crafted_pack(tmp_path / "ok.skz"))
    assert pack.task_id == "math" and set(pack.layers) == {"layer0"}


@pytest.mark.parametrize(
    "fields, task, bits",
    [
        ({}, b"\xffmath", (8, 8, 8)),
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
    ],
    ids=[
        "task-utf8", "name-utf8", "dims-3-bytes", "rank-empty", "bits-2-bytes", "grans-3-bytes",
        "a-scale-3-bytes", "b-scales-empty", "b-scales-ragged", "mid-4-bytes", "rotation-8-bytes", "int4-short",
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
