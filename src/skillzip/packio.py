"""SKZ v1: bit-exact single-file container for compressed skillpacks.

Layout (little-endian, no padding):

    magic   b"SKZ1"
    u16     format version (1)
    u16     task id length, then task id bytes (UTF-8)
    u32     layer count
    layer*  one TLV record per layer: u16 tag LAYER, u32 length, payload;
            the payload is itself a sequence of field TLVs (u16 tag,
            u32 length, payload) in a fixed order
    u32     CRC32 of all preceding bytes

Field tags: name, dims (input/output widths), rank, bit widths, granularity
codes, reciprocal smoothing vector, A codes, A scale, B codes, B scales,
mid requant scale, rotation candidate index. int4 code payloads use the
two-per-byte nibble layout (low nibble first, zero pad nibble).

The magic, the CRC32 trailer, the bounds-checked reads and the atomic write
are the frame shared with FTZ archives (`archive.seal`, `open_frame`,
`write_atomic`). Layers are written sorted by name, so write -> read ->
write reproduces the file byte for byte. The JSON manifest sidecar
`<pack>.manifest.json` is human-readable provenance; on read its ranks and
bit widths are cross-checked against the binary payload.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .archive import Cursor, open_frame, seal, write_atomic
from .errors import FormatError, ValidationError
from .kernel import CompiledSkillLayer
from .quant import PER_CHANNEL, PER_TENSOR, PER_TOKEN, QuantConfig, QuantGrid, ScaleDescriptor, pack_int4, unpack_int4

MAGIC = b"SKZ1"
VERSION = 1

_TAG_LAYER = 0x0001
_TAG_NAME = 0x0010
_TAG_DIMS = 0x0011
_TAG_RANK = 0x0012
_TAG_BITS = 0x0013
_TAG_GRANS = 0x0014
_TAG_SMOOTH_INV = 0x0015
_TAG_A_CODES = 0x0016
_TAG_A_SCALE = 0x0017
_TAG_B_CODES = 0x0018
_TAG_B_SCALES = 0x0019
_TAG_MID_SCALE = 0x001A
_TAG_ROTATION = 0x001B

_GRAN_CODES = {PER_TENSOR: 0, PER_TOKEN: 1, PER_CHANNEL: 2}
_GRAN_NAMES = {v: k for k, v in _GRAN_CODES.items()}


@dataclass
class Manifest:
    task_id: str
    layers: list[dict]
    compression_ratio: float
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str | bytes) -> "Manifest":
        """Parse a sidecar; anything but a manifest object raises FormatError."""
        try:
            body = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(body, dict) or any(key not in body for key in ("task_id", "layers", "compression_ratio")):
            raise FormatError("manifest must be an object with task_id, layers and compression_ratio")
        if not isinstance(body["layers"], list) or not all(isinstance(entry, dict) for entry in body["layers"]):
            raise FormatError("manifest layers must be a list of objects")
        return Manifest(
            task_id=body["task_id"],
            layers=body["layers"],
            compression_ratio=body["compression_ratio"],
            provenance=body.get("provenance", {}),
        )


@dataclass
class Skillpack:
    task_id: str
    layers: dict[str, CompiledSkillLayer]
    manifest: Manifest | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("a skillpack needs at least one layer")


def manifest_for(pack: Skillpack, provenance: dict | None = None) -> Manifest:
    layers = [
        {
            "name": name,
            "rank": layer.rank,
            "bits_x": layer.config.bits_x,
            "bits_a": layer.config.bits_a,
            "bits_b": layer.config.bits_b,
            "gran_x": layer.config.gran_x,
            "gran_b": layer.config.gran_b,
            "rotation_candidate": layer.rotation_index,
        }
        for name, layer in sorted(pack.layers.items())
    ]
    return Manifest(
        task_id=pack.task_id,
        layers=layers,
        compression_ratio=compression_ratio(pack),
        provenance=provenance or {},
    )


def _tlv(tag: int, payload: bytes) -> bytes:
    return struct.pack("<HI", tag, len(payload)) + payload


def _codes_payload(grid: QuantGrid) -> bytes:
    if grid.bits == 4:
        return pack_int4(grid.codes)
    return grid.codes.astype("<i1").tobytes()


def _codes_from_payload(data: bytes, bits: int, rows: int, cols: int) -> np.ndarray:
    if bits == 4:
        return unpack_int4(data, rows, cols)
    if len(data) != rows * cols:
        raise FormatError(f"int8 payload must be {rows * cols} bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.int8).reshape(rows, cols).copy()


def _serialize_layer(name: str, layer: CompiledSkillLayer) -> bytes:
    cfg = layer.config
    b_scales = np.atleast_1d(layer.b_hat.scale.scales.astype("<f4"))
    fields = [
        _tlv(_TAG_NAME, name.encode("utf-8")),
        _tlv(_TAG_DIMS, struct.pack("<II", layer.c_in, layer.c_out)),
        _tlv(_TAG_RANK, struct.pack("<I", layer.rank)),
        _tlv(_TAG_BITS, struct.pack("<BBB", cfg.bits_x, cfg.bits_a, cfg.bits_b)),
        _tlv(_TAG_GRANS, struct.pack("<BB", _GRAN_CODES[cfg.gran_x], _GRAN_CODES[cfg.gran_b])),
        _tlv(_TAG_SMOOTH_INV, layer.smooth_inv.astype("<f4").tobytes()),
        _tlv(_TAG_A_CODES, _codes_payload(layer.a_hat)),
        _tlv(_TAG_A_SCALE, struct.pack("<f", float(layer.a_hat.scale.scales))),
        _tlv(_TAG_B_CODES, _codes_payload(layer.b_hat)),
        _tlv(_TAG_B_SCALES, struct.pack("<B", _GRAN_CODES[layer.b_hat.scale.granularity]) + b_scales.tobytes()),
        _tlv(_TAG_MID_SCALE, struct.pack("<d", layer.mid_scale)),
        _tlv(_TAG_ROTATION, struct.pack("<I", layer.rotation_index)),
    ]
    return _tlv(_TAG_LAYER, b"".join(fields))


def serialize_skillpack(pack: Skillpack) -> bytes:
    task_raw = pack.task_id.encode("utf-8")
    if not task_raw or len(task_raw) > 0xFFFF:
        raise ValidationError("task id must be 1..65535 bytes")
    chunks = [struct.pack("<HH", VERSION, len(task_raw)), task_raw, struct.pack("<I", len(pack.layers))]
    chunks += [_serialize_layer(name, pack.layers[name]) for name in sorted(pack.layers)]
    return seal(MAGIC, chunks)


def write_skillpack(pack: Skillpack, path: str | os.PathLike) -> None:
    """Write the container and, when present, the manifest sidecar."""
    write_atomic(path, serialize_skillpack(pack))
    if pack.manifest is not None:
        with open(os.fspath(path) + ".manifest.json", "w", encoding="utf-8") as f:
            f.write(pack.manifest.to_json())


def _header(cur: Cursor, tag: int) -> int:
    """Check the next field TLV's tag; returns its payload length."""
    found, length = cur.unpack("<HI")
    if found != tag:
        raise FormatError(f"{cur.context}: expected tag {tag:#06x}, found {found:#06x}")
    return length


def _fixed(cur: Cursor, tag: int, fmt: str) -> tuple:
    """A fixed-size field payload unpacked with struct format `fmt`."""
    length = _header(cur, tag)
    if length != struct.calcsize(fmt):
        raise FormatError(f"{cur.context}: tag {tag:#06x} holds {length} bytes, expected {struct.calcsize(fmt)}")
    return cur.unpack(fmt)


def _parse_layer(payload: memoryview, context: str) -> tuple[str, CompiledSkillLayer]:
    cur = Cursor(payload, context)
    name = cur.name(_header(cur, _TAG_NAME))
    c_in, c_out = _fixed(cur, _TAG_DIMS, "<II")
    (rank,) = _fixed(cur, _TAG_RANK, "<I")
    bits_x, bits_a, bits_b = _fixed(cur, _TAG_BITS, "<BBB")
    gran_x_code, gran_b_code = _fixed(cur, _TAG_GRANS, "<BB")
    if gran_x_code not in _GRAN_NAMES or gran_b_code not in _GRAN_NAMES:
        raise FormatError(f"{context}: unknown granularity code")

    smooth_raw = cur.take(_header(cur, _TAG_SMOOTH_INV))
    if len(smooth_raw) != 4 * c_in:
        raise FormatError(f"{context}: smoothing vector length mismatch")
    smooth_inv = np.frombuffer(smooth_raw, dtype="<f4").copy()

    try:
        a_codes = _codes_from_payload(cur.take(_header(cur, _TAG_A_CODES)), bits_a, c_in, rank)
        (a_scale,) = _fixed(cur, _TAG_A_SCALE, "<f")
        b_codes = _codes_from_payload(cur.take(_header(cur, _TAG_B_CODES)), bits_b, rank, c_out)
    except ValidationError as exc:  # int4 payload of the wrong size or pad
        raise FormatError(f"{context}: {exc}") from exc

    b_scale_raw = cur.take(_header(cur, _TAG_B_SCALES))
    if not b_scale_raw or (len(b_scale_raw) - 1) % 4:
        raise FormatError(f"{context}: B scale record must be one byte plus float32 values")
    gran_b_stored = b_scale_raw[0]
    if gran_b_stored not in _GRAN_NAMES:
        raise FormatError(f"{context}: unknown B scale granularity")
    b_gran = _GRAN_NAMES[gran_b_stored]
    b_values = np.frombuffer(b_scale_raw[1:], dtype="<f4").copy()
    expected = 1 if b_gran == PER_TENSOR else c_out
    if b_values.size != expected:
        raise FormatError(f"{context}: expected {expected} B scales, found {b_values.size}")

    (mid_scale,) = _fixed(cur, _TAG_MID_SCALE, "<d")
    (rotation_index,) = _fixed(cur, _TAG_ROTATION, "<I")
    cur.end()

    try:
        config = QuantConfig(bits_x=bits_x, bits_a=bits_a, bits_b=bits_b, gran_x=_GRAN_NAMES[gran_x_code], gran_b=_GRAN_NAMES[gran_b_code])
        a_hat = QuantGrid(a_codes, bits_a, ScaleDescriptor(PER_TENSOR, np.float32(a_scale)))
        b_scales = np.float32(b_values[0]) if b_gran == PER_TENSOR else b_values.astype(np.float32)
        b_hat = QuantGrid(b_codes, bits_b, ScaleDescriptor(b_gran, b_scales))
        layer = CompiledSkillLayer(
            name=name,
            smooth_inv=smooth_inv,
            a_hat=a_hat,
            b_hat=b_hat,
            mid_scale=mid_scale,
            config=config,
            rotation_index=int(rotation_index),
        )
    except ValidationError as exc:
        raise FormatError(f"{context}: {exc}") from exc
    return name, layer


def read_skillpack(path: str | os.PathLike) -> Skillpack:
    cur = open_frame(path, MAGIC)
    spath = cur.context
    version, task_len = cur.unpack("<HH")
    if version != VERSION:
        raise FormatError(f"{spath}: unsupported version {version}")
    task_id = cur.name(task_len)
    (layer_count,) = cur.unpack("<I")
    layers: dict[str, CompiledSkillLayer] = {}
    for i in range(layer_count):
        name, layer = _parse_layer(cur.take(_header(cur, _TAG_LAYER)), f"{spath} layer {i}")
        if name in layers:
            raise FormatError(f"{spath}: duplicate layer name {name!r}")
        layers[name] = layer
    cur.end()

    manifest = None
    sidecar = spath + ".manifest.json"
    if os.path.exists(sidecar):
        with open(sidecar, "rb") as f:
            text = f.read()
        try:
            manifest = Manifest.from_json(text)
        except FormatError as exc:
            raise FormatError(f"{sidecar}: {exc}") from exc
        _cross_check_manifest(manifest, layers, spath)
    return Skillpack(task_id=task_id, layers=layers, manifest=manifest)


def _cross_check_manifest(manifest: Manifest, layers: dict[str, CompiledSkillLayer], path: str) -> None:
    keys = ("rank", "bits_x", "bits_a", "bits_b")
    for entry in manifest.layers:
        if not isinstance(entry.get("name"), str) or any(key not in entry for key in keys):
            raise FormatError(f"{path}: manifest layer entries need a string name and {', '.join(keys)}")
    by_name = {entry["name"]: entry for entry in manifest.layers}
    if set(by_name) != set(layers):
        raise FormatError(f"{path}: manifest layer set does not match the payload")
    for name, layer in layers.items():
        entry = by_name[name]
        claims = tuple(entry[key] for key in keys)
        actual = (layer.rank, layer.config.bits_x, layer.config.bits_a, layer.config.bits_b)
        if claims != actual:
            raise FormatError(f"{path}: manifest rank/bits for {name!r} disagree with the payload")


def compression_ratio(pack: Skillpack) -> float:
    """Dense float32 delta bytes divided by serialized skillpack bytes."""
    dense_bytes = sum(4 * layer.c_in * layer.c_out for layer in pack.layers.values())
    return dense_bytes / len(serialize_skillpack(pack))
