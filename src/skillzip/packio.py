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
write reproduces the file byte for byte. Each rule is stated once and run
in both directions: `_LAYER_FIELDS` is the layer record's layout, the
constructors (`Skillpack`, `CompiledSkillLayer`, `QuantConfig`, `QuantGrid`
with its scale layout, `ScaleDescriptor`) are the value rules
(ValidationError when built, FormatError when read; the reader itself checks
only framing: tags, field lengths, the B scale record's bytes, payload and
smoothing vector sizes), and `_manifest_layers` is what the sidecar says
about the payload. The JSON manifest sidecar `<pack>.manifest.json` is
human-readable provenance; the writer derives its layers and ratio from the
pack, and on read its task id and layer entries must equal the payload's.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .archive import MAX_NAME_BYTES, Cursor, check_name, open_frame, seal, write_atomic
from .errors import FormatError, ValidationError
from .kernel import CompiledSkillLayer
from .quant import PER_CHANNEL, PER_TENSOR, PER_TOKEN, QuantConfig, QuantGrid, ScaleDescriptor, pack_int4, unpack_int4

MAGIC = b"SKZ1"
VERSION = 1
MAX_TASK_ID_BYTES = 0xFFFF

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

# A layer record's fields in stored order, each with its struct format, or
# None for a variable-size payload. Writer and reader both walk this table.
_LAYER_FIELDS = (
    (_TAG_NAME, None),
    (_TAG_DIMS, "<II"),
    (_TAG_RANK, "<I"),
    (_TAG_BITS, "<BBB"),
    (_TAG_GRANS, "<BB"),
    (_TAG_SMOOTH_INV, None),
    (_TAG_A_CODES, None),
    (_TAG_A_SCALE, "<f"),
    (_TAG_B_CODES, None),
    (_TAG_B_SCALES, None),
    (_TAG_MID_SCALE, "<d"),
    (_TAG_ROTATION, "<I"),
)

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
        """The pack-level rules, for the writer and the reader alike."""
        check_name(self.task_id, MAX_TASK_ID_BYTES, "task id")
        if not self.layers:
            raise ValidationError("a skillpack needs at least one layer")
        for name in self.layers:
            check_name(name, MAX_NAME_BYTES, "layer name")


def _manifest_layers(pack: Skillpack) -> list[dict]:
    """The sidecar's layer entries as the payload gives them: what
    `manifest_for` writes and what `read_skillpack` requires."""
    return [
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


def manifest_for(pack: Skillpack, provenance: dict | None = None) -> Manifest:
    return Manifest(
        task_id=pack.task_id,
        layers=_manifest_layers(pack),
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
    values = (
        name.encode("utf-8"),
        (layer.c_in, layer.c_out),
        (layer.rank,),
        (cfg.bits_x, cfg.bits_a, cfg.bits_b),
        (_GRAN_CODES[cfg.gran_x], _GRAN_CODES[cfg.gran_b]),
        layer.smooth_inv.astype("<f4").tobytes(),
        _codes_payload(layer.a_hat),
        (float(layer.a_hat.scale.scales),),
        _codes_payload(layer.b_hat),
        bytes([_GRAN_CODES[layer.b_hat.scale.granularity]]) + layer.b_hat.scale.scales.astype("<f4").tobytes(),
        (layer.mid_scale,),
        (layer.rotation_index,),
    )
    fields = [
        _tlv(tag, value if fmt is None else struct.pack(fmt, *value)) for (tag, fmt), value in zip(_LAYER_FIELDS, values)
    ]
    return _tlv(_TAG_LAYER, b"".join(fields))


def serialize_skillpack(pack: Skillpack) -> bytes:
    task_raw = pack.task_id.encode("utf-8")
    chunks = [struct.pack("<HH", VERSION, len(task_raw)), task_raw, struct.pack("<I", len(pack.layers))]
    chunks += [_serialize_layer(name, pack.layers[name]) for name in sorted(pack.layers)]
    return seal(MAGIC, chunks)


def write_skillpack(pack: Skillpack, path: str | os.PathLike) -> None:
    """Write the container and, when the pack has a manifest, a sidecar derived from the pack."""
    sidecar = os.fspath(path) + ".manifest.json"
    with contextlib.suppress(FileNotFoundError):
        os.remove(sidecar)  # first, so not even an interrupted write leaves a stale sidecar
    write_atomic(path, serialize_skillpack(pack))
    if pack.manifest is not None:
        write_atomic(sidecar, manifest_for(pack, pack.manifest.provenance).to_json().encode("utf-8"))


def _header(cur: Cursor, tag: int) -> int:
    """Check the next field TLV's tag; returns its payload length."""
    found, length = cur.unpack("<HI")
    if found != tag:
        raise FormatError(f"{cur.context}: expected tag {tag:#06x}, found {found:#06x}")
    return length


def _parse_layer(payload: memoryview, context: str) -> tuple[str, CompiledSkillLayer]:
    cur = Cursor(payload, context)
    fields = []
    for tag, fmt in _LAYER_FIELDS:
        length = _header(cur, tag)
        if fmt is None:
            fields.append(cur.name(length) if tag == _TAG_NAME else cur.take(length))
        elif length == struct.calcsize(fmt):
            fields.append(cur.unpack(fmt))
        else:
            raise FormatError(f"{context}: tag {tag:#06x} holds {length} bytes, expected {struct.calcsize(fmt)}")
    cur.end()
    name, (c_in, c_out), (rank,), bits, grans, smooth_raw, a_raw, (a_scale,), b_raw, b_scale_raw, (mid_scale,), (rotation,) = fields
    if len(smooth_raw) != 4 * c_in:
        raise FormatError(f"{context}: smoothing vector length mismatch")
    if not b_scale_raw or (len(b_scale_raw) - 1) % 4:
        raise FormatError(f"{context}: B scale record must be one byte plus float32 values")
    b_values = np.frombuffer(b_scale_raw[1:], dtype="<f4").astype(np.float32)
    # An unknown code stays itself, for QuantConfig or ScaleDescriptor to refuse.
    gran_x, gran_b, b_gran = (_GRAN_NAMES.get(code, code) for code in (*grans, b_scale_raw[0]))

    config = QuantConfig(*bits, gran_x=gran_x, gran_b=gran_b)
    a_codes = _codes_from_payload(a_raw, config.bits_a, c_in, rank)
    b_codes = _codes_from_payload(b_raw, config.bits_b, rank, c_out)
    a_hat = QuantGrid(a_codes, config.bits_a, ScaleDescriptor(PER_TENSOR, np.float32(a_scale)))
    b_hat = QuantGrid(b_codes, config.bits_b, ScaleDescriptor(b_gran, b_values))
    smooth_inv = np.frombuffer(smooth_raw, dtype="<f4").copy()
    return name, CompiledSkillLayer(name, smooth_inv, a_hat, b_hat, mid_scale, config, rotation)


def read_skillpack(path: str | os.PathLike) -> Skillpack:
    """Read an SKZ pack and its sidecar, if any. What the writer would
    refuse raises FormatError."""
    cur = open_frame(path, MAGIC)
    spath = cur.context
    version, task_len = cur.unpack("<HH")
    if version != VERSION:
        raise FormatError(f"{spath}: unsupported version {version}")
    task_id = cur.name(task_len)
    (layer_count,) = cur.unpack("<I")
    layers: dict[str, CompiledSkillLayer] = {}
    try:
        for i in range(layer_count):
            name, layer = _parse_layer(cur.take(_header(cur, _TAG_LAYER)), f"{spath} layer {i}")
            if name in layers:
                raise FormatError(f"{spath}: duplicate layer name {name!r}")
            layers[name] = layer
        cur.end()
        pack = Skillpack(task_id=task_id, layers=layers)
    except ValidationError as exc:
        raise FormatError(f"{spath}: {exc}") from exc

    sidecar = spath + ".manifest.json"
    if os.path.exists(sidecar):
        with open(sidecar, "rb") as f:
            text = f.read()
        try:
            pack.manifest = Manifest.from_json(text)
        except FormatError as exc:
            raise FormatError(f"{sidecar}: {exc}") from exc
        if (pack.manifest.task_id, pack.manifest.layers) != (task_id, _manifest_layers(pack)):
            raise FormatError(f"{sidecar}: manifest task id or layer entries disagree with the payload")
    return pack


def compression_ratio(pack: Skillpack) -> float:
    """Dense float32 delta bytes divided by serialized skillpack bytes."""
    dense_bytes = sum(4 * layer.c_in * layer.c_out for layer in pack.layers.values())
    return dense_bytes / len(serialize_skillpack(pack))
