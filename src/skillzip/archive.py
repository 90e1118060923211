"""FTZ v1 tensor archive: the on-disk form of every float tensor set.

Byte layout (little-endian, no padding):

    magic   b"FTZ1"
    u32     entry count
    entry*  { u16 name length, name bytes (UTF-8),
              u32 rows, u32 cols, rows*cols float32 values }
    u32     CRC32 of all preceding bytes

Entry names are unique, 1..256 UTF-8 bytes. Shapes are nonempty and values
finite. `validate_entries` states these rules once: the writer runs it
before writing and refuses with ValidationError, the reader runs it on what
it parsed and refuses with FormatError, so NaN never leaks into the
pipeline. Round trips are bit-exact.

The frame (magic, body, CRC32 of everything before it) is shared with the
SKZ skillpack container: `seal` builds it, `write_atomic` writes it
through a temp file and a rename so readers never observe a partial file,
and `open_frame` checks size, magic and CRC and hands back a bounds-checked
`Cursor` over the body.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"FTZ1"
MAX_NAME_BYTES = 256


def seal(magic: bytes, chunks: list[bytes]) -> bytes:
    """A framed file's bytes: the magic, the chunks, then a CRC32 of both."""
    body = b"".join([magic, *chunks])
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write through a temp file and a rename, so readers never see a partial file."""
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


class Cursor:
    """Bounds-checked reads over a frame's body; every overrun raises FormatError."""

    def __init__(self, data: bytes | memoryview, context: str):
        self.data = data
        self.pos = 0
        self.context = context

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.context}: truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self, n: int) -> str:
        """The next n bytes, decoded as UTF-8."""
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.context}: name is not valid UTF-8") from exc

    def end(self) -> None:
        """Reject bytes left over after the last field."""
        if self.pos != len(self.data):
            raise FormatError(f"{self.context}: {len(self.data) - self.pos} trailing bytes")


def open_frame(path: str | os.PathLike, magic: bytes) -> Cursor:
    """Read a framed file and check its size, magic and CRC32 trailer; the
    cursor covers the bytes between the magic and the trailer."""
    spath = os.fspath(path)
    with open(spath, "rb") as f:
        data = f.read()
    if len(data) < len(magic) + 8:
        raise FormatError(f"{spath}: file too short ({len(data)} bytes) for a {magic!r} file")
    if data[: len(magic)] != magic:
        raise FormatError(f"{spath}: bad magic {data[: len(magic)]!r}")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    actual_crc = zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(f"{spath}: CRC mismatch (stored {stored_crc:#010x}, actual {actual_crc:#010x})")
    return Cursor(memoryview(data)[len(magic) : -4], spath)


def check_name(name: str, limit: int, what: str) -> None:
    """A stored name must have a UTF-8 form of 1..limit bytes."""
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        raise ValidationError(f"{what} {name!r} is not valid UTF-8") from exc
    if not 1 <= len(raw) <= limit:
        raise ValidationError(f"{what} must be 1..{limit} bytes: {name!r}")


def validate_entries(entries: list[tuple[str, np.ndarray]]) -> None:
    """The FTZ rules, for the writer and the reader alike."""
    seen: set[str] = set()
    for name, m in entries:
        check_name(name, MAX_NAME_BYTES, "entry name")
        if name in seen:
            raise ValidationError(f"duplicate entry name: {name!r}")
        seen.add(name)
        if m.dtype != np.float32 or m.ndim != 2:
            raise ValidationError(f"entry {name!r} must be a 2-D float32 matrix")
        if not m.size:
            raise ValidationError(f"entry {name!r} has empty shape {m.shape[0]}x{m.shape[1]}")
        if not np.isfinite(m).all():
            raise ValidationError(f"entry {name!r} contains non-finite values")


def write_archive(path: str | os.PathLike, entries: list[tuple[str, np.ndarray]]) -> None:
    validate_entries(entries)
    chunks = [struct.pack("<I", len(entries))]
    for name, m in entries:
        raw = name.encode("utf-8")
        chunks += [struct.pack("<H", len(raw)), raw, struct.pack("<II", *m.shape)]
        chunks.append(m.astype("<f4", copy=False).tobytes())
    write_atomic(path, seal(MAGIC, chunks))


def read_archive(path: str | os.PathLike) -> list[tuple[str, np.ndarray]]:
    """Read an FTZ archive; returns entries in stored order. What the writer
    would refuse raises FormatError."""
    cur = open_frame(path, MAGIC)
    (count,) = cur.unpack("<I")
    entries: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        name = cur.name(*cur.unpack("<H"))
        rows, cols = cur.unpack("<II")
        m = np.frombuffer(cur.take(rows * cols * 4), dtype="<f4").reshape(rows, cols).astype(np.float32)
        entries.append((name, m))
    cur.end()
    try:
        validate_entries(entries)
    except ValidationError as exc:
        raise FormatError(f"{cur.context}: {exc}") from exc
    return entries
