"""FTZ v1 tensor archive: the on-disk form of every float tensor set.

Byte layout (little-endian, no padding):

    magic   b"FTZ1"
    u32     entry count
    entry*  { u16 name length, name bytes (UTF-8),
              u32 rows, u32 cols, rows*cols float32 values }
    u32     CRC32 of all preceding bytes

Entry names are unique, nonempty, at most 256 bytes. Values must be finite;
a non-finite value is rejected at read time instead of leaking NaN into the
pipeline. Round trips are bit-exact. Writes go through a temp file and a
rename so readers never observe a partial archive.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"FTZ1"
MAX_NAME_BYTES = 256


def _validate_entries(entries: list[tuple[str, np.ndarray]]) -> None:
    seen: set[str] = set()
    for name, m in entries:
        raw = name.encode("utf-8")
        if not raw or len(raw) > MAX_NAME_BYTES:
            raise ValidationError(f"entry name must be 1..{MAX_NAME_BYTES} bytes: {name!r}")
        if name in seen:
            raise ValidationError(f"duplicate entry name: {name!r}")
        seen.add(name)
        if m.dtype != np.float32 or m.ndim != 2:
            raise ValidationError(f"entry {name!r} must be a 2-D float32 matrix")


def write_archive(path: str | os.PathLike, entries: list[tuple[str, np.ndarray]]) -> None:
    _validate_entries(entries)
    chunks = [MAGIC, struct.pack("<I", len(entries))]
    for name, m in entries:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<II", m.shape[0], m.shape[1]))
        chunks.append(np.ascontiguousarray(m, dtype="<f4").tobytes())
    body = b"".join(chunks)
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(body)
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.path}: truncated archive")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out


def read_archive(path: str | os.PathLike) -> list[tuple[str, np.ndarray]]:
    """Read and validate an FTZ archive; returns entries in stored order."""
    spath = os.fspath(path)
    with open(spath, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 8:
        raise FormatError(f"{spath}: file too short for an FTZ archive")
    if data[:4] != MAGIC:
        raise FormatError(f"{spath}: bad magic {data[:4]!r}")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(f"{spath}: CRC mismatch (stored {stored_crc:#010x}, actual {actual_crc:#010x})")

    r = _Reader(data[:-4], spath)
    r.take(4)
    (count,) = struct.unpack("<I", r.take(4))
    entries: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2))
        if name_len == 0 or name_len > MAX_NAME_BYTES:
            raise FormatError(f"{spath}: entry name length {name_len} out of range")
        name = r.take(name_len).decode("utf-8")
        if name in seen:
            raise FormatError(f"{spath}: duplicate entry name {name!r}")
        seen.add(name)
        rows, cols = struct.unpack("<II", r.take(8))
        if rows < 1 or cols < 1:
            raise FormatError(f"{spath}: entry {name!r} has empty shape {rows}x{cols}")
        payload = r.take(rows * cols * 4)
        m = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32)
        if not np.isfinite(m).all():
            raise FormatError(f"{spath}: entry {name!r} contains non-finite values")
        entries.append((name, m))
    if r.pos != len(r.data):
        raise FormatError(f"{spath}: {len(r.data) - r.pos} trailing bytes after last entry")
    return entries
