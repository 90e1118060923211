import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillzip import FormatError, ValidationError, read_archive, write_archive
from skillzip.prng import Prng


def test_single_entry_round_trip(tmp_path):
    path = tmp_path / "one.ftz"
    m = np.array([[0.5]], dtype=np.float32)
    write_archive(path, [("w", m)])
    out = read_archive(path)
    assert len(out) == 1
    assert out[0][0] == "w"
    assert np.array_equal(out[0][1], m)


def test_order_preserved(tmp_path):
    path = tmp_path / "two.ftz"
    a = np.ones((2, 2), dtype=np.float32)
    b = np.full((1, 3), 2.0, dtype=np.float32)
    write_archive(path, [("zz", a), ("aa", b)])
    out = read_archive(path)
    assert [name for name, _ in out] == ["zz", "aa"]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ftz"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        read_archive(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "trunc.ftz"
    write_archive(path, [("w", np.ones((4, 4), dtype=np.float32))])
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(FormatError):
        read_archive(path)


def test_crc_detects_single_byte_corruption(tmp_path):
    path = tmp_path / "corrupt.ftz"
    write_archive(path, [("w", np.full((3, 3), 0.25, dtype=np.float32))])
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="CRC"):
        read_archive(path)


def test_duplicate_names_rejected_on_write(tmp_path):
    m = np.ones((1, 1), dtype=np.float32)
    with pytest.raises(ValidationError, match="duplicate"):
        write_archive(tmp_path / "d.ftz", [("x", m), ("x", m)])


def test_nonfinite_rejected_on_read(tmp_path):
    # Hand-build an archive holding a NaN so the reader must reject it.
    path = tmp_path / "nan.ftz"
    name = b"w"
    payload = struct.pack("<f", float("nan"))
    body = b"FTZ1" + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
    body += struct.pack("<II", 1, 1) + payload
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(body)
    with pytest.raises(FormatError, match="non-finite"):
        read_archive(path)


def test_name_length_limit(tmp_path):
    m = np.ones((1, 1), dtype=np.float32)
    with pytest.raises(ValidationError):
        write_archive(tmp_path / "n.ftz", [("x" * 257, m)])
    with pytest.raises(ValidationError):
        write_archive(tmp_path / "n.ftz", [("", m)])


def test_random_round_trip_bitwise(tmp_path):
    rng = Prng(2024)
    entries = []
    for i in range(5):
        rows, cols = rng.below(6) + 1, rng.below(6) + 1
        entries.append((f"layer{i}", rng.uniform_matrix(rows, cols, -1e6, 1e6)))
    path = tmp_path / "rand.ftz"
    write_archive(path, entries)
    out = read_archive(path)
    for (n0, m0), (n1, m1) in zip(entries, out):
        assert n0 == n1
        assert m0.tobytes() == m1.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    values=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=16, max_size=16),
)
def test_round_trip_property(tmp_path_factory, rows, cols, values):
    m = np.array(values[: rows * cols], dtype=np.float32).reshape(rows, cols)
    path = tmp_path_factory.mktemp("ftz") / "p.ftz"
    write_archive(path, [("m", m)])
    (_, back), = read_archive(path)
    assert back.tobytes() == m.tobytes()


def test_bad_utf8_name_rejected_on_read(tmp_path):
    path = tmp_path / "name.ftz"
    body = b"FTZ1" + struct.pack("<I", 1) + struct.pack("<H", 2) + b"\xff\xfe"
    body += struct.pack("<II", 1, 1) + struct.pack("<f", 1.0)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(FormatError, match="UTF-8"):
        read_archive(path)


@settings(max_examples=100, deadline=None)
@given(
    op=st.sampled_from(["flip", "truncate", "insert"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    data=st.binary(min_size=1, max_size=4),
)
def test_mutated_archive_raises_format_error_only(tmp_path_factory, op, where, data):
    """Byte flips, truncation and insertion after the magic, CRC fixed up."""
    path = tmp_path_factory.mktemp("ftz") / "m.ftz"
    write_archive(path, [("abc", np.ones((2, 3), dtype=np.float32)), ("d", np.zeros((1, 1), dtype=np.float32))])
    body = bytearray(path.read_bytes()[:-4])
    at = 4 + int(where * (len(body) - 4))
    if op == "flip":
        body[at : at + len(data)] = bytes(b ^ (d or 1) for b, d in zip(body[at : at + len(data)], data))
    elif op == "truncate":
        del body[at:]
    else:
        body[at:at] = data
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF))
    try:
        read_archive(path)
    except FormatError:
        pass
