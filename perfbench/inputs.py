"""Seeded benchmark inputs, written as FTZ archives and SKZ packs.

Inputs come from numpy.random.Generator and from the encoders below, never
from skillzip itself, so a change to the program's PRNG, fixtures or
quantizers changes neither the inputs nor what set-up reads. The FTZ and
SKZ v1 layouts are the ones README.md documents.

Run as a script (the benchmark does, in a child process, so that input
generation does not count towards the measured process's peak memory):

    python3 perfbench/inputs.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import sys
import zlib

import numpy as np

from specs import WORKLOADS, CompressSpec, ServeSpec

_GRAN_CODES = {"per-tensor": 0, "per-token": 1, "per-channel": 2}


# ---------------------------------------------------------------------------
# Encoders


def ftz_bytes(entries: list[tuple[str, np.ndarray]]) -> bytes:
    chunks = [b"FTZ1", struct.pack("<I", len(entries))]
    for name, m in entries:
        raw = name.encode("utf-8")
        chunks += [struct.pack("<H", len(raw)), raw, struct.pack("<II", *m.shape)]
        chunks.append(np.ascontiguousarray(m, dtype="<f4").tobytes())
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body))


def _tlv(tag: int, payload: bytes) -> bytes:
    return struct.pack("<HI", tag, len(payload)) + payload


def _codes_bytes(codes: np.ndarray, bits: int) -> bytes:
    if bits == 8:
        return codes.astype("<i1").tobytes()
    nib = (codes.reshape(-1).astype(np.int64) & 0xF).astype(np.uint8)
    if nib.size % 2:
        nib = np.append(nib, np.uint8(0))
    return (nib[0::2] | (nib[1::2] << 4)).tobytes()


def skz_bytes(task_id: str, layer: dict) -> bytes:
    """One-layer SKZ v1 skillpack; `layer` holds the fields of the record."""
    c_in, rank = layer["a_codes"].shape
    c_out = layer["b_codes"].shape[1]
    fields = [
        _tlv(0x10, layer["name"].encode("utf-8")),
        _tlv(0x11, struct.pack("<II", c_in, c_out)),
        _tlv(0x12, struct.pack("<I", rank)),
        _tlv(0x13, struct.pack("<BBB", 8, 8, layer["bits_b"])),
        _tlv(0x14, struct.pack("<BB", _GRAN_CODES[layer["gran_x"]], _GRAN_CODES[layer["gran_b"]])),
        _tlv(0x15, layer["smooth_inv"].astype("<f4").tobytes()),
        _tlv(0x16, _codes_bytes(layer["a_codes"], 8)),
        _tlv(0x17, struct.pack("<f", layer["a_scale"])),
        _tlv(0x18, _codes_bytes(layer["b_codes"], layer["bits_b"])),
        _tlv(0x19, struct.pack("<B", _GRAN_CODES[layer["gran_b"]]) + layer["b_scales"].astype("<f4").tobytes()),
        _tlv(0x1A, struct.pack("<d", layer["mid_scale"])),
        _tlv(0x1B, struct.pack("<I", 0)),
    ]
    raw = task_id.encode("utf-8")
    body = b"SKZ1" + struct.pack("<HH", 1, len(raw)) + raw + struct.pack("<I", 1) + _tlv(0x01, b"".join(fields))
    return body + struct.pack("<I", zlib.crc32(body))


def quantize(m: np.ndarray, bits: int, axis: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric codes and float32 scales; axis None is per-tensor, 1 one
    scale per row, 0 one per column. Rounds half away from zero."""
    limit = (1 << (bits - 1)) - 1
    peak = np.max(np.abs(m.astype(np.float64)), axis=axis, keepdims=True)
    scales = np.where(peak == 0.0, 1.0, peak / limit).astype(np.float32)
    q = m.astype(np.float64) / scales.astype(np.float64)
    codes = np.clip(np.copysign(np.floor(np.abs(q) + 0.5), q), -limit, limit).astype(np.int8)
    return codes, scales


# ---------------------------------------------------------------------------
# Generators


def _outlier_activations(rng, tokens, spec, cols) -> np.ndarray:
    x = rng.uniform(-spec.base_range, spec.base_range, size=(tokens, spec.c_in))
    x[:, cols] *= spec.outlier_ratio
    return x.astype(np.float32)


def _low_rank(rng, c_in, c_out, rank, scale, decay) -> np.ndarray:
    """Sum of `rank` Gaussian outer products, component j scaled by decay^j
    (the structure of skillzip.fixtures.make_suite)."""
    u = rng.standard_normal((c_in, rank)) * (scale * decay ** np.arange(rank))
    return u @ rng.standard_normal((rank, c_out)) / np.sqrt(c_in * c_out)


def compress_files(spec: CompressSpec, seed: int) -> dict[str, bytes]:
    rng = np.random.default_rng([seed, 1])
    tasks = [f"task{i}" for i in range(spec.tasks)]
    base, calib, eval_x = [], [], []
    tuned: dict[str, list] = {t: [] for t in tasks}
    for li in range(spec.layers):
        name = f"layer{li}"
        w0 = rng.standard_normal((spec.c_in, spec.c_out)) * 0.05
        shared = _low_rank(rng, spec.c_in, spec.c_out, spec.shared_rank, 1.0, 0.85)
        cols = rng.choice(spec.c_in, spec.outlier_channels, replace=False)
        base.append((name, w0.astype(np.float32)))
        calib.append((name, _outlier_activations(rng, spec.calib_tokens, spec, cols)))
        eval_x.append((name, _outlier_activations(rng, spec.eval_tokens, spec, cols)))
        for t in tasks:
            part = _low_rank(rng, spec.c_in, spec.c_out, spec.task_rank, 0.6, 0.7)
            tuned[t].append((name, (w0 + shared + part).astype(np.float32)))
    files = {"base.ftz": ftz_bytes(base), "calib.ftz": ftz_bytes(calib), "eval.ftz": ftz_bytes(eval_x)}
    files.update({f"{t}.ftz": ftz_bytes(tuned[t]) for t in tasks})
    files["inputs.json"] = json.dumps({"tasks": tasks}).encode()
    return files


def _pack(rng, spec: ServeSpec, pack, task_id, w, x_calib) -> tuple[bytes, dict]:
    """Float factors of a smoothed low-rank delta and their SKZ encoding.

    The delta's energy decays over the rank and its output on calibration
    activations is scaled to a quarter of the backbone's."""
    r = pack.rank
    s = np.sqrt(np.maximum(np.mean(np.abs(x_calib), axis=0), 1e-5))
    u = rng.standard_normal((spec.c_in, r)) / np.sqrt(spec.c_in)
    v = rng.standard_normal((r, spec.c_out)) / np.sqrt(spec.c_out)
    root = np.sqrt(0.93 ** np.arange(r))
    a, b = u * root, root[:, None] * v
    x_s = (x_calib / s).astype(np.float64)
    gain = np.sqrt(0.25 * np.linalg.norm(x_calib @ w.astype(np.float64)) / np.linalg.norm(x_s @ a @ b))
    a, b = (a * gain).astype(np.float32), (b * gain).astype(np.float32)

    smooth_inv = (1.0 / s).astype(np.float32)
    a_codes, a_scale = quantize(a, 8, None)
    b_codes, b_scales = quantize(b, pack.bits_b, 0 if pack.gran_b == "per-channel" else None)
    x_codes, _ = quantize(x_calib * smooth_inv, 8, 1 if pack.gran_x == "per-token" else None)
    acc1 = x_codes.astype(np.float64) @ a_codes.astype(np.float64)
    layer = {
        "name": "layer0",
        "bits_b": pack.bits_b,
        "gran_x": pack.gran_x,
        "gran_b": pack.gran_b,
        "smooth_inv": smooth_inv,
        "a_codes": a_codes,
        "a_scale": float(a_scale.reshape(())),
        "b_codes": b_codes,
        "b_scales": b_scales.reshape(-1),
        "mid_scale": float(np.max(np.abs(acc1))) / 127.0,
    }
    oracle = {f"{task_id}.a": a, f"{task_id}.b": b, f"{task_id}.smooth_inv": smooth_inv}
    return skz_bytes(task_id, layer), oracle


def serve_files(spec: ServeSpec, seed: int) -> dict[str, bytes]:
    rng = np.random.default_rng([seed, 2])
    w = (rng.standard_normal((spec.c_in, spec.c_out)) * 0.05).astype(np.float32)
    cols = rng.choice(spec.c_in, spec.outlier_channels, replace=False)
    tasks = [f"t{i}" for i in range(len(spec.packs))]
    files = {"backbone.ftz": ftz_bytes([("layer0", w)])}
    oracle: dict[str, np.ndarray] = {}
    for task_id, pack in zip(tasks, spec.packs):
        x_calib = _outlier_activations(rng, spec.calib_tokens, spec, cols)
        files[f"{task_id}.skz"], factors = _pack(rng, spec, pack, task_id, w, x_calib)
        oracle.update(factors)

    weights = 1.0 / np.arange(1, len(tasks) + 1) ** spec.zipf_s
    batches, requests = [], {}
    for bi in range(spec.pool_batches):
        labels = rng.choice(len(tasks), size=spec.requests_per_batch, p=weights / weights.sum())
        batch = []
        for ri, label in enumerate(labels):
            key = f"b{bi}r{ri}"
            tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
            requests[key] = _outlier_activations(rng, tokens, spec, cols)
            batch.append([tasks[label], key])
        batches.append(batch)
    files["requests.npz"] = _npz_bytes(requests)
    files["oracle.npz"] = _npz_bytes(oracle)
    files["inputs.json"] = json.dumps({"tasks": tasks, "batches": batches}).encode()
    return files


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def write_inputs(spec: CompressSpec | ServeSpec, seed: int, outdir: str) -> dict[str, str]:
    """Write every input file; returns file name -> SHA-256."""
    files = compress_files(spec, seed) if spec.kind == "compress" else serve_files(spec, seed)
    digests = {}
    for name, data in sorted(files.items()):
        with open(os.path.join(outdir, name), "wb") as f:
            f.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    with open(os.path.join(outdir, "sha256.json"), "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
    return digests


if __name__ == "__main__":
    write_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
