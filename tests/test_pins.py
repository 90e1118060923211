"""Pinned outputs of the seeded generator and everything drawn from it.

The digests were produced by the scalar, one-call-per-draw generator; any
faster draw path must reproduce them bit for bit. The u64 golden file
(`golden/prng_seed42.txt`) and the acceptance fixtures pin the rest.
"""

import hashlib
import struct

import numpy as np
import pytest

from skillzip.fixtures import make_suite
from skillzip.packio import serialize_skillpack
from skillzip.pipeline import PipelineConfig, compress
from skillzip.prng import Prng
from skillzip.quant import QuantConfig

# sha256 of n gauss() draws as little-endian float64, then the next
# next_u64() (odd n leaves the sine of the last pair pending).
GAUSS_STREAMS = {
    (0, 5001): "c4c7caf3075dd242f9096ddd349058b9192e486d13cc4fdfbef6b750212e6a08",
    (42, 333): "e777de283cd70f2a0adb54f821124076e1d6a233b926fff429152b190f03c4c9",
    (2**63 + 1, 77): "2b6b3101d90bdd78c69a83c523b2be6734935b0925e54ec0d3e06c580c492f52",
}


def _stream_digest(values, rng):
    h = hashlib.sha256(struct.pack(f"<{len(values)}d", *values))
    h.update(struct.pack("<Q", rng.next_u64()))
    return h.hexdigest()


@pytest.mark.parametrize("seed,n", sorted(GAUSS_STREAMS))
def test_gauss_stream_scalar(seed, n):
    rng = Prng(seed)
    values = [rng.gauss() for _ in range(n)]
    assert _stream_digest(values, rng) == GAUSS_STREAMS[seed, n]


@pytest.mark.parametrize("seed,n", sorted(GAUSS_STREAMS))
def test_gauss_stream_blocks(seed, n):
    """The same stream from odd-sized blocks, so the spare crosses blocks."""
    rng = Prng(seed)
    values, left, size = [], n, 1
    while left:
        take = min(size, left)
        values += rng.gauss_block(take).tolist()
        left -= take
        size = 2 * size + 1
    assert _stream_digest(values, rng) == GAUSS_STREAMS[seed, n]


SUITES = {
    0: ({}, "5c5912594efbb2940dc3baa2807c4dc7bb2ff841d05d95f0534c030d541c1afc"),
    1: (
        dict(n_tasks=2, n_layers=2, c_in=48, c_out=40, calib_tokens=16, eval_tokens=16,
             shared_rank=6, task_rank=3, outlier_channels=2),
        "9291ee6237233e8483b404104e269a41c33e243f31da186f0529176ade7c4ccd",
    ),
    7: (
        dict(n_tasks=4, n_layers=1, c_in=130, c_out=97, calib_tokens=33, eval_tokens=9, outlier_channels=5),
        "6e493a3660f66a6a30b4bb5cb76cfd3c4698318f9e9f8b94a6b3daa1134238ed",
    ),
}


def _suite_digest(suite):
    h = hashlib.sha256()

    def add(key, arr):
        h.update(f"{key}{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    for name in sorted(suite.base):
        add("base/" + name, suite.base[name])
        add("calib/" + name, suite.calib[name])
        add("eval/" + name, suite.eval_x[name])
    for task in sorted(suite.tuned):
        for name in sorted(suite.tuned[task]):
            add(f"tuned/{task}/{name}", suite.tuned[task][name])
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(SUITES))
def test_make_suite_pinned(seed):
    kwargs, digest = SUITES[seed]
    assert _suite_digest(make_suite(seed, **kwargs)) == digest


PACKS = {
    # Auto rank on a 128 x 160 layer: rank 16 through the sketched SVD.
    "auto-sketch": (
        PipelineConfig(seed=5, n_candidates=3),
        dict(n_tasks=2, n_layers=1, c_in=128, c_out=160, calib_tokens=24, eval_tokens=8),
        {
            "code": "e27afbbf8e7e9530e13d0675dfe2fcc5f6c37792a9f59528aa99b86b9c8f9d7c",
            "math": "7e6a3cb6010ab1f5b63bec7ebf0ce8b6d5381e1a9df844ea90884d81f64a83b0",
        },
    ),
    # Energy rank through the exact SVD, with int4 B codes.
    "energy-int4b": (
        PipelineConfig(seed=9, rank_mode="energy", rank_value=0.9, n_candidates=3, quant=QuantConfig(bits_b=4)),
        dict(n_tasks=2, n_layers=1, c_in=40, c_out=56, calib_tokens=16, eval_tokens=8,
             shared_rank=6, task_rank=3, outlier_channels=2),
        {
            "code": "ce5238d312fb30505c53dfc3e5f21b2a172e66cb745982fea7d53a5d81ad5609",
            "math": "d8e43475fdd795bd30fc0baf25605ada16209cbf9b39a4690527a1771b863c59",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PACKS))
def test_pack_bytes_pinned(case):
    config, kwargs, digests = PACKS[case]
    suite = make_suite(11, **kwargs)
    result = compress(suite.base, suite.tuned, suite.calib, config)
    got = {t: hashlib.sha256(serialize_skillpack(p)).hexdigest() for t, p in result.packs.items()}
    assert got == digests
    # Both cases keep a non-identity rotation, so they pin the rotation stream.
    assert all(layer.rotation_index != 0 for p in result.packs.values() for layer in p.layers.values())
