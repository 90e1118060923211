"""Workload table and metric names of the benchmark.

This module is plain data and imports nothing from skillzip, so the input
generator (which must not depend on the program) can share it with the
measuring process. BENCHMARK.json at the repository root lists the same
workloads and metrics; the self-test checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CompressSpec:
    """A base plus `tasks` fine-tunes, shaped like skillzip.fixtures.make_suite."""

    name: str
    why: str
    stresses: str
    bypasses: str
    tasks: int
    layers: int
    c_in: int
    c_out: int
    calib_tokens: int
    eval_tokens: int
    # PipelineConfig in canonical-JSON form; missing keys take the defaults.
    config: dict = field(default_factory=dict)
    shared_rank: int = 28
    task_rank: int = 8
    outlier_channels: int = 6
    outlier_ratio: float = 100.0
    base_range: float = 15.0
    kind: str = "compress"


@dataclass(frozen=True)
class PackSpec:
    rank: int
    bits_b: int = 8
    gran_x: str = "per-token"
    gran_b: str = "per-channel"


@dataclass(frozen=True)
class ServeSpec:
    """One backbone layer, generated skillpacks and a pool of request batches."""

    name: str
    why: str
    stresses: str
    bypasses: str
    c_in: int
    c_out: int
    packs: tuple[PackSpec, ...]
    requests_per_batch: int
    min_tokens: int
    max_tokens: int
    # Zipf exponent of the task labels; 0 draws labels uniformly.
    zipf_s: float
    pool_batches: int
    calib_tokens: int = 256
    outlier_channels: int = 6
    outlier_ratio: float = 100.0
    base_range: float = 15.0
    kind: str = "serve"


WORKLOADS = {
    spec.name: spec
    for spec in (
        CompressSpec(
            name="compress-sketch",
            why="default compress path: sketched SVD and PRNG rotation sampling dominate",
            stresses="lowrank sketch, prng, rotation sampling and scoring",
            bypasses="jacobi_svd_full, routing",
            tasks=3,
            layers=2,
            c_in=512,
            c_out=512,
            calib_tokens=128,
            eval_tokens=128,
        ),
        CompressSpec(
            name="compress-exact",
            why="energy rank takes the exact Jacobi SVD path; int4 B, trimmed mean, per-tensor X",
            stresses="jacobi_svd_full, int4 packing",
            bypasses="SVD sketch, prng (rank ~6), routing",
            tasks=4,
            layers=1,
            c_in=128,
            c_out=192,
            calib_tokens=128,
            eval_tokens=128,
            config={
                # 0.98 lies past the six components the outlier channels give
                # the smoothed delta, so the rank is 6 for almost every seed;
                # at 0.9 it wavers between 3 and 5 and so do fidelity and size.
                "rank": {"mode": "energy", "value": 0.98},
                "merge": {"method": "trimmed-mean", "tau": 0.25},
                "quant": {"bits_b": 4, "gran_b": "per-tensor", "gran_x": "per-tensor"},
            },
        ),
        ServeSpec(
            name="serve-mixed-short",
            why="32 short requests over 8 mixed-config packs per batch: per-group cost dominates",
            stresses="routing, per-group backbone re-cast, per-request X quantization",
            bypasses="compression",
            c_in=1024,
            c_out=1024,
            packs=(PackSpec(64),) * 4 + (PackSpec(64, gran_x="per-tensor"),) * 2 + (PackSpec(64, bits_b=4),) * 2,
            requests_per_batch=32,
            min_tokens=1,
            max_tokens=8,
            zipf_s=1.1,
            pool_batches=32,
        ),
        ServeSpec(
            name="serve-long",
            why="2 requests of 256 tokens on a 2048^2 layer: per-token compute dominates",
            stresses="backbone matmul, X quantization, integer GEMMs",
            bypasses="routing overhead (<= 2 groups), compression",
            c_in=2048,
            c_out=2048,
            packs=(PackSpec(128),) * 2,
            requests_per_batch=2,
            min_tokens=256,
            max_tokens=256,
            zipf_s=0.0,
            pool_batches=8,
        ),
    )
}

# End-to-end metrics, reported by every workload with --trace 0. One op is
# compress() plus serializing every pack on compress-*, and one
# dispatch_batch call on serve-*. rel_error is the mean over packs of
# eval_pack(...).aggregate_rel_error on compress-*, and the error of the
# dispatch outputs against the float64 oracle, pooled over the checked
# requests, on serve-*. compression_ratio is dense float32 delta bytes over
# serialized pack bytes, averaged over packs.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "rel_error": "ratio",
    "compression_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, reported by every workload with --trace 1 (0 where a
# layer is not reached). Times and counts are per op unless noted.
PER_LAYER = {
    "lowrank.truncated_svd_s": "s",
    "lowrank.jacobi_svd_full_s": "s",
    "lowrank.exact_calls": "count",
    "lowrank.sketch_calls": "count",
    "prng.gauss_matrix_s": "s",
    "smoothing.sample_rotation_s": "s",
    "smoothing.select_rotation_self_s": "s",
    "smoothing.candidates_scored": "count",
    "smoothing.rotation_kept_frac": "ratio",
    "smoothing.compute_smooth_s": "s",
    "kernel.compile_layer_s": "s",
    "kernel.compile_layer_calls": "count",
    "deltas.busy_s": "s",
    "calibration.profile_s": "s",
    "quant.gptq_refine_s": "s",
    "pipeline.compress_self_s": "s",
    "quant.quantize_s": "s",
    "quant.quantize_calls": "count",
    "tensors.matmul_s": "s",
    "tensors.matmul_calls": "count",
    "routing.dispatch_self_s": "s",
    "routing.groups_per_batch": "count",
    "routing.requests_per_group": "count",
    "kernel.forward_full_self_s": "s",
    "kernel.forward_quantized_s": "s",
    "kernel.forward_quantized_self_s": "s",
    "kernel.mid_saturated_frac": "ratio",
    "bench.flop_ratio": "ratio",
    "kernel.time_vs_flop_ratio": "ratio",
    "packio.serialize_s": "s",
    "packio.pack_bytes": "B",
    "packio.read_s": "s",
    "archive.read_s": "s",
    "trace.overhead_frac": "ratio",
}
