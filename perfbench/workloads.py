"""Closed-loop clients of the compress-* and serve-* workloads.

One client in one process sends its next op only after the previous one has
returned, as `skillzip bench` and callers of dispatch_batch do. Every op's
output is checked; an op that raises or fails a check counts as failed.

Checks, all outside the timed region:
  compress-*  repeated ops give byte-identical packs; each pack survives
              write_skillpack -> read_skillpack -> serialize byte for byte;
              each pack's fidelity on held-out activations is finite and
              below FIDELITY_LIMIT.
  serve-*     repeated dispatches of a batch give bit-identical outputs,
              dispatch_batch equals dispatch_sequential bit for bit, and
              each batch's outputs are within SERVE_ERROR_LIMIT (relative
              Frobenius error) of the float64 oracle
              x @ W + (x * smooth_inv) @ A @ B on the generated factors.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from skillzip import archive, bench, packio, pipeline, routing
from skillzip.evaluate import eval_pack
from skillzip.kernel import ForwardDiag
from skillzip.pipeline import PipelineConfig
from specs import CompressSpec, ServeSpec
from spans import Tracer, layer_metrics

SETUP_REPS = 7  # traced set-ups per traced run, for the per-layer read times
# setup_s is the median of this many set-ups, each in a fresh process and
# spread evenly over the timed loop: machine speed drifts over seconds, and
# consecutive set-ups share its state.
SETUP_SAMPLES = 5
MIN_OPS = {"compress": 3, "serve": 100}  # serve: >= 10 samples beyond p90
FIDELITY_LIMIT = 0.5
SERVE_ERROR_LIMIT = 0.1


@dataclass
class Outcome:
    attempted: int
    failed: int
    # Contract metrics (specs.END_TO_END) and, when traced, specs.PER_LAYER.
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    # (name, value, unit, note) lines in the vocabulary of each workload kind.
    report: list[tuple[str, float | str, str, str]]
    context: dict = field(default_factory=dict)
    # Raw timings behind each median and percentile, in seconds.
    samples: dict[str, list[float]] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p50_p90(samples: list[float]) -> tuple[float, float]:
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def _setup(build, tracer: Tracer | None):
    """The program's set-up in this process, which keeps its state: once,
    or SETUP_REPS times when traced (set-up spans get negative op ids)."""
    reps = SETUP_REPS if tracer else 1
    for rep in range(reps):
        state = None
        with tracer.recording(-1 - rep) if tracer else nullcontext():
            state = build()
    if tracer:
        tracer.counts["setups"] = reps
    return state


def _is_traced(tracer: Tracer | None, i: int, period: int) -> bool:
    return tracer is not None and (i // period) % 2 == 1


def _closed_loop(run_op, digest, seconds: float, min_ops: int, tracer: Tracer | None, period: int, cold_setup):
    """Back-to-back ops for `seconds` (at least `min_ops`). With a tracer,
    every other run of `period` ops is traced, so traced and untraced ops
    cover the same inputs. Between ops, at evenly spaced times, calls
    `cold_setup()` SETUP_SAMPLES times; the loop clock pauses meanwhile.
    Returns (untraced times, traced times, per-op digest or None when the
    op raised, set-up times)."""
    plain, traced_times, digests, setup_times = [], [], [], []
    start, paused = time.perf_counter(), 0.0
    i = 0
    while i < min_ops or time.perf_counter() - start - paused < seconds:
        if len(setup_times) < SETUP_SAMPLES:
            if time.perf_counter() - start - paused >= len(setup_times) * seconds / SETUP_SAMPLES:
                pause = time.perf_counter()
                setup_times.append(cold_setup())
                paused += time.perf_counter() - pause
        traced = _is_traced(tracer, i, period)
        try:
            with tracer.recording(i) if traced else nullcontext():
                t0 = time.perf_counter()
                out = run_op(i, traced)
                elapsed = time.perf_counter() - t0
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            digests.append(None)
        else:
            (traced_times if traced else plain).append(elapsed)
            digests.append(digest(out))
        i += 1
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(cold_setup())
    if tracer:
        tracer.counts["ops"] = len(traced_times)
    return plain, traced_times, digests, setup_times


def _per_layer(tracer, plain, traced_times):
    if tracer is None:
        return None
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(plain) - 1.0
    return metrics


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _meta(indir: str) -> dict:
    with open(os.path.join(indir, "inputs.json"), encoding="utf-8") as f:
        return json.load(f)


def _read(indir: str, name: str) -> dict:
    return dict(archive.read_archive(os.path.join(indir, name)))


def compress_setup(indir: str, tasks: list[str]):
    """Set-up of compress-*: read the base, tuned, calibration and eval archives."""
    tuned = {t: _read(indir, f"{t}.ftz") for t in tasks}
    return _read(indir, "base.ftz"), tuned, _read(indir, "calib.ftz"), _read(indir, "eval.ftz")


def request_pool(indir: str) -> list[routing.Batch]:
    meta = _meta(indir)
    with np.load(os.path.join(indir, "requests.npz")) as data:
        return [routing.Batch([routing.ForwardRequest(t, data[key]) for t, key in b]) for b in meta["batches"]]


def serve_setup(indir: str, tasks: list[str], warm_batch: routing.Batch) -> routing.SkillRegistry:
    """Set-up of serve-*: read the backbone and packs, build the registry,
    run one warm-up batch."""
    packs = {t: packio.read_skillpack(os.path.join(indir, f"{t}.skz")) for t in tasks}
    registry = routing.SkillRegistry(backbone=_read(indir, "backbone.ftz"), target_layer="layer0", packs=packs)
    routing.dispatch_batch(warm_batch, registry)
    return registry


def time_setup(spec: CompressSpec | ServeSpec, indir: str) -> float:
    """Seconds of one set-up. The benchmark runs this in fresh processes
    (coldsetup.py), so each sample pays what a user's process pays."""
    tasks = _meta(indir)["tasks"]
    if spec.kind == "compress":
        start = time.perf_counter()
        compress_setup(indir, tasks)
    else:
        warm_batch = request_pool(indir)[0]
        start = time.perf_counter()
        serve_setup(indir, tasks, warm_batch)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# compress-*


def run_compress(
    spec: CompressSpec, seed: int, seconds: float, tracer: Tracer | None, indir: str, cold_setup
) -> Outcome:
    path = lambda name: os.path.join(indir, name)  # noqa: E731
    tasks = _meta(indir)["tasks"]
    base, tuned, calib, eval_x = _setup(lambda: compress_setup(indir, tasks), tracer)
    config = PipelineConfig.from_json(json.dumps({**spec.config, "seed": seed}))

    def run_op(i, traced):
        result = pipeline.compress(base, tuned, calib, config)
        blobs = {t: packio.serialize_skillpack(p) for t, p in sorted(result.packs.items())}
        if traced:
            tracer.counts["rotations_kept"] += sum(
                layer.rotation_index != 0 for p in result.packs.values() for layer in p.layers.values()
            )
            tracer.counts["pack_bytes"] += sum(len(b) for b in blobs.values())
            tracer.counts["packs"] += len(blobs)
        return result, blobs

    def digest(out):
        return _sha(t.encode() + b"\0" + b for t, b in out[1].items())

    # An untimed warm-up op lets lazy initialisation finish; its packs are
    # the reference every timed op must reproduce byte for byte.
    warm = run_op(-1, False)
    reference = digest(warm)
    plain, traced_times, digests, setup_times = _closed_loop(
        run_op, digest, seconds, MIN_OPS["compress"], tracer, 1, cold_setup
    )
    rss = peak_rss_mb()

    result, blobs = warm
    verified = True
    ratios, errors = [], []
    for t, pack in sorted(result.packs.items()):
        packio.write_skillpack(pack, path(f"{t}.out.skz"))
        verified &= packio.serialize_skillpack(packio.read_skillpack(path(f"{t}.out.skz"))) == blobs[t]
        dense = sum(4 * layer.c_in * layer.c_out for layer in pack.layers.values())
        ratios.append(dense / len(blobs[t]))
        deltas = {n: (tuned[t][n] - result.backbone[n]).astype(np.float32) for n in pack.layers}
        errors.append(eval_pack(pack, deltas, eval_x).aggregate_rel_error)
    verified &= all(np.isfinite(e) and e < FIDELITY_LIMIT for e in errors)
    failed = sum(1 for d in digests if d != reference or not verified)

    p50, p90 = _p50_p90(plain)
    setup_s = statistics.median(setup_times)
    fidelity = float(np.mean(errors))
    ratio = float(np.mean(ratios))
    end_to_end = {
        "setup_s": setup_s,
        "op_ms_p50": 1000.0 * p50,
        "rel_error": fidelity,
        "compression_ratio": ratio,
        "peak_rss_mb": rss,
    }
    n = len(plain)
    report = [
        ("setup_s", setup_s, "s", f"median of {len(setup_times)} set-ups, one per fresh process"),
        ("compress_s_p50", p50, "s", f"op_ms_p50; median of {n} ops"),
        ("compress_s_p90", p90, "s", f"{n} ops"),
        ("fidelity_rel_error", fidelity, "ratio", f"rel_error; mean over {len(errors)} packs"),
        ("compression_ratio", ratio, "ratio", f"mean over {len(ratios)} packs"),
        ("peak_rss_mb", rss, "MB", "ru_maxrss"),
        ("failed_frac", failed / len(digests), "ratio", f"{failed} of {len(digests)} ops"),
        ("pack_sha256", reference, "", "all packs of one op"),
    ]
    context = {
        "samples": {"setup_s": len(setup_times), "op_ms": n, "traced_ops": len(traced_times)},
        "pack_sha256": reference,
        "config": json.loads(config.to_canonical_json()),
    }
    samples = {"op_s": plain, "traced_op_s": traced_times, "setup_s": setup_times}
    return Outcome(len(digests), failed, end_to_end, _per_layer(tracer, plain, traced_times), report, context, samples)


# ---------------------------------------------------------------------------
# serve-*


def _oracle_error(x, out, w64, a64, b64, smooth_inv) -> tuple[float, float]:
    """(||out - ref||_F, ||ref||_F) against the float64 oracle."""
    x64 = x.astype(np.float64)
    ref = x64 @ w64 + ((x64 * smooth_inv) @ a64) @ b64
    return float(np.linalg.norm(out.astype(np.float64) - ref)), float(np.linalg.norm(ref))


def run_serve(
    spec: ServeSpec, seed: int, seconds: float, tracer: Tracer | None, indir: str, cold_setup
) -> Outcome:
    path = lambda name: os.path.join(indir, name)  # noqa: E731
    tasks = _meta(indir)["tasks"]
    pool = request_pool(indir)
    registry = _setup(lambda: serve_setup(indir, tasks, pool[0]), tracer)
    rank = {t: registry.serving_layer(t).rank for t in tasks}
    # Static per-batch counts, added for traced ops.
    shape = (spec.c_in, spec.c_out)
    batch_counts = [
        {
            "requests": len(b.requests),
            "mid_elements": sum(r.x.shape[0] * rank[r.task_id] for r in b.requests),
            "flops_dense": sum(bench.flops_dense(r.x.shape[0], *shape) for r in b.requests),
            "flops_lowrank": sum(bench.flops_lowrank(r.x.shape[0], *shape, rank[r.task_id]) for r in b.requests),
        }
        for b in pool
    ]
    tokens = [sum(r.x.shape[0] for r in b.requests) for b in pool]

    def run_op(i, traced):
        batch = pool[i % len(pool)]
        if not traced:
            return routing.dispatch_batch(batch, registry)
        diag = ForwardDiag()
        out = routing.dispatch_batch(batch, registry, diag=diag)
        tracer.counts["mid_saturated"] += diag.mid_saturated
        for k, v in batch_counts[i % len(pool)].items():
            tracer.counts[k] += v
        return out

    def digest(outputs):
        return _sha(o.tobytes() for o in outputs)

    plain, traced_times, digests, setup_times = _closed_loop(
        run_op, digest, seconds, MIN_OPS["serve"], tracer, len(pool), cold_setup
    )
    rss = peak_rss_mb()

    with np.load(path("oracle.npz")) as factors:
        oracle = {k: factors[k].astype(np.float64) for k in factors.files}
    w64 = registry.backbone["layer0"].astype(np.float64)
    used = sorted({i % len(pool) for i in range(len(digests))})
    verified: dict[int, str | None] = {}
    worst = err_sq = ref_sq = 0.0
    for bi in used:
        batch = pool[bi]
        outputs = routing.dispatch_batch(batch, registry)
        sequential = routing.dispatch_sequential(batch, registry)
        ok = all(o.tobytes() == s.tobytes() for o, s in zip(outputs, sequential))
        batch_err_sq = batch_ref_sq = 0.0
        for req, out in zip(batch.requests, outputs):
            t = req.task_id
            err, ref = _oracle_error(req.x, out, w64, oracle[f"{t}.a"], oracle[f"{t}.b"], oracle[f"{t}.smooth_inv"])
            worst = max(worst, err / ref)
            batch_err_sq, batch_ref_sq = batch_err_sq + err**2, batch_ref_sq + ref**2
        ok &= bool(np.sqrt(batch_err_sq / batch_ref_sq) < SERVE_ERROR_LIMIT)
        err_sq, ref_sq = err_sq + batch_err_sq, ref_sq + batch_ref_sq
        verified[bi] = digest(outputs) if ok else None
    # Errors are pooled per batch for the gate and over all requests for the
    # metric: one token past the calibrated mid scale saturates and can put
    # a single short request near 20% (see kernel.mid_saturated_frac), while
    # a wrong pack or a dropped skill path moves a whole batch by 25% or more.
    pooled = float(np.sqrt(err_sq / ref_sq))
    failed = sum(1 for i, d in enumerate(digests) if d is None or d != verified[i % len(pool)])

    untraced_ok = [i for i, d in enumerate(digests) if d is not None and not _is_traced(tracer, i, len(pool))]
    ok_tokens = sum(tokens[i % len(pool)] for i in untraced_ok)
    p50, p90 = _p50_p90(plain)
    setup_s = statistics.median(setup_times)
    tokens_per_s = ok_tokens / sum(plain)
    pack_bytes = [os.path.getsize(path(f"{t}.skz")) for t in tasks]
    ratio = float(np.mean([4 * spec.c_in * spec.c_out / nb for nb in pack_bytes]))
    end_to_end = {
        "setup_s": setup_s,
        "op_ms_p50": 1000.0 * p50,
        "rel_error": pooled,
        "compression_ratio": ratio,
        "peak_rss_mb": rss,
    }
    n = len(plain)
    n_checked = sum(len(pool[b].requests) for b in used)
    report = [
        ("setup_s", setup_s, "s", f"median of {len(setup_times)} set-ups, one per fresh process"),
        ("tokens_per_s", tokens_per_s, "tok/s", f"{ok_tokens} tokens in {n} untraced batches"),
        ("batch_ms_p50", 1000.0 * p50, "ms", f"op_ms_p50; {n} batches"),
        ("batch_ms_p90", 1000.0 * p90, "ms", f"{n} batches"),
        ("serve_rel_error", pooled, "ratio", f"rel_error; pooled over {n_checked} requests"),
        ("serve_rel_error_max", worst, "ratio", "worst single request"),
        ("compression_ratio", ratio, "ratio", f"mean over {len(pack_bytes)} packs"),
        ("peak_rss_mb", rss, "MB", "ru_maxrss"),
        ("failed_frac", failed / len(digests), "ratio", f"{failed} of {len(digests)} batches"),
    ]
    context = {
        "samples": {
            "setup_s": len(setup_times),
            "op_ms": n,
            "traced_ops": len(traced_times),
            "checked_batches": len(used),
        },
        "tokens_per_s": tokens_per_s,
    }
    samples = {"op_s": plain, "traced_op_s": traced_times, "setup_s": setup_times}
    return Outcome(len(digests), failed, end_to_end, _per_layer(tracer, plain, traced_times), report, context, samples)
