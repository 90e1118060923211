"""Span tracing of skillzip from outside, and per-layer metrics from spans.

While a traced op runs, each entry of PATCH_POINTS is replaced by a wrapper
that records a span: [name, start, end, parent span index, op id]. A patch
point is a module attribute through which one layer calls another, so the
program's code is untouched and untraced ops run it unmodified. Spans stay
in memory and are written out when the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). The benchmark itself calls the roots
# (pipeline.compress, routing.dispatch_batch, packio.serialize_skillpack,
# archive.read_archive, packio.read_skillpack) through these attributes.
PATCH_POINTS = (
    ("skillzip.pipeline", "compress", "pipeline.compress"),
    ("skillzip.pipeline", "extract_delta", "deltas.extract_delta"),
    ("skillzip.pipeline", "merge_shared", "deltas.merge_shared"),
    ("skillzip.pipeline", "recenter", "deltas.recenter"),
    ("skillzip.pipeline", "apply_delta", "deltas.apply_delta"),
    ("skillzip.pipeline", "profile", "calibration.profile"),
    ("skillzip.pipeline", "compute_smooth", "smoothing.compute_smooth"),
    ("skillzip.pipeline", "truncated_svd", "lowrank.truncated_svd"),
    ("skillzip.lowrank", "jacobi_svd_full", "lowrank.jacobi_svd_full"),
    ("skillzip.pipeline", "split_factors", "lowrank.split_factors"),
    ("skillzip.pipeline", "select_rotation", "smoothing.select_rotation"),
    ("skillzip.smoothing", "sample_rotation", "smoothing.sample_rotation"),
    ("skillzip.prng", "Prng.gauss_matrix", "prng.gauss_matrix"),
    ("skillzip.pipeline", "fold_rotation", "smoothing.fold_rotation"),
    ("skillzip.smoothing", "fold_rotation", "smoothing.fold_rotation"),
    ("skillzip.pipeline", "compile_layer", "kernel.compile_layer"),
    ("skillzip.smoothing", "compile_layer", "kernel.compile_layer"),
    ("skillzip.smoothing", "forward_quantized", "kernel.forward_quantized"),
    ("skillzip.kernel", "forward_quantized", "kernel.forward_quantized"),
    ("skillzip.routing", "forward_full", "kernel.forward_full"),
    ("skillzip.kernel", "quantize", "quant.quantize"),
    ("skillzip.kernel", "gptq_refine", "quant.gptq_refine"),
    ("skillzip.kernel", "matmul", "tensors.matmul"),
    ("skillzip.smoothing", "matmul", "tensors.matmul"),
    ("skillzip.pipeline", "manifest_for", "packio.manifest_for"),
    ("skillzip.packio", "serialize_skillpack", "packio.serialize_skillpack"),
    ("skillzip.packio", "read_skillpack", "packio.read_skillpack"),
    ("skillzip.archive", "read_archive", "archive.read_archive"),
    ("skillzip.routing", "dispatch_batch", "routing.dispatch_batch"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans plus counters that the workload adds where the work happens.

    Op ids >= 0 are timed ops; set-up repetitions use negative ids."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def recording(self, op: int):
        """Install every wrapper for one op; restore the originals after."""
        saved = []
        for module_name, attr, span in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span, original))
        self._op = op
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics (names in specs.PER_LAYER except trace.overhead_frac).

    Times and calls are per traced op, read times per set-up repetition.
    The workload supplies counts["ops"] and counts["setups"], plus the
    counters named below where they apply."""
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    setup_total: dict[str, float] = defaultdict(float)
    names = [s[NAME] for s in spans]
    for i, s in enumerate(spans):
        if s[OP] < 0:
            setup_total[s[NAME]] += s[END] - s[START]
            continue
        total[s[NAME]] += s[END] - s[START]
        self_total[s[NAME]] += own[i]
        calls[s[NAME]] += 1
    in_ops = [(i, s) for i, s in enumerate(spans) if s[OP] >= 0]
    # A truncated_svd span without a jacobi_svd_full child took the sketch path.
    exact_parents = {s[PARENT] for _, s in in_ops if s[NAME] == "lowrank.jacobi_svd_full"}
    sketch = sum(1 for i, s in in_ops if s[NAME] == "lowrank.truncated_svd" and i not in exact_parents)
    scored = sum(
        1
        for _, s in in_ops
        if s[NAME] == "kernel.forward_quantized" and s[PARENT] >= 0 and names[s[PARENT]] == "smoothing.select_rotation"
    )
    ops, setups = counts["ops"], counts["setups"]
    flop_ratio = _ratio(counts["flops_dense"], counts["flops_lowrank"])
    # Measured backbone-matmul time over skill-path time, against the
    # closed-form dense/low-rank multiply-add ratio (1.0: wall clock
    # matches the FLOP accounting).
    time_ratio = _ratio(total["tensors.matmul"], total["kernel.forward_quantized"])
    per_op = {
        "lowrank.truncated_svd_s": total["lowrank.truncated_svd"],
        "lowrank.jacobi_svd_full_s": total["lowrank.jacobi_svd_full"],
        "lowrank.exact_calls": calls["lowrank.jacobi_svd_full"],
        "lowrank.sketch_calls": sketch,
        "prng.gauss_matrix_s": total["prng.gauss_matrix"],
        "smoothing.sample_rotation_s": total["smoothing.sample_rotation"],
        "smoothing.select_rotation_self_s": self_total["smoothing.select_rotation"],
        "smoothing.candidates_scored": scored,
        "smoothing.compute_smooth_s": total["smoothing.compute_smooth"],
        "kernel.compile_layer_s": total["kernel.compile_layer"],
        "kernel.compile_layer_calls": calls["kernel.compile_layer"],
        "deltas.busy_s": sum(v for k, v in total.items() if k.startswith("deltas.")),
        "calibration.profile_s": total["calibration.profile"],
        "quant.gptq_refine_s": total["quant.gptq_refine"],
        "pipeline.compress_self_s": self_total["pipeline.compress"],
        "quant.quantize_s": total["quant.quantize"],
        "quant.quantize_calls": calls["quant.quantize"],
        "tensors.matmul_s": total["tensors.matmul"],
        "tensors.matmul_calls": calls["tensors.matmul"],
        "routing.dispatch_self_s": self_total["routing.dispatch_batch"],
        "kernel.forward_full_self_s": self_total["kernel.forward_full"],
        "kernel.forward_quantized_s": total["kernel.forward_quantized"],
        "kernel.forward_quantized_self_s": self_total["kernel.forward_quantized"],
        "packio.serialize_s": total["packio.serialize_skillpack"],
    }
    out = {k: _ratio(v, ops) for k, v in per_op.items()}
    out.update(
        {
            "smoothing.rotation_kept_frac": _ratio(counts["rotations_kept"], scored),
            "routing.groups_per_batch": _ratio(calls["kernel.forward_full"], calls["routing.dispatch_batch"]),
            "routing.requests_per_group": _ratio(counts["requests"], calls["kernel.forward_full"]),
            "kernel.mid_saturated_frac": _ratio(counts["mid_saturated"], counts["mid_elements"]),
            "bench.flop_ratio": flop_ratio,
            "kernel.time_vs_flop_ratio": _ratio(time_ratio, flop_ratio),
            "packio.pack_bytes": _ratio(counts["pack_bytes"], counts["packs"]),
            "packio.read_s": _ratio(setup_total["packio.read_skillpack"], setups),
            "archive.read_s": _ratio(setup_total["archive.read_archive"], setups),
        }
    )
    return out


def self_shares(tracer: Tracer) -> dict[str, float]:
    """Each span name's share of the traced ops' root time, by self time."""
    own = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    root = 0.0
    for i, s in enumerate(tracer.spans):
        if s[OP] < 0:
            continue
        by_name[s[NAME]] += own[i]
        if s[PARENT] < 0:
            root += s[END] - s[START]
    return {k: _ratio(v, root) for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])}
