"""Fast self-test of the benchmark at tiny shapes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from skillzip import pipeline, routing  # noqa: E402
from specs import END_TO_END, PER_LAYER, WORKLOADS, CompressSpec, PackSpec, ServeSpec  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import run_compress, run_serve, time_setup  # noqa: E402

TINY = {
    "compress": CompressSpec(
        name="tiny-compress",
        why="self-test",
        stresses="",
        bypasses="",
        tasks=2,
        layers=2,
        c_in=32,
        c_out=24,
        calib_tokens=16,
        eval_tokens=16,
        shared_rank=4,
        task_rank=2,
        outlier_channels=2,
    ),
    "serve": ServeSpec(
        name="tiny-serve",
        why="self-test",
        stresses="",
        bypasses="",
        c_in=64,
        c_out=48,
        packs=(PackSpec(4), PackSpec(4, bits_b=4, gran_x="per-tensor")),
        requests_per_batch=4,
        min_tokens=1,
        max_tokens=3,
        zipf_s=1.1,
        pool_batches=3,
        calib_tokens=32,
        outlier_channels=2,
    ),
}


def _run(kind, tmp_path, trace):
    spec = TINY[kind]
    inputs.write_inputs(spec, 7, str(tmp_path))
    runner = run_compress if kind == "compress" else run_serve
    return runner(spec, 7, 0.0, Tracer() if trace else None, str(tmp_path), lambda: time_setup(spec, str(tmp_path)))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: the union 1..5 counts once
        ["a.child", 1.5, 2.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.5, 3.0, 0.5, 3.0])


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("kind", ["compress", "serve"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(kind, trace, tmp_path):
    outcome = _run(kind, tmp_path, trace)
    result = run.result_of(outcome, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        root = "pipeline.compress_self_s" if kind == "compress" else "routing.dispatch_self_s"
        assert result["metrics"][root]["value"] > 0
        assert result["metrics"]["quant.quantize_calls"]["value"] > 0


def test_corrupted_serve_output_trips_failed(tmp_path, monkeypatch):
    original = routing.forward_full
    monkeypatch.setattr(routing, "forward_full", lambda *a, **k: original(*a, **k) * np.float32(1.5))
    outcome = _run("serve", tmp_path, 0)
    assert outcome.failed == outcome.attempted > 0
    assert dict((r[0], r[1]) for r in outcome.report)["failed_frac"] == 1.0


def test_one_differing_compress_op_trips_failed(tmp_path, monkeypatch):
    original = pipeline.compress
    calls = []

    def compress_flipping_second_call(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            layer = next(iter(next(iter(result.packs.values())).layers.values()))
            layer.mid_scale *= 2.0
        return result

    monkeypatch.setattr(pipeline, "compress", compress_flipping_second_call)
    outcome = _run("compress", tmp_path, 0)
    assert outcome.failed == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "serve-long", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
