"""Guards for code outside the library that calls into it: the demos and
the benchmark's span-tracing patch points."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_patch_points_resolve():
    """Every attribute the traced benchmark wraps must exist; a missing one
    only shows up there as `missing_patch_points`, not as a failure."""
    spans = _load_spans()
    missing = []
    for module_name, attr, _ in spans.PATCH_POINTS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_benchmark_trace_sees_one_backbone_matmul_per_batch():
    """The traced serve workloads split a dispatch into the backbone matmul
    and the skill path through these spans."""
    spans = _load_spans()
    from skillzip import Batch, ForwardRequest, QuantConfig, Skillpack, SkillRegistry, compile_layer, routing
    from skillzip.prng import Prng

    rng = Prng(70)
    packs = {}
    for task, gran_x in (("math", "per-token"), ("code", "per-tensor")):
        layer = compile_layer(
            "layer0", np.ones(16, dtype=np.float32), rng.uniform_matrix(16, 3, -1, 1),
            rng.uniform_matrix(3, 12, -1, 1), QuantConfig(gran_x=gran_x), x_calib=rng.uniform_matrix(8, 16, -1, 1),
        )
        packs[task] = Skillpack(task, {"layer0": layer})
    registry = SkillRegistry(backbone={"layer0": rng.uniform_matrix(16, 12, -1, 1)}, target_layer="layer0", packs=packs)
    batch = Batch([ForwardRequest(t, rng.uniform_matrix(2, 16, -1, 1)) for t in ("math", "code", "math")])

    tracer = spans.Tracer()
    with tracer.recording(0):
        routing.dispatch_batch(batch, registry)
    names = [s[spans.NAME] for s in tracer.spans]
    assert not tracer.missing
    assert names.count("tensors.matmul") == 1
    assert names.count("kernel.forward_quantized") >= 1
