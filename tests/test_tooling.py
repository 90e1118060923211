"""Guards for code outside the library that calls into it: the demos, the
public names and the benchmark's span-tracing patch points."""

import importlib
import importlib.util
import json
import os
import re
import shutil
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


def test_public_names_resolve_and_are_sorted():
    """A removed or renamed name cannot linger in `skillzip.__all__`."""
    import skillzip

    missing = [name for name in skillzip.__all__ if not hasattr(skillzip, name)]
    assert not missing, missing
    assert skillzip.__all__ == sorted(skillzip.__all__)


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


def _perfbench_record(workload, seed, op_ms, sha, trace=0):
    metrics = {"setup_s": 0.02, "op_ms_p50": op_ms, "rel_error": 0.01, "compression_ratio": 15.0, "peak_rss_mb": 90.0}
    units = {"setup_s": "s", "op_ms_p50": "ms", "rel_error": "ratio", "compression_ratio": "ratio", "peak_rss_mb": "MB"}
    context = {
        "workload": workload, "seed": seed, "seconds": 20.0, "trace": trace, "nproc": 2, "python": "3.11.7",
        "numpy": "2.4.6", "blas": {"name": "scipy-openblas", "version": "0.3.31"}, "blas_threads": 2, "pack_sha256": sha,
    }
    result = {"correct": True, "attempted": 8, "failed": 0, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return {"context": context, "report": [], "samples": {}, "result": result}


def test_bench_summary_on_synthetic_records(tmp_path):
    """Two runs a side: medians, IQRs, ratios, pairs, the paired ratio and
    the pack hashes come out of scripts/bench_summary.py as computed by hand;
    traced records are left out."""
    for side, op_ms, cpu_s in (("parent", (2000.0, 3000.0), (20.0, 30.0)), ("change", (1000.0, 1200.0), (40.0, 45.0))):
        for run, value in enumerate(op_ms):
            out = tmp_path / side / f"pair{run}" / "_out"
            out.mkdir(parents=True)
            record = _perfbench_record("compress-exact", 1 + run, value, f"sha{run}")
            record["ab_run"] = {"wall_s": 21.0 + run, "cpu_s": cpu_s[run], "max_rss_mb": 40.0 + 4 * run}
            (out / "compress-exact-trace0.json").write_text(json.dumps(record))
        traced = _perfbench_record("compress-exact", 1, 1.0, "sha0", trace=1)
        (tmp_path / side / "traced.json").write_text(json.dumps(traced))
    dest = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", str(dest)]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_summary.py"), *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(dest.read_text())["compress-exact"]
    assert entry["pairs"] == 2 and entry["pairs_change_faster"] == 2 and entry["pack_sha256_equal"]
    assert entry["parent"]["runs"] == 2 and entry["parent"]["seeds"] == [1, 2]
    assert entry["parent"]["metrics"]["op_ms_p50"] == {"median": 2500.0, "iqr": 500.0, "unit": "ms"}
    assert entry["change"]["metrics"]["op_ms_p50"] == {"median": 1100.0, "iqr": 100.0, "unit": "ms"}
    assert entry["change_over_parent_median"]["op_ms_p50"] == pytest.approx(0.44)
    # Pairs 1000 / 2000 and 1200 / 3000: the median of the ratios, not the ratio of the medians.
    assert entry["paired_op_ms_p50_ratio"] == pytest.approx({"median": 0.45, "iqr": 0.05})
    assert "paired 0.450x (IQR 0.050)" in proc.stdout
    # CPU seconds pair the same way: 40 / 20 and 45 / 30.
    assert entry["paired_cpu_s_ratio"] == pytest.approx({"median": 1.75, "iqr": 0.25})
    assert "paired cpu_s 1.750x (IQR 0.250)" in proc.stdout
    assert entry["change"]["ab_run"] == {
        "wall_s": {"median": 21.5, "iqr": 0.5},
        "cpu_s": {"median": 42.5, "iqr": 2.5},
        "max_rss_mb": {"median": 42.0, "iqr": 2.0},
    }
    assert entry["change"]["pack_sha256"] == {"1": ["sha0"], "2": ["sha1"]}
    assert entry["change"]["op_ms_p50_runs"] == [[1, 1000.0], [2, 1200.0]]
    assert entry["parent"]["context"].startswith("nproc 2, Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31")


def _stub_run_py(op_ms):
    """A perfbench/run.py stand-in: spends op_ms / 10^4 CPU seconds, waits
    for a child process that holds op_ms / 40 MB, writes a synthetic record
    where the real one does (per-layer metrics, scaled by op_ms, when
    traced) and logs which tree ran, from the tree's root, to ../order.log."""
    record = json.dumps(_perfbench_record("w", 0, op_ms, "sha"))
    traced = json.dumps({"kernel.forward_quantized_s": {"value": op_ms / 1e5, "unit": "s"}, "bench.flop_ratio": {"value": 4.0, "unit": "ratio"}})
    return f"""import json, os, subprocess, sys, time
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
start = time.process_time()
while time.process_time() - start < {op_ms / 10000.0!r}:  # CPU seconds in proportion to op_ms
    pass
subprocess.run([sys.executable, "-c", "held = b'x' * {int(op_ms / 40) << 20}"], check=True)  # a peak in a child only
record = json.loads({record!r})
record["context"].update(workload=args["--workload"], seed=int(args["--seed"]), trace=int(args["--trace"]))
if args["--trace"] == "1":
    record["result"]["metrics"] = json.loads({traced!r})
    record["context"]["missing_patch_points"] = []
out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")
os.makedirs(out, exist_ok=True)
with open(os.path.join(out, args["--workload"] + "-seed" + args["--seed"] + "-trace" + args["--trace"] + ".json"), "w") as f:
    json.dump(record, f)
with open(os.path.join("..", "order.log"), "a") as f:
    print(os.path.basename(os.getcwd()), args["--workload"], file=f)
"""


def _ab_repo(tmp_path):
    """A git repository whose committed stub run.py reports 2000 ms and whose
    working tree's reports 1000 ms, plus an untracked file."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "perfbench" / "run.py").write_text(_stub_run_py(2000.0))
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "parent"], check=True)
    (repo / "perfbench" / "run.py").write_text(_stub_run_py(1000.0))
    (repo / "untracked.txt").write_text("change only")
    return repo


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_ab_alternates_parent_and_working_tree_copies(tmp_path):
    """scripts/bench_ab.py copies a commit and the working tree (with its
    untracked files) into sibling directories, alternates the side that runs
    first from one pair of a workload to the next, prints each run's
    1-minute load average on its pair line, and summarizes the records."""
    repo = _ab_repo(tmp_path)
    root, dest = tmp_path / "ab", tmp_path / "BENCH.json"
    argv = ["--repo", str(repo), "--parent", "HEAD", "--root", str(root), "--out", str(dest), "--seconds", "0.5"]
    argv += ["--workload", "serve-long", "--workload", "compress-exact", "--seeds", "3", "4"]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_ab.py"), *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(dest.read_text())
    assert sorted(summary) == ["compress-exact", "serve-long"]
    for entry in summary.values():
        assert entry["pairs"] == 2 and entry["pairs_change_faster"] == 2
        assert entry["parent"]["seeds"] == entry["change"]["seeds"] == [3, 4]
        assert entry["change_over_parent_median"]["op_ms_p50"] == pytest.approx(0.5)
    runs = [line.split() for line in (root / "order.log").read_text().splitlines()]
    for workload in ("serve-long", "compress-exact"):
        assert [side for side, w in runs if w == workload] == ["parent", "change", "change", "parent"]
    assert (root / "change" / "untracked.txt").exists() and not (root / "parent" / "untracked.txt").exists()
    pair_lines = [line for line in proc.stdout.splitlines() if line.startswith("pair ")]
    assert len(pair_lines) == 8
    for line in pair_lines:  # the 1-minute load average taken before the run, the run's wall and CPU seconds, peak memory
        pattern = r"pair [01] \S+ seed [34] (parent|change): op_ms_p50 [\d.]+ ms, load1 \d+\.\d\d, wall \d+\.\d\d s, cpu \d+\.\d\d s, max rss \d+\.\d MB"
        assert re.fullmatch(pattern, line), line
    for entry in summary.values():  # the stub spends 0.2 s of CPU as parent, 0.1 s as change, plus start-up
        assert 0.3 < entry["paired_cpu_s_ratio"]["median"] < 0.8
        assert entry["parent"]["ab_run"]["cpu_s"]["median"] >= 0.2 and entry["change"]["ab_run"]["wall_s"]["median"] >= 0.1
        # The child's 50 MB (parent) or 25 MB (change) is the peak of the whole run, not the stub's own.
        assert 50 < entry["parent"]["ab_run"]["max_rss_mb"]["median"] < 80 and 25 < entry["change"]["ab_run"]["max_rss_mb"]["median"] < 50
    record = json.loads((root / "records" / "change" / "pair000" / "serve-long-seed3-trace0.json").read_text())
    assert record["ab_run"]["cpu_s"] >= 0.1
    assert re.search(r"paired cpu_s 0\.\d{3}x \(IQR \d\.\d{3}\)", proc.stdout)
    again = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_ab.py"), *argv], capture_output=True, text=True)
    assert again.returncode == 2 and "not empty" in again.stderr


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_ab_traced_runs_reach_the_summary(tmp_path):
    """With --traced, scripts/bench_ab.py adds one --trace 1 run per side and
    workload (first seed) after the pairs; the summary keeps the end-to-end
    metrics of the untraced runs only and, per side, the traced metrics and
    the missed patch points."""
    repo = _ab_repo(tmp_path)
    root, dest = tmp_path / "ab", tmp_path / "BENCH.json"
    argv = ["--repo", str(repo), "--parent", "HEAD", "--root", str(root), "--out", str(dest), "--seconds", "0.5"]
    argv += ["--workload", "serve-long", "--seeds", "3", "4", "--traced"]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_ab.py"), *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(dest.read_text())["serve-long"]
    assert entry["pairs"] == 2 and entry["parent"]["runs"] == entry["change"]["runs"] == 2
    assert entry["change_over_parent_median"]["op_ms_p50"] == pytest.approx(0.5)
    for side, seconds in (("parent", 0.02), ("change", 0.01)):
        traced = entry["traced"][side]
        assert traced["runs"] == 1 and traced["missing_patch_points"] == []
        assert traced["kernel.forward_quantized_s"] == pytest.approx(seconds) and traced["bench.flop_ratio"] == 4.0
    assert sorted(p.name for p in (root / "records" / "change" / "traced").iterdir()) == ["serve-long-seed3-trace1.json"]
    runs = (root / "order.log").read_text().split()
    assert runs[-4:] == ["parent", "serve-long", "change", "serve-long"]
    assert "serve-long traced change: kernel.forward_quantized_s 0.01, bench.flop_ratio 4; missing patch points none" in proc.stdout


def test_importing_skillzip_loads_no_process_pool():
    """Only compress() opens a worker pool, so a fresh `import skillzip`
    (what serving pays) loads neither `multiprocessing` nor
    `concurrent.futures`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, skillzip; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
