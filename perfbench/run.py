"""skillzip benchmark: compress and serve, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one child each

Run from the repository root; the program is imported from ./src. A run
generates its inputs from --seed in a child process (perfbench/inputs.py),
sets the program up, then drives one closed-loop client for --seconds and
checks every output. Set-up is also timed in fresh processes (perfbench/
coldsetup.py) spread over the loop; setup_s is their median. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; metrics are the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1. A traced run alternates traced and
untraced ops, so it also measures the tracing overhead. Lines before it
give every metric by name and unit, and the run context (machine, BLAS,
input SHA-256, sample counts). The record, with raw samples and the spans
of a traced run, is also written to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:  # no procfs: not Linux
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def result_of(outcome, trace: int) -> dict:
    """The run's last line: end-to-end metrics, or per-layer ones when traced."""
    from specs import END_TO_END, PER_LAYER

    names = PER_LAYER if trace else END_TO_END
    values = outcome.per_layer if trace else outcome.end_to_end
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(values[k]), "unit": unit} for k, unit in names.items()},
    }


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import numpy as np

    import skillzip
    from spans import Tracer, self_shares
    from specs import WORKLOADS
    from workloads import run_compress, run_serve

    spec = WORKLOADS[args.workload]
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    indir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), args.workload, str(args.seed), indir], check=True
        )
        with open(os.path.join(indir, "sha256.json"), encoding="utf-8") as f:
            input_sha = json.load(f)
        cold = [sys.executable, os.path.join(HERE, "coldsetup.py"), args.workload, indir]

        def cold_setup() -> float:
            return float(subprocess.run(cold, stdout=subprocess.PIPE, text=True, check=True).stdout)

        tracer = Tracer() if args.trace else None
        runner = run_compress if spec.kind == "compress" else run_serve
        outcome = runner(spec, args.seed, args.seconds, tracer, indir, cold_setup)
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "skillzip": skillzip.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "spec": dataclasses.asdict(spec),
        "input_sha256": input_sha,
        **outcome.context,
    }
    if tracer:
        context["self_time_share"] = self_shares(tracer)
        context["missing_patch_points"] = sorted(tracer.missing)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, value, unit, note in outcome.report:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<22}{shown:>16} {unit:<6} {note}")
    if tracer:
        print("  self-time share of traced ops:")
        for name, share in list(context["self_time_share"].items())[:12]:
            print(f"    {name:<36}{share:8.1%}")
    print("context: " + json.dumps(context, sort_keys=True))

    result = result_of(outcome, args.trace)
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"context": context, "report": outcome.report, "samples": outcome.samples, "result": result}
    if tracer:
        record["spans"] = tracer.spans
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so peak memory is its own."""
    from specs import WORKLOADS

    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        attempted += child["attempted"]
        failed += child["failed"]
        metrics.update({f"{name}/{k}": v for k, v in child["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skillzip", "__init__.py")):
        print(f"error: no skillzip sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # BLAS reads these when numpy is first imported; children inherit them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, HERE)
    from specs import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
