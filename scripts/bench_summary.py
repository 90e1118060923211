"""Summarize perfbench records of a parent run and a change run into one JSON file.

    python3 scripts/bench_summary.py --parent DIR --change DIR --out BENCH_<n>.json

Each DIR holds perfbench records (the `perfbench/_out/*.json` files one run
writes), in any layout below it: every `*.json` file found under DIR with a
`context` and a `result` is one run. The end-to-end summary reads untraced
records (`--trace 0`); traced ones (`--trace 1`, e.g. from `bench_ab.py
--traced`) carry per-layer metrics instead, and of those the output keeps,
per side, the median of each of TRACED over the traced runs and the patch
points any of them missed. Per workload the output holds,
for the parent and for the change, the median and interquartile range of
each end-to-end metric (the `end_to_end` names of the repository's
BENCHMARK.json) over the runs, the seeds, the run count, the context
line, each run's `op_ms_p50` and the `pack_sha256` of each seed; and the
change/parent ratio of the medians, the number of run pairs (the k-th run of
a seed on one side pairs with the k-th on the other, in path order), how
many of them the change won on `op_ms_p50`, and the median and interquartile
range of the per-pair ratios change_k / parent_k of `op_ms_p50`. Outside load
drifts over minutes and moves both medians, but it moves both runs of a pair
alike, so the paired ratio cancels most of it. Records that
`scripts/bench_ab.py` wrote also carry each run's wall and CPU seconds and
the largest resident set of its processes ("ab_run"); per side the output
holds their median and interquartile range, and the paired ratio of CPU
seconds, which shows what a speedup costs in CPU.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"), encoding="utf-8") as f:
    END_TO_END = tuple(metric["name"] for metric in json.load(f)["end_to_end"])  # the benchmark's own list
AB_RUN = ("wall_s", "cpu_s", "max_rss_mb")  # what bench_ab.py adds to each record
TRACED = ("kernel.forward_quantized_s", "tensors.matmul_s", "bench.flop_ratio", "kernel.time_vs_flop_ratio")


def load_records(root: str) -> list[dict]:
    """Every perfbench record under `root`, traced or not, in sorted path order."""
    records = []
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                record = json.load(f)
            if isinstance(record, dict) and "context" in record and "result" in record:
                records.append(record)
    return records


def is_traced(record: dict) -> bool:
    return record["context"].get("trace", 0) != 0


def context_line(context: dict) -> str:
    blas = context.get("blas") or {}
    return (
        f"nproc {context.get('nproc')}, Python {context.get('python')}, numpy {context.get('numpy')}, "
        f"{blas.get('name')} {blas.get('version')}, {context.get('blas_threads')} BLAS threads, "
        f"{context.get('seconds')} s per run"
    )


def spread(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles; 0 for one value)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def side_summary(records: list[dict]) -> dict:
    metrics = {}
    for name in END_TO_END:
        values = [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]
        if values:
            metrics[name] = {**spread(values), "unit": records[0]["result"]["metrics"][name]["unit"]}
    shas = {}
    for r in records:
        sha = r["context"].get("pack_sha256")
        if sha is not None:
            shas.setdefault(str(r["context"]["seed"]), set()).add(sha)
    ab = [r for r in records if "ab_run" in r]
    return {
        "runs": len(records),
        "seeds": sorted({r["context"]["seed"] for r in records}),
        "failed": sum(r["result"]["failed"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "context": context_line(records[0]["context"]),
        "metrics": metrics,
        "op_ms_p50_runs": [[r["context"]["seed"], r["result"]["metrics"]["op_ms_p50"]["value"]] for r in records],
        "cpu_s_runs": [[r["context"]["seed"], r["ab_run"]["cpu_s"]] for r in ab],
        "ab_run": {key: spread([r["ab_run"][key] for r in ab]) for key in AB_RUN} if ab else None,
        "pack_sha256": {seed: sorted(s) for seed, s in sorted(shas.items())},
    }


def traced_summary(records: list[dict]) -> dict:
    """Median of each TRACED metric over traced runs, and every missed patch point."""
    out = {"runs": len(records)}
    for name in TRACED:
        values = [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]
        if values:
            out[name] = statistics.median(values)
    out["missing_patch_points"] = sorted({p for r in records for p in r["context"].get("missing_patch_points", [])})
    return out


def paired_ratios(sides: dict, runs: str) -> list[float]:
    """change_k / parent_k of one per-run value ([seed, value] lists under
    `runs`): the k-th run of a seed on each side is one pair."""
    ratios = []
    for seed in set(sides["parent"]["seeds"]) & set(sides["change"]["seeds"]):
        before, after = ([v for s, v in sides[label][runs] if s == seed] for label in ("parent", "change"))
        ratios += [a / b for b, a in zip(before, after)]
    return ratios


def summarize(parent_all: list[dict], change_all: list[dict]) -> dict:
    parent, change = ([r for r in records if not is_traced(r)] for records in (parent_all, change_all))
    workloads = sorted({r["context"]["workload"] for r in parent} & {r["context"]["workload"] for r in change})
    out = {}
    for workload in workloads:
        sides, traced = {}, {}
        for label, records in (("parent", parent_all), ("change", change_all)):
            mine = [r for r in records if r["context"]["workload"] == workload]
            sides[label] = side_summary([r for r in mine if not is_traced(r)])
            if any(is_traced(r) for r in mine):
                traced[label] = traced_summary([r for r in mine if is_traced(r)])
        paired, paired_cpu = (paired_ratios(sides, key) for key in ("op_ms_p50_runs", "cpu_s_runs"))
        ratio = {
            name: sides["change"]["metrics"][name]["median"] / sides["parent"]["metrics"][name]["median"]
            for name in sides["parent"]["metrics"]
            if name in sides["change"]["metrics"] and sides["parent"]["metrics"][name]["median"] != 0
        }
        out[workload] = {
            "pairs": len(paired),
            "pairs_change_faster": sum(r < 1.0 for r in paired),
            "paired_op_ms_p50_ratio": spread(paired) if paired else None,
            "paired_cpu_s_ratio": spread(paired_cpu) if paired_cpu else None,
            **sides,
            "change_over_parent_median": ratio,
            "pack_sha256_equal": sides["parent"]["pack_sha256"] == sides["change"]["pack_sha256"],
        }
        if traced:
            out[workload]["traced"] = traced
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="directory with the parent's perfbench records")
    parser.add_argument("--change", required=True, help="directory with the change's perfbench records")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    parent, change = load_records(args.parent), load_records(args.change)
    if not any(not is_traced(r) for r in parent) or not any(not is_traced(r) for r in change):
        print("error: no untraced perfbench records under one of the directories", file=sys.stderr)
        return 2
    summary = summarize(parent, change)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    for workload, entry in summary.items():
        ratio = entry["change_over_parent_median"].get("op_ms_p50")
        shown = f"{ratio:.3f}x" if ratio is not None else "n/a"
        paired, cpu = (entry[key] for key in ("paired_op_ms_p50_ratio", "paired_cpu_s_ratio"))
        paired_shown, cpu_shown = (f"{p['median']:.3f}x (IQR {p['iqr']:.3f})" if p else "n/a" for p in (paired, cpu))
        print(
            f"{workload}: change faster in {entry['pairs_change_faster']} of {entry['pairs']} pairs, "
            f"op_ms_p50 {shown}, paired {paired_shown}, paired cpu_s {cpu_shown}, "
            f"pack_sha256 equal {entry['pack_sha256_equal']}"
        )
        for label, traced in entry.get("traced", {}).items():
            shown = ", ".join(f"{name} {traced[name]:.6g}" for name in TRACED if name in traced)
            print(f"{workload} traced {label}: {shown}; missing patch points {traced['missing_patch_points'] or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
