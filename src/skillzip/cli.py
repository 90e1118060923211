"""Command-line surface: compress, eval, bench, baseline, diag, gen-synth.

Exit codes: 0 on success, 2 on validation errors (bad arguments, shape or
precondition failures, unknown labels or methods), 3 on IO and file-format
errors. Reports print as a plain-text table on stdout and can additionally
be written as JSON via --json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import archive, bench, evaluate, fixtures, packio, routing
from .deltas import extract_delta
from .errors import FormatError, SkillzipError, ValidationError
from .pipeline import PipelineConfig, compress


def _load_archive(path: str) -> dict[str, np.ndarray]:
    return dict(archive.read_archive(path))


def _load_config(args) -> PipelineConfig:
    if args.config:
        with open(args.config, "rb") as f:
            config = PipelineConfig.from_json(f.read())
    else:
        config = PipelineConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _emit_report(report: evaluate.FidelityReport, json_path: str | None) -> None:
    print(report.to_text_table())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        print(f"wrote {json_path}")


def cmd_gen_synth(args) -> int:
    suite = fixtures.make_suite(
        seed=args.seed if args.seed is not None else 0,
        n_tasks=args.tasks,
        n_layers=args.layers,
        c_in=args.channels,
        c_out=args.cout or args.channels,
        calib_tokens=args.tokens,
        eval_tokens=args.tokens,
        outlier_channels=args.outliers,
        outlier_ratio=args.ratio,
    )
    files = [("base", suite.base), *suite.tuned.items(), ("calib", suite.calib), ("eval", suite.eval_x)]
    for _, entries in files:  # a refused input writes nothing
        archive.validate_entries(sorted(entries.items()))
    os.makedirs(args.out, exist_ok=True)
    for stem, entries in files:
        archive.write_archive(os.path.join(args.out, f"{stem}.ftz"), sorted(entries.items()))
    print(f"wrote base, {len(suite.tuned)} tuned sets, calib, eval under {args.out}")
    return 0


def cmd_compress(args) -> int:
    config = _load_config(args)
    base = _load_archive(args.base)
    tuned = {}
    for path in args.tuned:
        task_id = os.path.splitext(os.path.basename(path))[0]
        tuned[task_id] = _load_archive(path)
    calib = _load_archive(args.calib)

    result = compress(base, tuned, calib, config)
    os.makedirs(args.out, exist_ok=True)
    archive.write_archive(os.path.join(args.out, "backbone.ftz"), sorted(result.backbone.items()))
    for task_id, pack in result.packs.items():
        pack_path = os.path.join(args.out, f"{task_id}.skz")
        packio.write_skillpack(pack, pack_path)
        print(f"{task_id}: {len(pack.layers)} layers, compression ratio {pack.manifest.compression_ratio:.2f} -> {pack_path}")
    with open(os.path.join(args.out, "config.json"), "w", encoding="utf-8") as f:
        f.write(config.to_canonical_json())
    return 0


def cmd_eval(args) -> int:
    backbone = _load_archive(args.backbone)
    tuned = _load_archive(args.tuned)
    pack = packio.read_skillpack(args.pack)
    eval_x = _load_archive(args.activations)
    reference = extract_delta(backbone, tuned, pack.task_id).layers
    report = evaluate.eval_pack(pack, reference, eval_x)
    _emit_report(report, args.json)
    return 0


def cmd_baseline(args) -> int:
    config = _load_config(args)
    base = _load_archive(args.base)
    tuned = _load_archive(args.tuned)
    calib = _load_archive(args.calib)
    eval_x = _load_archive(args.activations)
    report = evaluate.run_baseline(args.method, base, tuned, calib, eval_x, config)
    _emit_report(report, args.json)
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValidationError(f"--repeats must be >= 1, got {args.repeats}")
    backbone = _load_archive(args.backbone)
    packs = [packio.read_skillpack(p) for p in args.pack]
    target = args.layer or sorted(backbone.keys())[0]
    registry = routing.SkillRegistry(backbone=backbone, target_layer=target, packs={p.task_id: p for p in packs})

    batch = routing.load_request_stream(args.stream)
    if not batch.requests:
        print("empty request stream; nothing to measure")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                json.dump({"requests": 0}, f)
        return 0

    outputs = routing.dispatch_batch(batch, registry)
    if args.out:
        routing.write_outputs(outputs, args.out)

    dispatch_s = bench.time_callable(lambda: routing.dispatch_batch(batch, registry), repeats=args.repeats)
    tokens = sum(req.x.shape[0] for req in batch.requests)
    w = backbone[target]
    ranks = {p.task_id: p.layers[target].rank for p in packs}
    body = {
        "requests": len(batch.requests),
        "tokens": tokens,
        "dispatch_seconds_median": dispatch_s,
        "request_throughput_per_s": len(batch.requests) / dispatch_s if dispatch_s > 0 else None,
        "token_throughput_per_s": tokens / dispatch_s if dispatch_s > 0 else None,
        "latency_ms_per_token": 1000.0 * dispatch_s / tokens if tokens else None,
        "flops": {
            "dense_delta_per_token": bench.flops_dense(1, *w.shape),
            "lowrank_per_token": {t: bench.flops_lowrank(1, *w.shape, r) for t, r in sorted(ranks.items())},
            "ratio": {t: bench.flop_ratio(*w.shape, r) for t, r in sorted(ranks.items())},
        },
    }
    print(f"requests: {body['requests']}   tokens: {body['tokens']}")
    print(f"dispatch median: {dispatch_s:.6f} s   tokens/s: {body['token_throughput_per_s']:.1f}")
    print(f"latency: {body['latency_ms_per_token']:.4f} ms/token")
    for t in sorted(ranks):
        print(f"  {t}: dense/lowrank multiply-add ratio {body['flops']['ratio'][t]:.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(body, f, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def cmd_diag(args) -> int:
    a = _load_archive(args.delta_a)
    b = _load_archive(args.delta_b)
    if args.base:
        base = _load_archive(args.base)
        a = extract_delta(base, a, "a").layers
        b = extract_delta(base, b, "b").layers
    cosine, sign = evaluate.delta_similarity(a, b)
    print(f"cosine: {cosine:.6f}")
    print(f"sign_consistency: {sign:.6f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"cosine": cosine, "sign_consistency": sign}, f, indent=2, sort_keys=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skillzip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline config JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("gen-synth", help="write a synthetic base/tuned/calib/eval fixture set")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=3)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--channels", type=int, default=256)
    p.add_argument("--cout", type=int, default=None)
    p.add_argument("--tokens", type=int, default=64)
    p.add_argument("--outliers", type=int, default=6)
    p.add_argument("--ratio", type=float, default=100.0)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("compress", help="compress tuned weight sets into backbone + skillpacks")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--tuned", action="append", required=True, help="repeatable; task id is the file stem")
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="fidelity of one skillpack against the float oracle")
    p.add_argument("--backbone", required=True)
    p.add_argument("--tuned", required=True, help="the tuned archive this pack was built from")
    p.add_argument("--pack", required=True)
    p.add_argument("--activations", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="run a named baseline compressor, same report schema")
    common(p)
    p.add_argument("--method", required=True, choices=sorted(evaluate.BASELINES))
    p.add_argument("--base", required=True)
    p.add_argument("--tuned", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--activations", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="dispatch a request stream and report timings + FLOPs")
    p.add_argument("--backbone", required=True)
    p.add_argument("--pack", action="append", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--layer", default=None, help="serving layer (default: first backbone entry)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default=None, help="write outputs as an FTZ archive keyed by index")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diag", help="cosine and sign consistency between two deltas")
    p.add_argument("--delta-a", required=True)
    p.add_argument("--delta-b", required=True)
    p.add_argument("--base", default=None, help="treat inputs as tuned archives relative to this base")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SkillzipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
