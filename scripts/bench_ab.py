"""Alternate perfbench runs of a parent commit and the working tree, then summarize them.

    python3 scripts/bench_ab.py --parent REV --root DIR --out BENCH_<n>.json \\
        --workload serve-mixed-short --workload serve-long --seeds 0 1 2 3 4 --seconds 20

The parent commit (`git archive REV`) and the working tree (tracked and
untracked, non-ignored files as they are on disk) are copied into the
sibling directories DIR/parent and DIR/change, so both sides run from a
fresh directory of the same depth: serve timings have been seen to differ
by a few percent between a checkout's own directory and a copy of it. For
each seed and workload, one untraced run (`perfbench/run.py --trace 0`, from
the tree's root) of each side makes a pair, and the side that goes first
alternates from one pair of a workload to the next. Each pair line prints the
1-minute load average taken just before the run, so a run beside another
busy process stands out, and the run's wall and CPU seconds and peak memory.
CPU seconds and peak memory come from the run's `os.wait4` usage, which
covers every process the run waited for: CPU seconds are summed over them,
so a speedup bought with more processes shows its cost there; the peak
(`max_rss_mb`) is the largest resident set of any one of them, not their
sum, so worker processes beside the run's own show only when one of them
outgrows it. All three go into the run's record under "ab_run". With
--traced, one traced run (`--trace 1`, first seed) of each side and workload
follows the pairs; its per-layer metrics go into --out next to the
end-to-end ones. The records are kept under DIR/records/<side>/, and
scripts/bench_summary.py turns them into --out.
DIR must be new or empty. Standard library only; needs git on PATH.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import time

import bench_summary

HERE = os.path.dirname(os.path.abspath(__file__))


def git(repo: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", repo, *args], check=True, stdout=subprocess.PIPE).stdout


def copy_commit(repo: str, rev: str, dest: str) -> None:
    """The files of commit `rev`, as `git archive` gives them."""
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_worktree(repo: str, dest: str) -> None:
    """Tracked and untracked, non-ignored files as they are on disk."""
    listed = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for rel in sorted({os.fsdecode(raw) for raw in listed if raw}):
        source = os.path.join(repo, rel)
        if os.path.isfile(source):  # a tracked file deleted in the working tree is left out
            target = os.path.join(dest, rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: str, workload: str, seed: int, seconds: float, records: str, trace: int) -> str:
    """One perfbench run of `tree`; moves its record into `records`, with
    the run's wall seconds, CPU seconds (user plus system, of the run and
    every process it waited for) and largest resident set of any of those
    processes added under "ab_run"."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall, proc.returncode = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    os.makedirs(records, exist_ok=True)
    path = shutil.move(os.path.join(tree, "perfbench", "_out", name), os.path.join(records, name))
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    record["ab_run"] = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "max_rss_mb": usage.ru_maxrss / 1024.0}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree against")
    parser.add_argument("--root", required=True, help="new or empty scratch directory for the two copies")
    parser.add_argument("--out", required=True, help="summary JSON to write (BENCH_<n>.json)")
    parser.add_argument("--workload", action="append", required=True, help="a perfbench workload; repeatable")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed and workload")
    parser.add_argument("--seconds", type=float, required=True, help="seconds per run")
    parser.add_argument("--traced", action="store_true", help="add one --trace 1 run per side and workload")
    parser.add_argument("--repo", default=os.path.dirname(HERE), help="checkout to copy (default: this script's)")
    args = parser.parse_args(argv)
    if os.path.exists(args.root) and os.listdir(args.root):
        print(f"error: {args.root} is not empty", file=sys.stderr)
        return 2
    trees = {side: os.path.join(args.root, side) for side in ("parent", "change")}
    copy_commit(args.repo, args.parent, trees["parent"])
    copy_worktree(args.repo, trees["change"])

    records = os.path.join(args.root, "records")
    for k, seed in enumerate(args.seeds):
        # Per workload, the side that runs first alternates from pair to pair.
        for workload in args.workload:
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                pair = os.path.join(records, side, f"pair{k:03d}")
                load1 = os.getloadavg()[0]  # a second busy process on the machine shows here
                path = run_once(trees[side], workload, seed, args.seconds, pair, 0)
                with open(path, encoding="utf-8") as f:
                    record = json.load(f)
                op_ms, run = record["result"]["metrics"]["op_ms_p50"]["value"], record["ab_run"]
                print(
                    f"pair {k} {workload} seed {seed} {side}: op_ms_p50 {op_ms:.3f} ms, load1 {load1:.2f}, "
                    f"wall {run['wall_s']:.2f} s, cpu {run['cpu_s']:.2f} s, max rss {run['max_rss_mb']:.1f} MB",
                    flush=True,
                )
    for workload in args.workload if args.traced else ():
        for side in ("parent", "change"):
            run_once(trees[side], workload, args.seeds[0], args.seconds, os.path.join(records, side, "traced"), 1)
            print(f"traced {workload} seed {args.seeds[0]} {side}", flush=True)
    parent, change = (os.path.join(records, side) for side in ("parent", "change"))
    return bench_summary.main(["--parent", parent, "--change", change, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
