#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. It builds the benchmark (`perfbench/`, a
cargo package of its own) into $CARGO_TARGET_DIR (default `.bench_build`),
generates the workload's graph for the seed into `.bench_data/` unless it
is there already, then measures. Generation runs in its own process, so it
is outside every timed region and outside the peak-memory figure. Each run
gets a fresh work directory (daemon socket, ASUL logs), removed afterwards.
The last line of standard output is the result object.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = {
    "cluster-gr01x16": "gr01x16",
    "explore-gr02x8": "gr02x8",
    "live-gr02x2": "gr02x2",
}
# Graph files kept per graph kind; older seeds are deleted.
KEEP_GRAPHS = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(root):
    manifest = root / "perfbench" / "Cargo.toml"
    if not (root / "crates").is_dir():
        fail("no crates/ directory: run from the repository root")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build")))
    if not target.is_absolute():
        target = root / target
    res = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                          "--manifest-path", str(manifest)],
                         cwd=root, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return target / "release" / "anyscan-perfbench"


def graph_file(binary, data, workload, seed):
    kind = WORKLOADS[workload]
    path = data / f"{kind}-seed{seed}.bin"
    if path.exists():
        os.utime(path)
        return path
    tmp = data / f"{kind}-seed{seed}.bin.tmp{os.getpid()}"
    res = subprocess.run([str(binary), "gen", "--workload", workload,
                          "--seed", str(seed), "--out", str(tmp)],
                         stdout=sys.stderr)
    if res.returncode != 0:
        tmp.unlink(missing_ok=True)
        fail("graph generation failed")
    os.replace(tmp, path)
    old = sorted(data.glob(f"{kind}-seed*.bin"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-KEEP_GRAPHS]:
        stale.unlink(missing_ok=True)
    return path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = Path.cwd()
    binary = build(root)
    data = root / ".bench_data"
    data.mkdir(exist_ok=True)
    graph = graph_file(binary, data, args.workload, args.seed)
    work = data / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        # Relative paths keep the daemon's socket path short.
        res = subprocess.run([str(binary), "measure",
                              "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", args.trace,
                              "--graph", str(graph.relative_to(root)),
                              "--work", str(work.relative_to(root)),
                              "--git-sha", git_sha(root)],
                             cwd=root, capture_output=True, text=True, timeout=175)
        spans = work / "spans.jsonl"
        if spans.exists():
            shutil.copy(spans, data / f"spans-{args.workload}.jsonl")
    except subprocess.TimeoutExpired:
        fail("measurement did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(res.stdout)
        fail(f"measurement failed (exit {res.returncode})")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
