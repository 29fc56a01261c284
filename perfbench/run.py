#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <small_inproc|bulk_inproc> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr. The run's readable table goes to
stderr, its full result file to perfbench/results/, and its last stdout line
is the JSON result: {"correct", "attempted", "failed", "metrics"}.

Provenance handed to the run: the git commit when the tree is a git checkout
("unknown" otherwise) and a SHA-256 over the sources the benchmark builds
from, which identifies the code even where git is absent.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("small_inproc", "bulk_inproc")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

# What the benchmark binary is built from: its own sources plus the
# workspace crates and offline shims it depends on by path.
SOURCE_GLOBS = (
    "Cargo.toml",
    "Cargo.lock",
    "crates/**/*.rs",
    "crates/**/Cargo.toml",
    "shims/**/*.rs",
    "shims/**/Cargo.toml",
    "perfbench/Cargo.toml",
    "perfbench/Cargo.lock",
    "perfbench/src/**/*.rs",
)


def source_hash():
    digest = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--manifest-path",
        str(BENCH / "Cargo.toml"),
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"build failed with exit code {proc.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(BENCH / "results"),
        "--commit", commit(),
        "--source-hash", source_hash(),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
