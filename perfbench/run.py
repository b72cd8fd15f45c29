#!/usr/bin/env python3
"""Builds and runs the c2mn end-to-end pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload live_pipeline --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the c2mn
library from src/ plus pipeline_bench) under $CARGO_TARGET_DIR or
.bench_build; later runs rebuild incrementally.  Build output goes to
stderr.  The harness self-test runs before the benchmark.  pipeline_bench's
stdout is passed through, so its last line is the result JSON.  Exits
non-zero when the sources are missing, the build or self-test fails, or
an output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("replay_decode", "live_pipeline")


def source_digest(root):
    """SHA-256 over the benchmarked sources, standing in for a commit id
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    # Only the checkout's own repository, never an enclosing one.
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def run_to_stderr(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "service", "annotation_service.h")):
        print("run.py: c2mn sources (src/) not found; run from the repository root",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_to_stderr(["cmake", "-S", here, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            print("run.py: cmake configure failed", file=sys.stderr)
            return 2
    if run_to_stderr(["cmake", "--build", build_dir, "-j4"]) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    if run_to_stderr([os.path.join(build_dir, "harness_selftest")]) != 0:
        print("run.py: harness self-test failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_root, "run"),
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
