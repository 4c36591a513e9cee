#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is configured and built with CMake (Release) under
$CARGO_TARGET_DIR/wallbench, default .bench_build/wallbench.  Build output
goes to stderr; stdout carries only the benchmark's report, whose last line
is the JSON result.  Traced runs write their spans to the traces/
directory beside the build.  Any further arguments go to the benchmark
binary unchanged.  Exits non-zero, printing no result, when the library
sources are missing or the build or run fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", str(min(os.cpu_count() or 1, 4)),
             "--target", "wallbench"],
            stdout=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "skiptrie.h")):
        fail(f"library sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "wallbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    argv = [os.path.join(build_dir, "wallbench"), *sys.argv[1:], "--out-dir", trace_dir]
    try:
        rc = subprocess.run(argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
