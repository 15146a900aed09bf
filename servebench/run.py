#!/usr/bin/env python3
"""Build servebench (Release) from this checkout and run one measurement.

Usage, from the repository root:

    python3 servebench/run.py --workload exact_cold|hit_wire|mixed_open \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/servebench (default .bench_build/servebench);
the first run compiles the mpss library from src/, later runs only check it.
Build output goes to stderr, so the last line of stdout is the benchmark's
result record. Traced runs (--trace 1) write their spans under traces/ in the
build directory. The exit code is the benchmark's; a missing source tree or a
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "servebench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: no mpss sources at %s; run from a full checkout"
                 % os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "servebench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("servebench: build step failed: " + " ".join(step))
    return os.path.join(out, "servebench")


def main(argv):
    binary = build()
    trace_dir = os.path.join(build_dir(), "traces")
    try:
        done = subprocess.run([binary, *argv, "--trace-dir", trace_dir],
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
