#!/usr/bin/env python3
"""Build and run the balign benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-matrix --seed 1 \
        --seconds 28 --trace 0

Workloads: paper-matrix, emit-check, static-estimate (see
BENCHMARK.json for why each exists). The first call configures and builds
perfbench/ (which compiles the balign library from src/) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is 0 only when the build succeeded
and every checked output was correct.

--trace 1 gives the per-layer metrics and writes the spans of the traced
passes to .bench_build/perfbench/spans-<workload>-seed<seed>.json.

--tiny (three programs, short traces) and --inject-swap (corrupts one
layout so the correctness gate must fail) exist for perfbench/tests.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "balign_perfbench"
# A run must end within 180 s; the build is not counted against this.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: balign sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-matrix", "emit-check",
                                 "static-estimate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-swap", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    if not build():
        return 2

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(BUILD / "spans-{}-seed{}.json".format(
            args.workload, args.seed))]
    if args.tiny:
        command.append("--tiny")
    if args.inject_swap:
        command.append("--inject-swap")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded {} s".format(RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
