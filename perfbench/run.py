#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark executable is built with
CMake (Release) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset; an up-to-date build is a no-op.  Build output
goes to standard error; standard output carries only the benchmark's own
lines, the last of which is the JSON result.  The traced run (--trace 1)
writes its spans to <build dir>/spans/<workload>-seed<N>.jsonl.

Exit codes: the benchmark's own (0 ok, 1 failed output check, 2 bad
input or set-up error), 3 when the build fails, 4 when the run overruns.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    """Configures (once) and builds the benchmark; returns the executable."""
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", BUILD_JOBS])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    directory = build_dir()
    try:
        executable = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 3

    command = [executable, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(directory, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
