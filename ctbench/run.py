#!/usr/bin/env python3
"""Builds the ctbench binary from source and runs one workload.

Usage, from the repository root:

    python3 ctbench/run.py --workload flat|sharded|exhaustive \
        --seed N --seconds S --trace 0|1

The first run configures and compiles ctbench/CMakeLists.txt (the CloudTalk
libraries from src/ plus ctbench.cc) in Release mode under .bench_build/;
later runs only re-check the build. Build output goes to stderr. The
benchmark's own output is passed through, so the last line of stdout is its
JSON result. Exits non-zero, printing no result, when the sources are missing,
the build fails, or the benchmark fails or prints no JSON.

With --trace 0 the result also carries setup_s, the service's set-up time:
the mean over SETUP_PROCESSES fresh `ctbench --setup-only 1` processes of
each one's median construction time. One process reads about 50 us or about
75 us for its whole life, so a single process would make the figure jump
between those two from run to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ctbench")
BINARY = os.path.join(BUILD_DIR, "ctbench")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 7


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ctbench: no CloudTalk sources under " + ROOT, file=sys.stderr)
        return False
    steps = [["cmake", "--build", BUILD_DIR, "--target", "ctbench", "-j", BUILD_JOBS]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("ctbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_binary(flags, deadline):
    """Runs the binary; returns (stdout, parsed last line) or None on failure."""
    command = [BINARY] + flags
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("ctbench: timed out: " + " ".join(command), file=sys.stderr)
        return None
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("ctbench: benchmark exited with %d" % run.returncode, file=sys.stderr)
        return None
    try:
        return run.stdout, json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print("ctbench: last line is not a JSON result", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    main_run = run_binary(workload + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
    if main_run is None:
        return 1
    stdout, result = main_run
    lines = stdout.strip().splitlines()
    if args.trace == 0:
        setups = []
        for _ in range(SETUP_PROCESSES):
            setup_run = run_binary(workload + ["--setup-only", "1"], deadline)
            if setup_run is None:
                return 1
            setups.append(setup_run[1]["metrics"]["setup_s"]["value"])
        lines.insert(-1, "  set-up per process (s): " +
                     " ".join("%.6f" % s for s in setups))
        result["metrics"]["setup_s"] = {"value": statistics.fmean(setups), "unit": "s"}
        lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
