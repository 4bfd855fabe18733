#!/usr/bin/env python3
"""Build and run the warped-slicer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is configured and built
(Release) under .bench_build/perfbench, incrementally after the first
run; build output goes to stderr. The benchmark's own stdout is passed
through, ending in the one-line JSON result; the traced run writes its
Chrome trace to .bench_build/perfbench/traces/.
The exit status is the benchmark's (0 ok, 1 a check failed, 2 usage),
or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A healthy run takes well under a minute; a stuck one is killed.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build(targets):
    """Configure and build `targets`; False on any failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target"]
             + targets]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Run `cmd` with stdout passed through; its exit status, or 1."""
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_test"]):
            return 1
        return run([os.path.join(BUILD, "perfbench_test")])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["wsl-perfbench"]):
        return 1
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    return run([os.path.join(BUILD, "wsl-perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--trace-out", trace_out])


if __name__ == "__main__":
    sys.exit(main())
