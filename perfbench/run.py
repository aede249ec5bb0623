#!/usr/bin/env python3
"""End-to-end gyo_serve benchmark: builds, runs one workload, prints JSON.

    python3 perfbench/run.py --workload exec_heavy --seed 1 --seconds 30 --trace 0

Builds the repository's gyo_serve daemon and the perfbench_load program from
source (Release, into .bench_build/perfbench under the repository root),
then runs perfbench_load, which starts the daemon, drives it and checks every
answer. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Full records (host, guards,
all metrics) and the span file go to .bench_out/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exec_heavy", "replay_hot", "plan_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "gyo_serve",
         "perfbench_load", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the repository sources are not next to perfbench/",
              file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("perfbench: --seconds must be >= 1 and --seed >= 0",
              file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "perfbench_load"),
        "--server", os.path.join(build_dir, "gyo", "examples", "gyo_serve"),
        "--out", out_dir,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # perfbench_load's daemon child is killed with it (parent-death signal),
    # so terminating perfbench_load on timeout leaves no process behind.
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
