#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures and builds perfbench/ (which compiles the
library from src/) in Release mode under $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild only what changed. Build logs go to
stderr. The benchmark's stdout passes through: its last line is the
result JSON. A traced run also writes its spans to
<build dir>/spans/<workload>.csv.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("signature-d21", "stream-d21", "fabric-chaos-d5")
BUILD_TIMEOUT_S = 700


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join("src", "api", "run.hpp")):
        print("perfbench: no library sources under ./src; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, args.workload + ".csv")]
    # A run overshoots --seconds only by its minimum repeat counts and
    # the untimed audit pass; the cap keeps it under three minutes.
    timeout = min(170.0, 3 * args.seconds + 60)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
