#!/usr/bin/env python3
"""Build and run the host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Builds perfbench/ (which compiles the program's libraries from src/) into
.bench_build/perfbench, then runs one workload. The last line of standard
output is the result JSON. `--workload all` runs every workload in turn.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STATE = os.path.join(BUILD, "state")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["pagerank-web", "sssp-road", "pagerank-hama", "pagerank-powergraph"]


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_one(workload, args):
    """Runs the binary; returns (exit code, last stdout line)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--state-dir", STATE]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    os.makedirs(STATE, exist_ok=True)
    if args.workload != "all":
        code, _ = run_one(args.workload, args)
        return code

    failed = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, last = run_one(workload, args)
        result = json.loads(last) if code == 0 else {}
        if code != 0 or not result.get("correct"):
            failed += 1
    print(f"== {len(WORKLOADS) - failed}/{len(WORKLOADS)} workloads correct")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
