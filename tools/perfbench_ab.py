#!/usr/bin/env python3
"""A/B two perfbench binaries in alternating pairs on one shared state dir.

    python3 tools/perfbench_ab.py --parent OLD/perfbench --change NEW/perfbench \\
        --workload pagerank-web --seed 90417 --seconds 24 --pairs 10 [--trace 0|1]

--workload takes one workload, a comma-separated list, or `all` (every
workload BENCHMARK.json declares, in its order); the pairs run per workload,
one workload after the other.

Each pair runs both binaries once on the same workload, seed and run length;
the side that runs first alternates from pair to pair, so a host that drifts
slower or faster over time does not favour either side. Both sides share one
--state-dir, so perfbench's cross-run fingerprint check (wire digest,
modeled_s, bytes, messages, supersteps) fails the run if the change moved
traffic. Build the binaries from each checkout first
(`cmake -S perfbench -B DIR -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
cmake --build DIR --target perfbench`).

For every metric it prints each side's median and quartiles, the change in
the medians, and the pairs the change won (ties count for neither side).
`gain` marks a metric where, over at least ten pairs, the change won nine
tenths of them and the medians differ by more than the parent's quartile
distance; `loss` is the same rule the other way round. Directions come from BENCHMARK.json. Stops
and exits 1 at the first run that fails or reports incorrect values. Traced
runs (--trace 1) report per-layer metrics only, so their tables have no
end-to-end rows; measure job_s, setup_s, solve_s and the rest at --trace 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def directions(bench):
    """Metric name -> "lower" / "higher"."""
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}


def workloads(spec, bench):
    """The workloads `spec` names: `all`, or a comma-separated list of declared names."""
    declared = [w["name"] for w in bench["workloads"]]
    if spec == "all":
        return declared
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in declared]
    if unknown or not names:
        sys.exit(f"unknown workload(s) {', '.join(unknown) or repr(spec)}; "
                 f"BENCHMARK.json declares {', '.join(declared)} (or use all)")
    return names


def run(binary, workload, args, state_dir):
    """One perfbench run; returns its metrics as {name: value}, or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--state-dir", state_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.stderr.write(proc.stderr)
        print(f"FAILED: {' '.join(cmd)} (exit {proc.returncode})", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(metric, better, parent, change):
    """One line: medians, quartiles, relative change, pairs won, verdict."""
    pm, cm = statistics.median(parent), statistics.median(change)
    (pq1, pq3), (cq1, cq3) = quartiles(parent), quartiles(change)
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    n = len(parent)
    rel = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
    verdict = ""
    if parent == change and len(set(parent)) == 1:
        verdict = "identical"
    elif n >= 10 and abs(cm - pm) > pq3 - pq1:
        if wins >= 0.9 * n:
            verdict = "gain"
        elif losses >= 0.9 * n:
            verdict = "loss"
    print(f"{metric:28s} {pm:12.6g} [{pq1:.6g}, {pq3:.6g}]  {cm:12.6g} [{cq1:.6g}, {cq3:.6g}]"
          f"  {rel:>8s}  {wins:2d}/{n} won  {verdict}")


def ab(workload, args, state_dir, better):
    """Alternating pairs on one workload, then its report; False at the first failed run."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            metrics = run(sides[side], workload, args, state_dir)
            if metrics is None:
                return False
            runs[side].append(metrics)
        shown = [f"{s} solve_s={runs[s][-1]['solve_s']:.4g}" for s in ("parent", "change")
                 if "solve_s" in runs[s][-1]]
        print(f"{workload} pair {pair + 1}/{args.pairs} ({order[0]} first) " + ", ".join(shown),
              flush=True)

    print(f"\n{workload} seed {args.seed}, {args.seconds} s runs, {args.pairs} pairs, "
          f"trace {args.trace}, state dir {state_dir}")
    if args.trace:
        print("trace 1: per-layer metrics only; end-to-end metrics (job_s, solve_s, ...) "
              "need --trace 0")
    print(f"{'metric':28s} {'parent median [q1, q3]':>36s}  {'change median [q1, q3]':>36s}"
          f"  {'change':>8s}  pairs")
    for metric, direction in better.items():
        if not all(metric in r for r in runs["parent"] + runs["change"]):
            continue
        report(metric, direction, [r[metric] for r in runs["parent"]],
               [r[metric] for r in runs["change"]])
    print(flush=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="perfbench binary of the parent commit")
    parser.add_argument("--change", required=True, help="perfbench binary of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--state-dir", help="shared perfbench state dir (default: a fresh one)")
    args = parser.parse_args()

    bench = benchmark()
    names = workloads(args.workload, bench)
    better = directions(bench)
    state_dir = args.state_dir or tempfile.mkdtemp(prefix="perfbench-ab-")
    os.makedirs(state_dir, exist_ok=True)
    for workload in names:
        if not ab(workload, args, state_dir, better):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
