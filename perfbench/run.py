#!/usr/bin/env python3
"""Builds and runs the Squirrel benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the benchmark binary's report, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.

Repeat mode (steadiness evidence):
    python3 perfbench/run.py --repeat 10 --workload NAME [--seed N] [--vary-seed]

reruns one workload in fresh processes, all on seed N (default 1), or on
seeds N, N+1, ... with --vary-seed, and prints for each end-to-end metric
and each per-op detail figure the median, quartiles, min/max and the
interquartile spread as a share of the median.

Run from the repository root. The first run configures and builds the
library and the benchmark binary into .bench_build/ with CMake.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "squirrel_perfbench")
WORKLOADS = ("register_churn", "boot_cold", "boot_warm")
DEFAULT_SEED = 1
# A run must finish within 180 s; leave room for interpreter start-up.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "squirrel_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(step))


def run_once(spec, workload, seed, seconds, trace, echo=True):
    """One benchmark run: returns (result object, per-op detail)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        raise BenchError("squirrel_perfbench exceeded the run budget: " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("squirrel_perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    main = json.loads(lines[-1])

    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in main["metrics"].items()}
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise BenchError("reported metrics do not match BENCHMARK.json: %s vs %s"
                         % (sorted(metrics), sorted(declared)))
    failed = main["threw"] + main["violations"]
    detail = {name: m["value"] for name, m in main["detail"].items()}
    detail["failed_op_ratio"] = failed / max(1, main["attempted"])
    result = {"correct": failed == 0, "attempted": main["attempted"],
              "failed": failed, "metrics": metrics}
    return result, detail


def repeat(spec, workload, runs, seed, vary_seed, seconds):
    """Reruns `workload` in fresh processes and summarizes each figure."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, failed = {}, 0
    seeds = [seed + i if vary_seed else seed for i in range(runs)]
    for run_seed in seeds:
        result, detail = run_once(spec, workload, run_seed, seconds, trace=False,
                                  echo=False)
        failed += result["failed"]
        row = {name: m["value"] for name, m in result["metrics"].items()}
        row.update(detail)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
        print("seed %d: %s" % (run_seed, json.dumps(row, sort_keys=True)), flush=True)
    print("\n%s: %d runs, seeds %s, %d failed ops or violations"
          % (workload, runs, "%d..%d" % (seeds[0], seeds[-1]) if vary_seed
             else "all %d" % seed, failed))
    print("%-30s %12s %12s %12s %12s %12s %8s %6s"
          % ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-30s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6s"
              % (name, med, q1, q3, min(vals), max(vals), spread,
                 "-" if bound is None else "%.2f" % bound))


def main():
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # squirrel_perfbench process it is waiting on before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="rerun the workload this many times (repeat mode)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="in repeat mode, run i uses seed N+i")
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        if args.repeat:
            repeat(spec, args.workload, args.repeat, args.seed, args.vary_seed,
                   args.seconds)
            return 0
        result, detail = run_once(spec, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (BenchError, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print("per-op detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
