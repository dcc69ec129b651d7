#!/usr/bin/env python3
"""Builds and runs the Quilt host-time benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload <invoke_saturated|controller_loop|decide_compile>
                           --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (Release) into .bench_build/perfbench, runs
one workload, and prints as its last line one JSON object:
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics; the traced run also writes its spans to
.bench_build/traces/<workload>-seed<n>.jsonl.

On the default seed the simulated outputs must equal perfbench/expected.json
exactly; each mismatch counts as a failed operation. Every seed prints its
sim_digest, so two commits can be diffed on any seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 1
TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def compare_expected(workload, outputs):
    """Returns the list of output keys whose value differs from expected.json."""
    with open(EXPECTED, encoding="utf-8") as f:
        expected = json.load(f).get(workload)
    if expected is None:
        return ["<no expected values for %s>" % workload]
    keys = sorted(set(expected) | set(outputs))
    return [k for k in keys if expected.get(k) != outputs.get(k)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["invoke_saturated", "controller_loop", "decide_compile"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-expected", action="store_true",
                        help="store this run's outputs as the workload's expected values "
                             "(default seed only; for a change that alters simulated outputs)")
    args = parser.parse_args()
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error("--update-expected needs --seed %d" % DEFAULT_SEED)

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print("perfbench: benchmark exited with %d" % done.returncode, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    failed = result["failed"]
    attempted = result["attempted"]
    if args.update_expected:
        expected = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED, encoding="utf-8") as f:
                expected = json.load(f)
        expected[args.workload] = result["outputs"]
        with open(EXPECTED, "w", encoding="utf-8") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.seed == DEFAULT_SEED:
        mismatches = compare_expected(args.workload, result["outputs"])
        attempted += 1
        for key in mismatches:
            print("EXPECTED VALUE MISMATCH: %s" % key)
        failed += 1 if mismatches else 0
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
