#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload kv-stub --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench (the src/ libraries plus
perfbench.cpp) under .bench_build/perfbench/ at the repository root; later
calls only rebuild what changed. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list; any other set of names, or a failed output check, exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds the benchmark target; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    if args.workload not in [w["name"] for w in config["workloads"]]:
        fail("unknown workload " + args.workload)
    section = config["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}

    build()
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(trace_dir, args.workload + ".json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result", 1)
    result = json.loads(lines[-1])

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys", 1)
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not correct", 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        relabelled = sorted(n for n in set(printed) & set(expected)
                            if printed[n] != expected[n])
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, relabelled), 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
