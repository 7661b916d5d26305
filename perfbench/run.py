#!/usr/bin/env python3
"""Host-performance benchmark of the ROIA simulation.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dense_euclid --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the harness plus the libraries under src/) as an optimized
CMake package in .bench_build/perfbench on first use, then runs one workload.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics, in the form

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}

Every metric named for that mode in BENCHMARK.json must be present with its
unit. The exit code is non-zero when the build fails, the harness fails a
correctness check, or the result is malformed. Extra arguments (--size tiny,
--expect-digest HEX) are passed to the harness.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "roia_perfbench")
# A run must end within 180 s; the harness gets slightly less.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return os.path.exists(BINARY)


def launcher():
    """Prefix that runs the harness with address-space randomization off, so
    code and heap layout do not change between runs; empty where setarch is
    missing or not permitted."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run([*prefix, "true"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the problems with the harness's result line (empty when valid)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"last line is not JSON: {error}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly the keys correct, attempted, failed, metrics"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, unit in expected_metrics(trace).items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}, want {unit}")
    if result["correct"] is not True:
        problems.append("the harness reported an incorrect simulation")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    if not build():
        return 1

    command = [*launcher(), BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, ROIA_BENCH_THREADS="1")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.splitlines()
    if not lines:
        log(f"harness printed nothing (exit code {done.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], args.trace)
    for problem in problems:
        log(problem)
    print(lines[-1], flush=True)
    if done.returncode != 0:
        log(f"harness exit code {done.returncode}")
        return done.returncode
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
