#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

Run from the root of the repository:

    python3 perfbench/tests/test_smoke.py

Each workload runs once untraced and once traced with --size tiny. The test
checks that every metric BENCHMARK.json names is printed with its unit, that
the per-layer self times add up to the measured host time, and that the
harness rejects a digest other than the simulated one.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("dense_euclid", "sharded_delta", "managed_churn")


def run(workload, trace, *extra):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = done.stdout.splitlines()
    return done.returncode, lines, done.stderr


def spec_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, lines, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        for name, unit in spec_metrics(trace).items():
            self.assertIn(name, metrics, f"{workload}: {name} not printed")
            self.assertEqual(metrics[name]["unit"], unit, f"{workload}: {name}")
        return metrics

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0)
                for name in spec_metrics(0):
                    self.assertGreater(metrics[name]["value"], 0, f"{workload}: {name}")

    def test_layer_times_add_up(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1)
                parts = sum(m["value"] for name, m in metrics.items()
                            if name.endswith(".self_ms"))
                total = metrics["host.measured_ms"]["value"]
                self.assertGreater(total, 0)
                self.assertAlmostEqual(parts, total, delta=1e-6 * total)

    def test_digest_mismatch_fails(self):
        code, lines, _ = run("dense_euclid", 0, "--expect-digest", "0000000000000000")
        self.assertNotEqual(code, 0)
        self.assertIs(json.loads(lines[-1])["correct"], False)


if __name__ == "__main__":
    unittest.main()
