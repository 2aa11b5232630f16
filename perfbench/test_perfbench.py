#!/usr/bin/env python3
"""Tests of the benchmark itself, on test-sized inputs.

    python3 perfbench/test_perfbench.py

Each workload must print exactly the metrics BENCHMARK.json names, with their
units, in both modes; and a wrong kernel registered over a real one must make
verification fail with no metrics printed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def bench(workload, trace=0, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "3", "--seconds", "0", "--trace",
               str(trace), "--tiny"] + list(extra)
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricContract(unittest.TestCase):
    def check(self, workload, trace, section):
        done = bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = last_json(done.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, "end_to_end")
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0,
                                       m["name"])

    def test_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")


class WrongKernel(unittest.TestCase):
    KERNELS = {"paper-sweep": "gemm.gemm",
               "service-stream": "perfbench.infer",
               "resident-chain": "perfbench.matmul"}

    def test_wrong_kernel_fails_verification(self):
        for workload, kernel in self.KERNELS.items():
            with self.subTest(workload=workload):
                done = bench(workload, 0, ["--break-kernel", kernel])
                self.assertEqual(done.returncode, 3, done.stderr)
                self.assertIn("verification failed", done.stderr)
                self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
