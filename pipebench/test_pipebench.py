#!/usr/bin/env python3
"""The benchmark's own tests, at toy sizes (about a minute after the build).

Run from the repository root:
    python3 pipebench/test_pipebench.py

* Every workload in BENCHMARK.json, in both modes, emits exactly the metrics
  BENCHMARK.json names, each with its declared unit, with every output check
  passing and every end-to-end value non-zero.
* A deliberately corrupted output (one vertex dropped from the dominating set)
  fails the check named for the invariant it breaks and raises fail_rate
  above 0.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark directory clean
import run  # noqa: E402  (the benchmark's own build step)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BINARY = None


def run_toy(workload, trace, *extra):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--toy", *extra],
        capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


class ToyPass(unittest.TestCase):
    def check_mode(self, trace, declared):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc, r = run_toy(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"], proc.stderr)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(list(r["metrics"]), [m["name"] for m in declared])
                for m in declared:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertTrue(math.isfinite(got["value"]), m["name"])
                    if trace == 0:
                        self.assertNotEqual(got["value"], 0, m["name"])

    def test_end_to_end_metrics(self):
        self.check_mode(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_mode(1, SPEC["per_layer"])


class InjectedFault(unittest.TestCase):
    def test_dropped_mds_vertex_raises_fail_rate(self):
        proc, r = run_toy("apps-grid-36", 0, "--inject-fault", "mds-drop-vertex")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"] / r["attempted"], 0)
        self.assertIn("check FAILED: mds_dominates", proc.stderr)

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run([BINARY, "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit(2)
    unittest.main(verbosity=2)
