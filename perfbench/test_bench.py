#!/usr/bin/env python3
"""The benchmark's own tests: python3 perfbench/test_bench.py

Reduced-size runs (small plans, short rounds) of every workload, untraced
and traced, through perfbench/run.py:

- every run emits every metric BENCHMARK.json names for its mode, with the
  right unit and a finite value, and passes its output checks;
- two seeds give the same metric set, and the exact-repeat values
  (model digests, model_err_pct, plan counts) do not depend on the seed;
- a deliberately wrong expected digest or estimate trips the output check:
  the run reports correct=false and exits non-zero.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, sabotage=None):
    """One reduced run; returns (exit code, final JSON, exact-repeat values)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--seconds", "1", "--reduced"]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    exact = next(json.loads(line[len("exact: "):]) for line in lines
                 if line.startswith("exact: "))
    return proc.returncode, json.loads(lines[-1]), exact


class MetricContract(unittest.TestCase):
    def check_metrics(self, result, trace):
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, metric["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run(workload, seed=1, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, trace)

    def test_two_seeds_same_metric_set_and_exact_values(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, exact_first = run(workload, seed=3)
                _, second, exact_second = run(workload, seed=4)
                self.assertEqual(list(first["metrics"]), list(second["metrics"]))
                self.assertEqual(exact_first, exact_second)


class OutputChecks(unittest.TestCase):
    def assert_tripped(self, workload, sabotage):
        code, result, _ = run(workload, sabotage=sabotage)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_digest_trips_characterization_checks(self):
        for workload in ("char_event", "char_corners_emul", "fleet_emul"):
            with self.subTest(workload=workload):
                self.assert_tripped(workload, "digest")

    def test_wrong_estimate_trips_estimate_checks(self):
        for workload in ("char_event", "serve_churn"):
            with self.subTest(workload=workload):
                self.assert_tripped(workload, "estimate")


if __name__ == "__main__":
    unittest.main(verbosity=2)
