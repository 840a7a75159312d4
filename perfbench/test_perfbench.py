#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The workload tests use short mode (--short): all three workloads at small key
and column sizes, one set-up, one-second runs. The first test to run builds
the benchmark program (see run.py), which takes about a minute in a fresh
checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
# analyst_e2e is runnable and tested, but not among the workloads whose
# runs gate a change (see README.md).
WORKLOADS = ["analyst_e2e"] + [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
# Counts that depend only on the seed, never on timing.
EXACT_UNTRACED = ["wire_bytes_per_query"]
EXACT_TRACED = ["bigint.mont_ops_per_row", "net.frames_per_query",
                "cluster.upstream_redials"]


def run_short(workload, seed=7, trace="0", extra=(), run=RUN, env=None):
    """Runs one short workload; returns (exit code, result or None, stdout)."""
    done = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", trace, "--short"] + list(extra),
        capture_output=True, text=True, timeout=600, env=env)
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


class ShortRunTest(unittest.TestCase):

    def test_every_workload_answers_correctly_and_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = run_short(workload)
                self.assertEqual(code, 0, output)
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]), sorted(END_TO_END))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertIn("# fingerprint ", output)

    def test_traced_run_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = run_short(workload, trace="1")
                self.assertEqual(code, 0, output)
                self.assertEqual(sorted(result["metrics"]), sorted(PER_LAYER))
                self.assertIn("# self time per query", output)

    def test_wrong_expected_answer_fails_the_run(self):
        # The correctness check must be able to fail: with every expected
        # answer off by one, every query is a failure.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = run_short(
                    workload, extra=["--corrupt-expected"])
                self.assertNotEqual(code, 0, output)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])

    def test_exact_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            for trace, names in (("0", EXACT_UNTRACED), ("1", EXACT_TRACED)):
                with self.subTest(workload=workload, trace=trace):
                    runs = [run_short(workload, seed=11, trace=trace)
                            for _ in range(2)]
                    for code, _, output in runs:
                        self.assertEqual(code, 0, output)
                    for name in names:
                        first, second = (r[1]["metrics"][name]["value"]
                                         for r in runs)
                        self.assertEqual(first, second, name)

    def test_fails_without_a_result_when_the_sources_are_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            code, result, output = run_short(
                WORKLOADS[0], run=os.path.join(tmp, "perfbench", "run.py"),
                env=env)
            self.assertNotEqual(code, 0, output)
            self.assertIsNone(result)


def write_run(directory, workload, seed, metrics, cpu="test cpu", failed=0):
    fingerprint = {"workload": workload, "cpu_model": cpu, "nproc": 4,
                   "mont_backends": {"2048": "adx"}, "key_bits": 1024,
                   "build_type": "RelWithDebInfo", "seconds": 25,
                   "trace": False, "short": False, "seed": seed,
                   "commit": "x", "source_digest": "y"}
    result = {"correct": True, "attempted": 100, "failed": failed,
              "metrics": {name: {"value": value, "unit": "s"}
                          for name, value in metrics.items()}}
    path = os.path.join(directory, "%s-%d.txt" % (workload, seed))
    with open(path, "w") as f:
        f.write("# fingerprint %s\n%s\n" % (json.dumps(fingerprint),
                                            json.dumps(result)))


class CompareToolTest(unittest.TestCase):

    def compare(self, parent_values, change_values, cpu="test cpu"):
        """Runs compare.py on one query_p50_s value per run and seed."""
        with tempfile.TemporaryDirectory() as tmp:
            parent = os.path.join(tmp, "parent")
            change = os.path.join(tmp, "change")
            os.makedirs(parent)
            os.makedirs(change)
            for seed, (p, c) in enumerate(zip(parent_values, change_values)):
                write_run(parent, "w", seed, {"query_p50_s": p})
                write_run(change, "w", seed, {"query_p50_s": c}, cpu=cpu)
            done = subprocess.run([sys.executable, COMPARE, parent, change],
                                  capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout

    def verdict(self, output):
        for line in output.splitlines():
            if line.strip().startswith("query_p50_s"):
                return line.split("%")[-1].strip()
        return None

    def test_verdicts(self):
        parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        faster = [v * 0.8 for v in parent]
        same = [v * 1.01 for v in parent]
        slower = [v * 1.3 for v in parent]
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        self.assertEqual(self.verdict(self.compare(parent, faster)[1]),
                         "improved")
        self.assertEqual(self.verdict(self.compare(parent, same)[1]),
                         "no worse")
        code, output = self.compare(parent, slower)
        self.assertEqual(self.verdict(output), "worse")
        self.assertEqual(code, 1)
        self.assertEqual(self.verdict(self.compare(noisy, same)[1]),
                         "unresolved")

    def test_refuses_runs_from_different_hosts(self):
        code, output = self.compare([1.0] * 3, [1.0] * 3, cpu="other cpu")
        self.assertEqual(code, 2)
        self.assertIn("fingerprints differ in cpu_model", output)


if __name__ == "__main__":
    unittest.main()
