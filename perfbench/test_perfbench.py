#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then checks on every workload that
  * every metric a run prints is declared in BENCHMARK.json, for both the
    untraced (end-to-end) and the traced (per-layer) run;
  * the same seed gives identical counts, alerts and trace digests;
  * a different seed changes the trace digest.
Each toy run has a fixed epoch count, so counts are comparable across runs.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_point", "wide_faulty", "retro_replay")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--epochs", "4", "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s\n%s" % (
            " ".join(cmd), proc.returncode, proc.stdout[-3000:],
            proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = {}
    for line in lines:
        m = re.match(r"(trace_digest|alerts_digest): (\S+)(.*)", line)
        if m:
            digests[m.group(1)] = m.group(2) + m.group(3)
    return result, digests


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_workloads_are_declared(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS))

    def test_printed_metrics_are_declared(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, self.end_to_end), (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run(workload, 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], declared[name], name)

    def test_same_seed_same_outputs_other_seed_other_trace(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, d1 = run(workload, 7, 0)
                again, d2 = run(workload, 7, 0)
                other, d3 = run(workload, 8, 0)
                self.assertEqual(d1, d2)
                self.assertEqual(first["attempted"], again["attempted"])
                self.assertEqual(first["failed"], again["failed"])
                self.assertNotEqual(d1["trace_digest"], d3["trace_digest"])


if __name__ == "__main__":
    unittest.main()
