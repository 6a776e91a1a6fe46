#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs.

    python3 mrpbench/test_bench.py

Smoke: every workload, untraced and traced, prints every metric of
BENCHMARK.json by name with its unit and passes its checks. Fault
injection: corrupting one expected output of each check makes that
workload report failures and lowers ok_ratio.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "mrpbench", "run.py")
FAULTS = {"catalog_synth": "catalog", "stream_run": "stream",
          "serve_mix": "serve"}
# Layer metrics each workload's traced run must measure (non-zero).
LAYERS = {"catalog_synth": ("core.optimize_ms", "core.build_tdf_ms",
                            "sim.verify_ms", "arch.emit_ms"),
          "stream_run": ("exec.run_ms", "exec.batch_run_ms", "rtl.sim_ms"),
          "serve_mix": ("cache.hits", "serve.server_p50_us")}


def run(workload, trace=0, fault="none"):
    r = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", "7", "--seconds", "1", "--trace",
                        str(trace), "--tiny", "--fault", fault],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_report(self, lines, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for m in declared:
            self.assertTrue(any(line.split()[:1] == [m["name"]] and
                                m["unit"] in line.split() for line in lines),
                            "%s not printed with its unit" % m["name"])

    def test_smoke_every_workload(self):
        for w in self.spec["workloads"]:
            for trace, declared in ((0, self.spec["end_to_end"]),
                                    (1, self.spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    lines, result = run(w["name"], trace)
                    self.check_report(lines, result, declared)
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        for m in result["metrics"].values():
                            self.assertGreater(m["value"], 0)
                        self.assertEqual(
                            result["metrics"]["ok_ratio"]["value"], 1)
                    else:
                        for name in LAYERS[w["name"]]:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_each_check_can_fail(self):
        for workload, fault in FAULTS.items():
            with self.subTest(workload=workload):
                _, result = run(workload, 0, fault)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
