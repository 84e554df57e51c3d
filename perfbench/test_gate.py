#!/usr/bin/env python3
"""Proves perfbench's gate can fail: synthetic results, no benchmark runs.

    python3 perfbench/test_gate.py
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402

BENCH = {
    "workloads": [{"name": "serve_realtime", "why": "w"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "label_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_reports_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def run(seed, latency=1.0, throughput=1000.0, setup=0.2, failed=0, attempted=100,
        labels="aaaa", correct=True):
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"setup_s": {"value": setup, "unit": "s"},
                          "label_latency_p50_ms": {"value": latency, "unit": "ms"},
                          "throughput_reports_per_s": {"value": throughput, "unit": "1/s"}}}
    return seed, result, {"labels_digest": labels + str(seed)}


def runs(**kwargs):
    return {"serve_realtime": [run(seed, **kwargs) for seed in range(1, 6)]}


class GateTest(unittest.TestCase):
    def test_identical_inputs_pass(self):
        self.assertEqual(gate.compare(BENCH, runs(), runs()), [])

    def test_change_within_bound_passes(self):
        self.assertEqual(gate.compare(BENCH, runs(), runs(latency=1.05, throughput=950.0)), [])

    def test_latency_worse_beyond_bound_fails(self):
        findings = gate.compare(BENCH, runs(), runs(latency=1.2))
        self.assertEqual(len(findings), 1)
        self.assertIn("label_latency_p50_ms worse", findings[0])

    def test_throughput_worse_beyond_bound_fails(self):
        findings = gate.compare(BENCH, runs(), runs(throughput=850.0))
        self.assertEqual(len(findings), 1)
        self.assertIn("throughput_reports_per_s worse", findings[0])

    def test_improvement_passes(self):
        self.assertEqual(gate.compare(BENCH, runs(), runs(latency=0.5, throughput=2000.0)), [])

    def test_setup_worse_beyond_its_bound_fails(self):
        findings = gate.compare(BENCH, runs(), runs(setup=0.3))
        self.assertEqual(len(findings), 1)
        self.assertIn("setup_s", findings[0])

    def test_label_mismatch_fails(self):
        head = runs()
        seed, result, _ = head["serve_realtime"][2]
        head["serve_realtime"][2] = (seed, result, {"labels_digest": "bbbb"})
        findings = gate.compare(BENCH, runs(), head)
        self.assertEqual(findings, ["serve_realtime seed 3: labels differ from base"])

    def test_failed_share_rise_fails(self):
        head = runs()
        head["serve_realtime"][0] = run(1, failed=1)
        findings = gate.compare(BENCH, runs(), head)
        self.assertEqual(len(findings), 1)
        self.assertIn("failed_share rose", findings[0])

    def test_incorrect_run_fails(self):
        head = runs()
        head["serve_realtime"][4] = run(5, correct=False)
        findings = gate.compare(BENCH, runs(), head)
        self.assertEqual(findings, ["serve_realtime seed 5: run is not correct"])

    def test_missing_workload_fails(self):
        self.assertEqual(gate.compare(BENCH, runs(), {}), ["serve_realtime: no runs"])

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(gate.spread([1.0, 2.0, 3.0, 4.0, 5.0]), (4.5 - 1.5) / 3.0)

    def test_parse_run_takes_last_line_and_detail(self):
        text = "\n".join([
            "perfbench serve_realtime",
            gate.DETAIL_PREFIX + json.dumps({"labels_digest": "x"}),
            json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}),
        ])
        result, detail = gate.parse_run(text)
        self.assertTrue(result["correct"])
        self.assertEqual(detail["labels_digest"], "x")

    def test_benchmark_json_meets_its_limits(self):
        bench = gate.load_bench()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in bench["end_to_end"]), setup[0]["bound"])
        self.assertTrue(all(m["bound"] <= 0.25 for m in bench["end_to_end"]))
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)


if __name__ == "__main__":
    unittest.main()
