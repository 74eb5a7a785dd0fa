#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny size.

    python3 lmibench/test_lmibench.py

Builds the driver the way run.py does, then checks that every metric
BENCHMARK.json names is emitted with its unit, that the simulated
counts repeat exactly across runs, that the CLIs reject bad input, and
that the trace report accounts for the traced pass.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402
import run  # noqa: E402

EXACT_COUNTS = ("sim.warp_insts", "sim.cycles", "security.coverage_cells",
                "alloc.ops")


class LmibenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.end_to_end, cls.per_layer = run.metric_spec()
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def drive(self, workload, seed, traced):
        """Run the driver at tiny size; returns (result, trace or None)."""
        stem = os.path.join(self.tmp.name,
                            f"{workload}-{seed}-{int(traced)}")
        cmd = [self.driver, "--workloads", workload, "--seed", str(seed),
               "--seconds", "0.01", "--size", "tiny",
               "--json", stem + ".json"]
        if traced:
            cmd += ["--trace", stem + ".trace.json"]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        with open(stem + ".json") as f:
            result = json.load(f)["workloads"][0]
        trace = None
        if traced:
            with open(stem + ".trace.json") as f:
                trace = json.load(f)
            run.add_self_times(result, trace, self.per_layer)
        return result, trace

    def test_every_metric_emitted_with_unit(self):
        for workload in run.WORKLOADS:
            for traced, wanted in ((False, self.end_to_end),
                                   (True, self.per_layer)):
                result, _ = self.drive(workload, 1, traced)
                self.assertEqual(result["failed"], 0, result["failures"])
                self.assertGreater(result["attempted"], 0)
                for m in wanted:
                    got = result["metrics"].get(m["name"])
                    self.assertIsNotNone(got, f"{workload}: {m['name']}")
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                if not traced:
                    for m in wanted:
                        self.assertGreater(result["metrics"][m["name"]]
                                           ["value"], 0, m["name"])

    def test_simulated_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            first, _ = self.drive(workload, 1, True)
            second, _ = self.drive(workload, 2, True)
            for name in EXACT_COUNTS:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 f"{workload}: {name}")
            self.assertGreater(first["metrics"]["sim.warp_insts"]["value"],
                               0)

    def test_trace_accounts_for_the_traced_pass(self):
        _, trace = self.drive("safety_functional", 1, True)
        roots = [(root, layers) for root, layers in
                 report.self_times(trace["traceEvents"]).values()
                 if root["name"].startswith("pass ")]
        self.assertEqual(len(roots), 1)
        root, layers = roots[0]
        for layer in ("sim", "alloc", "compiler", "workloads", "analysis",
                      "security", "runner", "bench"):
            self.assertGreater(layers[layer], 0.0, layer)
        # Self times sum to the pass's thread time: its wall plus the
        # capacity of the sweep's extra runner workers.
        sweep = [e for e in trace["traceEvents"] if e["cat"] == "runner"
                 and e["args"]["parent"] == root["args"]["id"]]
        self.assertEqual(len(sweep), 1)
        extra = sweep[0]["dur"] * (sweep[0]["args"]["threads"] - 1)
        self.assertAlmostEqual(sum(layers.values()),
                               (root["dur"] + extra) / 1000.0, delta=0.01)
        self.assertIn("trace.overhead_frac", report.render(trace))

    def test_driver_rejects_bad_input(self):
        bad = [["--workloads", "bogus"], ["--workloads", ""],
               ["--workloads", "fig12_detailed,"],
               ["--workloads", "fig12_detailed,fig12_detailed"],
               ["--seed", "abc"], ["--seed", "-1"], ["--seed", "1x"],
               ["--seed", ""], ["--seconds", "abc"], ["--seconds", "0"],
               ["--size", "huge"], ["--seed"],
               ["--frobnicate", "1"]]
        for args in bad:
            done = subprocess.run([self.driver] + args, capture_output=True,
                                  text=True, timeout=30)
            self.assertEqual(done.returncode, 2, args)
            self.assertIn("usage:", done.stderr, args)
            self.assertEqual(done.stdout, "", args)

    def test_driver_help_runs_nothing(self):
        done = subprocess.run([self.driver, "--help"], capture_output=True,
                              text=True, timeout=30)
        self.assertEqual(done.returncode, 0)
        self.assertIn("usage:", done.stdout)
        self.assertNotIn("==", done.stdout)

    def test_run_py_rejects_bad_input(self):
        base = {"--workload": "wide_launch_mt", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        for flag, value in (("--workload", "bogus"), ("--workload", ""),
                            ("--seed", "abc"), ("--seed", "-3"),
                            ("--seconds", "x"), ("--seconds", "0"),
                            ("--trace", "2")):
            args = dict(base, **{flag: value})
            argv = [a for kv in args.items() for a in kv]
            done = subprocess.run([sys.executable,
                                   os.path.join(HERE, "run.py")] + argv,
                                  capture_output=True, text=True, timeout=30)
            self.assertEqual(done.returncode, 2, argv)
            self.assertEqual(done.stdout, "", argv)

    def test_run_py_prints_the_result_line(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "wide_launch_mt", "--seed", "4", "--seconds", "0.01",
             "--trace", "0", "--size", "tiny"],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(last),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(last["correct"])
        self.assertEqual(sorted(last["metrics"]),
                         sorted(m["name"] for m in self.end_to_end))


if __name__ == "__main__":
    unittest.main()
