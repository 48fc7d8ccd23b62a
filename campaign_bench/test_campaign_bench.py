#!/usr/bin/env python3
"""Tests of the campaign benchmark, on its seconds-long smoke mode.

    python3 campaign_bench/test_campaign_bench.py

Run from the root of a motsim checkout (the first run builds the benchmark program).
Checks that every workload's code path runs and passes its output checks,
that every metric BENCHMARK.json names is emitted with its unit, that the
traced run accounts for its own wall time, that a counter differing from its
pin is a failure, and that the benchmark refuses to run without sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer self times of the traced run; with trace.unattributed_s they sum
# to trace.wall_s.
SELF_TIMES = [
    "circuits.build_s", "fault.collapse_s", "testgen.sequence_s",
    "sim.fault_free_s", "faultsim.prepass_s", "faultsim.batch_s",
    "experiments.merge_s", "faultsim.journal_s", "mot.faulty_trace_s",
    "mot.collect_s", "mot.proposed_s", "mot.baseline_s",
    "trace.unattributed_s",
]


def run_bench(*args, cwd=ROOT, command=None):
    """Returns the exit code, the stdout lines parsed as JSON, and stderr."""
    cmd = command or [sys.executable, RUN]
    done = subprocess.run(cmd + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = [json.loads(line) for line in done.stdout.strip().splitlines()]
    return done.returncode, lines, done.stderr


class SmokeTest(unittest.TestCase):
    def smoke_metrics(self, trace, specs):
        """Runs every workload in smoke mode; returns the metrics of each."""
        runs = {}
        for workload in SPEC["workloads"]:
            name = workload["name"]
            code, lines, err = run_bench("--workload", name, "--smoke",
                                         "--trace", trace)
            self.assertEqual(code, 0, err)
            self.assertTrue(lines[-2]["provenance"]["pinned"], name)
            result = lines[-1]
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], name)
            self.assertGreaterEqual(result["attempted"], 1, name)
            self.assertEqual(result["failed"], 0, name)
            metrics = result["metrics"]
            self.assertEqual(set(metrics), {m["name"] for m in specs}, name)
            for m in specs:
                got = metrics[m["name"]]
                self.assertEqual(got["unit"], m["unit"], (name, m["name"]))
                self.assertTrue(math.isfinite(got["value"]), (name, m["name"]))
            runs[name] = metrics
        return runs

    def test_end_to_end_metrics(self):
        for name, metrics in self.smoke_metrics("0", SPEC["end_to_end"]).items():
            for metric, got in metrics.items():
                self.assertNotEqual(got["value"], 0, (name, metric))

    def test_per_layer_metrics_account_for_the_trace(self):
        for name, metrics in self.smoke_metrics("1", SPEC["per_layer"]).items():
            value = {m: got["value"] for m, got in metrics.items()}
            # Every self time is a real share of the wall time, and the
            # spans leave little of it unattributed.
            for m in SELF_TIMES:
                self.assertGreaterEqual(value[m], 0, (name, m))
            self.assertLess(value["trace.unattributed_s"],
                            0.1 * value["trace.wall_s"], name)
            self.assertAlmostEqual(sum(value[m] for m in SELF_TIMES),
                                   value["trace.wall_s"], delta=1e-9, msg=name)
            # The percentiles state their sample count.
            self.assertGreater(metrics["mot.proposed_fault_samples"]["value"],
                               0, name)


class GateTest(unittest.TestCase):
    def test_counter_differing_from_its_pin_is_a_failure(self):
        code, lines, err = run_bench("--workload", "fleet_am2910", "--smoke")
        self.assertEqual(code, 0, err)
        counters = lines[-2]["provenance"]["counters"]
        key = run.pin_key("fleet_am2910", 7, smoke=True)
        self.assertEqual(run.check_pins(run.PINS, key, counters), [])
        self.assertIsNone(run.check_pins(
            run.PINS, run.pin_key("fleet_am2910", 123456, smoke=False),
            counters))

        with open(run.PINS) as f:
            pins = json.load(f)
        pins[key][0]["proposed_extra"] += 1
        with tempfile.TemporaryDirectory() as scratch:
            tampered = os.path.join(scratch, "pins.json")
            with open(tampered, "w") as f:
                json.dump(pins, f)
            failures = run.check_pins(tampered, key, counters)
        self.assertEqual(len(failures), 1)
        self.assertIn("proposed_extra", failures[0])

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, _ = run_bench(
                "--workload", SPEC["workloads"][0]["name"], "--seed", "7",
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
                cwd=bare, command=SPEC["command"])
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
