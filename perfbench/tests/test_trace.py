#!/usr/bin/env python3
"""Purity and accounting of the benchmark's traced run.

    python3 perfbench/tests/test_trace.py

Builds the benchmark as run.py does, then runs clip_perfbench on every
workload at seed 1 (the seed every golden fingerprint is pinned for) with
--seconds 0, so three timed iterations: twice traced and once untraced. It
checks that

  * tracing changes no output: the traced run prints the fingerprint of its
    last traced iteration's rows, which must equal the untraced run's
    fingerprint of its rows; inside each run, clip_perfbench also compares
    every traced iteration's rows with the untraced warm-up's, and the
    counters of a traced iteration with those of a session that has no
    sink, and reports any difference as correct = false;
  * every run is correct, which includes matching the golden fingerprints;
  * every count metric repeats exactly between the two traced runs;
  * the trace reports its overhead and its coverage.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run as perfbench  # noqa: E402

WORKLOADS = ("paper-eval", "queue-mixed", "queue-faults")
SEED = 1


def bench(workload, trace):
    """(result JSON, fingerprint) of one run with three timed iterations."""
    exe = perfbench.build() / "clip_perfbench"
    proc = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    header = next(l for l in lines if l.startswith("workload "))
    fingerprint = header.split("fingerprint ")[1].split(",")[0]
    return json.loads(lines[-1]), fingerprint


class TracedRun(unittest.TestCase):
    def test_traced_run_is_pure_and_repeatable(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, traced_fp = bench(workload, 1)
                second, _ = bench(workload, 1)
                untraced, untraced_fp = bench(workload, 0)
                for result in (first, second, untraced):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                self.assertEqual(traced_fp, untraced_fp)

                counts = {name: m["value"]
                          for name, m in first["metrics"].items()
                          if m["unit"] == "count"}
                self.assertIn("runtime.try_start_calls", counts)
                for name, value in counts.items():
                    self.assertEqual(second["metrics"][name]["value"], value,
                                     name)

                for name in ("trace.overhead_pct", "trace.coverage_pct"):
                    self.assertIn(name, first["metrics"])
                self.assertGreater(
                    first["metrics"]["trace.coverage_pct"]["value"], 50.0)


if __name__ == "__main__":
    unittest.main()
