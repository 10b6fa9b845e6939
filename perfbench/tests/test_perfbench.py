"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (about a minute); the rest reuse the
build.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=0, extra=()):
    """Runs one tiny invocation; returns (exit code, result, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def digest(stdout):
    return next(line for line in stdout.splitlines()
                if line.startswith("digest "))


class SmokeTest(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    units = {name: m["unit"]
                             for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class DeterminismTest(unittest.TestCase):
    def test_deterministic_metrics_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, seed=7)
                second = run(workload, seed=7)
                for name in ("rel_cpi_geomean", "text_bytes"):
                    self.assertEqual(first[1]["metrics"][name],
                                     second[1]["metrics"][name])
                self.assertEqual(digest(first[2]), digest(second[2]))
                other = run(workload, seed=8)
                self.assertNotEqual(digest(first[2]), digest(other[2]))


class CorruptionTest(unittest.TestCase):
    def test_swapped_blocks_fail_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run(workload, extra=["--inject-swap"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
