#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with a short --seconds, so the first
test also builds .bench_build/ if it is not built yet.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload, seed=5, trace=0, seconds=1, corrupt=False, script=RUN,
        cwd=ROOT):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


class SameSeedRepeats(unittest.TestCase):
    def test_quality_metrics_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run(workload, seed=9)[1]["metrics"]
                b = run(workload, seed=9)[1]["metrics"]
                for name in ("best_edp_geomean", "converge_samples"):
                    self.assertEqual(a[name]["value"], b[name]["value"],
                                     name)


class PrintedNamesMatchSpec(unittest.TestCase):
    def check(self, result, table):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = [(m["name"], m["unit"]) for m in SPEC[table]]
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        self.assertEqual(got, want)
        for name in result["metrics"]:
            self.assertRegex(name, NAME_RE)

    def test_end_to_end_and_per_layer_names(self):
        for workload in WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    rc, result, p = run(workload, trace=trace)
                    self.assertEqual(rc, 0, p.stderr[-2000:])
                    self.check(result, table)
                    if trace == 0:
                        for m in result["metrics"].values():
                            self.assertNotEqual(m["value"], 0)


class CorrectnessCheck(unittest.TestCase):
    def test_corrupted_mapping_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, result, p = run(workload, corrupt=True)
                self.assertNotEqual(rc, 0)
                self.assertIsNotNone(result, p.stderr[-2000:])
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", p.stderr)


class IncompleteCheckout(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").rglob("*"):
            if f.is_file() and "__pycache__" not in f.parts:
                dest = bare / f.relative_to(ROOT)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(f, dest)
        try:
            rc, result, _ = run(WORKLOADS[0], script=bare / "perfbench" /
                                "run.py", cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
