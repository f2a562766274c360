#!/usr/bin/env python3
"""Self-test of the benchmark harness, on reduced workload sizes (--small).

    python3 perfbench/test_perfbench.py

Checks that:
  * a planted checksum mismatch and a planted dispatch-digest mismatch are
    each counted as failures (and make the run exit nonzero);
  * every metric a run prints is declared in BENCHMARK.json with the same
    unit, and its name matches [A-Za-z0-9_.-]+;
  * the output checks pass on the default seed and on the held-out seed.
Builds the driver through run.py first, like the benchmark itself.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# The workload seed the benchmark is tuned on, and one held back from tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def run(workload, seed=DEFAULT_SEED, trace=0, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output (exit {proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


class Planted(unittest.TestCase):
    def test_checksum_mismatch_is_a_failure(self):
        for workload in ("em3d-wide", "water-mpmd"):
            code, res = run(workload, DEFAULT_SEED, 0, "--plant", "checksum")
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(res["correct"], workload)
            self.assertEqual(res["failed"], res["attempted"], workload)

    def test_digest_mismatch_is_a_failure(self):
        for workload in WORKLOADS:
            code, res = run(workload, DEFAULT_SEED, 1, "--plant", "digest")
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(res["correct"], workload)
            self.assertGreater(res["failed"], 0, workload)


class Metrics(unittest.TestCase):
    def check(self, declared, printed):
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(printed), set(units))
        for name, m in printed.items():
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_printed_metric_is_declared(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, res = run(workload, DEFAULT_SEED, trace)
                    self.assertEqual(code, 0)
                    self.check(SPEC[key], res["metrics"])


class Trace(unittest.TestCase):
    def test_traced_run_writes_chrome_trace(self):
        code, _ = run("water-mpmd", DEFAULT_SEED, 1)
        self.assertEqual(code, 0)
        base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        path = (base if base.is_absolute() else ROOT / base) / "perfbench" / \
            "traces" / f"water-mpmd-seed{DEFAULT_SEED}.json"
        trace = json.loads(path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        for name in ("setup", "run", "collect", "replay", "probe.marshal"):
            self.assertIn(name, names)
        for i, e in enumerate(spans):
            self.assertEqual(e["args"]["span"], i)
            self.assertLess(e["args"]["parent"], i)
            self.assertGreaterEqual(e["dur"], 0)
        self.assertEqual(trace["otherData"]["workload"], "water-mpmd")


class Seeds(unittest.TestCase):
    def test_checks_pass_on_default_and_held_out_seed(self):
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    code, res = run(workload, seed, 1)
                    self.assertEqual(code, 0)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)


if __name__ == "__main__":
    unittest.main()
