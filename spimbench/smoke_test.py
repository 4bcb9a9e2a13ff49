#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny sizes.

Runs every workload once untraced and once traced through run.py and
checks that each metric BENCHMARK.json names is printed with its unit,
that every end-to-end metric is non-zero, that fail_frac is 0, and that
the run's digest was checked against the committed one
(spimbench/digests/). It also checks that run.py fails, without
printing a result, in a copy that holds only BENCHMARK.json and the
benchmark's own directory.

    python3 spimbench/smoke_test.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)$")


def run_bench(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--max-iters", "1"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        r = run_bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr)
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        printed = {}
        for line in lines[:-1]:
            m = METRIC_LINE.match(line)
            if m:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
        self.assertEqual(printed.get("fail_frac"), (0.0, "ratio"))
        self.assertIn(f"digest-check: match against committed "
                      f"{os.path.join(HERE, 'digests', workload)}.txt",
                      lines)

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        for m in wanted:
            name, unit = m["name"], m["unit"]
            self.assertIn(name, printed, f"{workload}: {name} not printed")
            self.assertEqual(printed[name][1], unit)
            got = result["metrics"][name]
            self.assertEqual(got["unit"], unit)
            # The report line rounds to 9 digits; the JSON keeps all.
            self.assertAlmostEqual(got["value"], printed[name][0],
                                   delta=1e-8 * abs(got["value"]))
            if not trace:
                self.assertGreater(got["value"], 0, name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            r = subprocess.run(
                [sys.executable, "spimbench/run.py", "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
