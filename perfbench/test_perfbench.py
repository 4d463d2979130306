#!/usr/bin/env python3
"""Tests of the benchmark itself: short runs of every workload.

Run from the repository root (builds the benchmark first, then under
a minute of runs):

    python3 -m unittest perfbench/test_perfbench.py

Each workload (the gated ones of BENCHMARK.json and `svc-rtt`) runs for
one second with tracing off and once with it on.
The result line must carry exactly the metric names and units that
BENCHMARK.json declares (the report line also the ungated throughput,
tail latencies and peak RSS), a clean run must report no failures, the
step-count cells must equal the paper's k+1 CAS, f+2 writes and k
reads (at k = 3, f = 1), and every span of the traced run must have a
parent that resolves.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "1"
# Every workload the binary runs; BENCHMARK.json gates a subset.
WORKLOADS = ("embed-churn", "svc-rtt", "svc-scan-mix")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )
    return proc


class ShortRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        cls.spec = bench_json()
        for w in WORKLOADS:
            for trace in (0, 1):
                proc = run(w, trace)
                lines = proc.stdout.strip().splitlines()
                cls.results[(w, trace)] = (proc, lines)

    def test_gated_workloads_exist(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def each(self, trace):
        for w in WORKLOADS:
            proc, lines = self.results[(w, trace)]
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                self.assertGreaterEqual(len(lines), 2)
                yield w, json.loads(lines[-2]), json.loads(lines[-1])

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in declared]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_run_emits_every_metric_and_no_errors(self):
        for name, report, result in self.each(0):
            self.check_metrics(result, self.spec["end_to_end"])
            for m, v in result["metrics"].items():
                self.assertGreater(v["value"], 0, f"{name} {m}")
            for m in ("ops_per_s", "scan_keys_per_s", "p99_us", "scan_p99_us", "peak_rss_mb"):
                self.assertGreater(report["not_gated"][m]["value"], 0, f"{name} {m}")
            self.assertEqual(report["error_rate"], 0)
            self.assertEqual(report["workload"], name)
            self.assertTrue(all(v == "ok" for v in report["checks"].values()), report["checks"])
            for key in ("seed", "run_seconds", "host_parallelism", "git_rev", "params", "why"):
                self.assertIn(key, report)

    def test_traced_run_emits_every_layer_metric_and_exact_step_counts(self):
        for name, report, result in self.each(1):
            self.check_metrics(result, self.spec["per_layer"])
            m = result["metrics"]
            self.assertEqual(m["llx-scx.cas_per_scx"]["value"], 4)
            self.assertEqual(m["llx-scx.writes_per_scx"]["value"], 3)
            self.assertEqual(m["llx-scx.reads_per_vlx"]["value"], 3)
            self.assertEqual(report["checks"]["llx-scx.step_counts"], "ok")
            self.assertEqual(report["error_rate"], 0)

    def test_traced_spans_have_resolving_parents(self):
        for name, report, _ in self.each(1):
            with open(report["trace_file"]) as f:
                spans = [json.loads(l) for l in f]
            self.assertGreater(len(spans), 0, name)
            ids = {s["id"] for s in spans}
            roots = [s for s in spans if s["parent"] == 0]
            self.assertGreater(len(roots), 0, name)
            by_id = {s["id"]: s for s in spans}
            for s in spans:
                self.assertLessEqual(s["start_ns"], s["end_ns"])
                if s["parent"]:
                    self.assertIn(s["parent"], ids, f"{name}: span {s['name']} has a dangling parent")
                    self.assertEqual(by_id[s["parent"]]["req"], s["req"])


class StandsAlone(unittest.TestCase):
    def test_fails_without_the_repository(self):
        # Only BENCHMARK.json and perfbench/: the build cannot find the
        # workspace crates, so the run must fail without a result.
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
            proc = run("embed-churn", 0, cwd=d, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith('{"correct"') for l in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
