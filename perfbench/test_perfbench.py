#!/usr/bin/env python3
"""Smoke tests of the repo benchmark at tiny problem sizes.

    python3 perfbench/test_perfbench.py

Checks that every workload prints exactly the metric names BENCHMARK.json
declares, that the count metrics of a traced run repeat exactly for one seed
and equal the counts computed from the problem, and that the benchmark
refuses to measure with a baseline-changing knob set or without the library
sources.
"""

import json
import math
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["coupled_climate", "fft_pipeline", "spectral_batch"]
COUNTS = ["core.calls_per_op", "vp.messages_per_op", "vp.bytes_copied_per_op",
          "dist.reads_per_op", "dist.writes_per_op"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=1, env=None, cwd=ROOT):
    return subprocess.run(
        ["python3", os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.3", "--trace",
         str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        env=env, timeout=900)


def result_and_problem(proc):
    lines = proc.stdout.splitlines()
    problem = next(json.loads(l[len("# problem "):]) for l in lines
                   if l.startswith("# problem "))
    return json.loads(lines[-1]), problem


def expected_counts(workload, p):
    """Per-op counts computed from the problem sizes."""
    if workload == "coupled_climate":
        # Each inner step, every copy sends one halo cell to each neighbour.
        msgs = 2 * p["inner"] * 2 * (p["group"] - 1)
        return {"core.calls_per_op": 2, "vp.messages_per_op": msgs,
                "vp.bytes_copied_per_op": 8 * msgs,
                "dist.reads_per_op": 2, "dist.writes_per_op": 2}
    if workload == "fft_pipeline":
        g, nn = p["group"], p["nn"]
        msgs = 3 * g * int(math.log2(g))  # one block per copy per stage
        return {"core.calls_per_op": 3, "vp.messages_per_op": msgs,
                "vp.bytes_copied_per_op": msgs * 16 * nn // g,
                # get_input/put_output move both halves of NN complex values
                # in each of the three FFT stages.
                "dist.reads_per_op": 6 * nn, "dist.writes_per_op": 6 * nn}
    procs, n = p["procs"], p["points"]
    msgs = 2 * procs * int(math.log2(procs))
    return {"core.calls_per_op": 3, "vp.messages_per_op": msgs,
            "vp.bytes_copied_per_op": msgs * 16 * n // procs,
            "dist.reads_per_op": 0, "dist.writes_per_op": 0}


class BenchmarkSmoke(unittest.TestCase):
    def test_end_to_end_metrics(self):
        want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, _ = result_and_problem(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_counts_repeat_and_match_the_problem(self):
        want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = run(w, 1, seed=7)
                second = run(w, 1, seed=7)
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                a, problem = result_and_problem(first)
                b, _ = result_and_problem(second)
                self.assertTrue(a["correct"] and b["correct"])
                got = {k: v["unit"] for k, v in a["metrics"].items()}
                self.assertEqual(got, want)
                counts = expected_counts(w, problem)
                for name in COUNTS:
                    va = a["metrics"][name]["value"]
                    self.assertEqual(va, b["metrics"][name]["value"], name)
                    self.assertEqual(va, counts[name], name)
                self.assertEqual(a["metrics"]["dist.failed"]["value"], 0)

    def test_refuses_baseline_changing_knobs(self):
        env = dict(os.environ, TDP_FAULT="drop:0.5,seed:1")
        proc = run("coupled_climate", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        self.assertIn("TDP_FAULT", proc.stderr)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("coupled_climate", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
