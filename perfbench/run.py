#!/usr/bin/env python3
"""Repo benchmark runner.

Builds the benchmark package (perfbench/, which compiles the library from
src/) in Release mode under .bench_build/ at the repository root, then runs
one workload, or all of them, and prints its metrics.

    python3 perfbench/run.py                        # all workloads, 10 s each
    python3 perfbench/run.py --workload fft_pipeline --seed 3 --seconds 20
    python3 perfbench/run.py --workload spectral_batch --trace 1

For one workload the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics, or
with --trace 1 the per-layer metrics of a traced run (the traced run also
writes its spans to .bench_build/spans/).  Lines before it start with "# "
and describe the run.  Run with TDP_SCHED=steal (or another substrate
variable) set to compare substrates; the run is labelled with it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tdp_perfbench")
WORKLOADS = ["coupled_climate", "fft_pipeline", "spectral_batch"]
# Substrate variables a run may set on purpose; the run is labelled with
# them.  Knobs that would silently change the baseline are refused by the
# benchmark binary itself.
LABELLED_ENV = ["TDP_SCHED", "TDP_TRANSPORT"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; quiet unless it fails."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "tdp_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail(f"build failed (exit {rc}); full log in {log_path}")


def run_one(workload, args):
    """Runs one workload; returns (output lines, result of the last one)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail(f"{workload}: benchmark exited with {proc.returncode}")
    if not lines:
        fail(f"{workload}: no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a result")
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test problem sizes")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    labels = " ".join(f"{k}={os.environ[k]}" for k in LABELLED_ENV
                      if os.environ.get(k))
    print(f"# label: {labels or 'defaults'}")

    if args.workload:
        lines, _ = run_one(args.workload, args)
        print("\n".join(lines))
        return

    # All workloads: each one's lines, then one combined result whose
    # metric names are prefixed with the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(w, args)
        print("\n".join(lines[:-1]))
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
