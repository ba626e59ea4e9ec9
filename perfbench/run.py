#!/usr/bin/env python3
"""Builds and runs the synthesizer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite-seq --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the synthesizer libraries
from src/ plus the driver) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only check the build.  The driver's
result line is checked against BENCHMARK.json and printed last.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if subprocess.run([os.path.join(build_dir, "bench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("bench_selftest failed")


def check_result(line, expected):
    """Parses the driver's last line and checks it against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(expected)}")


def main():
    # On SIGTERM, unwind like an error: subprocess.run then kills and reaps
    # the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "synth_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data", HERE, "--work", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")
    check_result(lines[-1], expected)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
