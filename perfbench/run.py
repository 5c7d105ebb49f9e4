#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload study|sweep|corun \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which builds the smarts library
from the enclosing checkout) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs smarts_perf. Build output
goes to stderr; the last line of standard output is the benchmark's
JSON result. The metric names in that line are checked against
BENCHMARK.json. Exits non-zero, printing no result, when the build,
the run or that check fails. perfbench/NOTES.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    source_dir = os.path.join(ROOT, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "smarts_perf",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "smarts_perf")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "sweep", "corun"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)

    env = dict(os.environ, CARGO_TARGET_DIR=build_root)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("smarts_perf did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode or not lines:
        sys.stdout.write(run.stdout)
        fail("smarts_perf exited with code %d" % run.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(n for n in want if n in got and want[n] != got[n])))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
