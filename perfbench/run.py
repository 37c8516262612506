#!/usr/bin/env python3
"""Layer-by-layer benchmark of the OMEGA reproduction.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
checkout's own src/) into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload dse-sweep-rmat16 --seed 1 \\
        --seconds 20 --trace 0

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (which also writes a Chrome trace to
.bench_build/traces/<workload>-seed<n>.json, loadable in Perfetto).

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests and checks that BENCHMARK.json
lists exactly the metrics the program reports.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("dse-sweep-rmat16", "dse-budget-cora", "service-mix-tcp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures once, then (re)builds `target`; quiet unless it fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}", 3)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}", 3)
    return BUILD_DIR / target


def run_checked(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out after {timeout} s", 124)
    return done


def self_test():
    test = build("perfbench_test")
    done = run_checked([str(test)], RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("perfbench_test failed", 1)
    layers = build("perfbench_layers")
    listed = json.loads(run_checked([str(layers), "--list-metrics"],
                                    RUN_TIMEOUT_S).stdout)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in listed[key]]
        have = [(m["name"], m["unit"]) for m in config[key]]
        if want != have:
            fail(f"BENCHMARK.json {key} differs from the program's catalog:"
                 f"\n  program: {want}\n  json:    {have}", 1)
    print("BENCHMARK.json metric lists match the program")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench_layers")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    done = run_checked(cmd, RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        fail(f"{args.workload} exited {done.returncode}", done.returncode)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)


if __name__ == "__main__":
    main()
