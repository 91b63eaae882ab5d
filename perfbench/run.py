#!/usr/bin/env python3
"""Easz serving ledger: build the benchmark and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (its own CMake package, compiling ../src) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs the
`perfbench` binary with the shared server sizing and the workload's fixed
rates from perfbench/workloads.json. The binary checks every served image
byte for byte and prints the result JSON as the last stdout line; this script
relays its output and exit status. Build logs go to stderr. Tests of the helpers:
    cmake --build .bench_build --target ledger_test && ctest --test-dir .bench_build
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        fail("no Easz sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def src_line_counts():
    counts = {}
    src = os.path.join(ROOT, "src")
    for module in sorted(os.listdir(src)):
        total = 0
        for dirpath, _, files in os.walk(os.path.join(src, module)):
            for name in files:
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += sum(1 for _ in f)
        counts[module] = total
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True)
    args = ap.parse_args()
    with open(os.path.join(HERE, "workloads.json")) as f:
        table = json.load(f)
    if args.workload not in table["workloads"]:
        fail("--workload: unknown workload " + repr(args.workload), 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    print(json.dumps({"meta_src_lines": src_line_counts()}), flush=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "traces")]
    settings = dict(table["server"], **table["workloads"][args.workload])
    for key, value in sorted(settings.items()):
        cmd += ["--" + key.replace("_", "-"), str(value)]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
