#!/usr/bin/env python3
"""Certified-session benchmark: builds certbench/ and runs one workload.

Run from the root of a source checkout:

    python3 certbench/run.py --workload churn|retain|startup --seed N \\
        --seconds S --trace 0|1
    python3 certbench/run.py --selftest

Builds certbench/ (and the library sources it compiles from src/) into
.bench_build/certbench with CMake, writes the workload's generated inputs
under .bench_build/certbench/work/<workload>, and runs the benchmark binary.
Its report goes to standard output; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is the
binary's: nonzero when a session fails or disagrees with the source
interpreter. NOTES.md describes the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "certbench")


def fail(msg):
    print("certbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "Serve.h")):
        fail("no library sources under src/: run from a source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["churn", "retain", "startup"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build()
        sys.exit(subprocess.run([os.path.join(BUILD, "certbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.flush()
    rc = subprocess.run([
        os.path.join(BUILD, "certbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]).returncode
    sys.exit(rc)


if __name__ == "__main__":
    main()
