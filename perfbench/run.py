#!/usr/bin/env python3
"""CARDIRECT pipeline benchmark entry point.

    python3 perfbench/run.py --workload persist --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark program (perfbench/
CMakeLists.txt, Release, into .bench_build/) when needed, writes the
workload's geometry-only input for the seed, runs the workload on it and
passes its output through: one `metric <name> <value> <unit>` line per
metric, then the JSON result as the last line. The exit code is non-zero
when the build, an op or an output check fails.

--trace 1 runs the traced variant: it prints the per-layer metrics instead
of the end-to-end ones and leaves the spans in
.bench_build/traces/<workload>.spans.jsonl. --tiny shrinks the inputs for
the benchmark's own tests.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "perfbench"
WORKLOADS = ("persist", "overlap", "browse", "edit")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for required in (ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt"):
        if not required.is_file():
            fail(f"library sources not found: {required} is missing")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    work = BUILD / "runs" / f"{args.workload}-{args.seed}-{args.trace}"
    traces = BUILD / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    size = ["--tiny"] if args.tiny else []
    common = ["--workload", args.workload, "--seed", str(args.seed)] + size
    try:
        input_path = work / "input.xml"
        gen = subprocess.run([str(PROGRAM), "gen", *common, "--out", str(input_path)],
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode:
            fail("input generation failed")
        run = subprocess.run(
            [str(PROGRAM), "run", *common, "--seconds", str(args.seconds),
             "--trace", args.trace, "--input", str(input_path),
             "--work-dir", str(work)],
            timeout=RUN_TIMEOUT_S)
        spans = work / f"{args.workload}.spans.jsonl"
        if spans.is_file():
            spans.replace(traces / spans.name)
        return run.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
