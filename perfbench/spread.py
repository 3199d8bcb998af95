#!/usr/bin/env python3
"""Across-run statistics for the perfbench workloads.

    python3 perfbench/spread.py --workloads browse edit --seeds 1-10

Runs perfbench/run.py once per workload and seed (untraced, for the
run_seconds of BENCHMARK.json), then prints, for each end-to-end metric,
the median and quartiles of the runs (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the metric's bound.
A spread above a third of the bound marks the metric as unsteady; the
exit code is 1 when any metric other than setup_s exceeds its bound.
--out FILE keeps the raw per-run results as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {}
    worst = 0.0
    for workload in workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        raw[workload] = results
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3
            if name != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"  {workload:8s} {name:14s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {metric['bound']:.2f} {'ok' if steady else 'UNSTEADY'}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
