#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py

Builds the benchmark through run.py on first use. Checks that a tiny run
of every workload prints every metric it owns by name, with its unit and a
value, and no error; that the output checks count a wrong relation, a
wrong relation sequence, a dropped query row and a wrong CDR% tile set as
failures; and that a seed always produces the same input bytes.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics each workload prints beyond the JSON ones, untraced and traced.
END_TO_END = {
    "persist": ["pipeline_s", "saved_mb", "error_rate"],
    "overlap": ["pipeline_s", "error_rate"],
    "browse": ["lookup_p50_us", "lookup_tail_us", "related_p50_us",
               "related_tail_us", "query_p50_ms", "query_tail_ms",
               "error_rate"],
    "edit": ["lookup_p50_us", "lookup_tail_us", "edit_p50_ms",
             "edit_tail_ms", "error_rate"],
}
PER_LAYER = {
    "persist": ["xml.save_ms", "xml.serialize_ms", "xml.reopen_ms",
                "xml.parse_ms", "xml.bytes_per_pair"],
    "overlap": ["percent.call_us"],
    "browse": ["percent.call_us", "query.parse_us", "query.anchored_ms",
               "query.percent_ms", "query.three_var_ms", "query.paper_ms",
               "query.candidates_per_row", "index.build_ms",
               "index.refined_per_result"],
    "edit": ["delta.grow_us", "delta.insert_us", "delta.remove_us",
             "delta.reresolved_per_edit", "delta.implicit_share",
             "delta.late_early_p50_ratio"],
}


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    metrics = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            fields = line.split()
            metrics[fields[1]] = (fields[2], fields[3])
    lines = done.stdout.strip().splitlines()
    return done.returncode, metrics, json.loads(lines[-1]) if lines else None


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, metrics, result = run_tiny(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace} exited {code}")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(float(metrics["error_rate"][0]), 0.0)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for metric in listed:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], (int, float))
        own = PER_LAYER[workload] if trace else END_TO_END[workload]
        for name in own + [m["name"] for m in listed]:
            self.assertIn(name, metrics, f"{workload}: {name} not printed")
            value, unit = metrics[name]
            self.assertNotEqual(value, "null", f"{workload}: {name} is null")
            self.assertTrue(unit, f"{workload}: {name} has no unit")

    def test_persist(self):
        self.check("persist", 0)
        self.check("persist", 1)

    def test_overlap(self):
        self.check("overlap", 0)
        self.check("overlap", 1)

    def test_browse(self):
        self.check("browse", 0)
        self.check("browse", 1)

    def test_edit(self):
        self.check("edit", 0)
        self.check("edit", 1)


class Checker(unittest.TestCase):
    def test_wrong_outputs_count_as_failures(self):
        run_tiny("browse", 0)  # builds the program when needed
        done = subprocess.run([str(PROGRAM), "selftest", "--seed", "3"],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("selftest ok", done.stdout)


class Determinism(unittest.TestCase):
    def gen(self, workload, seed, path):
        subprocess.run([str(PROGRAM), "gen", "--workload", workload, "--seed",
                        str(seed), "--out", str(path)], check=True, timeout=300)
        return Path(path).read_bytes()

    def test_same_seed_same_bytes(self):
        run_tiny("browse", 0)  # builds the program when needed
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            for workload in ("persist", "overlap", "browse", "edit"):
                first = self.gen(workload, 11, Path(tmp) / "a.xml")
                second = self.gen(workload, 11, Path(tmp) / "b.xml")
                other = self.gen(workload, 12, Path(tmp) / "c.xml")
                self.assertEqual(first, second, workload)
                self.assertNotEqual(first, other, workload)


if __name__ == "__main__":
    unittest.main()
