#!/usr/bin/env python3
"""The benchmark's own tests, on tiny workloads (about a second each).

Run from the repository root:

    python3 pepperbench/test_bench.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit, that the replay digest repeats for a seed, matches
between traced and untraced runs and changes with the seed, and that the
Definition 4 gate fails the run when an item is dropped from a result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BINARY = None


def bench(workload, seed, trace=0, *extra):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def digest(out, label="digest"):
    m = re.search(r"(?:^|, )" + label + r" ([0-9a-f]{16})", out, re.M)
    return m.group(1) if m else None


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result(proc)
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            line = re.compile(r"^%s\s+\S+ %s$" % (re.escape(m["name"]),
                                                   re.escape(m["unit"])), re.M)
            self.assertRegex(proc.stdout, line)
        self.assertRegex(proc.stdout, r"op_fail_frac \S+ \(failed \d+ / "
                                      r"attempted \d+\)")

    def test_end_to_end_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(bench(w, 1), SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(bench(w, 1, 1), SPEC["per_layer"])

    def test_digest_repeats_matches_traced_and_follows_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = bench(w, 7), bench(w, 7)
                traced = bench(w, 7, 1)
                other = bench(w, 8)
                for p in (a, b, traced, other):
                    self.assertEqual(p.returncode, 0, p.stderr)
                self.assertIsNotNone(digest(a.stdout))
                self.assertEqual(digest(a.stdout), digest(b.stdout))
                self.assertEqual(digest(a.stdout), digest(traced.stdout))
                self.assertEqual(digest(a.stdout),
                                 digest(traced.stdout, "traced digest"))
                self.assertNotEqual(digest(a.stdout), digest(other.stdout))

    def test_definition4_gate_fails_on_dropped_item(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = bench(w, 1, 0, "--inject-drop")
                self.assertNotEqual(p.returncode, 0)
                self.assertIn("Definition 4", p.stderr)
                self.assertFalse(p.stdout.strip().endswith("}"))


if __name__ == "__main__":
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    BINARY = run.build(os.path.abspath(os.path.join(target, "pepperbench")))
    unittest.main()
