#!/usr/bin/env python3
"""The benchmark's own test, run from the root of a checkout:

    python3 perfbench/test_bench.py

Runs every workload at its tiny size and checks that
  * every declared metric is printed by name with its declared unit;
  * a deliberately wrong reference drives fail_frac to 1 and the exit
    code to non-zero, so the output check can fail;
  * the traced and untraced runs produce identical simulated outputs.
Takes about ten seconds once the program is built.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
OUT = os.path.join(".perfbench", "test")
REFS = os.path.join("perfbench", "refs.txt")
WORKLOADS = ("host-transplant", "fleet-64k", "fleet-1m", "cve-stream",
             "controlplane")
SEED = 5

# Reference keys that hold numbers a run needs (where to crash), not
# outputs; corrupting them would break the run instead of its check.
INPUT_KEYS = {"entries", "ticks", "cost-aware.entries",
              "transplant-all.entries"}


def run(workload, trace, refs=REFS, out=OUT):
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
               "--trace", str(trace), "--size", "tiny", "--refs", refs,
               "--out-dir", out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
        check=False)
    lines = p.stdout.decode().strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1])


def raw(workload, trace, out=OUT):
    """The program's own result file: simulated outputs included."""
    with open(os.path.join(out, f"{workload}-seed{SEED}-trace{trace}.json")) as f:
        return json.load(f)


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)
        os.makedirs(OUT, exist_ok=True)

    def check_metrics(self, lines, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(
                any(m["name"] in l and l.rstrip().endswith(" " + m["unit"])
                    for l in lines[:-1]),
                f"{m['name']} not printed with its unit")

    def test_metrics_printed_and_traced_outputs_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, res = run(w, 0)
                self.assertEqual(code, 0, lines)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.check_metrics(lines, res, self.spec["end_to_end"])
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)
                code, lines, traced = run(w, 1)
                self.assertEqual(code, 0, lines)
                self.check_metrics(lines, traced, self.spec["per_layer"])
                self.assertEqual(raw(w, 0)["sim"], raw(w, 1)["sim"])
                self.assertTrue(os.path.isfile(os.path.join(
                    OUT, f"{w}-seed{SEED}-trace1.trace.json")))

    def test_wrong_reference_fails_every_operation(self):
        bad = os.path.join(OUT, "wrong-refs.txt")
        with open(REFS) as f, open(bad, "w") as g:
            for line in f:
                w, slot, key, value = line.split()
                if w.endswith("@tiny") and key not in INPUT_KEYS:
                    value = "0" * len(value)
                g.write(f"{w} {slot} {key} {value}\n")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, res = run(w, 0, refs=bad)
                self.assertNotEqual(code, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertTrue(any(l.split()[1:3] == ["fail_frac", "1.000000"]
                                    for l in lines[:-1]), lines)


if __name__ == "__main__":
    unittest.main(verbosity=2)
