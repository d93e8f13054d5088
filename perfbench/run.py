#!/usr/bin/env python3
"""Layered host-time benchmark of the HyperTP simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-64k --seed 3 --seconds 15 --trace 0

Builds perfbench/perfbench.exe with dune, runs the workload in its own
process, checks its simulated outputs against perfbench/refs.txt and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (plus a Chrome trace file).

Exits 0 only when every output matched its reference.  Results and
traces are written under --out-dir (default .perfbench/); nothing else
in the checkout is written apart from dune's _build/.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("host-transplant", "fleet-64k", "fleet-1m", "cve-stream",
             "controlplane")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the self-test size")
    p.add_argument("--refs", default=os.path.join("perfbench", "refs.txt"),
                   help="stored reference outputs")
    p.add_argument("--out-dir", default=".perfbench")
    return p.parse_args(argv)


def build():
    """Build the benchmark program from the checkout's sources."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a HyperTP checkout (no dune-project/lib here)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, check=False)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def declared():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return spec["end_to_end"], spec["per_layer"]


def run_workload(args):
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(args.out_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--refs", args.refs, "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} exited {r.returncode} without a result")
    return r.returncode, result


def main(argv):
    args = parse_args(argv)
    end_to_end, per_layer = declared()
    build()
    code, res = run_workload(args)
    got = res["layers"] if args.trace else res["e2e"]
    metrics = {}
    for spec in (per_layer if args.trace else end_to_end):
        name = spec["name"]
        if name in got:
            metrics[name] = got[name]
        elif args.trace:
            # A layer this workload never enters: nothing was counted or
            # timed there.
            metrics[name] = {"value": 0, "unit": spec["unit"]}
        else:
            fail(f"{args.workload} did not report {name}")
        if metrics[name]["unit"] != spec["unit"]:
            fail(f"{name}: unit {metrics[name]['unit']} but "
                 f"BENCHMARK.json says {spec['unit']}")
    attempted, failed = res["attempted"], res["failed"]
    correct = code == 0 and failed == 0 and attempted >= 1
    for name, m in list(metrics.items()) + list(res["sim"].items()):
        print(f"{args.workload:16} {name:40} {m['value']:>20.6f} {m['unit']}")
    print(f"{args.workload:16} {'fail_frac':40} "
          f"{failed / max(attempted, 1):>20.6f} failed/attempted")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
