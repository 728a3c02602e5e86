#!/usr/bin/env python3
"""The benchmark's own test: runs smoke mode and checks its output.

    python3 perfbench/smoke_test.py

Smoke mode runs every workload's code path, untraced and traced, at 256-bit
keys and tiny n (its numbers are not evidence). This test checks that each
run answered every query correctly and emitted exactly the metric names and
units BENCHMARK.json declares: the end-to-end set untraced, the per-layer
set traced. Exits nonzero on any difference.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PREFIX = "smoke (256-bit keys, tiny n: NOT evidence) "


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = {w["name"] for w in spec["workloads"]} | {"serve_mix"}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    seen = set()
    problems = []
    for line in proc.stdout.splitlines():
        if not line.startswith(PREFIX):
            continue
        workload, trace, payload = line[len(PREFIX):].split(" ", 2)
        trace = trace[len("trace="):]
        result = json.loads(payload)
        seen.add((workload, trace))
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want[trace]:
            problems.append("%s trace=%s: metric names/units differ: missing "
                            "%s, extra %s" % (workload, trace,
                                              sorted(set(want[trace]) - set(got)),
                                              sorted(set(got) - set(want[trace]))))
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append("%s trace=%s: correct=%s attempted=%s failed=%s" % (
                workload, trace, result["correct"], result["attempted"],
                result["failed"]))
    for workload in sorted(workloads):
        for trace in ("0", "1"):
            if (workload, trace) not in seen:
                problems.append("%s trace=%s: no smoke result" % (workload,
                                                                   trace))
    if proc.returncode != 0:
        problems.append("smoke run exited %d" % proc.returncode)
    for p in problems:
        print("FAIL: " + p)
    if not problems:
        print("smoke test OK: %d runs, every metric named with its unit"
              % len(seen))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
