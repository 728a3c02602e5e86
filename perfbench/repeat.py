#!/usr/bin/env python3
"""Repeats benchmark runs over several seeds and reports their spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--seconds S]

For every workload it runs perfbench/run.py once per seed and prints, per
metric, the median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json and a third of it. It also checks that
the exact per-query counts the benchmark prints ("counts protocol=..."
lines: Paillier ops and C1<->C2 frames) are identical across all runs and
seeds of a workload. Exits nonzero when a run fails or a count differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        counts = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", seconds,
                 "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                if line.startswith("counts "):
                    protocol, rest = line[len("counts "):].split(" ", 1)
                    counts.setdefault(protocol, set()).add(rest)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items() if n in bounds)),
                flush=True)
        for protocol, seen in sorted(counts.items()):
            same = len(seen) == 1
            ok &= same
            print("%s %s counts %s: %s" % (workload, protocol,
                                           "identical" if same else "DIFFER",
                                           " | ".join(sorted(seen))))
        print("%-14s %-22s %12s %8s %8s %8s" % ("workload", "metric", "median",
                                                 "spread", "bound", "bound/3"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print("%-14s %-22s %12.6g %8.4f %8s %8s" % (
                workload, name, median, spread,
                "-" if bound is None else "%.3f" % bound,
                "-" if bound is None else "%.3f" % (bound / 3)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
