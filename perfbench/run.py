#!/usr/bin/env python3
"""Builds and runs the served-query benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke          # 256-bit keys, tiny n: NOT evidence
    python3 perfbench/run.py --paper-point    # Fig. 2(a) SkNN_b point, once

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench
when that is set), then run; its output is passed through. The last stdout
line of a workload run is the JSON result, and this script checks that it
names exactly the metrics BENCHMARK.json declares for the mode, with their
units. The exit code is nonzero when the build fails, when an answer differs
from the plaintext oracle, or when the result is malformed.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, wrong unit %s" % (missing, extra, wrong))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if result["correct"] is not True:
        problems.append("answers were not all correct")
    return problems


def main(argv):
    if not build():
        return 1
    binary = os.path.join(build_dir(), "sknn_perfbench")
    args = list(argv)
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    workload_run = "--workload" in args
    if workload_run and "--trace-out" not in args:
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%s.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not workload_run:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    problems = check_result(lines[-1], trace)
    if proc.returncode != 0 or problems:
        # Keep the result line off the last line of stdout: this run does
        # not count.
        sys.stdout.write(proc.stdout)
        print("perfbench: exit %d; %s" % (proc.returncode, "; ".join(problems)),
              file=sys.stderr)
        print("perfbench: run rejected")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
