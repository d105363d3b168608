#!/usr/bin/env python3
"""Builds the rtbench driver from source and runs one workload.

    python3 rtbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rtbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/rtbench (Release);
build output goes to stderr, so the last line of stdout is the driver's JSON
result. --self-test runs every workload briefly, untraced and traced: those
in BENCHMARK.json and local_hot, which is run by hand and not gated
(README.md). It checks that each result is correct and carries exactly the
metrics BENCHMARK.json names, with their units.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtbench")
BINARY = os.path.join(BUILD, "rtbench")
RUN_TIMEOUT_S = 175
UNGATED_WORKLOADS = ["local_hot"]


def build():
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", "rtbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("rtbench: build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace):
    """Runs the driver; returns (exit code, stdout). Exits on a timeout."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans",
                os.path.join(BUILD, f"spans-{workload}-{seed}.tsv")]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"rtbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return out.returncode, out.stdout


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    workloads = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    for workload in workloads:
        for trace in (0, 1):
            code, stdout = run_driver(workload, 1, 2, trace)
            where = f"{workload} trace {trace}"
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no JSON result line")
                continue
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{where}: correctness checks failed")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not (isinstance(result.get("attempted"), int)
                    and result["attempted"] >= 1
                    and isinstance(result.get("failed"), int)):
                problems.append(f"{where}: bad attempted/failed")
            got = result.get("metrics", {})
            if set(got) != set(expected[trace]):
                problems.append(
                    f"{where}: missing {sorted(set(expected[trace]) - set(got))}"
                    f", unexpected {sorted(set(got) - set(expected[trace]))}")
            for name, m in got.items():
                value = m.get("value")
                if m.get("unit") != expected[trace].get(name):
                    problems.append(f"{where}: {name} has unit {m.get('unit')}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
            print(f"self-test {where}: {len(got)} metrics, "
                  f"attempted {result.get('attempted')}", file=sys.stderr)
    for p in problems:
        print("self-test FAILED: " + p, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    code, stdout = run_driver(args.workload, args.seed, args.seconds,
                              args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
