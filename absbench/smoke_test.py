#!/usr/bin/env python3
"""Smoke pass over every workload of the benchmark.

    python3 absbench/smoke_test.py [--seconds 2]

Runs absbench/run.py once untraced and once traced on every workload it
runs (the ones BENCHMARK.json gates, and dense-tts) with a short measuring
window, and checks that the run exits 0, that every metric BENCHMARK.json
declares is printed by name with its declared unit, and that the last line
is the result object with exactly the keys correct, attempted, failed and
metrics. Run it from the repository root.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402


def check_run(workload, trace, seconds, declared):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}: {run.stderr[-500:]}")
        return problems
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append("run not correct or attempted nothing")
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.split()[-1]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        entry = result["metrics"].get(name)
        if entry is None or entry.get("unit") != unit:
            problems.append(f"{name}: missing or wrong unit in result")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
        if printed.get(name) != unit:
            problems.append(f"{name}: not printed with unit {unit}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    failures = 0
    for workload in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            problems = check_run(workload, trace, args.seconds, declared)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
