#!/usr/bin/env python3
"""Builds the absbench harness from source and runs one workload.

    python3 absbench/run.py --workload dense-tts|sparse-tts|serve-mix \
        --seed N --seconds S --trace 0|1 [--instance-seed K]

Run it from the repository root. The harness and the library are built
with CMake into $CARGO_TARGET_DIR (default .bench_build). The solve
workloads read their pinned target energies from absbench/targets.json.

Output: the run's environment record and one line per metric, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The exit code is 0
on success, 1 when a reported solution did not verify, 2 when the build
or the arguments fail, and 3 when the run itself is invalid.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("dense-tts", "sparse-tts", "serve-mix")
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then builds incrementally; returns the binary."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "absbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "absbench")


def build_type(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit when there is one, else a digest of the sources."""
    # The ceiling keeps git from looking above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        top = os.path.join(ROOT, base)
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as data:
                digest.update(data.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_times():
    """Aggregate (busy, steal) jiffies of the host, when it reports them."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[0] + fields[1] + fields[2], fields[7]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as spec:
        bench = json.load(spec)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def pinned_target(workload, instance_seed):
    """(target energy, cap seconds) of a solve workload's instance."""
    with open(os.path.join(BENCH_DIR, "targets.json")) as pinned:
        spec = json.load(pinned)["workloads"][workload]
    entry = spec["instances"].get(str(instance_seed))
    if entry is None:
        fail(f"no pinned target for {workload} instance seed {instance_seed}")
    return entry["target_energy"], spec["cap_seconds"]


def main():
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # harness before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=1,
                        help="solve workloads: which pinned instance to run")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.workload != "serve-mix":
        target, cap = pinned_target(args.workload, args.instance_seed)
        command += ["--instance-seed", str(args.instance_seed),
                    "--target", str(target), "--cap", str(cap)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out, f"trace-{args.workload}-seed{args.seed}.json")]

    before = cpu_times()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 3)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"harness exited with {run.returncode}", 3)
    report = json.loads(lines[-1])

    env = dict(report.get("env", {}))
    after = cpu_times()
    if before and after:
        # CPU time the hypervisor gave to other guests while this run
        # wanted it: a noisy host shows here first.
        busy, steal = (a - b for a, b in zip(after, before))
        env["cpu_steal_frac"] = round(steal / max(1, busy + steal), 4)
    env.update(nproc=os.cpu_count(), build_type=build_type(out),
               commit=commit(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))

    metrics = report["metrics"]
    wanted = declared_metrics(args.trace)
    if wanted is not None:
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail(f"harness did not report {', '.join(missing)}", 3)
        metrics = {name: metrics[name] for name in wanted}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        failed, attempted = report["failed"], report["attempted"]
        print(f"metric fail_frac = {failed / max(1, attempted):.6g} fraction")

    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
