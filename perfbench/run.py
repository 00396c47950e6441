#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see WORKLOADS.md).

One measurement:
    python3 perfbench/run.py --workload paper_mar --seed 1 --seconds 45 --trace 0

Every workload, end-to-end metrics printed as a table:
    python3 perfbench/run.py --all [--seed 1] [--seconds 45]

Run from the repository root. The engine is built from the checkout's
sources (Release, fault-injection sites compiled out) into
.bench_build/ (or $CARGO_TARGET_DIR), the benchmark's self-tests run,
and then the measurement. The last line of standard output is the
result JSON; build output goes to standard error. Exits non-zero when
the build, a self-test, or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_mar", "serve_open_loop")
# A run measures for about --seconds (plus one pass of paper_mar, the
# traced run's reference runs, and set-up); anything past this is a hang.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no engine sources next to the benchmark (expected %s)"
             % os.path.join(ROOT, "src"))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)
    run_checked([os.path.join(out, "perfbench_selftest")], 60)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(out, workload, seed, seconds, trace, capture):
    work_dir = os.path.join(out, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir,
           "--commit", git_commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, stdout


def run_all(out, seed, seconds):
    results = {}
    status = 0
    for workload in WORKLOADS:
        code, stdout = measure(out, workload, seed, seconds, 0, capture=True)
        lines = stdout.decode().strip().splitlines()
        if code != 0 or not lines:
            print("perfbench: %s failed (exit %d)" % (workload, code),
                  file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    names = []
    for result in results.values():
        for name in result["metrics"]:
            if name not in names:
                names.append(name)
    header = "%-16s" % "metric" + "".join("%18s" % w for w in results)
    print(header)
    for name in names:
        row = "%-16s" % name
        unit = ""
        for result in results.values():
            metric = result["metrics"][name]
            unit = metric["unit"]
            row += "%18.6g" % metric["value"]
        print(row + "  " + unit)
    for workload, result in results.items():
        if not result["correct"]:
            status = 1
        print("%s: correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"],
            result["failed"]))
    summary = os.path.join(out, "results.json")
    with open(summary, "w") as f:
        json.dump(results, f, indent=2)
    print("results written to " + os.path.relpath(summary, ROOT))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        fail("give exactly one of --workload or --all")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")
    out = build_dir()
    build(out)
    if args.all:
        return run_all(out, args.seed, args.seconds)
    code, _ = measure(out, args.workload, args.seed, args.seconds,
                      args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
