#!/usr/bin/env python3
"""Work counters of one traced perfbench pass, and a gate on them.

  tools/work_counters.py check  [--golden FILE]
  tools/work_counters.py record [--golden FILE]
  tools/work_counters.py diff BASE.json NEW.json

The work counters are the traced figures a change that makes the same
work cheaper must keep: join.*, adaptive.steps.*, adaptive.transitions,
adaptive.catchup_tuples and exec.parallel.epochs. They count work, not
time, so one pass gives the same values on any host.

`check` runs one traced pass of this checkout (perfbench/run.py
--workload paper_mar --seed 1 --seconds 5 --trace 1) and compares its
counters with the golden (default: tools/work_counters_paper_mar.json).
It prints every counter of both sides and exits non-zero on any
difference, on a counter only one side has, or on a wrong answer.
`record` runs the same pass and rewrites the golden: a change that
alters the work on purpose does so and says why in CHANGES.md.
`diff` compares the counters of two perfbench result files (the last
line of each is the result), as tools/bench_pairs.sh --counters does.
"""

import argparse
import json
import os
import re
import subprocess
import sys

COUNTERS = re.compile(r"join\..*|adaptive\.steps\..*|adaptive\.transitions"
                      r"|adaptive\.catchup_tuples|exec\.parallel\.epochs")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tools", "work_counters_paper_mar.json")
WORKLOAD = "paper_mar"
SEED = 1


def counters_of(result, name):
    """The work counters of one perfbench result; exits on a wrong answer."""
    if not result.get("correct", False):
        sys.exit("work_counters: %s gave a wrong answer" % name)
    return {metric: value["value"]
            for metric, value in result["metrics"].items()
            if COUNTERS.fullmatch(metric)}


def load_result(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        sys.exit("work_counters: %s holds no result" % path)
    return json.loads(lines[-1])


def traced_pass():
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", WORKLOAD, "--seed", str(SEED), "--seconds", "5",
           "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("work_counters: traced pass failed (exit %d)"
                 % done.returncode)
    return json.loads(lines[-1])


def compare(base, new, base_name, new_name):
    """Prints both sides' counters; returns the number that differ."""
    names = sorted(set(base) | set(new))
    print("%-36s %18s %18s" % ("counter", base_name, new_name))
    differ = 0
    for name in names:
        b = base.get(name)
        n = new.get(name)
        same = b == n
        differ += not same
        print("%-36s %18s %18s  %s"
              % (name, b, n, "same" if same else "DIFFERS"))
    print("%d of %d counters differ" % (differ, len(names)))
    return differ if names else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("check", "record"):
        p = sub.add_parser(command)
        p.add_argument("--golden", default=GOLDEN)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()

    if args.command == "diff":
        base = counters_of(load_result(args.base), "base")
        new = counters_of(load_result(args.new), "new")
        return 1 if compare(base, new, "base", "new") else 0

    counters = counters_of(traced_pass(), "this checkout")
    if args.command == "record":
        with open(args.golden, "w") as f:
            json.dump({"workload": WORKLOAD, "seed": SEED,
                       "counters": counters}, f, indent=2, sort_keys=True)
            f.write("\n")
        print("work_counters: %d counters written to %s"
              % (len(counters), os.path.relpath(args.golden, ROOT)))
        return 0
    with open(args.golden) as f:
        golden = json.load(f)
    if (golden.get("workload"), golden.get("seed")) != (WORKLOAD, SEED):
        sys.exit("work_counters: %s is not a %s seed %d golden"
                 % (args.golden, WORKLOAD, SEED))
    return 1 if compare(golden["counters"], counters, "golden",
                        "checkout") else 0


if __name__ == "__main__":
    sys.exit(main())
